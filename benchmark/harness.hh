/**
 * @file
 * Shared pieces of the repository benchmark: options, seeded input
 * derivation, clocks, order statistics, the metric report every
 * workload process prints, and small process/filesystem helpers.
 *
 * The harness times everything itself and keeps its own statistics,
 * so a change to the program's perf layer (src/perf/) cannot change
 * how the benchmark measures. It reads the program's counters only as
 * counts, through perf::Registry::counterValues().
 *
 * Gated timings are CPU time, not wall time (README.md, "Why CPU
 * time"): the host takes a varying share of a shared VM's CPU away,
 * and CPU time leaves that share out. Wall time is still printed.
 */

#ifndef GRAPHR_BENCHMARK_HARNESS_HH
#define GRAPHR_BENCHMARK_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace graphr::bench
{

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** CPU seconds used by every thread of this process so far. */
double processCpuSeconds();

/** CPU seconds used by the calling thread so far. */
double threadCpuSeconds();

/** CPU seconds used by every thread of process @p pid so far. */
double processCpuSeconds(int pid);

/** Command line of one benchmark process. */
struct Options
{
    /** One workload; empty runs every workload, each in a child. */
    std::string workload;
    std::uint64_t seed = 1;
    /** Length of the timed window (run_seconds in BENCHMARK.json). */
    double seconds = 12.0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** Where a traced run writes its Chrome trace-event file. */
    std::string traceDir;
    /** Tiny inputs and windows: checks the harness in seconds. */
    bool smoke = false;
    /** Whole-benchmark repetitions (orchestrator mode only). */
    unsigned sets = 1;
    /** Scratch space (plan stores, daemon logs) of this process. */
    std::string workDir;
    /**
     * Child of a sweep run: one rep in the parent's work directory,
     * printing its digest and peak RSS (see sweeps.cc).
     */
    bool memoryRep = false;
};

/**
 * Run this benchmark binary again with @p args, @p env ("NAME=value",
 * or empty) added to its environment, and stdout captured; stderr is
 * shared. Waits for it; @p exit_ok reports a zero exit code.
 */
std::string runSelf(const std::vector<std::string> &args,
                    const std::string &env, bool *exit_ok);

/** Independent input stream @p stream of the run seed (splitmix64). */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream);

/** splitmix64 generator: the benchmark's only randomness. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    /** Uniform in [0, 1). */
    double uniform();
    /** Uniform in [0, n). */
    std::uint64_t below(std::uint64_t n) { return next() % n; }

  private:
    std::uint64_t state_;
};

/** Generated R-MAT dataset spec with an explicit seed. */
std::string rmatSpec(std::uint64_t vertices, std::uint64_t edges,
                     std::uint64_t seed);

/**
 * Quantile by linear interpolation between order statistics
 * (q in [0, 1]); 0 for an empty set.
 */
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
/** Distance between the first and third quartile. */
double iqr(std::vector<double> values);

/** One reported metric: a median with its spread and sample count. */
struct Metric
{
    std::string name;
    double value = 0.0;
    double iqr = 0.0;
    std::size_t n = 0;
};

/** What one workload process measured and checked. */
class Report
{
  public:
    /** Report the median of @p samples, with their IQR and count. */
    void sampled(const std::string &name,
                 const std::vector<double> &samples);
    /** Report one value derived from @p n samples. */
    void value(const std::string &name, double v, std::size_t n = 1);

    /** A reported metric; all zero when @p name was not reported. */
    Metric metric(const std::string &name) const;

    /**
     * A value printed as a metric line only, outside the result
     * object: wall-clock views of what the gated metrics time in CPU.
     */
    void info(const std::string &name, const std::string &unit, double v,
              std::size_t n);

    /** Record a correctness check; a failure makes the run incorrect. */
    bool check(bool ok, const std::string &what);

    /** Count one attempted operation (a sweep or a request). */
    void attempt(bool ok);

    bool correct() const { return failures_.empty() && failed_ == 0; }
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::vector<std::string> &failures() const { return failures_; }

    /**
     * Print one `name workload value unit n=<samples> iqr=<x>` line
     * per metric of @p names (in that order; a metric the workload
     * did not produce prints as 0) and per info value, then the
     * result object, with the @p names metrics only, as the last line
     * of @p out.
     */
    void print(std::ostream &out, const std::string &workload,
               const std::vector<std::pair<std::string, std::string>>
                   &names) const;

  private:
    std::map<std::string, Metric> metrics_;
    /** Info values with their units, in the order reported. */
    std::vector<std::pair<Metric, std::string>> info_;
    std::vector<std::string> failures_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** Peak resident set (VmHWM) of @p pid (0 = this process) in MiB. */
double peakRssMb(int pid = 0);

/**
 * Restart the peak-RSS count of @p pid (0 = this process) at its
 * current resident set, so a later peakRssMb() covers only what ran
 * since — the measured work, not set-up.
 */
void resetPeakRss(int pid = 0);

/** The program's counters (perf::Registry), read as counts. */
using Counts = std::map<std::string, std::uint64_t>;
Counts counts();
/** after[name] - before[name] (a counter absent reads as 0). */
double countDelta(const Counts &before, const Counts &after,
                  const std::string &name);

/** FNV-1a digest of @p bytes as 16 hex digits. */
std::string digest(std::string_view bytes);

/** Remove @p path and recreate it empty. */
void freshDir(const std::string &path);

/** Drop the process-wide memory caches (PlanCache, golden cache). */
void dropMemoryCaches();

} // namespace graphr::bench

#endif // GRAPHR_BENCHMARK_HARNESS_HH
