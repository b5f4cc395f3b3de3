/**
 * @file
 * Self-contained benchmark harness: a repetition controller over a
 * monotonic clock, plus the order-statistics helpers BENCH reports
 * are built from.
 *
 * No external benchmark library: everything here builds from the
 * repo alone. measure() runs warmup repetitions
 * (uncounted: they fill the plan cache and graph memos so warm-path
 * metrics measure the steady state), then N timed repetitions on
 * std::chrono::steady_clock, and reports min/median/IQR over the
 * per-repetition wall times together with the perf-counter deltas
 * (perf/counters.hh) accumulated across the timed window. The
 * counter deltas are what make CI gating possible: they are
 * deterministic work metrics (sorts performed, cache hits), immune
 * to host noise.
 */

#ifndef GRAPHR_PERF_BENCH_HH
#define GRAPHR_PERF_BENCH_HH

#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace graphr::perf
{

/** Bad suite name, malformed BENCH file, or a failed invariant
 *  (e.g. a dataset fingerprint changing between repetitions). */
class PerfError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Repetition policy for one measurement. */
struct RepOptions
{
    /** Uncounted cache-filling repetitions before timing starts. */
    unsigned warmups = 1;
    /** Timed repetitions (>= 1). */
    unsigned reps = 5;
};

/** What one measured repetition window yields. */
struct RepStats
{
    /** Wall seconds per timed repetition, in execution order. */
    std::vector<double> seconds;
    /**
     * Perf-counter deltas over the whole timed window (counters that
     * did not move are omitted). Divide by seconds.size() for the
     * deterministic per-repetition rate.
     */
    std::map<std::string, std::uint64_t> counterDeltas;

    double min() const;
    double median() const;
    /** Interquartile range (q75 - q25): the robust spread measure. */
    double iqr() const;

    /** Counter delta divided by the repetition count (0 if absent). */
    double perRep(const std::string &counter) const;
};

/** Median of a sample set (empty -> 0). */
double median(std::vector<double> values);

/** Quantile by linear interpolation on a *sorted* sample set. */
double quantileSorted(const std::vector<double> &sorted, double q);

/** Interquartile range of a sample set (empty -> 0). */
double iqr(std::vector<double> values);

/**
 * Run @p fn options.warmups times untimed, then options.reps times
 * timed (steady_clock around each call), snapshotting the counter
 * registry across the timed window. Throws PerfError when reps == 0.
 */
RepStats measure(const RepOptions &options,
                 const std::function<void()> &fn);

/** Defeat dead-code elimination of a benchmark result. */
template <typename T>
inline void
doNotOptimize(const T &value)
{
#if defined(__GNUC__) || defined(__clang__)
    asm volatile("" : : "r,m"(value) : "memory");
#else
    // Fallback: escape through a volatile read.
    const volatile T *sink = &value;
    (void)*sink;
#endif
}

} // namespace graphr::perf

#endif // GRAPHR_PERF_BENCH_HH
