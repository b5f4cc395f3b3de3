/**
 * @file
 * Registry of representative benchmark scenarios.
 *
 * A suite is a named set of measurements over the real subsystems:
 * driver sweeps across workloads x backends, PlanStore cold-vs-warm
 * prepare, graphr_serve warm/cold request latency, and the crossbar
 * MVM. runSuite() executes one and returns the BenchReport that
 * `graphr_run bench` serialises to BENCH_*.json.
 *
 * Two suites are registered. "small" runs the sweep, store, serve
 * and crossbar scenarios on tiny graphs, sized for CI (seconds, also
 * under sanitizers); it is the suite behind the checked-in
 * BENCH_<n>.json points. "micro" times the MVM on a dense and a
 * sparse crossbar, the functional datapath and the resolve of a
 * first-touch graph. Every dataset in every suite is a generator
 * spec with an explicitly pinned seed, and the harness asserts the
 * graph fingerprint is identical across repetitions — a suite that
 * silently measured a different graph per rep would produce an
 * untrustworthy trajectory.
 */

#ifndef GRAPHR_PERF_SUITE_HH
#define GRAPHR_PERF_SUITE_HH

#include <ostream>
#include <string>
#include <vector>

#include "perf/report.hh"

namespace graphr::perf
{

/** How a suite run is executed. */
struct SuiteOptions
{
    /** Timed repetitions per measurement (>= 1). */
    unsigned reps = 5;
    /** Warmup (cache-filling) repetitions per measurement. */
    unsigned warmups = 1;
    /** Per-measurement progress lines (nullptr = silent). */
    std::ostream *progress = nullptr;
};

/** Registered suite names, in registry order. */
std::vector<std::string> suiteNames();

/** Whether @p name names a registered suite. */
bool isSuiteName(const std::string &name);

/**
 * Run one suite. Throws PerfError on an unknown name (listing the
 * known ones) or a failed suite invariant; anything the measured
 * subsystems throw propagates unchanged.
 */
BenchReport runSuite(const std::string &name,
                     const SuiteOptions &options = {});

} // namespace graphr::perf

#endif // GRAPHR_PERF_SUITE_HH
