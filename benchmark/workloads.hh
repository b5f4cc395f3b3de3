/**
 * @file
 * The benchmark's workloads (README.md says why each was chosen).
 *
 * Each runs its set-up several times, a reference or warm-up, a timed
 * window of --seconds and its correctness checks, recording into
 * @p report.
 * With a non-null @p tracer the run is a traced run instead: a couple
 * of untraced repetitions, then the same operations broken into
 * per-layer spans, and per-layer metrics in place of end-to-end ones.
 */

#ifndef GRAPHR_BENCHMARK_WORKLOADS_HH
#define GRAPHR_BENCHMARK_WORKLOADS_HH

#include "harness.hh"
#include "trace.hh"

namespace graphr::bench
{

void runColdSweep(const Options &opts, Report &report, Tracer *tracer);
void runWarmSweep(const Options &opts, Report &report, Tracer *tracer);
void runFunctional(const Options &opts, Report &report, Tracer *tracer);
void runServeMix(const Options &opts, Report &report, Tracer *tracer);

/**
 * The service and net layer metrics for a workload that runs no
 * daemon (the sweeps' traced runs): a traced serve-mix on its smoke
 * inputs, a couple of seconds long. Its failed checks fail @p report.
 */
void probeServeLayers(const Options &opts, Report &report);

} // namespace graphr::bench

#endif // GRAPHR_BENCHMARK_WORKLOADS_HH
