/**
 * @file
 * Top-level workload driver: one entry point for any
 * algorithm x backend x dataset combination.
 *
 * runOne() executes a single combination; runSweep() cross-products
 * name lists (the "all" wildcard expands to the full registry) and
 * collects the unified results, which serialise to JSON or the text
 * table/matrix formats (run_result.hh). The graphr_run CLI is a thin
 * shell over these two calls, and benches/examples can use them
 * instead of hand-wiring graph -> config -> backend -> report.
 */

#ifndef GRAPHR_DRIVER_DRIVER_HH
#define GRAPHR_DRIVER_DRIVER_HH

#include <ostream>
#include <string>
#include <vector>

#include "driver/backend.hh"
#include "driver/dataset.hh"
#include "store/plan_store.hh"

namespace graphr::driver
{

/** One fully named run. */
struct RunSpec
{
    std::string workload = "pagerank";
    std::string backend = "graphr";
    std::string dataset = "rmat:vertices=1024,edges=8192";
    /** Workload key=value parameters (workload.hh). */
    ParamMap params;
    /** Scale divisor for Table-3 datasets. */
    double scale = 1.0;
    /** Generator seed for table/generator datasets. */
    std::uint64_t seed = 42;
    BackendOptions backendOptions;
    /** Durable plan store (--plan-dir); empty planDir = none. */
    StoreSpec store;
};

/** Execute one combination. Throws DriverError on bad names/params. */
RunResult runOne(const RunSpec &spec);

/** A cross-product of runs. */
struct SweepSpec
{
    /** Registry names; "all" anywhere expands to the whole registry. */
    std::vector<std::string> workloads = {"all"};
    std::vector<std::string> backends = {"all"};
    /** Dataset specs (dataset.hh); resolved once each. */
    std::vector<std::string> datasets;
    ParamMap params;
    double scale = 1.0;
    std::uint64_t seed = 42;
    BackendOptions backendOptions;
    /**
     * Worker threads executing the cross product (1 = serial,
     * 0 = hardware concurrency). Results are merged back in spec
     * order, so the output is byte-identical at any job count; every
     * run seeds its own RNGs, so results are independent of the
     * execution schedule.
     */
    std::uint32_t jobs = 1;
    /**
     * Durable plan store (--plan-dir): with a non-empty planDir every
     * backend's preprocessing goes through the on-disk second level
     * of PlanCache — cold runs write artifacts through, warm runs
     * skip the edge sort. Empty = in-memory caching only.
     */
    StoreSpec store;
};

/**
 * Run the full cross product, dataset-major, through forEachIndex():
 * at one job on the calling thread, where the first failure ends the
 * sweep, and otherwise on a pool that rethrows the first failure in
 * spec order. When `progress` is non-null a one-line status is
 * streamed per run (written atomically, so parallel runs never
 * interleave mid-line). Datasets resolve through @p datasets when
 * given (graphr_serve's resident datasets), otherwise for this sweep
 * alone.
 */
std::vector<RunResult> runSweep(const SweepSpec &spec,
                                std::ostream *progress = nullptr,
                                DatasetCache *datasets = nullptr);

/** Expand a name list: "all" -> registry, otherwise verify names. */
std::vector<std::string>
expandWorkloadNames(const std::vector<std::string> &names);
std::vector<std::string>
expandBackendNames(const std::vector<std::string> &names);

/**
 * Attach the described store to the process-wide PlanCache (detach
 * when planDir is empty). Called by runOne/runSweep/runPrepare; maps
 * an unusable directory onto DriverError with an actionable message.
 */
void installPlanStore(const StoreSpec &spec);

} // namespace graphr::driver

#endif // GRAPHR_DRIVER_DRIVER_HH
