/**
 * @file
 * Offline preprocessing driver: the `graphr_run prepare` and
 * `graphr_run store stats` subcommands.
 *
 * `prepare` performs the paper's offline step ahead of time: resolve
 * each dataset, run the streaming-apply preprocessing, and persist
 * the TilePlan artifacts into a plan store — with more than one job,
 * in parallel across datasets. A later online run (any
 * backend) with the same --plan-dir then starts sort-free. Both the
 * plain and the symmetrised edge set are prepared, because WCC (and
 * the out-of-core selective scheduler) execute on the symmetrised
 * graph. The symmetrised plan is sorted from the graph's own edges
 * read both ways (SymmetrizedView) and stored under symmetrize()'s
 * fingerprint; no copy of the graph is built.
 */

#ifndef GRAPHR_DRIVER_PREPARE_HH
#define GRAPHR_DRIVER_PREPARE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "driver/dataset.hh"
#include "graph/partition.hh"
#include "store/plan_store.hh"

namespace graphr::driver
{

/** What `graphr_run prepare` should preprocess. */
struct PrepareSpec
{
    /** Dataset specs (dataset.hh), each prepared independently. */
    std::vector<std::string> datasets;
    /** Where artifacts go; planDir must be non-empty. */
    StoreSpec store;
    double scale = 1.0;
    std::uint64_t seed = 42;
    /** Parallel workers across datasets (0 = hardware threads). */
    std::uint32_t jobs = 1;
    /** Tiling to prepare for (defaults match GraphRConfig). */
    TilingParams tiling;
    /** Also prepare the symmetrised graph (WCC / selective runs). */
    bool symmetrized = true;
};

/** Outcome of preparing one (dataset, variant). */
struct PrepareResult
{
    std::string dataset;     ///< canonical dataset name
    std::string variant;     ///< "plain" or "symmetrized"
    std::uint64_t fingerprint = 0;
    std::uint64_t edges = 0;
    std::uint64_t tiles = 0;
    bool reused = false; ///< a valid artifact already existed
    std::string file;    ///< artifact file name in the store
};

/**
 * Run the offline preprocessing for every dataset in @p spec,
 * writing artifacts through the plan store. Results come back in
 * spec order regardless of job count; a failure is reported as
 * runSweep() reports one (forEachIndex()). Datasets resolve through
 * @p datasets when given (graphr_serve's resident datasets, so the
 * runs that follow a prepare start resolved). Throws DriverError on
 * bad dataset specs or an unusable store directory.
 */
std::vector<PrepareResult> runPrepare(const PrepareSpec &spec,
                                      std::ostream *progress = nullptr,
                                      DatasetCache *datasets = nullptr);

/** Human-readable listing of every artifact in a store directory. */
std::string storeStatsText(const StoreSpec &store);

} // namespace graphr::driver

#endif // GRAPHR_DRIVER_PREPARE_HH
