#include "prepare.hh"

#include <memory>
#include <mutex>
#include <sstream>
#include <utility>

#include "common/table.hh"
#include "common/thread_pool.hh"
#include "driver/dataset.hh"
#include "driver/driver.hh"
#include "graphr/engine/plan_cache.hh"
#include "graphr/engine/tile_plan.hh"

namespace graphr::driver
{

namespace
{

/**
 * Prepare one graph variant directly against the store: a valid
 * artifact is reused, otherwise the plan is built (the edge sort)
 * and persisted. @p graph is a CooGraph, or for the symmetrised
 * variant its SymmetrizedView, whose plan is sorted from the graph
 * itself. Deliberately bypasses the in-memory PlanCache
 * so `prepare` always leaves a durable artifact behind, even when
 * this process has the plan memoised already.
 */
template <typename Graph>
PrepareResult
prepareVariant(const PlanStore &store, const std::string &dataset,
               const std::string &variant, const Graph &graph,
               const TilingParams &tiling)
{
    PrepareResult result;
    result.dataset = dataset;
    result.variant = variant;
    result.fingerprint = graph.fingerprint();
    if (TilePlanPtr loaded = store.load(result.fingerprint, tiling)) {
        result.reused = true;
        result.edges = loaded->ordered.edges().size();
        result.tiles = loaded->ordered.tiles().size();
    } else {
        const auto plan = std::make_shared<const TilePlan>(graph, tiling);
        store.save(*plan, tiling);
        result.edges = plan->ordered.edges().size();
        result.tiles = plan->ordered.tiles().size();
    }
    result.file = PlanStore::fileName(result.fingerprint, tiling);
    return result;
}

void
announcePrepare(std::ostream *progress, std::mutex &progress_mutex,
                const std::string &dataset)
{
    if (progress == nullptr)
        return;
    std::ostringstream line;
    line << "preparing " << dataset << " ...\n";
    const std::lock_guard<std::mutex> lock(progress_mutex);
    *progress << line.str() << std::flush;
}

} // namespace

std::vector<PrepareResult>
runPrepare(const PrepareSpec &spec, std::ostream *progress,
           DatasetCache *datasets)
{
    if (spec.datasets.empty())
        throw DriverError("prepare needs at least one --dataset");
    if (spec.store.planDir.empty())
        throw DriverError("prepare needs --plan-dir <directory> to "
                          "write artifacts into");

    // Open the store once, with the driver-level error mapping (an
    // unusable directory reports as a user error, not a crash), and
    // leave it attached so follow-up runs in this process benefit.
    // Under a request-scoped override (tenant namespaces) the install
    // is a no-op and the override's store is the one to fill.
    installPlanStore(spec.store);
    const std::shared_ptr<PlanStore> store =
        PlanCache::instance().effectiveStore();

    const std::size_t variants = spec.symmetrized ? 2 : 1;
    std::vector<PrepareResult> results(spec.datasets.size() * variants);
    std::mutex progress_mutex;
    forEachIndex(spec.datasets.size(), spec.jobs, [&](std::size_t d) {
        const DatasetPtr dataset =
            resolveShared(spec.datasets[d], spec.scale, spec.seed, datasets);
        announcePrepare(progress, progress_mutex, dataset->name);
        results[d * variants] = prepareVariant(
            *store, dataset->name, "plain", dataset->graph, spec.tiling);
        if (spec.symmetrized) {
            results[d * variants + 1] =
                prepareVariant(*store, dataset->name, "symmetrized",
                               SymmetrizedView(dataset->graph),
                               spec.tiling);
        }
    });
    return results;
}

std::string
storeStatsText(const StoreSpec &spec)
{
    if (spec.planDir.empty())
        throw DriverError("store stats needs --plan-dir <directory>");
    std::unique_ptr<PlanStore> store;
    try {
        store = std::make_unique<PlanStore>(spec.planDir,
                                            PlanStore::Mode::kReadOnly);
    } catch (const StoreError &err) {
        throw DriverError(std::string("cannot use --plan-dir: ") +
                          err.what());
    }

    const std::vector<PlanArtifactInfo> artifacts = store->list();
    std::ostringstream os;
    os << "plan store " << store->directory() << ": "
       << artifacts.size() << " artifact"
       << (artifacts.size() == 1 ? "" : "s") << "\n";
    if (artifacts.empty())
        return os.str();

    os << "\n";
    TextTable table;
    table.header({"file", "vertices", "edges", "tiles", "tiling",
                  "v", "KiB", "payloadKiB", "B/edge", "status"});
    for (const PlanArtifactInfo &a : artifacts) {
        std::ostringstream tiling;
        tiling << "C" << a.tiling.crossbarDim << " N"
               << a.tiling.crossbarsPerGe << " G" << a.tiling.numGe
               << " B" << a.tiling.blockSize;
        // Payload bytes per edge: the compression-ratio column (an
        // uncompressed edge record would take 16 bytes).
        const std::string per_edge =
            a.edges == 0 ? "-"
                         : TextTable::num(
                               static_cast<double>(a.payloadBytes) /
                                   static_cast<double>(a.edges),
                               2);
        table.row({a.file, std::to_string(a.vertices),
                   std::to_string(a.edges), std::to_string(a.tiles),
                   tiling.str(),
                   a.version == 0 ? "?" : std::to_string(a.version),
                   TextTable::num(static_cast<double>(a.bytes) / 1024.0,
                                  1),
                   TextTable::num(
                       static_cast<double>(a.payloadBytes) / 1024.0, 1),
                   per_edge,
                   a.valid ? "ok" : "corrupt: " + a.issue});
    }
    table.print(os);
    return os.str();
}

} // namespace graphr::driver
