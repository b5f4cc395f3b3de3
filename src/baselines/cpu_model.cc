#include "cpu_model.hh"

#include "algorithms/traversal.hh"
#include "algorithms/wcc.hh"
#include "common/logging.hh"

namespace graphr
{

namespace
{

/** Synthetic address map: disjoint regions per data structure. */
constexpr std::uint64_t kSrcPropBase = 0;
constexpr std::uint64_t kDstPropBase = 1ull << 40;
constexpr std::uint64_t kEdgeBase = 1ull << 41;
constexpr std::uint64_t kFactorBase = 1ull << 42;
constexpr std::uint32_t kPropBytes = 8;
constexpr std::uint32_t kEdgeBytes = 12;

} // namespace

CpuModel::CpuModel(CpuParams params) : params_(params)
{
    GRAPHR_ASSERT(params_.effectiveParallelism >= 1.0,
                  "parallelism must be >= 1");
}

double
CpuModel::cyclesToSeconds(double cycles) const
{
    return cycles / (params_.frequencyGhz * 1e9) /
           params_.effectiveParallelism;
}

void
CpuModel::finalize(BaselineReport &report, double seconds,
                   const CacheStats &stats) const
{
    report.seconds = seconds;
    report.dramAccesses = stats.dramAccesses;
    const double dram_j = static_cast<double>(stats.dramAccesses) *
                          params_.cache.dramEnergyPjPerLine * 1e-12;
    report.joules = params_.packageWatts * seconds + dram_j;
}

double
CpuModel::edgeSweepCycles(const CooGraph &graph, CacheHierarchy &cache,
                          BaselineReport &report)
{
    double cycles = 0.0;
    std::uint64_t edge_cursor = kEdgeBase;
    for (const Edge &e : graph.edges()) {
        // Sequential edge stream (GridGraph reads blocks in order).
        cycles += cache.access(edge_cursor);
        edge_cursor += kEdgeBytes;
        // Random source read and destination update (paper Fig. 2b).
        cycles += cache.access(kSrcPropBase +
                               static_cast<std::uint64_t>(e.src) *
                                   kPropBytes);
        cycles += cache.access(kDstPropBase +
                               static_cast<std::uint64_t>(e.dst) *
                                   kPropBytes);
        cycles += params_.cyclesPerEdge;
    }
    report.edgesProcessed += graph.numEdges();
    report.sequentialBytes +=
        graph.numEdges() * static_cast<std::uint64_t>(kEdgeBytes);
    report.randomAccesses += 2 * graph.numEdges();
    return cycles;
}

BaselineReport
CpuModel::runPageRank(const CooGraph &graph, std::uint64_t iterations)
{
    BaselineReport report;
    report.platform = "cpu";
    report.algorithm = "pagerank";
    report.iterations = iterations;

    CacheHierarchy cache(params_.cache);
    // Replay one sweep; iterations have identical footprints, so the
    // steady-state sweep cost is multiplied (keeps big runs cheap).
    BaselineReport sweep_counts;
    const double sweep_cycles =
        edgeSweepCycles(graph, cache, sweep_counts) +
        static_cast<double>(graph.numVertices()) * params_.cyclesPerVertex;

    const double it = static_cast<double>(iterations);
    report.edgesProcessed = sweep_counts.edgesProcessed * iterations;
    report.sequentialBytes = sweep_counts.sequentialBytes * iterations;
    report.randomAccesses = sweep_counts.randomAccesses * iterations;

    CacheStats stats = cache.stats();
    stats.dramAccesses = static_cast<std::uint64_t>(
        static_cast<double>(stats.dramAccesses) * it);
    const double seconds =
        cyclesToSeconds(sweep_cycles * it) +
        it * params_.iterationOverheadUs * 1e-6;
    finalize(report, seconds, stats);
    return report;
}

BaselineReport
CpuModel::runSpmv(const CooGraph &graph)
{
    BaselineReport report = runPageRank(graph, 1);
    report.algorithm = "spmv";
    return report;
}

namespace
{

/**
 * Shared relaxation trace replay (BFS/SSSP/WCC).
 *
 * GridGraph is an edge-streaming system: an iteration streams whole
 * edge blocks and skips a block only when its entire source chunk is
 * inactive (2-level selective scheduling). It cannot traverse a
 * per-vertex frontier the way Gunrock does, so inactive-source edges
 * inside an active chunk still cost their stream bytes plus a bitmap
 * check.
 */
BaselineReport
relaxationTrace(const CooGraph &graph, RelaxationSweep &sweep,
                const char *name, const CpuParams &params)
{
    BaselineReport report;
    report.platform = "cpu";
    report.algorithm = name;

    const std::span<const EdgeId> offsets = sweep.offsets();
    CacheHierarchy cache(params.cache);

    // GridGraph-style P x P grid: P chosen so a vertex chunk is
    // cache-resident; chunk = source range of one block row.
    const VertexId chunk = std::max<VertexId>(
        4096, graph.numVertices() / params.gridP);

    double cycles = 0.0;
    while (!sweep.done()) {
        const std::vector<bool> &active = sweep.active();
        for (VertexId base = 0; base < graph.numVertices();
             base += chunk) {
            const VertexId end =
                std::min<VertexId>(base + chunk, graph.numVertices());
            bool chunk_active = false;
            for (VertexId u = base; u < end && !chunk_active; ++u)
                chunk_active = active[u];
            if (!chunk_active)
                continue; // whole block skipped by the scheduler

            for (VertexId u = base; u < end; ++u) {
                const EdgeId first = offsets[u];
                const EdgeId last = offsets[u + 1];
                const bool is_active = active[u];
                for (EdgeId idx = first; idx < last; ++idx) {
                    // Edge block streams sequentially regardless of
                    // per-source activity.
                    cycles += cache.access(kEdgeBase + idx * kEdgeBytes);
                    if (is_active) {
                        cycles += cache.access(
                            kSrcPropBase +
                            static_cast<std::uint64_t>(u) * kPropBytes);
                        cycles += cache.access(
                            kDstPropBase +
                            static_cast<std::uint64_t>(
                                sweep.neighbor(idx)) *
                                kPropBytes);
                        cycles += params.cyclesPerEdge;
                        report.randomAccesses += 1;
                    } else {
                        cycles += 2.0; // active-bitmap check only
                    }
                    ++report.edgesProcessed;
                }
                report.sequentialBytes +=
                    (last - first) *
                    static_cast<std::uint64_t>(kEdgeBytes);
            }
        }
        cycles += params.iterationOverheadUs * 1e-6 *
                  params.frequencyGhz * 1e9;
        ++report.iterations;
        sweep.step();
    }

    const double seconds =
        cycles / (params.frequencyGhz * 1e9) /
        params.effectiveParallelism;
    report.seconds = seconds;
    report.dramAccesses = cache.stats().dramAccesses;
    const double dram_j = static_cast<double>(cache.stats().dramAccesses) *
                          params.cache.dramEnergyPjPerLine * 1e-12;
    report.joules = params.packageWatts * seconds + dram_j;
    return report;
}

} // namespace

BaselineReport
CpuModel::runBfs(const CooGraph &graph, VertexId source)
{
    RelaxationSweep sweep(graph, source, /*unit_weights=*/true);
    return relaxationTrace(graph, sweep, "bfs", params_);
}

BaselineReport
CpuModel::runSssp(const CooGraph &graph, VertexId source)
{
    RelaxationSweep sweep(graph, source, /*unit_weights=*/false);
    return relaxationTrace(graph, sweep, "sssp", params_);
}

BaselineReport
CpuModel::runWcc(const CooGraph &graph)
{
    const std::shared_ptr<const CooGraph> sym = symmetrized(graph);
    RelaxationSweep sweep = makeWccSweep(*sym);
    return relaxationTrace(*sym, sweep, "wcc", params_);
}

BaselineReport
CpuModel::runCf(const CooGraph &ratings, const CfParams &cf)
{
    BaselineReport report;
    report.platform = "cpu";
    report.algorithm = "cf";
    report.iterations = static_cast<std::uint64_t>(cf.epochs);

    CacheHierarchy cache(params_.cache);
    const std::uint32_t k = static_cast<std::uint32_t>(cf.featureLength);
    const std::uint32_t factor_bytes = k * 8;
    const std::uint32_t lines_per_factor =
        (factor_bytes + params_.cache.l1.lineBytes - 1) /
        params_.cache.l1.lineBytes;

    // One epoch replayed (epochs are identical sweeps).
    double cycles = 0.0;
    std::uint64_t edge_cursor = kEdgeBase;
    for (const Edge &e : ratings.edges()) {
        cycles += cache.access(edge_cursor);
        edge_cursor += kEdgeBytes;
        for (std::uint32_t l = 0; l < lines_per_factor; ++l) {
            cycles += cache.access(
                kSrcPropBase +
                static_cast<std::uint64_t>(e.src) * factor_bytes +
                l * params_.cache.l1.lineBytes);
            cycles += cache.access(
                kFactorBase +
                static_cast<std::uint64_t>(e.dst) * factor_bytes +
                l * params_.cache.l1.lineBytes);
        }
        // 2K MACs for the prediction plus 4K for the two updates.
        cycles += 6.0 * k * params_.cyclesPerMac;
    }

    const double epochs = static_cast<double>(cf.epochs);
    report.edgesProcessed = ratings.numEdges() * cf.epochs;
    report.sequentialBytes =
        ratings.numEdges() * static_cast<std::uint64_t>(kEdgeBytes) *
        cf.epochs;
    report.randomAccesses =
        2ull * lines_per_factor * ratings.numEdges() * cf.epochs;

    CacheStats stats = cache.stats();
    stats.dramAccesses = static_cast<std::uint64_t>(
        static_cast<double>(stats.dramAccesses) * epochs);
    const double seconds = cyclesToSeconds(cycles * epochs);
    finalize(report, seconds, stats);
    return report;
}

} // namespace graphr
