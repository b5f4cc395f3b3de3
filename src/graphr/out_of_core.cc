#include "out_of_core.hh"

#include <algorithm>

#include "common/logging.hh"
#include "graphr/engine/plan_cache.hh"

namespace graphr
{

OutOfCoreRunner::OutOfCoreRunner(const GraphRConfig &config,
                                 const StorageParams &storage)
    : config_(config), storage_(storage)
{
    config_.validate();
    GRAPHR_ASSERT(storage_.seqBandwidthGBs > 0.0,
                  "storage bandwidth must be positive");
}

double
OutOfCoreRunner::streamSeconds(std::uint64_t bytes,
                               std::uint64_t block_switches) const
{
    return static_cast<double>(bytes) /
               (storage_.seqBandwidthGBs * 1e9) +
           static_cast<double>(block_switches) *
               storage_.accessLatencyUs * 1e-6;
}

OutOfCoreReport
OutOfCoreRunner::sequentialSweeps(const CooGraph &graph,
                                  SimReport node_report) const
{
    OutOfCoreReport report;
    report.node = std::move(node_report);

    // Only the block arithmetic is needed here — GridPartition is
    // pure index math, cheaper than even a plan-cache lookup.
    const GridPartition part(graph.numVertices(), config_.tiling);
    report.numBlocks = part.numBlocks();

    // Every iteration streams the whole ordered edge list once.
    const std::uint64_t iterations =
        std::max<std::uint64_t>(report.node.iterations, 1);
    const std::uint64_t bytes_per_iter =
        graph.numEdges() * config_.bytesPerEdge;
    report.bytesStreamed = bytes_per_iter * iterations;
    const double disk_per_iter =
        streamSeconds(bytes_per_iter, part.numBlocks());
    report.diskSeconds =
        disk_per_iter * static_cast<double>(iterations);

    // The sequential order lets the framework prefetch block i+1
    // while the node processes block i: per-iteration cost is the
    // max of the two streams.
    const double node_per_iter =
        report.node.seconds / static_cast<double>(iterations);
    report.totalSeconds = std::max(node_per_iter, disk_per_iter) *
                          static_cast<double>(iterations);

    report.diskJoules = static_cast<double>(report.bytesStreamed) *
                        storage_.energyPjPerByte * 1e-12;
    report.totalJoules = report.node.joules + report.diskJoules;
    return report;
}

OutOfCoreReport
OutOfCoreRunner::runPageRank(const CooGraph &graph,
                             const PageRankParams &params)
{
    GraphRNode node(config_);
    return sequentialSweeps(graph, node.runPageRank(graph, params));
}

OutOfCoreReport
OutOfCoreRunner::runSpmv(const CooGraph &graph,
                         const std::vector<Value> &x)
{
    GraphRNode node(config_);
    return sequentialSweeps(graph, node.runSpmv(graph, x));
}

OutOfCoreReport
OutOfCoreRunner::runCf(const CooGraph &ratings, const CfParams &params)
{
    GraphRNode node(config_);
    return sequentialSweeps(ratings, node.runCf(ratings, params));
}

template <typename Graph>
OutOfCoreReport
OutOfCoreRunner::selectiveRounds(
    const Graph &graph,
    const std::function<SimReport(const RoundObserver &)> &run_node) const
{
    OutOfCoreReport report;

    const GridPartition part(graph.numVertices(), config_.tiling);
    report.numBlocks = part.numBlocks();
    const std::uint64_t block = part.blockSize();

    // Edge bytes per source block-row (selective scheduling unit),
    // off the plan's tile table: a tile's rows never straddle a
    // block boundary, so its whole nnz belongs to one block-row. They
    // are read on the first round, when the node holds its plan: the
    // node records a new schedule before it fetches the plan, and
    // fetching it here first would hold both at once.
    std::vector<std::uint64_t> row_bytes;

    // The node's rounds: a block-row is streamed when any of its
    // sources is active. The ids ascend, so the block-rows they fall
    // in come out ascending, each once.
    report.node = run_node([&](std::span<const VertexId> ids) {
        if (row_bytes.empty()) {
            row_bytes.assign(part.blocksPerDim(), 0);
            const TilePlanPtr plan =
                PlanCache::instance().get(graph, config_.tiling);
            for (const TileMeta &meta : plan->meta.tiles())
                row_bytes[meta.row0 / block] +=
                    meta.nnz * config_.bytesPerEdge;
        }
        std::uint64_t streamed = part.blocksPerDim(); // none yet
        for (const VertexId v : ids) {
            const std::uint64_t row = v / block;
            if (row == streamed)
                continue;
            streamed = row;
            report.bytesStreamed += row_bytes[row];
            report.diskSeconds += streamSeconds(
                row_bytes[row], part.blocksPerDim());
        }
    });

    report.totalSeconds = std::max(report.node.seconds,
                                   report.diskSeconds);
    report.diskJoules = static_cast<double>(report.bytesStreamed) *
                        storage_.energyPjPerByte * 1e-12;
    report.totalJoules = report.node.joules + report.diskJoules;
    return report;
}

OutOfCoreReport
OutOfCoreRunner::runBfs(const CooGraph &graph, VertexId source)
{
    return selectiveRounds(graph, [&](const RoundObserver &on_round) {
        return GraphRNode(config_).runBfs(graph, source, nullptr,
                                          on_round);
    });
}

OutOfCoreReport
OutOfCoreRunner::runSssp(const CooGraph &graph, VertexId source)
{
    return selectiveRounds(graph, [&](const RoundObserver &on_round) {
        return GraphRNode(config_).runSssp(graph, source, nullptr,
                                           on_round);
    });
}

OutOfCoreReport
OutOfCoreRunner::runWcc(const CooGraph &graph)
{
    // The node walks the symmetrised plan, so the disk schedule
    // streams that plan's block-rows.
    return selectiveRounds(
        SymmetrizedView(graph), [&](const RoundObserver &on_round) {
            return GraphRNode(config_).runWcc(graph, nullptr, on_round);
        });
}

} // namespace graphr
