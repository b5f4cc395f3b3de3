/**
 * @file
 * Tests for the out-of-core execution driver (paper Fig. 9).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "algorithms/wcc.hh"
#include "graph/generator.hh"
#include "graphr/out_of_core.hh"
#include "sim_report_eq.hh"

namespace graphr
{
namespace
{

GraphRConfig
blockedConfig(std::uint32_t block_size)
{
    GraphRConfig cfg;
    cfg.tiling.blockSize = block_size;
    return cfg;
}

TEST(OutOfCoreTest, PageRankStreamsAllEdgesPerIteration)
{
    const CooGraph g = makeRmat(
        {.numVertices = 4000, .numEdges = 30000, .seed = 81});
    OutOfCoreRunner runner(blockedConfig(0), StorageParams{});
    PageRankParams params;
    params.maxIterations = 10;
    params.tolerance = 0.0;
    const OutOfCoreReport rep = runner.runPageRank(g, params);
    EXPECT_EQ(rep.bytesStreamed,
              10ull * g.numEdges() *
                  runner.config().bytesPerEdge);
    EXPECT_GT(rep.diskSeconds, 0.0);
    EXPECT_GE(rep.totalSeconds, rep.node.seconds * 0.999);
    EXPECT_GE(rep.totalSeconds, rep.diskSeconds * 0.999);
}

TEST(OutOfCoreTest, PipelineTakesMaxOfDiskAndCompute)
{
    const CooGraph g = makeRmat(
        {.numVertices = 2000, .numEdges = 16000, .seed = 82});
    PageRankParams params;
    params.maxIterations = 5;
    params.tolerance = 0.0;
    // Very slow disk: end-to-end equals disk time.
    StorageParams slow;
    slow.seqBandwidthGBs = 0.001;
    const OutOfCoreReport rep =
        OutOfCoreRunner(blockedConfig(0), slow).runPageRank(g, params);
    EXPECT_NEAR(rep.totalSeconds, rep.diskSeconds,
                rep.diskSeconds * 1e-9);
    // Very fast disk: end-to-end equals node time.
    StorageParams fast;
    fast.seqBandwidthGBs = 10000.0;
    fast.accessLatencyUs = 0.0;
    const OutOfCoreReport rep2 =
        OutOfCoreRunner(blockedConfig(0), fast).runPageRank(g, params);
    EXPECT_NEAR(rep2.totalSeconds, rep2.node.seconds,
                rep2.node.seconds * 1e-9);
}

TEST(OutOfCoreTest, SmallerBlocksMoreSwitches)
{
    const CooGraph g = makeRmat(
        {.numVertices = 60000, .numEdges = 200000, .seed = 83});
    PageRankParams params;
    params.maxIterations = 2;
    params.tolerance = 0.0;
    const OutOfCoreReport one_block =
        OutOfCoreRunner(blockedConfig(0), StorageParams{})
            .runPageRank(g, params);
    const OutOfCoreReport four_blocks =
        OutOfCoreRunner(blockedConfig(32768), StorageParams{})
            .runPageRank(g, params);
    EXPECT_EQ(one_block.numBlocks, 1u);
    EXPECT_GT(four_blocks.numBlocks, 1u);
    // Extra block switches cost extra disk latency.
    EXPECT_GT(four_blocks.diskSeconds, one_block.diskSeconds);
}

TEST(OutOfCoreTest, SsspStreamsOnlyActiveBlockRows)
{
    const CooGraph g = makeRmat({.numVertices = 60000,
                                 .numEdges = 200000,
                                 .maxWeight = 15.0,
                                 .seed = 84});
    PageRankParams params;
    params.maxIterations = 1;
    params.tolerance = 0.0;
    OutOfCoreRunner runner(blockedConfig(16384), StorageParams{});
    const OutOfCoreReport pr = runner.runPageRank(g, params);
    const OutOfCoreReport ss = runner.runSssp(g, 0);
    // SSSP rounds skip inactive block rows: bytes per round average
    // below a full sweep.
    const double pr_bytes_per_iter =
        static_cast<double>(pr.bytesStreamed);
    const double ss_bytes_per_round =
        static_cast<double>(ss.bytesStreamed) /
        static_cast<double>(ss.node.iterations);
    EXPECT_LT(ss_bytes_per_round, pr_bytes_per_iter * 1.001);
    EXPECT_GT(ss.bytesStreamed, 0u);
}

TEST(OutOfCoreTest, EnergyIncludesDisk)
{
    const CooGraph g = makeRmat(
        {.numVertices = 2000, .numEdges = 16000, .seed = 85});
    PageRankParams params;
    params.maxIterations = 5;
    params.tolerance = 0.0;
    const OutOfCoreReport rep =
        OutOfCoreRunner(blockedConfig(0), StorageParams{})
            .runPageRank(g, params);
    EXPECT_GT(rep.diskJoules, 0.0);
    EXPECT_NEAR(rep.totalJoules, rep.node.joules + rep.diskJoules,
                1e-15);
}

// -------------------------------- the selective schedule's definition

/**
 * The reference disk schedule: replay the relaxation in a
 * RelaxationSweep of its own and stream each block-row whose sources
 * hold an active vertex, round by round, block-rows ascending. Edge
 * bytes per block-row are counted off the edge list, not the plan.
 */
OutOfCoreReport
referenceDisk(const GraphRConfig &config, const StorageParams &storage,
              const CooGraph &graph, RelaxationSweep sweep)
{
    const GridPartition part(graph.numVertices(), config.tiling);
    const std::uint64_t block = part.blockSize();
    std::vector<std::uint64_t> row_bytes(part.blocksPerDim(), 0);
    for (const Edge &e : graph.edges())
        row_bytes[e.src / block] += config.bytesPerEdge;

    OutOfCoreReport report;
    report.numBlocks = part.numBlocks();
    while (!sweep.done()) {
        for (std::uint64_t row = 0; row < part.blocksPerDim(); ++row) {
            bool any = false;
            for (std::uint64_t v = row * block;
                 v < std::min<std::uint64_t>((row + 1) * block,
                                             graph.numVertices());
                 ++v) {
                any = any ||
                      std::ranges::binary_search(sweep.activeIds(), v);
            }
            if (!any)
                continue;
            report.bytesStreamed += row_bytes[row];
            report.diskSeconds +=
                static_cast<double>(row_bytes[row]) /
                    (storage.seqBandwidthGBs * 1e9) +
                static_cast<double>(part.blocksPerDim()) *
                    storage.accessLatencyUs * 1e-6;
        }
        sweep.step();
    }
    report.diskJoules = static_cast<double>(report.bytesStreamed) *
                        storage.energyPjPerByte * 1e-12;
    return report;
}

/** The runner's node report is GraphRNode's; its disk terms are the
 *  reference replay's. */
void
expectSelectiveRun(const OutOfCoreReport &got, const SimReport &node,
                   const OutOfCoreReport &disk)
{
    expectSameSimReport(got.node, node);
    EXPECT_EQ(got.numBlocks, disk.numBlocks);
    EXPECT_EQ(got.bytesStreamed, disk.bytesStreamed);
    EXPECT_EQ(got.diskSeconds, disk.diskSeconds);
    EXPECT_EQ(got.diskJoules, disk.diskJoules);
    EXPECT_EQ(got.totalSeconds, std::max(node.seconds, disk.diskSeconds));
    EXPECT_EQ(got.totalJoules, node.joules + disk.diskJoules);
}

TEST(OutOfCoreTest, SelectiveRoundsAreTheNodesOwnRounds)
{
    const CooGraph g = makeRmat({.numVertices = 3000,
                                 .numEdges = 16000,
                                 .maxWeight = 9.0,
                                 .seed = 86});
    const CooGraph sym = symmetrize(g);
    const StorageParams storage;
    for (const std::uint32_t block : {0u, 256u, 1000u, 2048u}) {
        for (const bool functional : {false, true}) {
            SCOPED_TRACE("blockSize " + std::to_string(block) +
                         (functional ? " functional" : ""));
            GraphRConfig cfg = blockedConfig(block);
            cfg.tiling.crossbarDim = 4;
            cfg.tiling.crossbarsPerGe = 4;
            cfg.tiling.numGe = 4;
            cfg.functional = functional;
            OutOfCoreRunner runner(cfg, storage);
            GraphRNode node(cfg);
            for (const VertexId source : {0u, 1234u}) {
                expectSelectiveRun(
                    runner.runBfs(g, source), node.runBfs(g, source),
                    referenceDisk(cfg, storage, g,
                                  RelaxationSweep(g, source, true)));
                expectSelectiveRun(
                    runner.runSssp(g, source), node.runSssp(g, source),
                    referenceDisk(cfg, storage, g,
                                  RelaxationSweep(g, source, false)));
            }
            expectSelectiveRun(
                runner.runWcc(g), node.runWcc(g),
                referenceDisk(cfg, storage, sym, makeWccSweep(g)));
        }
    }
}

} // namespace
} // namespace graphr
