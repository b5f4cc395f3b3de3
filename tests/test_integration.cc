/**
 * @file
 * End-to-end integration tests chaining modules the way the bench
 * binaries and a downstream user would: generate -> serialise ->
 * reload -> preprocess -> simulate -> compare against baselines.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "algorithms/pagerank.hh"
#include "algorithms/spmv.hh"
#include "algorithms/traversal.hh"
#include "baselines/cpu_model.hh"
#include "baselines/gpu_model.hh"
#include "baselines/pim_model.hh"
#include "graph/datasets.hh"
#include "graph/generator.hh"
#include "graph/io.hh"
#include "graphr/multi_node.hh"
#include "graphr/node.hh"
#include "graphr/out_of_core.hh"

namespace graphr
{
namespace
{

TEST(IntegrationTest, SerialiseReloadSimulatePipeline)
{
    // The full user pipeline: generate, save, load, run — results
    // must be identical to running on the original graph.
    const CooGraph original = makeDataset(DatasetId::kWikiVote, 64.0);
    std::stringstream buffer;
    saveBinary(original, buffer);
    const CooGraph reloaded = loadBinary(buffer);

    GraphRNode node;
    PageRankParams params;
    params.maxIterations = 5;
    params.tolerance = 0.0;
    const SimReport a = node.runPageRank(original, params);
    const SimReport b = node.runPageRank(reloaded, params);
    EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
    EXPECT_DOUBLE_EQ(a.joules, b.joules);
    EXPECT_EQ(a.tilesProcessed, b.tilesProcessed);
}

TEST(IntegrationTest, GraphRBeatsCpuOnMacWorkloads)
{
    // The headline claim at small scale: GraphR outruns the CPU
    // baseline on MAC-pattern workloads and uses less energy.
    const CooGraph g = makeDataset(DatasetId::kWikiVote, 16.0);
    GraphRNode node;
    CpuModel cpu;
    PageRankParams params;
    params.maxIterations = 10;
    params.tolerance = 0.0;
    const SimReport r = node.runPageRank(g, params);
    const BaselineReport c = cpu.runPageRank(g, 10);
    EXPECT_GT(c.seconds / r.seconds, 2.0);
    EXPECT_GT(c.joules / r.joules, 5.0);
}

TEST(IntegrationTest, MacBeatsAddOpPerEdge)
{
    // Paper Fig. 17's structural result: parallel-MAC workloads gain
    // more than parallel-add-op ones.
    const CooGraph g = makeDataset(DatasetId::kSlashdot, 64.0);
    GraphRNode node;
    CpuModel cpu;
    PageRankParams params;
    params.maxIterations = 10;
    params.tolerance = 0.0;
    const double pr_speedup =
        cpu.runPageRank(g, 10).seconds /
        node.runPageRank(g, params).seconds;
    const double sssp_speedup =
        cpu.runSssp(g, 0).seconds / node.runSssp(g, 0).seconds;
    EXPECT_GT(pr_speedup, sssp_speedup);
}

TEST(IntegrationTest, PlatformOrderingOnPageRank)
{
    // Expected platform ordering on a mid-size graph: GraphR fastest,
    // then PIM/GPU, CPU last (paper Figs. 17/19/20 composite).
    const CooGraph g = makeDataset(DatasetId::kAmazon, 64.0);
    GraphRNode node;
    CpuModel cpu;
    GpuModel gpu;
    PimModel pim;
    PageRankParams params;
    params.maxIterations = 10;
    params.tolerance = 0.0;
    const double t_graphr = node.runPageRank(g, params).seconds;
    const double t_cpu = cpu.runPageRank(g, 10).seconds;
    const double t_gpu = gpu.runPageRank(g, 10).seconds;
    const double t_pim = pim.runPageRank(g, 10).seconds;
    EXPECT_LT(t_graphr, t_cpu);
    EXPECT_LT(t_gpu, t_cpu);
    EXPECT_LT(t_pim, t_cpu);
    EXPECT_LT(t_graphr, t_gpu);
}

TEST(IntegrationTest, OutOfCoreWrapsNodeConsistently)
{
    const CooGraph g = makeDataset(DatasetId::kWikiVote, 64.0);
    PageRankParams params;
    params.maxIterations = 5;
    params.tolerance = 0.0;
    GraphRConfig cfg;
    OutOfCoreRunner runner(cfg, StorageParams{});
    const OutOfCoreReport oc = runner.runPageRank(g, params);
    const SimReport direct = GraphRNode(cfg).runPageRank(g, params);
    EXPECT_DOUBLE_EQ(oc.node.seconds, direct.seconds);
    EXPECT_GE(oc.totalSeconds, direct.seconds * 0.999);
}

TEST(IntegrationTest, MultiNodeConsistentWithSingleNodeSweep)
{
    const CooGraph g = makeDataset(DatasetId::kWikiVote, 64.0);
    PageRankParams params;
    params.maxIterations = 5;
    params.tolerance = 0.0;
    MultiNodeGraphR cluster(GraphRConfig{}, 1);
    const MultiNodeReport mn = cluster.runPageRank(g, params);
    // One node, no communication: end-to-end = sweeps * per-sweep.
    ASSERT_EQ(mn.nodeSweepSeconds.size(), 1u);
    EXPECT_NEAR(mn.seconds, mn.nodeSweepSeconds[0] * 5.0,
                mn.seconds * 1e-9);
}

TEST(IntegrationTest, AllFourAlgorithmsAgreeWithGoldenFunctionally)
{
    // One functional node, four algorithms, one graph — the Table 2
    // end-to-end check at integration level.
    const CooGraph g = makeRmat({.numVertices = 48,
                                 .numEdges = 300,
                                 .maxWeight = 7.0,
                                 .seed = 101});
    GraphRConfig cfg;
    cfg.tiling.crossbarDim = 4;
    cfg.tiling.crossbarsPerGe = 2;
    cfg.tiling.numGe = 2;
    cfg.functional = true;
    GraphRNode node(cfg);

    std::vector<Value> dist;
    node.runSssp(g, 0, &dist);
    const TraversalResult golden_ss = sssp(g, 0);
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        if (!std::isinf(golden_ss.dist[v])) {
            EXPECT_DOUBLE_EQ(dist[v], golden_ss.dist[v]);
        }
    }

    std::vector<Value> levels;
    node.runBfs(g, 0, &levels);
    const TraversalResult golden_bfs = bfs(g, 0);
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        if (!std::isinf(golden_bfs.dist[v])) {
            EXPECT_DOUBLE_EQ(levels[v], golden_bfs.dist[v]);
        }
    }

    PageRankParams params;
    params.maxIterations = 10;
    params.tolerance = 0.0;
    std::vector<Value> ranks;
    node.runPageRank(g, params, &ranks);
    const PageRankResult golden_pr = pagerank(g, params);
    for (VertexId v = 0; v < g.numVertices(); ++v)
        EXPECT_NEAR(ranks[v], golden_pr.ranks[v], 0.02);

    std::vector<Value> x(g.numVertices(), 0.5);
    std::vector<Value> y;
    node.runSpmv(g, x, &y);
    const std::vector<Value> golden_y = spmv(g, x);
    for (VertexId v = 0; v < g.numVertices(); ++v)
        EXPECT_NEAR(y[v], golden_y[v], 0.02);
}

} // namespace
} // namespace graphr
