/**
 * @file
 * Tests for the GraphR node's timing/energy accounting (timing-only
 * mode, the configuration benches use).
 */

#include <gtest/gtest.h>

#include "algorithms/pagerank.hh"
#include "algorithms/spmv.hh"
#include "graph/datasets.hh"
#include "graph/generator.hh"
#include "graphr/node.hh"

namespace graphr
{
namespace
{

GraphRConfig
paperConfig()
{
    // Paper section 5.2: C=8, N=32, G=64.
    return GraphRConfig{};
}

TEST(NodeTimingTest, DefaultsMatchPaperConfiguration)
{
    const GraphRConfig cfg = paperConfig();
    EXPECT_EQ(cfg.tiling.crossbarDim, 8u);
    EXPECT_EQ(cfg.tiling.crossbarsPerGe, 32u);
    EXPECT_EQ(cfg.tiling.numGe, 64u);
    EXPECT_EQ(cfg.device.cellBits, 4);
    EXPECT_EQ(cfg.device.valueBits, 16);
    EXPECT_NEAR(cfg.device.readLatencyNs, 29.31, 1e-9);
    EXPECT_NEAR(cfg.device.writeLatencyNs, 50.88, 1e-9);
}

TEST(NodeTimingTest, PageRankReportIsConsistent)
{
    const CooGraph g = makeRmat(
        {.numVertices = 2000, .numEdges = 20000, .seed = 41});
    GraphRNode node(paperConfig());
    PageRankParams params;
    params.maxIterations = 10;
    params.tolerance = 0.0;
    const SimReport rep = node.runPageRank(g, params);

    EXPECT_EQ(rep.iterations, 10u);
    EXPECT_GT(rep.seconds, 0.0);
    EXPECT_GT(rep.joules, 0.0);
    EXPECT_EQ(rep.edgesProcessed, 10u * g.numEdges());
    EXPECT_GT(rep.tilesProcessed, 0u);
    EXPECT_GT(rep.occupancy, 0.0);
    // Energy breakdown must sum to the total.
    EXPECT_NEAR(rep.energy.total(), rep.joules, 1e-15);
}

TEST(NodeTimingTest, TimeScalesWithIterationsPerSweepCharging)
{
    const CooGraph g = makeRmat(
        {.numVertices = 1000, .numEdges = 8000, .seed = 42});
    GraphRConfig cfg = paperConfig();
    cfg.programCharging = ProgramCharging::kPerSweep;
    cfg.iterationOverheadNs = 0.0; // exact 2x check below
    GraphRNode node(cfg);
    PageRankParams p5;
    p5.maxIterations = 5;
    p5.tolerance = 0.0;
    PageRankParams p10;
    p10.maxIterations = 10;
    p10.tolerance = 0.0;
    const SimReport r5 = node.runPageRank(g, p5);
    const SimReport r10 = node.runPageRank(g, p10);
    EXPECT_NEAR(r10.seconds, 2.0 * r5.seconds, 1e-12);
    EXPECT_NEAR(r10.joules, 2.0 * r5.joules, 1e-12);
}

TEST(NodeTimingTest, ResidentGraphAmortisesProgramming)
{
    // Under the kOnce policy, programming is charged once: doubling
    // iterations must less than double the time, and the marginal
    // iteration cost must be iteration-independent.
    const CooGraph g = makeRmat(
        {.numVertices = 1000, .numEdges = 8000, .seed = 42});
    GraphRConfig cfg = paperConfig();
    cfg.programCharging = ProgramCharging::kOnce;
    GraphRNode node(cfg);
    PageRankParams p5;
    p5.maxIterations = 5;
    p5.tolerance = 0.0;
    PageRankParams p10;
    p10.maxIterations = 10;
    p10.tolerance = 0.0;
    PageRankParams p15;
    p15.maxIterations = 15;
    p15.tolerance = 0.0;
    const SimReport r5 = node.runPageRank(g, p5);
    const SimReport r10 = node.runPageRank(g, p10);
    const SimReport r15 = node.runPageRank(g, p15);
    EXPECT_LT(r10.seconds, 2.0 * r5.seconds);
    EXPECT_GT(r10.seconds, r5.seconds);
    EXPECT_NEAR(r15.seconds - r10.seconds, r10.seconds - r5.seconds,
                1e-12);
    // Programming energy identical regardless of iteration count.
    EXPECT_DOUBLE_EQ(r5.energy.write, r10.energy.write);
}

TEST(NodeTimingTest, EnergyGrowsWithGraphSize)
{
    GraphRNode node(paperConfig());
    PageRankParams params;
    params.maxIterations = 5;
    params.tolerance = 0.0;
    const CooGraph small = makeRmat(
        {.numVertices = 1000, .numEdges = 5000, .seed = 43});
    const CooGraph big = makeRmat(
        {.numVertices = 1000, .numEdges = 40000, .seed = 43});
    const SimReport rs = node.runPageRank(small, params);
    const SimReport rb = node.runPageRank(big, params);
    EXPECT_GT(rb.joules, rs.joules);
    EXPECT_GT(rb.seconds, rs.seconds);
}

TEST(NodeTimingTest, SpmvIsOneSweep)
{
    const CooGraph g = makeRmat(
        {.numVertices = 1000, .numEdges = 8000, .seed = 44});
    GraphRNode node(paperConfig());
    const std::vector<Value> x(g.numVertices(), 1.0);
    const SimReport rep = node.runSpmv(g, x);
    EXPECT_EQ(rep.iterations, 1u);
    EXPECT_EQ(rep.edgesProcessed, g.numEdges());
}

TEST(NodeTimingTest, RequestedGoldenVectorsAreStillReturned)
{
    // Timing mode charges the memoised iteration count and skips the
    // golden vectors nobody asked for; a caller who asks gets them,
    // and the report does not depend on the asking.
    const CooGraph g = makeRmat(
        {.numVertices = 500, .numEdges = 4000, .seed = 45});
    GraphRNode node(paperConfig());

    std::vector<Value> x(g.numVertices());
    for (VertexId v = 0; v < g.numVertices(); ++v)
        x[v] = 1.0 + static_cast<Value>(v % 7);
    std::vector<Value> y;
    const SimReport spmv_with = node.runSpmv(g, x, &y);
    EXPECT_EQ(y, spmv(g, x));
    EXPECT_DOUBLE_EQ(node.runSpmv(g, x).seconds, spmv_with.seconds);

    const PageRankParams params;
    std::vector<Value> ranks;
    const SimReport pr_with = node.runPageRank(g, params, &ranks);
    const PageRankResult golden = pagerank(g, params);
    EXPECT_EQ(ranks, golden.ranks);
    EXPECT_EQ(pr_with.iterations,
              static_cast<std::uint64_t>(golden.iterations));
    const SimReport pr_without = node.runPageRank(g, params);
    EXPECT_EQ(pr_without.iterations, pr_with.iterations);
    EXPECT_DOUBLE_EQ(pr_without.seconds, pr_with.seconds);
}

TEST(NodeTimingTest, BfsProcessesSubsetOfTiles)
{
    const CooGraph g = makeRmat(
        {.numVertices = 2000, .numEdges = 10000, .seed = 45});
    GraphRNode node(paperConfig());
    const SimReport rep = node.runBfs(g, 0);
    EXPECT_GT(rep.iterations, 1u);
    // Add-op rounds only touch tiles with active sources, so the
    // per-round average must be below the total tile count.
    EXPECT_GT(rep.tilesSkipped, 0u);
    EXPECT_GT(rep.activeRowOps, 0u);
}

TEST(NodeTimingTest, SsspSlowerThanPageRankPerEdge)
{
    // Parallel add-op serialises rows: per processed edge, SSSP time
    // should exceed PageRank's (paper's explanation for lower BFS /
    // SSSP speedups).
    const CooGraph g = makeRmat({.numVertices = 2000,
                                 .numEdges = 20000,
                                 .maxWeight = 15.0,
                                 .seed = 46});
    GraphRNode node(paperConfig());
    PageRankParams params;
    params.maxIterations = 10;
    params.tolerance = 0.0;
    const SimReport pr = node.runPageRank(g, params);
    const SimReport ss = node.runSssp(g, 0);
    const double pr_per_edge =
        pr.seconds / static_cast<double>(pr.edgesProcessed);
    const double ss_per_edge =
        ss.seconds / static_cast<double>(ss.edgesProcessed);
    EXPECT_GT(ss_per_edge, pr_per_edge);
}

TEST(NodeTimingTest, CfScalesWithFeatureLength)
{
    const CooGraph ratings = makeBipartiteRatings(500, 100, 5000, 47);
    GraphRNode node(paperConfig());
    CfParams k8;
    k8.numUsers = 500;
    k8.featureLength = 8;
    k8.epochs = 2;
    CfParams k32 = k8;
    k32.featureLength = 32;
    const SimReport r8 = node.runCf(ratings, k8);
    const SimReport r32 = node.runCf(ratings, k32);
    EXPECT_GT(r32.seconds, r8.seconds);
    EXPECT_GT(r32.joules, r8.joules);
}

TEST(NodeTimingTest, PipeliningNeverSlower)
{
    const CooGraph g = makeRmat(
        {.numVertices = 1500, .numEdges = 12000, .seed = 48});
    GraphRConfig piped = paperConfig();
    piped.pipelineTiles = true;
    GraphRConfig serial = paperConfig();
    serial.pipelineTiles = false;
    PageRankParams params;
    params.maxIterations = 5;
    params.tolerance = 0.0;
    const SimReport rp = GraphRNode(piped).runPageRank(g, params);
    const SimReport rs = GraphRNode(serial).runPageRank(g, params);
    EXPECT_LE(rp.seconds, rs.seconds);
    // Event energy is identical; only the peripheral (busy-time)
    // component grows with the longer serial execution.
    EXPECT_LE(rp.joules, rs.joules);
    EXPECT_DOUBLE_EQ(rp.energy.write, rs.energy.write);
    EXPECT_DOUBLE_EQ(rp.energy.adc, rs.energy.adc);
}

TEST(NodeTimingTest, EmptyTilesAreFree)
{
    // A chain leaves most of the grid empty; the report must show
    // skipped tiles and cost far below the dense equivalent.
    const CooGraph chain = makeChain(4096);
    GraphRNode node(paperConfig());
    PageRankParams params;
    params.maxIterations = 1;
    params.tolerance = 0.0;
    const SimReport rep = node.runPageRank(chain, params);
    EXPECT_GT(rep.tilesSkipped, 0u);
}

TEST(NodeTimingTest, WriteEnergyDominates)
{
    // With 3.91 nJ writes vs pJ-scale reads, programming dominates
    // the GraphR energy budget on MAC workloads.
    const CooGraph g = makeRmat(
        {.numVertices = 2000, .numEdges = 20000, .seed = 49});
    GraphRNode node(paperConfig());
    PageRankParams params;
    params.maxIterations = 5;
    params.tolerance = 0.0;
    const SimReport rep = node.runPageRank(g, params);
    EXPECT_GT(rep.energy.write, rep.energy.read);
    EXPECT_GT(rep.energy.write, rep.energy.adc);
}

} // namespace
} // namespace graphr
