/**
 * @file
 * End-to-end functional tests: GraphR's analog datapath must agree
 * with the golden algorithms (integration across graph, rram and
 * graphr modules).
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <span>

#include "algorithms/pagerank.hh"
#include "common/random.hh"
#include "algorithms/spmv.hh"
#include "algorithms/traversal.hh"
#include "graph/generator.hh"
#include "graphr/engine/plan_cache.hh"
#include "graphr/node.hh"
#include "perf/counters.hh"

namespace graphr
{
namespace
{

/** Small tiling so a small graph spans many tiles. */
GraphRConfig
functionalConfig()
{
    GraphRConfig cfg;
    cfg.tiling.crossbarDim = 4;
    cfg.tiling.crossbarsPerGe = 2;
    cfg.tiling.numGe = 2;
    cfg.functional = true;
    cfg.weightFracBits = 12;
    cfg.inputFracBits = 12;
    return cfg;
}

TEST(NodeFunctionalTest, SsspMatchesGoldenExactly)
{
    const CooGraph g = makeRmat({.numVertices = 60,
                                 .numEdges = 500,
                                 .maxWeight = 15.0,
                                 .seed = 31});
    GraphRNode node(functionalConfig());
    std::vector<Value> dist;
    node.runSssp(g, 0, &dist);

    const TraversalResult golden = sssp(g, 0);
    ASSERT_EQ(dist.size(), golden.dist.size());
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        if (std::isinf(golden.dist[v])) {
            EXPECT_TRUE(std::isinf(dist[v])) << "vertex " << v;
        } else {
            EXPECT_DOUBLE_EQ(dist[v], golden.dist[v]) << "vertex " << v;
        }
    }
}

TEST(NodeFunctionalTest, BfsMatchesGoldenExactly)
{
    const CooGraph g =
        makeRmat({.numVertices = 80, .numEdges = 700, .seed = 32});
    GraphRNode node(functionalConfig());
    std::vector<Value> dist;
    node.runBfs(g, 1, &dist);

    const TraversalResult golden = bfs(g, 1);
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        if (std::isinf(golden.dist[v])) {
            EXPECT_TRUE(std::isinf(dist[v]));
        } else {
            EXPECT_DOUBLE_EQ(dist[v], golden.dist[v]);
        }
    }
}

TEST(NodeFunctionalTest, SsspOnGridExact)
{
    const CooGraph g = makeGrid2d(6, 5, 3, 9.0);
    GraphRNode node(functionalConfig());
    std::vector<Value> dist;
    node.runSssp(g, 0, &dist);
    const TraversalResult golden = sssp(g, 0);
    for (VertexId v = 0; v < g.numVertices(); ++v)
        EXPECT_DOUBLE_EQ(dist[v], golden.dist[v]);
}

TEST(NodeFunctionalTest, PageRankCloseToGolden)
{
    const CooGraph g =
        makeRmat({.numVertices = 50, .numEdges = 400, .seed = 33});
    GraphRNode node(functionalConfig());
    PageRankParams params;
    params.maxIterations = 15;
    params.tolerance = 0.0; // fixed iteration count on both sides
    std::vector<Value> ranks;
    node.runPageRank(g, params, &ranks);

    const PageRankResult golden = pagerank(g, params);
    double max_err = 0.0;
    double sum = 0.0;
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        max_err = std::max(max_err,
                           std::abs(ranks[v] - golden.ranks[v]));
        sum += ranks[v];
    }
    // 12-bit quantisation error accumulates mildly over 15 rounds.
    EXPECT_LT(max_err, 0.02);
    EXPECT_NEAR(sum, 1.0, 0.05);
}

TEST(NodeFunctionalTest, PageRankDecodesEachTileOnce)
{
    // The plan keeps only its stream: a functional run decodes a tile
    // on its first program and replays the kept cells after, so 15
    // sweeps decode every tile exactly once.
    const CooGraph g =
        makeRmat({.numVertices = 50, .numEdges = 400, .seed = 33});
    const GraphRConfig config = functionalConfig();
    const TilePlanPtr plan = PlanCache::instance().get(g, config.tiling);
    perf::Counter &decodes =
        perf::Registry::instance().counter("engine.tile_decodes");
    const std::uint64_t before = decodes.value();
    GraphRNode node(config);
    PageRankParams params;
    params.maxIterations = 15;
    params.tolerance = 0.0;
    std::vector<Value> ranks;
    node.runPageRank(g, params, &ranks);
    EXPECT_EQ(decodes.value() - before, plan->ordered.numNonEmptyTiles());
}

TEST(NodeFunctionalTest, PageRankRankingPreserved)
{
    // Quantisation must not scramble the ordering of clearly
    // separated ranks: compare top vertex.
    const CooGraph g = makeStar(20);
    GraphRNode node(functionalConfig());
    PageRankParams params;
    params.maxIterations = 20;
    std::vector<Value> ranks;
    node.runPageRank(g, params, &ranks);
    const PageRankResult golden = pagerank(g, params);
    // All leaves equal-ranked above hub in both.
    EXPECT_GT(ranks[1], ranks[0]);
    EXPECT_GT(golden.ranks[1], golden.ranks[0]);
}

TEST(NodeFunctionalTest, SpmvCloseToGolden)
{
    const CooGraph g = makeRmat({.numVertices = 40,
                                 .numEdges = 300,
                                 .maxWeight = 3.0,
                                 .seed = 34});
    GraphRNode node(functionalConfig());
    std::vector<Value> x(g.numVertices());
    Rng rng(5);
    for (auto &v : x)
        v = rng.uniform();
    std::vector<Value> y;
    node.runSpmv(g, x, &y);

    const std::vector<Value> golden = spmv(g, x);
    for (VertexId v = 0; v < g.numVertices(); ++v)
        EXPECT_NEAR(y[v], golden[v], 0.01) << "vertex " << v;
}

TEST(NodeFunctionalTest, VariationDegradesGracefully)
{
    // With mild cell variation the SSSP result may differ, but
    // PageRank ordering of a strongly separated graph survives —
    // the paper's error-resilience claim.
    const CooGraph g = makeStar(16);
    GraphRConfig cfg = functionalConfig();
    cfg.variationSigma = 0.3;
    GraphRNode node(cfg);
    PageRankParams params;
    params.maxIterations = 10;
    std::vector<Value> ranks;
    node.runPageRank(g, params, &ranks);
    EXPECT_GT(ranks[3], ranks[0]);
}

TEST(NodeFunctionalTest, FunctionalAndTimingOnlySameSchedule)
{
    // The SimReport of a functional run and a timing-only run must
    // agree on schedule statistics (tiles, edges) for MAC sweeps.
    // CF has no functional datapath: its functional run returns the
    // timing report.
    const CooGraph g =
        makeRmat({.numVertices = 64, .numEdges = 500, .seed = 35});
    const CooGraph ratings = makeBipartiteRatings(32, 16, 200, 21);
    GraphRConfig time_cfg = functionalConfig();
    time_cfg.functional = false;

    PageRankParams params;
    params.maxIterations = 5;
    params.tolerance = 0.0;
    CfParams cf;
    cf.featureLength = 4;
    cf.epochs = 2;
    cf.numUsers = 32;

    const auto reports = [&](const GraphRConfig &cfg) {
        GraphRNode node(cfg);
        return std::array<SimReport, 2>{node.runPageRank(g, params),
                                        node.runCf(ratings, cf)};
    };
    const std::array<SimReport, 2> func = reports(functionalConfig());
    const std::array<SimReport, 2> time = reports(time_cfg);
    for (std::size_t i = 0; i < func.size(); ++i) {
        const SimReport &a = func[i];
        const SimReport &b = time[i];
        EXPECT_EQ(a.iterations, b.iterations) << i;
        EXPECT_EQ(a.tilesProcessed, b.tilesProcessed) << i;
        EXPECT_EQ(a.edgesProcessed, b.edgesProcessed) << i;
        EXPECT_DOUBLE_EQ(a.seconds, b.seconds) << i;
        EXPECT_DOUBLE_EQ(a.joules, b.joules) << i;
    }
}

TEST(NodeFunctionalTest, RunsThatAskForNoLabelsProgramNoTile)
{
    // The graphr and outofcore backends run BFS, SSSP and WCC without
    // a label output, and CF has no functional path, so a functional
    // configuration programs and loads no tile for them and their
    // reports are the timing-only ones. PageRank, which those
    // backends do run through the datapath, is the contrast.
    const CooGraph g =
        makeRmat({.numVertices = 64, .numEdges = 500, .seed = 36});
    const CooGraph ratings = makeBipartiteRatings(32, 16, 200, 22);
    CfParams cf;
    cf.featureLength = 4;
    cf.epochs = 1;
    cf.numUsers = 32;
    GraphRConfig time_cfg = functionalConfig();
    time_cfg.functional = false;

    // Out-of-core hands its node a round observer; graphr does not.
    const RoundObserver observe = [](std::span<const VertexId>) {};
    const auto run = [&](GraphRNode &node, int which) {
        switch (which) {
          case 0: return node.runBfs(g, 0);
          case 1: return node.runSssp(g, 0, nullptr, observe);
          case 2: return node.runWcc(g);
          case 3: return node.runWcc(g, nullptr, observe);
          default: return node.runCf(ratings, cf);
        }
    };
    for (int which = 0; which < 5; ++which) {
        SCOPED_TRACE(which);
        GraphRNode functional(functionalConfig());
        GraphRNode timing(time_cfg);
        const SimReport a = run(functional, which);
        const SimReport b = run(timing, which);
        EXPECT_EQ(functional.lastEngineStats().functionalTilePrograms, 0u);
        EXPECT_EQ(functional.lastEngineStats().functionalTileLoads, 0u);
        EXPECT_EQ(a.iterations, b.iterations);
        EXPECT_EQ(a.tilesProcessed, b.tilesProcessed);
        EXPECT_EQ(a.edgesProcessed, b.edgesProcessed);
        EXPECT_EQ(a.seconds, b.seconds);
        EXPECT_EQ(a.joules, b.joules);
    }
    GraphRNode functional(functionalConfig());
    functional.runPageRank(g, {.maxIterations = 3, .tolerance = 0.0});
    EXPECT_GT(functional.lastEngineStats().functionalTilePrograms, 0u);
}

} // namespace
} // namespace graphr
