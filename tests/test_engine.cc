/**
 * @file
 * Tests of the tile-execution engine layer (graphr/engine/): plan
 * fingerprinting, PlanCache reuse across runs/backends, config
 * validation (the crossbarDim <= 64 row-mask invariant), functional
 * vs reference equivalence for all six algorithms through the shared
 * TileExecutor, resident-weight (ProgramCharging::kOnce) program
 * counting, and the driver's golden-PageRank cache.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "algorithms/pagerank.hh"
#include "algorithms/spmv.hh"
#include "algorithms/traversal.hh"
#include "algorithms/wcc.hh"
#include "common/random.hh"
#include "driver/driver.hh"
#include "driver/golden_cache.hh"
#include "graph/generator.hh"
#include "graphr/engine/plan_cache.hh"
#include "graphr/engine/tile_executor.hh"
#include "graphr/node.hh"
#include "graphr/out_of_core.hh"

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
    return cfg;
}

// -------------------------------------------------------- fingerprint

TEST(FingerprintTest, DeterministicAndSensitive)
{
    const CooGraph a =
        makeRmat({.numVertices = 64, .numEdges = 256, .seed = 1});
    const CooGraph b =
        makeRmat({.numVertices = 64, .numEdges = 256, .seed = 1});
    EXPECT_EQ(graphFingerprint(a), graphFingerprint(b));

    std::vector<Edge> edges(a.edges().begin(), a.edges().end());
    edges[0].weight += 1.0;
    const CooGraph c(a.numVertices(), std::move(edges));
    EXPECT_NE(graphFingerprint(a), graphFingerprint(c));

    const CooGraph d =
        makeRmat({.numVertices = 64, .numEdges = 256, .seed = 2});
    EXPECT_NE(graphFingerprint(a), graphFingerprint(d));
}

// --------------------------------------------------------- plan cache

TEST(PlanCacheTest, ReusesSamePlanAcrossLookups)
{
    PlanCache &cache = PlanCache::instance();
    cache.clear();
    const CooGraph g =
        makeRmat({.numVertices = 128, .numEdges = 512, .seed = 7});
    const TilingParams tiling;

    const TilePlanPtr first = cache.get(g, tiling);
    const TilePlanPtr second = cache.get(g, tiling);
    EXPECT_EQ(first.get(), second.get()) << "plan must be shared";
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(PlanCacheTest, DistinctTilingBuildsDistinctPlan)
{
    PlanCache &cache = PlanCache::instance();
    cache.clear();
    const CooGraph g =
        makeRmat({.numVertices = 128, .numEdges = 512, .seed = 7});

    TilingParams coarse;
    TilingParams fine;
    fine.crossbarDim = 4;
    const TilePlanPtr a = cache.get(g, coarse);
    const TilePlanPtr b = cache.get(g, fine);
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(PlanCacheTest, EvictionKeepsHandlesValid)
{
    PlanCache &cache = PlanCache::instance();
    cache.clear();
    cache.setCapacity(1);
    const CooGraph a = makeChain(32);
    const CooGraph b = makeChain(33);
    const TilingParams tiling;

    const TilePlanPtr pa = cache.get(a, tiling);
    const TilePlanPtr pb = cache.get(b, tiling); // evicts a's entry
    EXPECT_EQ(cache.size(), 1u);
    // The evicted plan is still alive through our handle.
    EXPECT_GT(pa->meta.totalNnz(), 0u);
    // Re-requesting a is a miss again.
    cache.get(a, tiling);
    EXPECT_EQ(cache.stats().misses, 3u);
    cache.setCapacity(PlanCache::kDefaultCapacity);
}

TEST(PlanCacheTest, SharedAcrossRunnersAndBackends)
{
    PlanCache &cache = PlanCache::instance();
    cache.clear();
    const CooGraph g =
        makeRmat({.numVertices = 128, .numEdges = 512, .seed = 11});

    GraphRConfig cfg;
    GraphRNode node(cfg);
    PageRankParams pr;
    pr.maxIterations = 5;
    node.runPageRank(g, pr);
    EXPECT_FALSE(node.lastEngineStats().planCacheHit);

    const std::vector<Value> x(g.numVertices(), 1.0);
    node.runSpmv(g, x);
    EXPECT_TRUE(node.lastEngineStats().planCacheHit);

    OutOfCoreRunner ooc(cfg, StorageParams{});
    ooc.runSpmv(g, x);

    EXPECT_EQ(cache.stats().misses, 1u)
        << "one prepare per (graph, tiling) across runners";
}

TEST(PlanCacheTest, DriverSweepPreparesOncePerGraphAndTiling)
{
    PlanCache &cache = PlanCache::instance();
    cache.clear();

    driver::SweepSpec spec;
    spec.workloads = {"all"};
    spec.backends = {"graphr", "outofcore"};
    spec.datasets = {"rmat:vertices=128,edges=512,seed=3"};
    spec.params =
        driver::ParamMap::parse("epochs=1,features=4,iterations=5");
    const std::vector<driver::RunResult> results =
        driver::runSweep(spec);
    EXPECT_EQ(results.size(), 12u);

    // Six algorithms x two backends share exactly two plans: the
    // graph itself and its symmetrised variant (WCC).
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_GT(cache.stats().hits, 0u);
}

// --------------------------------------------------- config validation

TEST(ConfigValidationTest, RejectsRowMaskOverflowingCrossbars)
{
    GraphRConfig cfg;
    cfg.tiling.crossbarDim = 128; // would shift a uint64_t out of range
    EXPECT_THROW(GraphRNode{cfg}, ConfigError);
    EXPECT_THROW(MultiNodeGraphR(cfg, 2), ConfigError);
    EXPECT_THROW(OutOfCoreRunner(cfg, StorageParams{}), ConfigError);
    cfg.tiling.crossbarDim = 64; // largest legal dimension
    EXPECT_NO_THROW(GraphRNode{cfg});
}

TEST(ConfigValidationTest, RejectsDegenerateParameters)
{
    GraphRConfig cfg;
    cfg.tiling.crossbarDim = 0;
    EXPECT_THROW(GraphRNode{cfg}, ConfigError);

    cfg = GraphRConfig{};
    cfg.tiling.numGe = 0;
    EXPECT_THROW(GraphRNode{cfg}, ConfigError);

    cfg = GraphRConfig{};
    cfg.weightFracBits = 17;
    EXPECT_THROW(GraphRNode{cfg}, ConfigError);

    cfg = GraphRConfig{};
    cfg.variationSigma = -1.0;
    EXPECT_THROW(GraphRNode{cfg}, ConfigError);
}

// ------------------------------- functional equivalence, six algorithms

TEST(EngineFunctionalTest, PageRankMatchesReference)
{
    const CooGraph g =
        makeRmat({.numVertices = 50, .numEdges = 400, .seed = 41});
    GraphRNode node(functionalConfig());
    PageRankParams params;
    params.maxIterations = 12;
    params.tolerance = 0.0;
    std::vector<Value> ranks;
    node.runPageRank(g, params, &ranks);

    const PageRankResult golden = pagerank(g, params);
    for (VertexId v = 0; v < g.numVertices(); ++v)
        EXPECT_NEAR(ranks[v], golden.ranks[v], 0.02) << "vertex " << v;
}

TEST(EngineFunctionalTest, SpmvMatchesReference)
{
    const CooGraph g = makeRmat({.numVertices = 40,
                                 .numEdges = 300,
                                 .maxWeight = 3.0,
                                 .seed = 42});
    GraphRNode node(functionalConfig());
    std::vector<Value> x(g.numVertices());
    Rng rng(9);
    for (auto &v : x)
        v = rng.uniform();
    std::vector<Value> y;
    node.runSpmv(g, x, &y);
    const std::vector<Value> golden = spmv(g, x);
    for (VertexId v = 0; v < g.numVertices(); ++v)
        EXPECT_NEAR(y[v], golden[v], 0.01) << "vertex " << v;
}

TEST(EngineFunctionalTest, SpmvStaysExactUnderVariation)
{
    // SpMV is the exactness-validation workload: cell variation must
    // not perturb it (it applies to the resilience experiments —
    // PageRank and the add-op traversals — only).
    const CooGraph g = makeRmat({.numVertices = 40,
                                 .numEdges = 300,
                                 .maxWeight = 3.0,
                                 .seed = 42});
    GraphRConfig cfg = functionalConfig();
    cfg.variationSigma = 0.5;
    GraphRNode node(cfg);
    std::vector<Value> x(g.numVertices(), 1.0);
    std::vector<Value> y;
    node.runSpmv(g, x, &y);
    const std::vector<Value> golden = spmv(g, x);
    for (VertexId v = 0; v < g.numVertices(); ++v)
        EXPECT_NEAR(y[v], golden[v], 0.01) << "vertex " << v;
}

TEST(EngineFunctionalTest, BfsMatchesReferenceExactly)
{
    const CooGraph g =
        makeRmat({.numVertices = 70, .numEdges = 600, .seed = 43});
    GraphRNode node(functionalConfig());
    std::vector<Value> dist;
    node.runBfs(g, 0, &dist);
    const TraversalResult golden = bfs(g, 0);
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        if (std::isinf(golden.dist[v]))
            EXPECT_TRUE(std::isinf(dist[v])) << "vertex " << v;
        else
            EXPECT_DOUBLE_EQ(dist[v], golden.dist[v]) << "vertex " << v;
    }
}

TEST(EngineFunctionalTest, SsspMatchesReferenceExactly)
{
    const CooGraph g = makeRmat({.numVertices = 60,
                                 .numEdges = 500,
                                 .maxWeight = 15.0,
                                 .seed = 44});
    GraphRNode node(functionalConfig());
    std::vector<Value> dist;
    node.runSssp(g, 0, &dist);
    const TraversalResult golden = sssp(g, 0);
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        if (std::isinf(golden.dist[v]))
            EXPECT_TRUE(std::isinf(dist[v])) << "vertex " << v;
        else
            EXPECT_DOUBLE_EQ(dist[v], golden.dist[v]) << "vertex " << v;
    }
}

TEST(EngineFunctionalTest, WccMatchesReferenceExactly)
{
    const CooGraph g =
        makeRmat({.numVertices = 90, .numEdges = 300, .seed = 45});
    GraphRNode node(functionalConfig());
    std::vector<VertexId> labels;
    node.runWcc(g, &labels);
    const WccResult golden = wcc(g);
    ASSERT_EQ(labels.size(), golden.labels.size());
    for (VertexId v = 0; v < g.numVertices(); ++v)
        EXPECT_EQ(labels[v], golden.labels[v]) << "vertex " << v;
}

TEST(EngineFunctionalTest, CfScheduleIndependentOfFunctionalFlag)
{
    // CF semantics always come from the golden SGD; the functional
    // flag must not change the modelled schedule or its cost.
    const CooGraph ratings = makeBipartiteRatings(32, 16, 200, 21);
    CfParams params;
    params.featureLength = 4;
    params.epochs = 2;
    params.numUsers = 32;

    GraphRNode functional(functionalConfig());
    GraphRConfig timing_cfg = functionalConfig();
    timing_cfg.functional = false;
    GraphRNode timing(timing_cfg);

    const SimReport a = functional.runCf(ratings, params);
    const SimReport b = timing.runCf(ratings, params);
    EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
    EXPECT_DOUBLE_EQ(a.joules, b.joules);
    EXPECT_EQ(a.tilesProcessed, b.tilesProcessed);
    EXPECT_EQ(a.edgesProcessed, b.edgesProcessed);
}

// ------------------------------------------- resident weights (kOnce)

TEST(ResidentWeightTest, KOnceProgramsEachTileOncePerRun)
{
    const CooGraph g =
        makeRmat({.numVertices = 64, .numEdges = 500, .seed = 51});
    GraphRConfig cfg = functionalConfig();
    cfg.programCharging = ProgramCharging::kOnce;
    GraphRNode node(cfg);

    PageRankParams params;
    params.maxIterations = 6;
    params.tolerance = 0.0;
    node.runPageRank(g, params);

    const std::uint64_t tiles =
        PlanCache::instance().get(g, cfg.tiling)->meta.tiles().size();
    ASSERT_GT(tiles, 0u);
    EXPECT_EQ(node.lastEngineStats().functionalTilePrograms, tiles);
    EXPECT_EQ(node.lastEngineStats().functionalTileLoads, tiles * 5);
}

TEST(ResidentWeightTest, PerSweepReprogramsEveryIteration)
{
    const CooGraph g =
        makeRmat({.numVertices = 64, .numEdges = 500, .seed = 51});
    GraphRConfig cfg = functionalConfig(); // kPerSweep default
    GraphRNode node(cfg);

    PageRankParams params;
    params.maxIterations = 6;
    params.tolerance = 0.0;
    node.runPageRank(g, params);

    const std::uint64_t tiles =
        PlanCache::instance().get(g, cfg.tiling)->meta.tiles().size();
    EXPECT_EQ(node.lastEngineStats().functionalTilePrograms, tiles * 6);
    EXPECT_EQ(node.lastEngineStats().functionalTileLoads, 0u);
}

TEST(ResidentWeightTest, KOnceResultsMatchReprogramExactly)
{
    const CooGraph g = makeRmat({.numVertices = 50,
                                 .numEdges = 400,
                                 .maxWeight = 9.0,
                                 .seed = 52});
    PageRankParams params;
    params.maxIterations = 8;
    params.tolerance = 0.0;

    GraphRConfig per_sweep = functionalConfig();
    GraphRConfig once = functionalConfig();
    once.programCharging = ProgramCharging::kOnce;

    std::vector<Value> ranks_per_sweep;
    std::vector<Value> ranks_once;
    GraphRNode(per_sweep).runPageRank(g, params, &ranks_per_sweep);
    GraphRNode(once).runPageRank(g, params, &ranks_once);
    ASSERT_EQ(ranks_per_sweep.size(), ranks_once.size());
    for (VertexId v = 0; v < g.numVertices(); ++v)
        EXPECT_DOUBLE_EQ(ranks_once[v], ranks_per_sweep[v]);

    std::vector<Value> dist_per_sweep;
    std::vector<Value> dist_once;
    GraphRNode(per_sweep).runSssp(g, 0, &dist_per_sweep);
    GraphRNode(once).runSssp(g, 0, &dist_once);
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        if (std::isinf(dist_per_sweep[v]))
            EXPECT_TRUE(std::isinf(dist_once[v])) << "vertex " << v;
        else
            EXPECT_DOUBLE_EQ(dist_once[v], dist_per_sweep[v])
                << "vertex " << v;
    }
}

TEST(ResidentWeightTest, AddOpProgramsEachTileAtMostOnce)
{
    const CooGraph g =
        makeRmat({.numVertices = 64, .numEdges = 500, .seed = 53});
    GraphRConfig cfg = functionalConfig();
    cfg.programCharging = ProgramCharging::kOnce;
    GraphRNode node(cfg);

    std::vector<Value> dist;
    node.runBfs(g, 0, &dist);

    const std::uint64_t tiles =
        PlanCache::instance().get(g, cfg.tiling)->meta.tiles().size();
    EXPECT_LE(node.lastEngineStats().functionalTilePrograms, tiles);

    const TraversalResult golden = bfs(g, 0);
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        if (std::isinf(golden.dist[v]))
            EXPECT_TRUE(std::isinf(dist[v]));
        else
            EXPECT_DOUBLE_EQ(dist[v], golden.dist[v]);
    }
}

// ---------------------------------------------- memoised golden counts

TEST(GoldenCacheTest, BaselinesShareOneGoldenPageRank)
{
    driver::clearGoldenCache();

    driver::SweepSpec spec;
    spec.workloads = {"pagerank"};
    spec.backends = {"all"};
    spec.datasets = {"rmat:vertices=128,edges=512,seed=3"};
    const std::vector<driver::RunResult> results =
        driver::runSweep(spec);
    ASSERT_EQ(results.size(), 6u);
    // All six backends report the same iteration count ...
    for (const driver::RunResult &r : results)
        EXPECT_EQ(r.iterations, results[0].iterations) << r.backend;
    // ... computed exactly once, on the sweep's one graph.
    EXPECT_EQ(driver::goldenCacheStats().misses, 1u);
    EXPECT_EQ(driver::goldenCacheStats().hits, 5u);
}

TEST(GoldenCacheTest, DistinctParamsMiss)
{
    driver::clearGoldenCache();
    const CooGraph g =
        makeRmat({.numVertices = 64, .numEdges = 256, .seed = 5});
    PageRankParams a;
    PageRankParams b;
    b.maxIterations = a.maxIterations + 1;
    b.tolerance = 0.0;
    EXPECT_EQ(goldenPageRankIterations(g, a), pagerank(g, a).iterations);
    EXPECT_EQ(goldenPageRankIterations(g, b), b.maxIterations);
    EXPECT_EQ(goldenPageRankIterations(g, a), pagerank(g, a).iterations);
    EXPECT_EQ(driver::goldenCacheStats().misses, 2u);
    EXPECT_EQ(driver::goldenCacheStats().hits, 1u);
}

// ------------------------------------------- report stability on reuse

TEST(EngineReportTest, CacheHitReportIdenticalToCacheMiss)
{
    PlanCache::instance().clear();
    const CooGraph g =
        makeRmat({.numVertices = 128, .numEdges = 512, .seed = 61});
    GraphRNode node{GraphRConfig{}};
    PageRankParams params;
    params.maxIterations = 10;
    params.tolerance = 0.0;

    const SimReport cold = node.runPageRank(g, params); // cache miss
    const SimReport warm = node.runPageRank(g, params); // cache hit
    EXPECT_FALSE(cold.algorithm.empty());
    EXPECT_DOUBLE_EQ(warm.seconds, cold.seconds);
    EXPECT_DOUBLE_EQ(warm.joules, cold.joules);
    EXPECT_EQ(warm.tilesProcessed, cold.tilesProcessed);
    EXPECT_EQ(warm.tilesSkipped, cold.tilesSkipped);
    EXPECT_EQ(warm.edgesProcessed, cold.edgesProcessed);
    EXPECT_TRUE(node.lastEngineStats().planCacheHit);
}

} // namespace
} // namespace graphr
