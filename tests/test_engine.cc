/**
 * @file
 * Tests of the tile-execution engine layer (graphr/engine/): plan
 * fingerprinting, PlanCache reuse across runs/backends, config
 * validation (the crossbarDim <= 64 row-mask invariant), functional
 * vs reference equivalence for all six algorithms through the shared
 * TileExecutor, resident-weight (ProgramCharging::kOnce) program
 * counting, the add-op walk over recorded frontier schedules, and the
 * driver's golden-PageRank cache.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "algorithms/pagerank.hh"
#include "algorithms/spmv.hh"
#include "algorithms/traversal.hh"
#include "algorithms/wcc.hh"
#include "common/random.hh"
#include "driver/driver.hh"
#include "driver/golden_cache.hh"
#include "graph/generator.hh"
#include "graphr/cost_model.hh"
#include "graphr/engine/plan_cache.hh"
#include "graphr/engine/tile_executor.hh"
#include "graphr/multi_node.hh"
#include "graphr/node.hh"
#include "graphr/out_of_core.hh"
#include "sim_report_eq.hh"

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

TEST(TilePlanTest, ResidentPlansKeepAboutTwoBytesAnEdge)
{
    // A plan holds its delta-coded stream, the tile directory and the
    // metadata table, not 16-byte edge records: at the paper's tiling
    // both the plain and the symmetrised plan of a 131k-edge R-MAT
    // graph take at most 5 bytes an edge in all (17.7 and 16.9 while
    // plans kept ordered edge records).
    const CooGraph g = makeRmat(
        {.numVertices = 16384, .numEdges = 131072, .seed = 7});
    const TilingParams paper;
    const TilePlan plain(g, paper);
    const TilePlan symmetric(SymmetrizedView(g), paper);
    const double plain_per_edge = static_cast<double>(plain.bytes()) /
                                  static_cast<double>(g.numEdges());
    const double symmetric_per_edge =
        static_cast<double>(symmetric.bytes()) /
        static_cast<double>(symmetric.ordered.numEdges());
    EXPECT_LE(plain_per_edge, 5.0);
    EXPECT_LE(symmetric_per_edge, 5.0);
    // The stream is the bulk of it, and every byte is counted.
    EXPECT_GE(plain.bytes(), plain.ordered.stream().size() +
                                 plain.meta.tiles().size() *
                                     sizeof(TileMeta));
}

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

// ------------------------------------- add-op walk over a schedule

/** The add-op start GraphRNode builds for a BFS/SSSP from @p source. */
AddOpSpec
sourceSpec(const CooGraph &g, VertexId source, WeightMode mode)
{
    AddOpSpec spec;
    spec.initLabels.assign(g.numVertices(), kInfDistance);
    spec.initActive.assign(g.numVertices(), false);
    spec.initLabels[source] = 0.0;
    spec.initActive[source] = true;
    spec.mode = mode;
    return spec;
}

/** The add-op start of WCC over @p g's edges read both ways. */
AddOpSpec
wccSpec(const CooGraph &g)
{
    AddOpSpec spec;
    for (VertexId v = 0; v < g.numVertices(); ++v)
        spec.initLabels.push_back(static_cast<Value>(v));
    spec.initActive.assign(g.numVertices(), true);
    spec.mode = WeightMode::kZero;
    spec.directions = EdgeDirections::kBoth;
    return spec;
}

/** The plan an add-op run of @p spec over @p g walks. */
TilePlanPtr
addOpPlan(const GraphRConfig &cfg, const CooGraph &g, const AddOpSpec &spec)
{
    return spec.directions == EdgeDirections::kBoth
               ? PlanCache::instance().get(SymmetrizedView(g), cfg.tiling)
               : PlanCache::instance().get(g, cfg.tiling);
}

/**
 * The timing report of @p spec's rounds by definition: every round
 * tests every tile of the plan, in plan order, against the round's
 * active flags and prices each tile it touches. Read both ways, the
 * rounds are those over the copy symmetrize(g).
 */
SimReport
referenceAddOpReport(const GraphRConfig &cfg, const TilePlan &plan,
                     const CooGraph &g, const AddOpSpec &spec,
                     const char *name)
{
    const CostModel cost_model(cfg);
    const bool once = cfg.programCharging == ProgramCharging::kOnce;
    const std::uint32_t dim = plan.partition.crossbarDim();
    SimReport report;
    report.algorithm = name;
    report.occupancy = plan.ordered.occupancy();
    EnergyEvents events;
    double total_ns = 0.0;
    double prog_ns = 0.0;
    double comp_ns = 0.0;
    double stream_ns = 0.0;
    if (once) {
        for (const TileMeta &meta : plan.meta.tiles()) {
            const TileCost cost = cost_model.addOpTile(meta, 0, events);
            prog_ns += cost.programNs;
            stream_ns += cost.streamNs;
            total_ns += cfg.pipelineTiles
                            ? std::max(cost.overlappedProgramNs,
                                       cost.streamNs)
                            : cost.programNs + cost.streamNs;
        }
    }

    const CooGraph relaxed =
        spec.directions == EdgeDirections::kBoth ? symmetrize(g) : g;
    RelaxationSweep sweep(relaxed, spec.initLabels, spec.initActive,
                          spec.mode);
    for (; !sweep.done(); sweep.step()) {
        for (std::size_t t = 0; t < plan.meta.tiles().size(); ++t) {
            const TileMeta &meta = plan.meta.tiles()[t];
            std::uint64_t mask = 0;
            for (std::uint32_t r = 0; r < dim; ++r) {
                const std::uint64_t v = meta.row0 + r;
                if (v < g.numVertices() && sweep.active()[v])
                    mask |= std::uint64_t{1} << r;
            }
            mask &= meta.rowMask;
            if (mask == 0) {
                ++report.tilesSkipped;
                continue;
            }
            const auto rows =
                static_cast<std::uint32_t>(std::popcount(mask));
            EnergyEvents tile_events;
            const TileCost cost =
                cost_model.addOpTile(meta, rows, tile_events);
            if (once) {
                tile_events.arrayWrites = 0;
                tile_events.memBytes = 0;
                total_ns += cost.computeNs;
            } else {
                prog_ns += cost.programNs;
                stream_ns += cost.streamNs;
                total_ns += cost.totalNs(cfg.pipelineTiles);
            }
            events += tile_events;
            comp_ns += cost.computeNs;
            ++report.tilesProcessed;
            report.activeRowOps += rows;
            for (; mask != 0; mask &= mask - 1)
                report.edgesProcessed +=
                    plan.meta.rowNnz(t)[std::countr_zero(mask)];
        }
        total_ns += cost_model.iterationOverheadNs();
        ++report.iterations;
    }

    report.seconds = total_ns * 1e-9;
    report.programSeconds = prog_ns * 1e-9;
    report.computeSeconds = comp_ns * 1e-9;
    report.streamSeconds = stream_ns * 1e-9;
    EnergyLedger ledger(cfg.device);
    ledger.events() = events;
    report.events = events;
    report.energy = ledger.breakdown();
    report.energy.peripheral =
        cfg.device.peripheralActiveWatts * report.seconds;
    report.joules = report.energy.total();
    return report;
}

/**
 * addOpRun prices a recorded schedule exactly as a live sweep: the
 * same report field by field, the same labels, the same ids shown to
 * the observer round by round. Both reports equal, to the last bit,
 * the walk that tests every tile every round.
 */
void
expectRecordedWalkIsLiveWalk(const GraphRConfig &cfg, const CooGraph &g,
                             AddOpSpec spec, const char *name)
{
    SCOPED_TRACE(name);
    const TilePlanPtr plan = addOpPlan(cfg, g, spec);
    std::vector<std::vector<VertexId>> live_rounds;
    std::vector<std::vector<VertexId>> recorded_rounds;

    AddOpSpec live = spec;
    live.onRound = [&live_rounds](std::span<const VertexId> ids) {
        live_rounds.emplace_back(ids.begin(), ids.end());
    };
    TileExecutor live_exec(cfg, plan);
    std::vector<Value> live_labels;
    const SimReport want = live_exec.addOpRun(g, live, name, &live_labels);

    AddOpSpec recorded = spec;
    recorded.schedule = std::make_shared<const FrontierSchedule>(
        recordSchedule(RelaxationSweep(g, spec.initLabels,
                                       spec.initActive, spec.mode,
                                       spec.directions),
                       SIZE_MAX));
    recorded.onRound = [&recorded_rounds](std::span<const VertexId> ids) {
        recorded_rounds.emplace_back(ids.begin(), ids.end());
    };
    TileExecutor exec(cfg, plan);
    std::vector<Value> labels;
    const SimReport got = exec.addOpRun(g, recorded, name, &labels);

    expectSameSimReport(got, want);
    EXPECT_EQ(recorded_rounds, live_rounds);
    EXPECT_EQ(labels, live_labels);
    EXPECT_EQ(exec.stats().functionalTilePrograms,
              live_exec.stats().functionalTilePrograms);
    EXPECT_EQ(exec.stats().functionalTileLoads,
              live_exec.stats().functionalTileLoads);

    expectSameSimReport(got, referenceAddOpReport(cfg, *plan, g, spec,
                                                  name));
}

TEST(ScheduleWalkTest, RecordedScheduleReportsEqualLiveSweep)
{
    // Big enough that rounds touching few tiles span several tile
    // rows and columns, so their tiles must be sorted into plan order.
    const CooGraph g = makeRmat({.numVertices = 2000,
                                 .numEdges = 16000,
                                 .maxWeight = 7.0,
                                 .seed = 71});
    std::vector<std::pair<std::string, GraphRConfig>> tilings;
    for (const std::uint32_t block : {48u, 50u, 256u}) {
        GraphRConfig cfg;
        cfg.tiling.crossbarDim = 4;
        cfg.tiling.crossbarsPerGe = 2;
        cfg.tiling.numGe = 3;
        cfg.tiling.blockSize = block;
        tilings.emplace_back("C4 N2 G3 B" + std::to_string(block), cfg);
    }
    tilings.emplace_back("default", GraphRConfig{});

    for (const auto &[tiling, base] : tilings) {
        for (const ProgramCharging charging :
             {ProgramCharging::kOnce, ProgramCharging::kPerSweep}) {
            for (const bool pipeline : {true, false}) {
                for (const bool functional : {false, true}) {
                    GraphRConfig cfg = base;
                    cfg.programCharging = charging;
                    cfg.pipelineTiles = pipeline;
                    cfg.functional = functional;
                    SCOPED_TRACE(
                        tiling +
                        (charging == ProgramCharging::kOnce ? " once"
                                                            : " per-sweep") +
                        (pipeline ? " pipelined" : "") +
                        (functional ? " functional" : " timing"));
                    for (const VertexId source : {0u, 177u, 1999u}) {
                        expectRecordedWalkIsLiveWalk(
                            cfg, g,
                            sourceSpec(g, source, WeightMode::kUnit), "bfs");
                        expectRecordedWalkIsLiveWalk(
                            cfg, g,
                            sourceSpec(g, source, WeightMode::kOriginal),
                            "sssp");
                    }
                    expectRecordedWalkIsLiveWalk(cfg, g, wccSpec(g),
                                                 "wcc");
                }
            }
        }
    }
}

TEST(ScheduleWalkTest, OverCapScheduleKeepsItsRoundsAndRunsMatch)
{
    // A weighted grid re-relaxes its vertices over many rounds: its
    // SSSP frontier outgrows 1/16 of the graph's edge bytes.
    const CooGraph g = makeGrid2d(40, 40, 7, 10.0);
    const TraversalResult golden = sssp(g, 0);
    const std::shared_ptr<const FrontierSchedule> schedule =
        ssspSchedule(g, 0);
    EXPECT_FALSE(schedule->recorded());
    EXPECT_EQ(schedule->bytes(), 0u);
    EXPECT_EQ(schedule->rounds(), golden.iterations);
    const FrontierSchedule full =
        recordSchedule(RelaxationSweep(g, 0, false), SIZE_MAX);
    EXPECT_GT(full.bytes(), FrontierSchedule::capFor(g.numEdges()));

    for (const bool functional : {false, true}) {
        SCOPED_TRACE(functional ? "functional" : "timing");
        GraphRConfig cfg = functionalConfig();
        cfg.functional = functional;

        // The node replays the relaxation live; its report is the
        // walk of the full recording.
        GraphRNode node(cfg);
        std::vector<Value> dist;
        const SimReport got = node.runSssp(g, 0, &dist);
        AddOpSpec spec = sourceSpec(g, 0, WeightMode::kOriginal);
        spec.schedule = std::make_shared<const FrontierSchedule>(full);
        TileExecutor exec(cfg, PlanCache::instance().get(g, cfg.tiling));
        expectSameSimReport(got, exec.addOpRun(g, spec, "sssp", nullptr));
        EXPECT_EQ(got.iterations,
                  static_cast<std::uint64_t>(golden.iterations));
        EXPECT_EQ(dist, golden.dist);

        // The out-of-core node report is the same run's, and the
        // cluster charges the schedule's rounds.
        const OutOfCoreReport ooc =
            OutOfCoreRunner(cfg, StorageParams{}).runSssp(g, 0);
        expectSameSimReport(ooc.node, got);
        EXPECT_EQ(MultiNodeGraphR(cfg, 3).runSssp(g, 0).iterations,
                  static_cast<std::uint64_t>(golden.iterations));
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
