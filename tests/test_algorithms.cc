/**
 * @file
 * Tests for the golden reference algorithms (Table 2 workloads) and
 * the relaxation rounds the simulator replays (RelaxationSweep,
 * FrontierSchedule).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/collaborative_filtering.hh"
#include "algorithms/pagerank.hh"
#include "algorithms/spmv.hh"
#include "algorithms/traversal.hh"
#include "algorithms/wcc.hh"
#include "graph/csr.hh"
#include "graph/generator.hh"
#include "graph/graph_memo.hh"

namespace graphr
{
namespace
{

TEST(PageRankTest, RanksSumToOne)
{
    const CooGraph g =
        makeRmat({.numVertices = 500, .numEdges = 4000, .seed = 1});
    const PageRankResult res = pagerank(g, {.maxIterations = 50});
    double sum = 0.0;
    for (Value r : res.ranks)
        sum += r;
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(PageRankTest, ConvergesOnSmallGraph)
{
    const CooGraph g = makeComplete(10);
    const PageRankResult res =
        pagerank(g, {.maxIterations = 100, .tolerance = 1e-10});
    EXPECT_TRUE(res.converged);
    // Complete graph is symmetric: uniform ranks.
    for (Value r : res.ranks)
        EXPECT_NEAR(r, 0.1, 1e-8);
}

TEST(PageRankTest, StarConcentratesRankAtLeaves)
{
    // Star 0 -> {1..9}: hub has no in-edges, so leaves outrank it.
    const CooGraph g = makeStar(10);
    const PageRankResult res = pagerank(g, {.maxIterations = 60});
    for (VertexId v = 1; v < 10; ++v)
        EXPECT_GT(res.ranks[v], res.ranks[0]);
}

TEST(PageRankTest, MatchesHandComputedTwoVertexCycle)
{
    CooGraph g(2, {});
    g.addEdge(0, 1);
    g.addEdge(1, 0);
    const PageRankResult res =
        pagerank(g, {.damping = 0.8, .maxIterations = 200,
                     .tolerance = 1e-12});
    // Symmetric cycle: exact answer 0.5 each.
    EXPECT_NEAR(res.ranks[0], 0.5, 1e-10);
    EXPECT_NEAR(res.ranks[1], 0.5, 1e-10);
}

TEST(PageRankTest, DanglingMassRedistributed)
{
    // 0 -> 1, 1 dangles. Ranks must still sum to 1.
    CooGraph g(2, {});
    g.addEdge(0, 1);
    const PageRankResult res = pagerank(g, {.maxIterations = 100});
    EXPECT_NEAR(res.ranks[0] + res.ranks[1], 1.0, 1e-9);
    EXPECT_GT(res.ranks[1], res.ranks[0]);
}

TEST(BfsTest, ChainLevels)
{
    const CooGraph g = makeChain(8);
    const TraversalResult res = bfs(g, 0);
    for (VertexId v = 0; v < 8; ++v)
        EXPECT_DOUBLE_EQ(res.dist[v], static_cast<double>(v));
    EXPECT_EQ(res.iterations, 8); // last round discovers nothing new
}

TEST(BfsTest, UnreachableStaysInfinite)
{
    CooGraph g(4, {});
    g.addEdge(0, 1);
    const TraversalResult res = bfs(g, 0);
    EXPECT_DOUBLE_EQ(res.dist[1], 1.0);
    EXPECT_TRUE(std::isinf(res.dist[2]));
    EXPECT_TRUE(std::isinf(res.dist[3]));
}

TEST(BfsTest, ParentsFormTree)
{
    const CooGraph g =
        makeRmat({.numVertices = 200, .numEdges = 2000, .seed = 2});
    const TraversalResult res = bfs(g, 0);
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        if (std::isinf(res.dist[v]) || v == 0)
            continue;
        ASSERT_NE(res.parent[v], kInvalidVertex);
        EXPECT_DOUBLE_EQ(res.dist[v], res.dist[res.parent[v]] + 1.0);
    }
}

TEST(SsspTest, PaperFigure16Example)
{
    // The 8-vertex block of paper Fig. 16(c1): sources i0..i3 with
    // initial distances [4,3,1,2], W = [M,1,5,M; M,M,3,1; M,M,M,M;
    // M,M,1,M], initial dest distances [7,6,M,M].
    // We reproduce with explicit vertices: i0..i3 = 0..3, j0..j3 =
    // 4..7, plus a virtual source 8 wired to match initial labels.
    CooGraph g(9, {});
    g.addEdge(8, 0, 4.0);
    g.addEdge(8, 1, 3.0);
    g.addEdge(8, 2, 1.0);
    g.addEdge(8, 3, 2.0);
    g.addEdge(8, 4, 7.0);
    g.addEdge(8, 5, 6.0);
    g.addEdge(0, 5, 1.0);
    g.addEdge(0, 6, 5.0);
    g.addEdge(1, 6, 3.0);
    g.addEdge(1, 7, 1.0);
    g.addEdge(3, 6, 1.0);
    const TraversalResult res = sssp(g, 8);
    // Paper's final labels after t=4: [7,5,3,4] for j0..j3.
    EXPECT_DOUBLE_EQ(res.dist[4], 7.0);
    EXPECT_DOUBLE_EQ(res.dist[5], 5.0);
    EXPECT_DOUBLE_EQ(res.dist[6], 3.0);
    EXPECT_DOUBLE_EQ(res.dist[7], 4.0);
}

TEST(SsspTest, TriangleInequalityInvariant)
{
    const CooGraph g = makeRmat({.numVertices = 300,
                                 .numEdges = 3000,
                                 .maxWeight = 15.0,
                                 .seed = 3});
    const TraversalResult res = sssp(g, 0);
    // Property: for every edge (u, v), dist[v] <= dist[u] + w.
    for (const Edge &e : g.edges()) {
        if (std::isinf(res.dist[e.src]))
            continue;
        EXPECT_LE(res.dist[e.dst], res.dist[e.src] + e.weight + 1e-9);
    }
}

TEST(SsspTest, BfsIsUnitWeightSssp)
{
    const CooGraph weighted = makeRmat(
        {.numVertices = 200, .numEdges = 1500, .seed = 4});
    // Force unit weights, then bfs == sssp.
    std::vector<Edge> edges(weighted.edges().begin(),
                            weighted.edges().end());
    for (Edge &e : edges)
        e.weight = 1.0;
    const CooGraph g(weighted.numVertices(), std::move(edges));
    const TraversalResult b = bfs(g, 5);
    const TraversalResult s = sssp(g, 5);
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        if (std::isinf(b.dist[v])) {
            EXPECT_TRUE(std::isinf(s.dist[v]));
        } else {
            EXPECT_DOUBLE_EQ(b.dist[v], s.dist[v]);
        }
    }
}

TEST(SsspTest, GridShortestPathsAreManhattanBounded)
{
    const CooGraph g = makeGrid2d(6, 6, 7, 1.0); // unit weights
    const TraversalResult res = sssp(g, 0);
    for (VertexId y = 0; y < 6; ++y) {
        for (VertexId x = 0; x < 6; ++x) {
            EXPECT_DOUBLE_EQ(res.dist[y * 6 + x],
                             static_cast<double>(x + y));
        }
    }
}

TEST(RelaxationSweepTest, MatchesBatchSssp)
{
    const CooGraph g = makeRmat({.numVertices = 150,
                                 .numEdges = 1200,
                                 .maxWeight = 7.0,
                                 .seed = 5});
    const TraversalResult batch = sssp(g, 0);
    RelaxationSweep sweep(g, 0, false);
    int rounds = 0;
    while (!sweep.done()) {
        sweep.step();
        ++rounds;
    }
    EXPECT_EQ(rounds, batch.iterations);
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        if (std::isinf(batch.dist[v])) {
            EXPECT_TRUE(std::isinf(sweep.dist()[v]));
        } else {
            EXPECT_DOUBLE_EQ(sweep.dist()[v], batch.dist[v]);
        }
    }
}

// ------------------------------------------------ frontier schedules

/**
 * The relaxation rounds by definition: each round scans every vertex,
 * relaxes the active ones in ascending order with labels updated in
 * place, and activates the vertices it improved. Returns each round's
 * active ids; @p dist ends at the final labels.
 */
std::vector<std::vector<VertexId>>
referenceRounds(const CooGraph &g, std::vector<Value> &dist,
                std::vector<bool> active, WeightMode mode)
{
    const CsrGraph out(g, CsrGraph::Direction::kOut);
    std::vector<std::vector<VertexId>> rounds;
    for (;;) {
        std::vector<VertexId> ids;
        for (VertexId v = 0; v < g.numVertices(); ++v) {
            if (active[v])
                ids.push_back(v);
        }
        if (ids.empty())
            return rounds;
        rounds.push_back(ids);
        std::vector<bool> next(g.numVertices(), false);
        for (const VertexId u : ids) {
            for (const Adjacency &adj : out.neighbors(u)) {
                const Value w = mode == WeightMode::kOriginal ? adj.weight
                                : mode == WeightMode::kUnit   ? 1.0
                                                              : 0.0;
                if (dist[u] + w < dist[adj.neighbor]) {
                    dist[adj.neighbor] = dist[u] + w;
                    next[adj.neighbor] = true;
                }
            }
        }
        active = std::move(next);
    }
}

/** @p sweep's rounds and final labels are the reference's, and an
 *  uncapped recording of the same sweep keeps every round. */
void
expectSweepIsReference(RelaxationSweep sweep, const CooGraph &g,
                       std::vector<Value> dist, std::vector<bool> active,
                       WeightMode mode)
{
    const std::vector<std::vector<VertexId>> want =
        referenceRounds(g, dist, std::move(active), mode);

    const FrontierSchedule recorded = recordSchedule(sweep, SIZE_MAX);
    ASSERT_TRUE(recorded.recorded());
    ASSERT_EQ(recorded.rounds(), static_cast<int>(want.size()));

    std::size_t r = 0;
    for (; !sweep.done(); sweep.step(), ++r) {
        ASSERT_LT(r, want.size());
        const std::span<const VertexId> ids = sweep.activeIds();
        EXPECT_EQ(std::vector<VertexId>(ids.begin(), ids.end()), want[r])
            << "round " << r;
        const std::span<const VertexId> kept =
            recorded.round(static_cast<int>(r));
        EXPECT_EQ(std::vector<VertexId>(kept.begin(), kept.end()), want[r])
            << "round " << r;
    }
    EXPECT_EQ(r, want.size());
    EXPECT_EQ(sweep.dist(), dist);
}

TEST(FrontierScheduleTest, SweepRoundsAreTheDefinitionOnEveryFamily)
{
    const std::pair<std::string, CooGraph> families[] = {
        {"rmat", makeRmat({.numVertices = 600,
                           .numEdges = 4800,
                           .maxWeight = 9.0,
                           .seed = 21})},
        {"er", makeErdosRenyi(500, 3000, 22, 5.0)},
        {"grid", makeGrid2d(24, 17, 23)},
        {"chain", makeChain(90)},
        {"star", makeStar(70)},
        {"complete", makeComplete(25)},
        {"bipartite", makeBipartiteRatings(60, 40, 700, 24)},
    };
    for (const auto &[family, g] : families) {
        SCOPED_TRACE(family);
        const VertexId nv = g.numVertices();
        for (const VertexId source : {VertexId{0}, nv / 3, nv - 1}) {
            SCOPED_TRACE("source " + std::to_string(source));
            // The memo's schedules run the golden rounds, and keep
            // their ids only within the cap.
            for (const auto &schedule :
                 {bfsSchedule(g, source), ssspSchedule(g, source)}) {
                EXPECT_LE(schedule->bytes(), schedule->cap());
                EXPECT_EQ(schedule->cap(),
                          FrontierSchedule::capFor(g.numEdges()));
            }
            EXPECT_EQ(bfsSchedule(g, source)->rounds(),
                      bfs(g, source).iterations);
            EXPECT_EQ(ssspSchedule(g, source)->rounds(),
                      sssp(g, source).iterations);

            std::vector<Value> dist(nv, kInfDistance);
            std::vector<bool> active(nv, false);
            dist[source] = 0.0;
            active[source] = true;
            for (const WeightMode mode :
                 {WeightMode::kUnit, WeightMode::kOriginal}) {
                expectSweepIsReference(
                    RelaxationSweep(g, source, mode == WeightMode::kUnit),
                    g, dist, active, mode);
            }
        }

        const CooGraph sym = symmetrize(g);
        std::vector<Value> labels(nv);
        for (VertexId v = 0; v < nv; ++v)
            labels[v] = static_cast<Value>(v);
        expectSweepIsReference(makeWccSweep(g), sym, labels,
                               std::vector<bool>(nv, true),
                               WeightMode::kZero);
        EXPECT_EQ(wccSchedule(g)->rounds(),
                  recordSchedule(makeWccSweep(g), 0).rounds());
    }
}

TEST(FrontierScheduleTest, PastTheCapOnlyRoundsAreKept)
{
    // 40 bytes: the first round (two ids, two offsets) fits, the
    // second does not.
    FrontierSchedule schedule(40);
    const VertexId first[] = {1, 2};
    schedule.addRound(first);
    EXPECT_TRUE(schedule.recorded());
    EXPECT_EQ(schedule.bytes(), 2 * sizeof(VertexId) +
                                    2 * sizeof(std::size_t));
    EXPECT_EQ(std::vector<VertexId>(schedule.round(0).begin(),
                                    schedule.round(0).end()),
              std::vector<VertexId>({1, 2}));

    const VertexId second[] = {3, 4, 5};
    schedule.addRound(second);
    schedule.addRound({});
    schedule.finish();
    EXPECT_FALSE(schedule.recorded());
    EXPECT_EQ(schedule.rounds(), 3);
    EXPECT_EQ(schedule.bytes(), 0u);
}

TEST(SpmvTest, MatchesDenseComputation)
{
    CooGraph g(4, {});
    g.addEdge(0, 2, 3.0);
    g.addEdge(0, 3, 8.0);
    g.addEdge(1, 2, 7.0);
    g.addEdge(2, 0, 1.0);
    g.addEdge(3, 1, 4.0);
    g.addEdge(3, 3, 2.0);
    const std::vector<Value> x = {1.0, 2.0, 3.0, 4.0};
    const std::vector<Value> y = spmvRaw(g, x);
    // y[dst] = sum over edges into dst of x[src] * w.
    EXPECT_DOUBLE_EQ(y[0], 3.0 * 1.0);
    EXPECT_DOUBLE_EQ(y[1], 4.0 * 4.0);
    EXPECT_DOUBLE_EQ(y[2], 1.0 * 3.0 + 2.0 * 7.0);
    EXPECT_DOUBLE_EQ(y[3], 1.0 * 8.0 + 4.0 * 2.0);
}

TEST(SpmvTest, NormalizedVariantUsesOutDegree)
{
    CooGraph g(3, {});
    g.addEdge(0, 1, 1.0);
    g.addEdge(0, 2, 1.0);
    const std::vector<Value> y = spmv(g, {1.0, 0.0, 0.0});
    EXPECT_DOUBLE_EQ(y[1], 0.5);
    EXPECT_DOUBLE_EQ(y[2], 0.5);
}

TEST(CfTest, RmseDecreasesOverEpochs)
{
    const CooGraph ratings = makeBipartiteRatings(200, 50, 4000, 6);
    CfParams params;
    params.numUsers = 200;
    params.featureLength = 8;
    params.epochs = 8;
    const CfResult res = collaborativeFiltering(ratings, params);
    ASSERT_EQ(res.rmsePerEpoch.size(), 8u);
    EXPECT_LT(res.rmsePerEpoch.back(), res.rmsePerEpoch.front());
    EXPECT_LT(res.rmsePerEpoch.back(), 1.5);
}

TEST(CfTest, FactorDimensionsCorrect)
{
    const CooGraph ratings = makeBipartiteRatings(10, 5, 100, 7);
    CfParams params;
    params.numUsers = 10;
    params.featureLength = 4;
    params.epochs = 1;
    const CfResult res = collaborativeFiltering(ratings, params);
    EXPECT_EQ(res.userFactors.size(), 40u);
    EXPECT_EQ(res.itemFactors.size(), 20u);
}

} // namespace
} // namespace graphr
