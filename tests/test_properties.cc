/**
 * @file
 * Cross-module property tests: invariants that must hold for every
 * (graph, architecture) combination, swept with TEST_P.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "algorithms/pagerank.hh"
#include "algorithms/traversal.hh"
#include "graph/generator.hh"
#include "graphr/node.hh"
#include "graph/tile_meta.hh"
#include "rram/salu.hh"

namespace graphr
{
namespace
{

/** (crossbarDim, crossbarsPerGe, numGe, vertices, edges, seed). */
using ConfigPoint = std::tuple<std::uint32_t, std::uint32_t,
                               std::uint32_t, VertexId, EdgeId,
                               std::uint64_t>;

class NodePropertyTest : public ::testing::TestWithParam<ConfigPoint>
{
  protected:
    GraphRConfig
    config() const
    {
        const auto [c, n, g, nv, ne, seed] = GetParam();
        (void)nv;
        (void)ne;
        (void)seed;
        GraphRConfig cfg;
        cfg.tiling.crossbarDim = c;
        cfg.tiling.crossbarsPerGe = n;
        cfg.tiling.numGe = g;
        return cfg;
    }

    CooGraph
    graph() const
    {
        const auto [c, n, g, nv, ne, seed] = GetParam();
        (void)c;
        (void)n;
        (void)g;
        return makeRmat({.numVertices = nv,
                         .numEdges = ne,
                         .maxWeight = 15.0,
                         .seed = seed});
    }
};

TEST_P(NodePropertyTest, PageRankReportInvariants)
{
    const CooGraph g = graph();
    GraphRNode node(config());
    PageRankParams params;
    params.maxIterations = 5;
    params.tolerance = 0.0;
    const SimReport rep = node.runPageRank(g, params);

    EXPECT_EQ(rep.iterations, 5u);
    EXPECT_EQ(rep.edgesProcessed, 5u * g.numEdges());
    EXPECT_GT(rep.seconds, 0.0);
    EXPECT_GT(rep.joules, 0.0);
    EXPECT_GT(rep.occupancy, 0.0);
    EXPECT_LE(rep.occupancy, 1.0);
    // Breakdown must account for the total exactly.
    EXPECT_NEAR(rep.energy.total(), rep.joules,
                1e-12 * std::max(1.0, rep.joules));
    // Component times are each bounded by... the serial sum.
    EXPECT_LE(rep.seconds, rep.programSeconds + rep.computeSeconds +
                               rep.streamSeconds + 1e-3);
}

TEST_P(NodePropertyTest, TileAccountingConsistent)
{
    const CooGraph g = graph();
    const GraphRConfig cfg = config();
    const GridPartition part(g.numVertices(), cfg.tiling);
    TileMetaTable meta(part);
    const OrderedEdgeList ordered(g, part, &meta);

    // Tile metadata conserves edges and respects geometry.
    std::uint64_t nnz = 0;
    for (std::size_t t = 0; t < meta.tiles().size(); ++t) {
        const TileMeta &m = meta.tiles()[t];
        nnz += m.nnz;
        EXPECT_GT(m.nnz, 0u);
        EXPECT_GE(m.crossbarsUsed, 1u);
        EXPECT_LE(m.crossbarsUsed,
                  cfg.tiling.crossbarsPerGe * cfg.tiling.numGe);
        EXPECT_GE(m.maxRowsProgrammed, 1u);
        EXPECT_LE(m.maxRowsProgrammed, cfg.tiling.crossbarDim);
        EXPECT_LE(m.nnzColumns, m.nnz);
        EXPECT_LE(m.nnzColumns, part.tileWidth());
        std::uint64_t row_sum = 0;
        for (std::uint32_t r : meta.rowNnz(t))
            row_sum += r;
        EXPECT_EQ(row_sum, m.nnz);
    }
    EXPECT_EQ(nnz, g.numEdges());
    EXPECT_EQ(meta.totalNnz(), g.numEdges());
}

TEST_P(NodePropertyTest, SsspActiveRowsBounded)
{
    const CooGraph g = graph();
    GraphRNode node(config());
    const SimReport rep = node.runSssp(g, 0);
    // Every processed tile has >= 1 active row and <= C rows.
    EXPECT_GE(rep.activeRowOps, rep.tilesProcessed);
    EXPECT_LE(rep.activeRowOps,
              rep.tilesProcessed * config().tiling.crossbarDim);
}

TEST_P(NodePropertyTest, EnergyMonotoneInIterations)
{
    const CooGraph g = graph();
    GraphRNode node(config());
    PageRankParams p2;
    p2.maxIterations = 2;
    p2.tolerance = 0.0;
    PageRankParams p6;
    p6.maxIterations = 6;
    p6.tolerance = 0.0;
    const SimReport r2 = node.runPageRank(g, p2);
    const SimReport r6 = node.runPageRank(g, p6);
    EXPECT_GT(r6.joules, r2.joules);
    EXPECT_GT(r6.seconds, r2.seconds);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NodePropertyTest,
    ::testing::Values(
        ConfigPoint{4u, 2u, 2u, 200, 1500, 1},
        ConfigPoint{8u, 4u, 4u, 500, 4000, 2},
        ConfigPoint{8u, 32u, 64u, 3000, 24000, 3},
        ConfigPoint{16u, 8u, 8u, 1000, 8000, 4},
        ConfigPoint{4u, 16u, 16u, 800, 2000, 5},
        ConfigPoint{32u, 2u, 4u, 400, 3000, 6}));

TEST(SaluTest, AllOpsBehave)
{
    Salu salu(SaluOp::kAdd);
    EXPECT_DOUBLE_EQ(salu.reduce(2.0, 3.0), 5.0);
    salu.configure(SaluOp::kMin);
    EXPECT_DOUBLE_EQ(salu.reduce(2.0, 3.0), 2.0);
    salu.configure(SaluOp::kMax);
    EXPECT_DOUBLE_EQ(salu.reduce(2.0, 3.0), 3.0);
    EXPECT_EQ(salu.opCount(), 3u);
    salu.resetCount();
    EXPECT_EQ(salu.opCount(), 0u);
}

TEST(SaluTest, VectorReduceMatchesPaperFigure15)
{
    // Fig. 15(a): add [2,4,5,3]+[7,2,3,1] -> [9,6,8,4].
    Salu add(SaluOp::kAdd);
    std::vector<double> reg = {2, 4, 5, 3};
    add.reduceInto(reg, {7, 2, 3, 1});
    EXPECT_EQ(reg, (std::vector<double>{9, 6, 8, 4}));

    // Fig. 15(b): min [3,9,4,2] vs [5,6,4,7] -> [3,6,4,2].
    Salu min_op(SaluOp::kMin);
    std::vector<double> reg2 = {5, 6, 4, 7};
    min_op.reduceInto(reg2, {3, 9, 4, 2});
    EXPECT_EQ(reg2, (std::vector<double>{3, 6, 4, 2}));
}

TEST(SaluTest, LengthMismatchPanics)
{
    Salu salu(SaluOp::kAdd);
    std::vector<double> reg = {1.0};
    EXPECT_DEATH(salu.reduceInto(reg, {1.0, 2.0}), "");
}

/** PageRank invariants across damping factors. */
class PageRankDampingTest : public ::testing::TestWithParam<double>
{
};

TEST_P(PageRankDampingTest, StochasticAndConverging)
{
    const CooGraph g = makeRmat(
        {.numVertices = 400, .numEdges = 3000, .seed = 10});
    PageRankParams params;
    params.damping = GetParam();
    params.maxIterations = 100;
    params.tolerance = 1e-10;
    const PageRankResult res = pagerank(g, params);
    double sum = 0.0;
    for (Value r : res.ranks) {
        EXPECT_GE(r, 0.0);
        sum += r;
    }
    EXPECT_NEAR(sum, 1.0, 1e-8);
    EXPECT_TRUE(res.converged);
}

INSTANTIATE_TEST_SUITE_P(Damping, PageRankDampingTest,
                         ::testing::Values(0.5, 0.8, 0.85, 0.95));

/** SSSP distance labels are a fixpoint for any source. */
class SsspSourceTest : public ::testing::TestWithParam<VertexId>
{
};

TEST_P(SsspSourceTest, FixpointNoEdgeRelaxable)
{
    const CooGraph g = makeRmat({.numVertices = 300,
                                 .numEdges = 2500,
                                 .maxWeight = 9.0,
                                 .seed = 11});
    const TraversalResult res = sssp(g, GetParam());
    for (const Edge &e : g.edges()) {
        if (std::isinf(res.dist[e.src]))
            continue;
        EXPECT_LE(res.dist[e.dst], res.dist[e.src] + e.weight + 1e-9);
    }
    EXPECT_DOUBLE_EQ(res.dist[GetParam()], 0.0);
}

INSTANTIATE_TEST_SUITE_P(Sources, SsspSourceTest,
                         ::testing::Values(0, 1, 17, 123, 299));

} // namespace
} // namespace graphr
