/**
 * @file
 * Unit tests for the synthetic graph generators and named datasets.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "graph/datasets.hh"
#include "graph/generator.hh"

namespace graphr
{
namespace
{

TEST(RmatTest, ProducesRequestedCounts)
{
    RmatParams p;
    p.numVertices = 1000;
    p.numEdges = 5000;
    const CooGraph g = makeRmat(p);
    EXPECT_EQ(g.numVertices(), 1000u);
    EXPECT_EQ(g.numEdges(), 5000u);
    for (const Edge &e : g.edges()) {
        EXPECT_LT(e.src, 1000u);
        EXPECT_LT(e.dst, 1000u);
        EXPECT_NE(e.src, e.dst); // self loops removed by default
    }
}

TEST(RmatTest, DeterministicForSeed)
{
    RmatParams p;
    p.numVertices = 256;
    p.numEdges = 1024;
    p.seed = 5;
    const CooGraph a = makeRmat(p);
    const CooGraph b = makeRmat(p);
    ASSERT_EQ(a.numEdges(), b.numEdges());
    for (std::size_t i = 0; i < a.numEdges(); ++i)
        EXPECT_EQ(a.edges()[i], b.edges()[i]);
}

TEST(RmatTest, SkewedDegreeDistribution)
{
    RmatParams p;
    p.numVertices = 4096;
    p.numEdges = 40960;
    const CooGraph g = makeRmat(p);
    const auto deg = g.outDegrees();
    EdgeId max_deg = 0;
    for (EdgeId d : deg)
        max_deg = std::max(max_deg, d);
    const double mean =
        static_cast<double>(g.numEdges()) / g.numVertices();
    // R-MAT hubs should far exceed the mean degree.
    EXPECT_GT(static_cast<double>(max_deg), 8.0 * mean);
}

TEST(RmatTest, WeightsWithinRange)
{
    RmatParams p;
    p.numVertices = 128;
    p.numEdges = 512;
    p.maxWeight = 15.0;
    const CooGraph g = makeRmat(p);
    for (const Edge &e : g.edges()) {
        EXPECT_GE(e.weight, 1.0);
        EXPECT_LE(e.weight, 15.0);
        EXPECT_DOUBLE_EQ(e.weight, std::floor(e.weight));
    }
}

TEST(RmatTest, CanDrawEdgeIsTheRuleTheDrawFollows)
{
    struct Case
    {
        VertexId vertices;
        double a, b, c, d;
        bool removeSelfLoops;
        bool can;
    };
    const Case cases[] = {
        {1024, 0.57, 0.19, 0.19, 0.05, true, true},
        {4, 1, 0, 0, 0, true, false},  // only the self loop (0,0)
        {4, 1, 0, 0, 0, false, true},  // ... which is then kept
        {4, 1, 1e-7, 0, 0, true, false}, // a covers all of [0,1)
        {4, 0.1, 1e-17, 0, 0.9, true, false}, // b holds no 2^-53 step
        {8, 0, 1, 0, 0, true, true},   // (0,7) is in range
        {6, 0, 1, 0, 0, true, false},  // (0,7) is not
        {6, 0, 1, 1e-7, 0, true, false}, // a+b covers all of [0,1)
        {6, 0, 0.5, 0.5, 0, true, true}, // complements like (3,4)
        {6, 0, 0.5, 0, 0.5, true, false},
        {6, 0.5, 0, 0.5, 0, true, true}, // (1,0)
    };
    for (const Case &k : cases) {
        RmatParams p;
        p.numVertices = k.vertices;
        p.numEdges = 64;
        p.a = k.a;
        p.b = k.b;
        p.c = k.c;
        p.d = k.d;
        p.removeSelfLoops = k.removeSelfLoops;
        SCOPED_TRACE(::testing::Message()
                     << k.vertices << " vertices, a=" << k.a
                     << " b=" << k.b << " c=" << k.c << " d=" << k.d);
        ASSERT_EQ(rmatCanDrawEdge(p), k.can);
        if (!k.can)
            continue;
        const CooGraph g = makeRmat(p);
        EXPECT_EQ(g.numEdges(), 64u);
        for (const Edge &e : g.edges()) {
            EXPECT_LT(e.src, k.vertices);
            EXPECT_LT(e.dst, k.vertices);
            if (k.removeSelfLoops) {
                EXPECT_NE(e.src, e.dst);
            }
        }
    }
}

TEST(ErdosRenyiTest, CountsAndNoSelfLoops)
{
    const CooGraph g = makeErdosRenyi(500, 2000, 3);
    EXPECT_EQ(g.numVertices(), 500u);
    EXPECT_EQ(g.numEdges(), 2000u);
    for (const Edge &e : g.edges())
        EXPECT_NE(e.src, e.dst);
}

TEST(Grid2dTest, StructureIsBidirectional4Connected)
{
    const CooGraph g = makeGrid2d(5, 4);
    EXPECT_EQ(g.numVertices(), 20u);
    // Edges: horizontal 4*4*2 + vertical 5*3*2 = 62.
    EXPECT_EQ(g.numEdges(), 62u);
    // Every edge has its reverse with the same weight.
    for (const Edge &e : g.edges()) {
        bool reverse = false;
        for (const Edge &r : g.edges()) {
            if (r.src == e.dst && r.dst == e.src &&
                r.weight == e.weight) {
                reverse = true;
                break;
            }
        }
        EXPECT_TRUE(reverse);
    }
}

TEST(SimpleTopologiesTest, ChainStarComplete)
{
    const CooGraph chain = makeChain(10);
    EXPECT_EQ(chain.numEdges(), 9u);
    const CooGraph star = makeStar(10);
    EXPECT_EQ(star.numEdges(), 9u);
    EXPECT_EQ(star.outDegrees()[0], 9u);
    const CooGraph complete = makeComplete(5);
    EXPECT_EQ(complete.numEdges(), 20u);
}

TEST(BipartiteTest, EdgesGoUserToItem)
{
    const CooGraph g = makeBipartiteRatings(100, 20, 1000, 9);
    EXPECT_EQ(g.numVertices(), 120u);
    EXPECT_EQ(g.numEdges(), 1000u);
    for (const Edge &e : g.edges()) {
        EXPECT_LT(e.src, 100u);
        EXPECT_GE(e.dst, 100u);
        EXPECT_GE(e.weight, 1.0);
        EXPECT_LE(e.weight, 5.0);
    }
}

TEST(DatasetTest, TableHasSevenEntries)
{
    EXPECT_EQ(allDatasets().size(), 7u);
    EXPECT_EQ(datasetInfo(DatasetId::kWikiVote).shortName, "WV");
    EXPECT_EQ(datasetInfo(DatasetId::kNetflix).bipartite, true);
}

TEST(DatasetTest, ScaledGenerationApproximatesDensity)
{
    const DatasetInfo &info = datasetInfo(DatasetId::kWikiVote);
    const CooGraph g = makeDataset(DatasetId::kWikiVote, 4.0);
    const double paper_density =
        static_cast<double>(info.paperEdges) /
        (static_cast<double>(info.paperVertices) * info.paperVertices);
    // Vertex count scales by sqrt(4)=2, edges by 4: density preserved.
    EXPECT_NEAR(g.density() / paper_density, 1.0, 0.25);
}

TEST(DatasetTest, NetflixStandInIsBipartite)
{
    const CooGraph g = makeDataset(DatasetId::kNetflix, 512.0);
    const DatasetInfo &info = datasetInfo(DatasetId::kNetflix);
    EXPECT_EQ(g.numEdges(),
              static_cast<EdgeId>(info.paperEdges / 512.0));
}

} // namespace
} // namespace graphr
