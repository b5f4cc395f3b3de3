/**
 * @file
 * Unit tests for the synthetic graph generators and named datasets.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "algorithms/wcc.hh"
#include "common/checksum.hh"
#include "common/random.hh"
#include "driver/dataset.hh"
#include "graph/datasets.hh"
#include "graph/generator.hh"

namespace graphr
{
namespace
{

/**
 * makeRmat as it was written before its draw became integer compares:
 * an if chain on the uniform double, kept verbatim as the oracle the
 * draw must match edge for edge.
 */
CooGraph
referenceRmat(const RmatParams &params)
{
    struct RmatThresholds
    {
        explicit RmatThresholds(const RmatParams &p)
            : a(p.a), ab(p.a + p.b), abc(p.a + p.b + p.c)
        {
        }

        double a;
        double ab;
        double abc;
    };

    const RmatThresholds t(params);
    const VertexId padded = std::bit_ceil(params.numVertices);
    const int levels = std::countr_zero(padded);
    Rng rng(params.seed);

    std::vector<Edge> edges;
    edges.reserve(params.numEdges);
    while (edges.size() < params.numEdges) {
        VertexId row = 0;
        VertexId col = 0;
        for (int level = 0; level < levels; ++level) {
            // Per-level probability noise keeps the generated graph from
            // collapsing onto exact quadrant boundaries.
            const double r = rng.uniform();
            const VertexId bit = VertexId{1} << (levels - 1 - level);
            if (r < t.a) {
                // top-left: nothing to add
            } else if (r < t.ab) {
                col |= bit;
            } else if (r < t.abc) {
                row |= bit;
            } else {
                row |= bit;
                col |= bit;
            }
        }
        if (row >= params.numVertices || col >= params.numVertices)
            continue;
        if (params.removeSelfLoops && row == col)
            continue;
        const double w = params.maxWeight <= 1.0
                             ? 1.0
                             : 1.0 + std::floor(rng.uniform() *
                                                (params.maxWeight - 1.0));
        edges.push_back(Edge{row, col, w});
    }

    CooGraph graph(params.numVertices, std::move(edges));
    if (params.dedupe)
        graph.dedupe();
    return graph;
}

/** makeRmat(@p p) equals referenceRmat(@p p) field by field, weights
 *  by bit pattern. */
void
expectReferenceDraw(const RmatParams &p)
{
    const CooGraph want = referenceRmat(p);
    const CooGraph got = makeRmat(p);
    ASSERT_EQ(got.numVertices(), want.numVertices());
    ASSERT_EQ(got.numEdges(), want.numEdges());
    for (std::size_t i = 0; i < got.numEdges(); ++i) {
        const Edge &g = got.edges()[i];
        const Edge &w = want.edges()[i];
        ASSERT_EQ(g.src, w.src) << "edge " << i;
        ASSERT_EQ(g.dst, w.dst) << "edge " << i;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(g.weight),
                  std::bit_cast<std::uint64_t>(w.weight))
            << "edge " << i;
    }
}

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
        EXPECT_EQ(rmatKeepProbability(p) > 0.0, k.can);
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

TEST(RmatTest, KeepProbabilityMatchesAnExactEnumeration)
{
    // Every cell's probability is the product of its levels' quadrant
    // probabilities; the kept mass is the sum over the cells below
    // vertices (off the diagonal, when self loops are removed). The
    // draw's 2^-53 steps move a quadrant's share by less than 2^-53.
    struct Probabilities
    {
        double a, b, c, d;
    };
    const Probabilities probabilities[] = {
        {0.57, 0.19, 0.19, 0.05}, // Graph500
        {0.25, 0.25, 0.25, 0.25},
        {0, 0.4, 0.4, 0.2},
        {0.6, 0.2, 0.2, 0},
        {0, 0.5, 0.5, 0},
        {0.45, 0.15, 0.3, 0.1},
        {1, 0, 0, 0},
    };
    for (const Probabilities &q : probabilities) {
        for (VertexId vertices = 2; vertices <= 65; ++vertices) {
            const VertexId padded = std::bit_ceil(vertices);
            const int levels = std::countr_zero(padded);
            for (const bool remove_self_loops : {true, false}) {
                double want = 0.0;
                for (VertexId row = 0; row < vertices; ++row) {
                    for (VertexId col = 0; col < vertices; ++col) {
                        if (remove_self_loops && row == col)
                            continue;
                        double cell = 1.0;
                        for (int bit = 0; bit < levels; ++bit) {
                            const bool r = (row >> bit) & 1;
                            const bool c = (col >> bit) & 1;
                            cell *= r ? (c ? q.d : q.c) : (c ? q.b : q.a);
                        }
                        want += cell;
                    }
                }
                RmatParams p;
                p.numVertices = vertices;
                p.a = q.a;
                p.b = q.b;
                p.c = q.c;
                p.d = q.d;
                p.removeSelfLoops = remove_self_loops;
                EXPECT_NEAR(rmatKeepProbability(p), want, 1e-12)
                    << vertices << " vertices, a=" << q.a << " b=" << q.b
                    << " c=" << q.c << " d=" << q.d
                    << ", removeSelfLoops " << remove_self_loops;
            }
        }
    }
}

TEST(RmatTest, DrawsPerKeptEdgeStayLowForTheUsualProbabilities)
{
    // The bound checkRmat applies (64 draws per kept edge) leaves the
    // Graph500 and the uniform probabilities far inside it at every
    // vertex count. Graph500 is worst at two vertices, where only b
    // and c are kept: 1 / 0.38 = 2.632 draws.
    for (int log = 1; log <= 31; ++log) {
        for (const std::int64_t offset : {-1, 0, 1}) {
            const std::int64_t vertices = (std::int64_t{1} << log) + offset;
            if (vertices < 2 || vertices > (std::int64_t{1} << 31))
                continue;
            RmatParams graph500;
            graph500.numVertices = static_cast<VertexId>(vertices);
            RmatParams uniform = graph500;
            uniform.a = uniform.b = uniform.c = uniform.d = 0.25;
            EXPECT_LE(1.0 / rmatKeepProbability(graph500), 2.632)
                << vertices;
            EXPECT_LE(1.0 / rmatKeepProbability(uniform), 4.0)
                << vertices;
        }
    }
}

TEST(RmatTest, DrawMatchesTheReferenceLoop)
{
    struct Probabilities
    {
        double a, b, c, d;
    };
    const Probabilities probabilities[] = {
        {0.57, 0.19, 0.19, 0.05}, // Graph500
        // The rows of CanDrawEdgeIsTheRuleTheDrawFollows.
        {1, 0, 0, 0},
        {1, 1e-7, 0, 0},
        {0.1, 1e-17, 0, 0.9},
        {0, 1, 0, 0},
        {0, 1, 1e-7, 0},
        {0, 0.5, 0.5, 0},
        {0, 0.5, 0, 0.5},
        {0.5, 0, 0.5, 0},
        {0, 0.6, 0.3, 0.1},          // a = 0
        {0.6, 0.2, 0.2, 0},          // d = 0
        {0.6, 1e-17, 0.3, 0.1},      // b narrower than a step
        {0.5, 0.25, 0.25 - 5e-7, 0}, // d holds the last 5e-7
        {0.5, 0.25, 0.25 + 5e-7, 0}, // a+b+c is past 1
        {0.5, 0.25, 0.125, 0.125},   // every threshold on a step
        {0.6, -0.1, 0.4, 0.1},       // a+b below a: b is never picked
        {-0.1, 0.7, 0.3, 0.1},       // a below 0: a is never picked
    };
    const VertexId vertex_counts[] = {2, 3, 6, 8, 1000, 1024, 4097};
    const std::uint64_t seeds[] = {
        0, 1, std::numeric_limits<std::uint64_t>::max()};
    int compared = 0;
    for (const Probabilities &q : probabilities) {
        for (const VertexId vertices : vertex_counts) {
            for (const double max_weight : {1.0, 15.0}) {
                for (const bool remove_self_loops : {true, false}) {
                    for (const bool dedupe : {false, true}) {
                        for (const std::uint64_t seed : seeds) {
                            RmatParams p;
                            p.numVertices = vertices;
                            p.numEdges = 32;
                            p.a = q.a;
                            p.b = q.b;
                            p.c = q.c;
                            p.d = q.d;
                            p.maxWeight = max_weight;
                            p.seed = seed;
                            p.removeSelfLoops = remove_self_loops;
                            p.dedupe = dedupe;
                            if (!rmatCanDrawEdge(p))
                                continue;
                            SCOPED_TRACE(
                                ::testing::Message()
                                << vertices << " vertices, a=" << q.a
                                << " b=" << q.b << " c=" << q.c
                                << " d=" << q.d << ", maxWeight "
                                << max_weight << ", removeSelfLoops "
                                << remove_self_loops << ", dedupe "
                                << dedupe << ", seed " << seed);
                            expectReferenceDraw(p);
                            if (HasFatalFailure())
                                return;
                            ++compared;
                        }
                    }
                }
            }
        }
    }
    // 2,316 of the 2,856 combinations can draw an edge; a
    // reachability rule that skipped most of them would test nothing.
    EXPECT_EQ(compared, 2316);
}

TEST(RmatTest, DrawOnAThresholdMatchesTheReferenceLoop)
{
    // Where r < p and the integer compare could part ways: each of
    // a, a+b and a+b+c placed exactly on the first level's draw r and
    // one double to either side of it. Seed 2 draws r = 0.102, below
    // 0.5, where a double's step is finer than the draw's 2^-53.
    for (const std::uint64_t seed :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{2},
          std::numeric_limits<std::uint64_t>::max()}) {
        const double drawn = Rng(seed).uniform();
        for (const double r : {std::nextafter(drawn, 0.0), drawn,
                               std::nextafter(drawn, 1.0)}) {
            // Halving is exact, so the threshold each set aims at (a,
            // a+b or a+b+c) is r exactly; the rest only sums to 1.
            const RmatParams on_a{.a = r,
                                  .b = (1.0 - r) / 2,
                                  .c = (1.0 - r) / 2,
                                  .d = 0.0};
            const RmatParams on_ab{.a = r / 2,
                                   .b = r / 2,
                                   .c = (1.0 - r) / 2,
                                   .d = (1.0 - r) / 2};
            const RmatParams on_abc{
                .a = r / 4, .b = r / 4, .c = r / 2, .d = 1.0 - r};
            for (RmatParams p : {on_a, on_ab, on_abc}) {
                p.numVertices = 1024;
                p.numEdges = 32;
                p.seed = seed;
                SCOPED_TRACE(::testing::Message()
                             << "seed " << seed << ", a=" << p.a
                             << " b=" << p.b << " c=" << p.c);
                expectReferenceDraw(p);
            }
        }
    }
}

/**
 * The byte-serial FNV-1a fold that was CooGraph::fingerprint() before
 * store format 3: the vertex and edge counts, then per edge the word
 * (src << 32 | dst) and the weight's bits, each least-significant
 * byte first. Its values were pinned while it named the artifacts, so
 * they still prove the generators draw what they drew then.
 */
std::uint64_t
legacyFingerprint(const CooGraph &g)
{
    Fnv1a64 h;
    h.updateWord(g.numVertices());
    h.updateWord(g.numEdges());
    for (const Edge &e : g.edges()) {
        h.updateWord((static_cast<std::uint64_t>(e.src) << 32) |
                     static_cast<std::uint64_t>(e.dst));
        h.updateWord(std::bit_cast<std::uint64_t>(
            static_cast<double>(e.weight)));
    }
    return h.digest();
}

TEST(RmatTest, ResolvedFingerprintsArePinned)
{
    // The legacy FNV-1a values pin the draw: they were recorded before
    // the fingerprint moved to XXH64, so a generator that drifts from
    // them is a generator change. The XXH64 values are the
    // fingerprints that name every artifact prepared from a graph
    // (plan-<fingerprint>-...gplan); drifting from them turns every
    // stored plan cold and orphans tests/golden/.
    struct Pin
    {
        const char *spec;
        std::uint64_t legacy;
        std::uint64_t fingerprint;
        std::uint64_t legacySymmetrized; ///< 0: not pinned
        std::uint64_t symmetrized;       ///< 0: not pinned
    };
    const Pin pins[] = {
        {"rmat:vertices=131072,edges=1048576,seed=1",
         0xd664b280d1f4138cull, 0xcbd04f5ea636bbbeull,
         0x159a32128b91d397ull, 0xa35af4299fc72fc8ull},
        {"rmat:vertices=32768,edges=262144,seed=1", 0x3f15594e72d5f707ull,
         0x1a90ca7ca542103eull, 0, 0},
        {"rmat:vertices=16384,edges=131072,seed=1", 0xeba6b15371547af5ull,
         0x5359a23748c5f6c1ull, 0, 0},
        {"rmat:vertices=1000,edges=5000,maxweight=15,seed=7",
         0x43ec9fbb146b67f4ull, 0x040645750866b524ull, 0, 0},
        {"wiki-vote", 0x99fe98605d2c9e68ull, 0x0562ddfdb437ef12ull, 0, 0},
    };
    for (const Pin &pin : pins) {
        const driver::ResolvedDataset dataset =
            driver::resolveDataset(pin.spec);
        EXPECT_EQ(legacyFingerprint(dataset.graph), pin.legacy)
            << pin.spec;
        EXPECT_EQ(dataset.graph.fingerprint(), pin.fingerprint)
            << pin.spec;
        if (pin.symmetrized != 0) {
            const CooGraph sym = symmetrize(dataset.graph);
            EXPECT_EQ(legacyFingerprint(sym), pin.legacySymmetrized)
                << pin.spec << ", symmetrised";
            EXPECT_EQ(sym.fingerprint(), pin.symmetrized)
                << pin.spec << ", symmetrised";
            // WCC's runners key the symmetrised plan by the view's
            // fingerprint, streamed from the graph without the copy.
            const SymmetrizedView view(dataset.graph);
            EXPECT_EQ(view.fingerprint(), pin.symmetrized)
                << pin.spec << ", symmetrised view";
            EXPECT_EQ(view.numEdges(), sym.numEdges()) << pin.spec;
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
