/**
 * @file
 * Tests for the streaming-apply preprocessing (section 3.4).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <tuple>

#include "graph/generator.hh"
#include "graph/partition.hh"
#include "graph/preprocess.hh"
#include "plan_eq.hh"

namespace graphr
{
namespace
{

TilingParams
tiling(std::uint32_t c, std::uint32_t n, std::uint32_t g,
       std::uint32_t b = 0)
{
    TilingParams t;
    t.crossbarDim = c;
    t.crossbarsPerGe = n;
    t.numGe = g;
    t.blockSize = b;
    return t;
}

TEST(PreprocessTest, OutputIsPermutationOfInput)
{
    const CooGraph g = makeRmat({.numVertices = 200,
                                 .numEdges = 1500,
                                 .maxWeight = 15.0,
                                 .seed = 3});
    const GridPartition part(g.numVertices(), tiling(4, 2, 2, 32));
    const OrderedEdgeList ordered(g, part);

    const std::vector<Edge> sorted = decodedEdges(ordered);
    ASSERT_EQ(ordered.numEdges(), g.numEdges());
    ASSERT_EQ(sorted.size(), g.numEdges());
    std::multiset<std::tuple<VertexId, VertexId, double>> in;
    std::multiset<std::tuple<VertexId, VertexId, double>> out;
    for (const Edge &e : g.edges())
        in.insert({e.src, e.dst, e.weight});
    for (const Edge &e : sorted)
        out.insert({e.src, e.dst, e.weight});
    EXPECT_EQ(in, out);
}

TEST(PreprocessTest, EdgesSortedByGlobalOrderId)
{
    const CooGraph g =
        makeRmat({.numVertices = 300, .numEdges = 2000, .seed = 4});
    const GridPartition part(g.numVertices(), tiling(8, 2, 2));
    const OrderedEdgeList ordered(g, part);
    const std::vector<Edge> sorted = decodedEdges(ordered);
    for (std::size_t i = 1; i < sorted.size(); ++i) {
        const Edge &a = sorted[i - 1];
        const Edge &b = sorted[i];
        EXPECT_LE(part.globalOrderId(a.src, a.dst),
                  part.globalOrderId(b.src, b.dst));
    }
}

TEST(PreprocessTest, TileDirectoryCoversAllEdges)
{
    const CooGraph g =
        makeRmat({.numVertices = 128, .numEdges = 900, .seed = 5});
    const GridPartition part(g.numVertices(), tiling(4, 2, 2, 64));
    const OrderedEdgeList ordered(g, part);

    std::uint64_t covered = 0;
    std::uint64_t prev_tile = 0;
    bool first = true;
    std::vector<Edge> scratch;
    for (std::size_t t = 0; t < ordered.tiles().size(); ++t) {
        const TileSpan &span = ordered.tiles()[t];
        EXPECT_EQ(span.firstEdge, covered);
        covered += span.numEdges;
        if (!first) {
            EXPECT_GT(span.tileIndex, prev_tile)
                << "tiles must be strictly increasing";
        }
        prev_tile = span.tileIndex;
        first = false;
        // All edges in the span really belong to the tile.
        for (const Edge &e : ordered.decodeTile(t, scratch))
            EXPECT_EQ(part.tileIndex(e.src, e.dst), span.tileIndex);
    }
    EXPECT_EQ(covered, g.numEdges());
}

TEST(PreprocessTest, EmptyTilesAbsentFromDirectory)
{
    // A chain has exactly one edge per (v, v+1) cell: most tiles of a
    // fine partition are empty and must not appear.
    const CooGraph g = makeChain(64);
    const GridPartition part(g.numVertices(), tiling(4, 2, 2, 32));
    const OrderedEdgeList ordered(g, part);
    for (const TileSpan &span : ordered.tiles())
        EXPECT_GT(span.numEdges, 0u);
    EXPECT_LT(ordered.numNonEmptyTiles(), part.numTiles());
}

TEST(PreprocessTest, OccupancyBounds)
{
    const CooGraph g =
        makeRmat({.numVertices = 256, .numEdges = 4000, .seed = 6});
    const GridPartition part(g.numVertices(), tiling(8, 2, 2));
    const OrderedEdgeList ordered(g, part);
    EXPECT_GT(ordered.occupancy(), 0.0);
    EXPECT_LE(ordered.occupancy(), 1.0);
}

TEST(PreprocessTest, DenseGraphFillsTiles)
{
    const CooGraph g = makeComplete(16);
    const GridPartition part(g.numVertices(), tiling(4, 2, 2, 16));
    const OrderedEdgeList ordered(g, part);
    // Complete graph: every tile of the single 16x16 block is full
    // except diagonal cells.
    EXPECT_EQ(ordered.numNonEmptyTiles(), part.numTiles());
    EXPECT_NEAR(ordered.occupancy(), 240.0 / 256.0, 1e-12);
}

TEST(PreprocessTest, TilesOfBlockFiltersCorrectly)
{
    // Each block's non-empty tiles are one run of the directory, the
    // blocks in order: a block loads with sequential I/O.
    const CooGraph g =
        makeRmat({.numVertices = 64, .numEdges = 600, .seed = 8});
    const GridPartition part(g.numVertices(), tiling(4, 2, 2, 32));
    const OrderedEdgeList ordered(g, part);
    const std::span<const TileSpan> tiles = ordered.tiles();
    std::size_t at = 0;
    for (std::uint64_t b = 0; b < part.numBlocks(); ++b) {
        const auto of_block = [&part, b](const TileSpan &span) {
            return span.tileIndex / part.tilesPerBlock() == b;
        };
        const auto count = static_cast<std::size_t>(
            std::ranges::count_if(tiles, of_block));
        EXPECT_TRUE(std::all_of(tiles.begin() + at,
                                tiles.begin() + at + count, of_block))
            << "block " << b;
        at += count;
    }
    EXPECT_EQ(at, ordered.numNonEmptyTiles());
}

TEST(PreprocessTest, ParallelEdgesKeepInputOrder)
{
    // Parallel edges share a global order ID. The sort is stable, so
    // they leave it in input order, which pins the canonical plan
    // bytes. Weights carry the input position.
    const CooGraph base =
        makeRmat({.numVertices = 64, .numEdges = 4000, .seed = 12});
    std::vector<Edge> edges(base.edges().begin(), base.edges().end());
    for (std::size_t e = 0; e < edges.size(); ++e)
        edges[e].weight = static_cast<Value>(e);
    const CooGraph g(base.numVertices(), std::move(edges));
    const GridPartition part(g.numVertices(), tiling(4, 2, 2, 32));
    const OrderedEdgeList ordered(g, part);

    const std::vector<Edge> sorted = decodedEdges(ordered);
    std::size_t parallel = 0;
    for (std::size_t i = 1; i < sorted.size(); ++i) {
        const Edge &a = sorted[i - 1];
        const Edge &b = sorted[i];
        if (a.src != b.src || a.dst != b.dst)
            continue;
        EXPECT_LT(a.weight, b.weight)
            << "parallel (" << a.src << "," << a.dst << ") reordered";
        ++parallel;
    }
    EXPECT_GT(parallel, 100u) << "graph has too few parallel edges";
}

TEST(PreprocessTest, RadixOrderMatchesStableSortAtEveryKeyWidth)
{
    // From 16 vertices (one 12-bit digit pass) to 2^32 - 1 (six
    // passes), the sorting constructor must equal a stable comparison
    // sort of the global order IDs. Every fifth edge repeats an
    // earlier cell under a new weight. An ID shares one word with its
    // 12-bit origin while both fit in 64 bits: 2^26 vertices need 52
    // ID bits (64 in all), 2^26 + 16 need 54 (66, so the origins move
    // to their own array), and so do 2^32 - 1.
    for (const VertexId n : {16u, 1000u, 70000u, 5000000u, 67108864u,
                             67108880u, 4294967295u}) {
        SCOPED_TRACE(n);
        const GridPartition part(n, tiling(4, 2, 2));
        std::mt19937_64 rng(n);
        std::uniform_int_distribution<VertexId> vertex(0, n - 1);
        CooGraph g(n, {});
        for (int e = 0; e < 3000; ++e) {
            if (e % 5 == 4) {
                const Edge earlier = g.edges()[rng() % g.edges().size()];
                g.addEdge(earlier.src, earlier.dst, e);
            } else {
                const VertexId src = vertex(rng);
                g.addEdge(src, vertex(rng), e);
            }
        }
        std::vector<Edge> want(g.edges().begin(), g.edges().end());
        std::stable_sort(want.begin(), want.end(),
                         [&part](const Edge &a, const Edge &b) {
                             return part.globalOrderId(a.src, a.dst) <
                                    part.globalOrderId(b.src, b.dst);
                         });
        const OrderedEdgeList ordered(g, part);
        expectEdgesBitIdentical(decodedEdges(ordered), want);
    }
}

/** Property sweep: streaming order invariants for many configs. */
class PreprocessPropertyTest
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint32_t, std::uint32_t,
                     std::uint32_t>>
{
};

TEST_P(PreprocessPropertyTest, BlockMajorThenTileMajorOrder)
{
    const auto [c, n, g_, b] = GetParam();
    const CooGraph graph =
        makeRmat({.numVertices = 96, .numEdges = 1200, .seed = 10});
    const GridPartition part(graph.numVertices(), tiling(c, n, g_, b));
    const OrderedEdgeList ordered(graph, part);

    // Walking the ordered list, the block index must be
    // non-decreasing, and within a block the tile index too.
    std::uint64_t prev_block = 0;
    std::uint64_t prev_tile = 0;
    bool first = true;
    for (const Edge &e : decodedEdges(ordered)) {
        const std::uint64_t tile = part.tileIndex(e.src, e.dst);
        const std::uint64_t block = tile / part.tilesPerBlock();
        if (!first) {
            EXPECT_GE(block, prev_block);
            if (block == prev_block) {
                EXPECT_GE(tile, prev_tile);
            }
        }
        prev_block = block;
        prev_tile = tile;
        first = false;
    }
}

TEST_P(PreprocessPropertyTest, WithinTileColumnMajor)
{
    const auto [c, n, g_, b] = GetParam();
    const CooGraph graph =
        makeRmat({.numVertices = 96, .numEdges = 1200, .seed = 10});
    const GridPartition part(graph.numVertices(), tiling(c, n, g_, b));
    const OrderedEdgeList ordered(graph, part);

    std::vector<Edge> scratch;
    for (std::size_t t = 0; t < ordered.tiles().size(); ++t) {
        const std::span<const Edge> edges = ordered.decodeTile(t, scratch);
        for (std::size_t i = 1; i < edges.size(); ++i) {
            // Column-major within the tile: dst (column) groups are
            // non-decreasing; ties ordered by src.
            const Edge &a = edges[i - 1];
            const Edge &e = edges[i];
            const bool ok = a.dst < e.dst ||
                            (a.dst == e.dst && a.src <= e.src);
            EXPECT_TRUE(ok) << "(" << a.src << "," << a.dst << ") then ("
                            << e.src << "," << e.dst << ")";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PreprocessPropertyTest,
    ::testing::Values(std::make_tuple(4u, 2u, 2u, 32u),
                      std::make_tuple(4u, 2u, 2u, 0u),
                      std::make_tuple(8u, 2u, 4u, 0u),
                      std::make_tuple(2u, 4u, 2u, 16u),
                      std::make_tuple(8u, 8u, 1u, 64u),
                      std::make_tuple(16u, 1u, 1u, 32u)));

} // namespace
} // namespace graphr
