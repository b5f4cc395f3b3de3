/**
 * @file
 * Property tests for the delta-coded tile stream, the one form a plan
 * keeps its edges in.
 *
 * The codec must be proven byte-exact and corruption-safe, so this
 * suite drives it two ways: a seeded generator sweeps adversarial edge
 * distributions (empty tiles, single-edge tiles, max-degree rows,
 * duplicate runs, near-2^32 vertex ids, every weight mode) asserting
 * that a stream written by the edge-list reference encoder
 * (reference_plan.hh) indexes and decodes tile by tile bit-identically
 * to the edges it was written from, and a malformed-stream matrix
 * (truncation at every byte, flipped bits, hand-crafted structural
 * violations) asserts the validating pass throws CodecError instead
 * of crashing, allocating unboundedly, or returning wrong edges.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "graph/edge_codec.hh"
#include "graph/generator.hh"
#include "graph/partition.hh"
#include "graph/preprocess.hh"
#include "graphr/engine/tile_plan.hh"
#include "perf/counters.hh"
#include "plan_eq.hh"
#include "reference_plan.hh"

namespace graphr
{
namespace
{

/** Small tiling so single tiles are easy to fill: 4x16 cells. */
TilingParams
smallTiling()
{
    return TilingParams{.crossbarDim = 4,
                        .crossbarsPerGe = 2,
                        .numGe = 2,
                        .blockSize = 0};
}

/** LEB128 append, for hand-crafting malformed streams. */
void
putV(std::vector<unsigned char> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<unsigned char>(v) | 0x80u);
        v >>= 7;
    }
    out.push_back(static_cast<unsigned char>(v));
}

/** An edge list in canonical streaming order and its tile directory. */
struct Ordered
{
    std::vector<Edge> edges;
    std::vector<TileSpan> tiles;
};

/**
 * Sort arbitrary in-range edges into canonical streaming order and
 * build the tile directory — the reference path the codec must match,
 * without materialising per-vertex arrays (so near-2^32 vertex counts
 * stay cheap).
 */
Ordered
orderEdges(const GridPartition &part, std::vector<Edge> edges)
{
    std::vector<std::uint64_t> keys(edges.size());
    std::vector<std::uint32_t> perm(edges.size());
    for (std::size_t e = 0; e < edges.size(); ++e) {
        keys[e] = part.globalOrderId(edges[e].src, edges[e].dst);
        perm[e] = static_cast<std::uint32_t>(e);
    }
    std::stable_sort(perm.begin(), perm.end(),
                     [&keys](std::uint32_t a, std::uint32_t b) {
                         return keys[a] < keys[b];
                     });
    std::vector<Edge> sorted(edges.size());
    std::vector<TileSpan> tiles;
    const std::uint64_t capacity = part.tileCapacity();
    std::uint64_t prev_tile = ~std::uint64_t{0};
    for (std::size_t e = 0; e < edges.size(); ++e) {
        sorted[e] = edges[perm[e]];
        const std::uint64_t tile = keys[perm[e]] / capacity;
        if (tile != prev_tile) {
            tiles.push_back(TileSpan{tile, e, 1, 0});
            prev_tile = tile;
        } else {
            ++tiles.back().numEdges;
        }
    }
    return Ordered{std::move(sorted), std::move(tiles)};
}

/** The reference encoder's stream of an ordered edge list. */
std::vector<unsigned char>
encode(const GridPartition &part, std::span<const Edge> edges,
       std::span<const TileSpan> tiles)
{
    return reference::encodeEdgeStream(part, edges, tiles);
}

/**
 * Encode, index and decode every tile, and require the directory, the
 * edges and the cells of the ordered list.
 */
std::vector<unsigned char>
expectRoundTrip(const GridPartition &part, std::span<const Edge> edges,
                std::span<const TileSpan> tiles)
{
    std::vector<unsigned char> bytes = encode(part, edges, tiles);
    const std::vector<TileSpan> index = indexEdgeStream(part, bytes);
    EXPECT_EQ(index.size(), tiles.size());
    std::vector<Edge> decoded;
    std::vector<Edge> scratch;
    std::vector<std::uint64_t> locals;
    for (std::size_t t = 0; t < std::min(index.size(), tiles.size()); ++t) {
        EXPECT_EQ(index[t].tileIndex, tiles[t].tileIndex);
        EXPECT_EQ(index[t].firstEdge, tiles[t].firstEdge);
        EXPECT_EQ(index[t].numEdges, tiles[t].numEdges);
        decodeTileEdges(part, bytes, index[t], scratch);
        decoded.insert(decoded.end(), scratch.begin(), scratch.end());
        // A cell's ID is row + col * C within its tile.
        decodeTileLocals(bytes, index[t], locals);
        std::uint64_t row0 = 0;
        std::uint64_t col0 = 0;
        part.tileOrigin(part.tileCoord(index[t].tileIndex), row0, col0);
        for (std::size_t e = 0; e < scratch.size(); ++e) {
            EXPECT_EQ(locals[e], (scratch[e].src - row0) +
                                     (scratch[e].dst - col0) *
                                         part.crossbarDim());
        }
    }
    expectEdgesBitIdentical(decoded, edges);
    return bytes;
}

std::vector<unsigned char>
expectRoundTrip(const GridPartition &part, const Ordered &ordered)
{
    return expectRoundTrip(part, ordered.edges, ordered.tiles);
}

/** Expect CodecError from the validating pass over a stream. */
void
expectDecodeThrows(const GridPartition &part,
                   const std::vector<unsigned char> &bytes)
{
    EXPECT_THROW(indexEdgeStream(part, bytes), CodecError);
}

/**
 * Index @p bytes and decode every tile; a stream the pass accepts
 * must decode without fault (the sanitizer jobs run this too).
 * Returns the edges decoded, or throws CodecError.
 */
std::uint64_t
indexAndDecodeAll(const GridPartition &part,
                  const std::vector<unsigned char> &bytes)
{
    const std::vector<TileSpan> index = indexEdgeStream(part, bytes);
    std::vector<Edge> scratch;
    std::vector<std::uint64_t> locals;
    std::uint64_t edges = 0;
    for (const TileSpan &tile : index) {
        decodeTileEdges(part, bytes, tile, scratch);
        decodeTileLocals(bytes, tile, locals);
        edges += scratch.size();
    }
    return edges;
}

/**
 * Seeded random edge set for one tiling: sample (tile, local cell)
 * pairs, keep the ones that land on real (unpadded) vertices.
 */
std::vector<Edge>
randomEdges(const GridPartition &part, std::size_t want,
            std::uint32_t seed, int weight_style)
{
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<std::uint64_t> tile_of(
        0, part.numTiles() - 1);
    std::uniform_int_distribution<std::uint64_t> cell_of(
        0, part.tileCapacity() - 1);
    std::vector<Edge> edges;
    while (edges.size() < want) {
        const std::uint64_t order =
            tile_of(rng) * part.tileCapacity() + cell_of(rng);
        std::uint64_t i = 0;
        std::uint64_t j = 0;
        part.cellOfOrderId(order, i, j);
        if (i >= part.numVertices() || j >= part.numVertices())
            continue;
        Edge e;
        e.src = static_cast<VertexId>(i);
        e.dst = static_cast<VertexId>(j);
        switch (weight_style) {
        case 0:
            e.weight = 1.0;
            break;
        case 1:
            e.weight = 2.5;
            break;
        default:
            e.weight = std::uniform_real_distribution<double>(
                -100.0, 100.0)(rng);
            break;
        }
        edges.push_back(e);
    }
    return edges;
}

// ------------------------------------------------------- round trips

TEST(EdgeCodec, EmptyEdgeListRoundTrips)
{
    const GridPartition part(64, smallTiling());
    const Ordered ordered = orderEdges(part, {});
    const std::vector<unsigned char> bytes =
        expectRoundTrip(part, ordered);
    EXPECT_EQ(bytes.size(), 2u); // two zero varints, nothing else
}

TEST(EdgeCodec, SingleEdgeRoundTrips)
{
    const GridPartition part(64, smallTiling());
    expectRoundTrip(part,
                    orderEdges(part, {Edge{3, 17, 1.0}}));
}

TEST(EdgeCodec, SingleEdgePerManyTilesRoundTrips)
{
    const GridPartition part(64, smallTiling());
    std::vector<Edge> edges;
    for (VertexId v = 0; v < 64; v += 4)
        edges.push_back(Edge{v, v, 1.0});
    expectRoundTrip(part, orderEdges(part, std::move(edges)));
}

TEST(EdgeCodec, DenseFullTileRoundTrips)
{
    // Every cell of one tile occupied: all deltas are exactly 1, the
    // smallest possible k, no exceptions.
    const GridPartition part(64, smallTiling());
    std::vector<Edge> edges;
    for (VertexId i = 0; i < 4; ++i)
        for (VertexId j = 0; j < 16; ++j)
            edges.push_back(Edge{i, j, 1.0});
    const Ordered ordered = orderEdges(part, std::move(edges));
    const std::vector<unsigned char> bytes =
        expectRoundTrip(part, ordered);
    // 64 dense edges must beat one byte per edge by a wide margin.
    EXPECT_LT(bytes.size(), 24u);
}

TEST(EdgeCodec, MaxDegreeRowRoundTrips)
{
    // One source with an edge to every vertex: within a tile the
    // same-row cells are spaced exactly crossbarDim apart.
    const GridPartition part(64, smallTiling());
    std::vector<Edge> edges;
    for (VertexId j = 0; j < 64; ++j)
        edges.push_back(Edge{5, j, 1.0});
    expectRoundTrip(part, orderEdges(part, std::move(edges)));
}

TEST(EdgeCodec, DuplicateFreeSortedRunRoundTrips)
{
    const GridPartition part(128, TilingParams{});
    std::vector<Edge> edges;
    for (VertexId v = 0; v < 128; ++v)
        edges.push_back(Edge{v, (v * 7 + 3) % 128, 1.0});
    expectRoundTrip(part, orderEdges(part, std::move(edges)));
}

TEST(EdgeCodec, DuplicateEdgesWithDistinctWeightsRoundTrip)
{
    // The same cell repeated: zero deltas, and the weights force the
    // raw per-edge mode. Order within a duplicate run is preserved
    // (the sort is stable), so weights must come back in sequence.
    const GridPartition part(64, smallTiling());
    std::vector<Edge> edges;
    for (int r = 0; r < 9; ++r)
        edges.push_back(Edge{2, 6, 1.0 + r});
    expectRoundTrip(part, orderEdges(part, std::move(edges)));
}

TEST(EdgeCodec, DuplicateEdgesWithSharedWeightRoundTrip)
{
    const GridPartition part(64, smallTiling());
    std::vector<Edge> edges(7, Edge{1, 9, 3.25});
    expectRoundTrip(part, orderEdges(part, edges));
}

TEST(EdgeCodec, NearMax32BitVertexIdsRoundTrip)
{
    // The padded grid near 2^32 vertices exceeds 32-bit arithmetic
    // everywhere except the final endpoint cast — exactly the regime
    // where a missed widening would corrupt silently.
    const VertexId v_max = std::numeric_limits<VertexId>::max();
    const GridPartition part(v_max, TilingParams{});
    std::vector<Edge> edges = {
        Edge{v_max - 1, v_max - 1, 1.0},
        Edge{v_max - 2, 0, 1.0},
        Edge{0, v_max - 1, 1.0},
        Edge{v_max - 9, v_max - 3, 2.0},
    };
    expectRoundTrip(part, orderEdges(part, std::move(edges)));
}

TEST(EdgeCodec, FirstTileNotZeroRoundTrips)
{
    const GridPartition part(64, smallTiling());
    // Only cells whose tile index is far from zero.
    std::vector<Edge> edges = {Edge{60, 63, 1.0}, Edge{63, 60, 1.0}};
    const Ordered ordered = orderEdges(part, std::move(edges));
    ASSERT_GT(ordered.tiles.front().tileIndex, 0u);
    expectRoundTrip(part, ordered);
}

TEST(EdgeCodec, LargeTileGapsRoundTrip)
{
    const GridPartition part(128, TilingParams{});
    std::vector<Edge> edges = {Edge{0, 0, 1.0}, Edge{127, 127, 1.0}};
    expectRoundTrip(part, orderEdges(part, std::move(edges)));
}

TEST(EdgeCodec, NegativeZeroWeightSurvivesBitExactly)
{
    const GridPartition part(64, smallTiling());
    expectRoundTrip(part, orderEdges(part, {Edge{1, 2, -0.0}}));
}

TEST(EdgeCodec, NanPayloadWeightSurvivesBitExactly)
{
    const GridPartition part(64, smallTiling());
    const double quiet = std::bit_cast<double>(
        std::uint64_t{0x7ff8dead'beef0001});
    std::vector<Edge> edges = {Edge{0, 0, quiet}, Edge{0, 1, quiet},
                               Edge{0, 2, 1.0}};
    expectRoundTrip(part, orderEdges(part, std::move(edges)));
}

TEST(EdgeCodec, DenormalAndInfinityWeightsRoundTrip)
{
    const GridPartition part(64, smallTiling());
    std::vector<Edge> edges = {
        Edge{0, 0, std::numeric_limits<double>::denorm_min()},
        Edge{0, 1, std::numeric_limits<double>::infinity()},
        Edge{0, 2, -std::numeric_limits<double>::infinity()},
        Edge{0, 3, std::numeric_limits<double>::min()},
    };
    expectRoundTrip(part, orderEdges(part, std::move(edges)));
}

TEST(EdgeCodec, ConstantNonUnitWeightsUseSharedPattern)
{
    const GridPartition part(64, smallTiling());
    std::vector<Edge> shared;
    std::vector<Edge> raw;
    for (VertexId j = 0; j < 16; ++j) {
        shared.push_back(Edge{0, j, 7.125});
        raw.push_back(Edge{0, j, 7.125 + j});
    }
    const std::vector<unsigned char> shared_bytes =
        expectRoundTrip(part, orderEdges(part, std::move(shared)));
    const std::vector<unsigned char> raw_bytes =
        expectRoundTrip(part, orderEdges(part, std::move(raw)));
    // One shared 8-byte pattern vs 16 raw ones.
    EXPECT_LT(shared_bytes.size() + 100u, raw_bytes.size());
}

TEST(EdgeCodec, ExceptionHeavyDeltasRoundTrip)
{
    // Mostly tiny deltas with a few enormous ones: the big deltas
    // must flow through the exception stream, not widen k for all.
    const GridPartition part(128, TilingParams{});
    std::vector<Edge> edges;
    for (VertexId j = 0; j < 8; ++j)
        edges.push_back(Edge{0, j, 1.0});
    edges.push_back(Edge{7, 127, 1.0}); // far cell, same tile
    for (VertexId j = 0; j < 8; ++j)
        edges.push_back(Edge{1, j, 1.0});
    expectRoundTrip(part, orderEdges(part, std::move(edges)));
}

TEST(EdgeCodec, ZeroDeltaRunsRoundTrip)
{
    // Long duplicate runs: the zero-run coder must cover multi-byte
    // run lengths (>127 forces a two-byte varint).
    const GridPartition part(64, smallTiling());
    std::vector<Edge> edges(300, Edge{2, 11, 1.0});
    edges.push_back(Edge{3, 11, 1.0});
    expectRoundTrip(part, orderEdges(part, std::move(edges)));
}

TEST(EdgeCodec, DuplicateHeavyStreamsStayWithinTheExpansionBound)
{
    // 200k edges on four cells: runs of equal cells code as zero-width
    // deltas, so a first encoding would declare far more edges per
    // byte than the decoder accepts. The encoder must stay within the
    // bound on its own.
    const GridPartition part(64, smallTiling());
    const std::vector<Edge> cells = {Edge{0, 0, 1.0}, Edge{3, 15, 1.0},
                                     Edge{4, 0, 1.0}, Edge{63, 63, 1.0}};
    std::vector<Edge> edges;
    for (int i = 0; i < 50000; ++i)
        edges.insert(edges.end(), cells.begin(), cells.end());
    const std::vector<unsigned char> bytes =
        expectRoundTrip(part, orderEdges(part, edges));
    EXPECT_LE(200000u, bytes.size() * kMaxEdgesPerStreamByte);
    // The sort writes the same bytes, re-written with k >= 1.
    const OrderedEdgeList ordered(CooGraph(64, std::move(edges)), part);
    EXPECT_TRUE(std::ranges::equal(ordered.stream(), bytes));
}

TEST(EdgeCodec, RandomSmallTilingSweepRoundTrips)
{
    const GridPartition part(61, smallTiling()); // odd |V|: padding
    for (std::uint32_t seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        expectRoundTrip(
            part, orderEdges(part, randomEdges(part, 50 * seed, seed,
                                               seed % 3)));
    }
}

TEST(EdgeCodec, RandomDefaultTilingSweepRoundTrips)
{
    const GridPartition part(5000, TilingParams{});
    for (std::uint32_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        expectRoundTrip(
            part, orderEdges(part, randomEdges(part, 2000, 77 + seed,
                                               seed % 3)));
    }
}

TEST(EdgeCodec, RandomBlockedTilingSweepRoundTrips)
{
    TilingParams tiling = smallTiling();
    tiling.blockSize = 32; // multiple blocks: exercise block order
    const GridPartition part(100, tiling);
    for (std::uint32_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        expectRoundTrip(
            part, orderEdges(part, randomEdges(part, 400, 990 + seed,
                                               seed % 3)));
    }
}

TEST(EdgeCodec, RmatThroughRealPreprocessingRoundTrips)
{
    // End-to-end shape: the stream the sorting constructor writes is
    // the reference encoder's stream of the reference sort's edges.
    const CooGraph g =
        makeRmat({.numVertices = 512, .numEdges = 8192, .seed = 21});
    const GridPartition part(g.numVertices(), TilingParams{});
    const OrderedEdgeList ordered(g, part);
    const reference::Ordered want = reference::sortPlan(g, part);
    const std::vector<unsigned char> bytes =
        expectRoundTrip(part, want.edges, want.tiles);
    EXPECT_TRUE(std::ranges::equal(ordered.stream(), bytes));
    expectSameDirectory(ordered.tiles(), indexEdgeStream(part, bytes));
}

TEST(EdgeCodec, StoredStreamTilePlanMatchesDirectPreparation)
{
    // The production consumer: a TilePlan adopting a stored stream
    // must equal a fresh prepare, metadata included, because warm
    // results are promised byte-identical.
    const CooGraph g =
        makeRmat({.numVertices = 256, .numEdges = 4096, .seed = 5});
    const TilingParams tiling;
    const TilePlan direct(g, tiling);
    const std::span<const unsigned char> stream = direct.ordered.stream();
    std::vector<unsigned char> bytes(3, 0xee); // bytes before the stream
    bytes.insert(bytes.end(), stream.begin(), stream.end());

    const TilePlan adopted(g.numVertices(), tiling, std::move(bytes), 3,
                           direct.fingerprint);
    expectSamePlan(adopted, direct);
}

TEST(EdgeCodec, AdoptedStreamIsNoSortAndIsCountedOnce)
{
    const CooGraph g =
        makeRmat({.numVertices = 256, .numEdges = 2048, .seed = 11});
    const TilePlan direct(g, TilingParams{});
    const std::span<const unsigned char> stream = direct.ordered.stream();
    perf::Counter &edges =
        perf::Registry::instance().counter("store.codec.decoded_edges");
    perf::Counter &tiles =
        perf::Registry::instance().counter("store.codec.decoded_tiles");
    const std::uint64_t sorts_before = OrderedEdgeList::sortsPerformed();
    const std::uint64_t edges_before = edges.value();
    const std::uint64_t tiles_before = tiles.value();
    const OrderedEdgeList adopted(
        direct.partition,
        std::vector<unsigned char>(stream.begin(), stream.end()), 0);
    EXPECT_EQ(adopted.numEdges(), direct.ordered.numEdges());
    EXPECT_EQ(OrderedEdgeList::sortsPerformed(), sorts_before);
    EXPECT_EQ(edges.value() - edges_before, g.numEdges());
    EXPECT_EQ(tiles.value() - tiles_before,
              direct.ordered.numNonEmptyTiles());
}

TEST(EdgeCodec, CompressionRatioAtScaleBeatsHalfRaw)
{
    // Acceptance bar: <= 0.5x the raw 16-byte edge records on an
    // rmat graph at >= 1M edges.
    const CooGraph g = makeRmat({.numVertices = 131072,
                                 .numEdges = 1u << 20,
                                 .seed = 7});
    const GridPartition part(g.numVertices(), TilingParams{});
    const OrderedEdgeList ordered(g, part);
    const double bytes_per_edge =
        static_cast<double>(ordered.stream().size()) /
        static_cast<double>(ordered.numEdges());
    EXPECT_LE(bytes_per_edge, 8.0)
        << "compressed stream is " << bytes_per_edge
        << " bytes/edge against a raw record of 16";
}

// --------------------------------------------- malformed streams

TEST(EdgeCodec, TruncationAtEveryByteIsRejected)
{
    const GridPartition part(64, smallTiling());
    const Ordered ordered =
        orderEdges(part, randomEdges(part, 120, 424242, 2));
    const std::vector<unsigned char> bytes =
        encode(part, ordered.edges, ordered.tiles);
    ASSERT_GT(bytes.size(), 8u);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        SCOPED_TRACE("cut at " + std::to_string(cut));
        expectDecodeThrows(
            part, std::vector<unsigned char>(bytes.begin(),
                                             bytes.begin() + cut));
    }
}

TEST(EdgeCodec, FlippedBitSweepNeverCrashes)
{
    // Bit flips may or may not be detectable (a flipped weight bit is
    // a different valid stream), but every outcome must be either a
    // clean CodecError or a successful decode of the declared totals
    // — never a crash, hang, or out-of-bounds access (the sanitizer
    // jobs run this test too).
    const GridPartition part(64, smallTiling());
    const Ordered ordered =
        orderEdges(part, randomEdges(part, 60, 31337, 2));
    const std::vector<unsigned char> bytes =
        encode(part, ordered.edges, ordered.tiles);
    for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
        std::vector<unsigned char> mutated = bytes;
        mutated[bit / 8] ^= static_cast<unsigned char>(
            1u << (bit % 8));
        try {
            const std::vector<TileSpan> index =
                indexEdgeStream(part, mutated);
            EXPECT_EQ(indexAndDecodeAll(part, mutated),
                      index.empty() ? 0
                                    : index.back().firstEdge +
                                          index.back().numEdges);
        } catch (const CodecError &) {
            // rejected cleanly: the desired common case
        }
    }
}

TEST(EdgeCodec, RandomGarbageNeverCrashes)
{
    const GridPartition part(128, TilingParams{});
    std::mt19937_64 rng(99);
    for (int round = 0; round < 200; ++round) {
        std::vector<unsigned char> junk(
            std::uniform_int_distribution<std::size_t>(0, 64)(rng));
        for (unsigned char &b : junk)
            b = static_cast<unsigned char>(rng());
        try {
            indexAndDecodeAll(part, junk);
        } catch (const CodecError &) {
        }
    }
}

TEST(EdgeCodec, DeclaredEdgeTotalMismatchIsRejected)
{
    // Preamble says two edges, the single tile carries one.
    const GridPartition part(64, smallTiling());
    std::vector<unsigned char> s;
    putV(s, 1); // tiles
    putV(s, 2); // edges (lie)
    putV(s, 0); // tile 0
    putV(s, 1); // one edge
    s.push_back(0); // flags: mode 0, k 0
    putV(s, 0); // first local id
    expectDecodeThrows(part, s);
}

TEST(EdgeCodec, ZeroEdgeTileIsRejected)
{
    const GridPartition part(64, smallTiling());
    std::vector<unsigned char> s;
    putV(s, 1);
    putV(s, 1);
    putV(s, 0);
    putV(s, 0); // numEdges == 0: not a canonical stream
    s.push_back(0);
    putV(s, 0);
    expectDecodeThrows(part, s);
}

TEST(EdgeCodec, TileIndexOutsideGridIsRejected)
{
    const GridPartition part(64, smallTiling());
    std::vector<unsigned char> s;
    putV(s, 1);
    putV(s, 1);
    putV(s, part.numTiles()); // one past the last tile
    putV(s, 1);
    s.push_back(0);
    putV(s, 0);
    expectDecodeThrows(part, s);
}

TEST(EdgeCodec, ZeroTileGapIsRejected)
{
    // Two records for the same tile: violates strict streaming order.
    const GridPartition part(64, smallTiling());
    std::vector<unsigned char> s;
    putV(s, 2);
    putV(s, 2);
    putV(s, 0);
    putV(s, 1);
    s.push_back(0);
    putV(s, 0);
    putV(s, 0); // gap 0 -> same tile again
    putV(s, 1);
    s.push_back(0);
    putV(s, 1);
    expectDecodeThrows(part, s);
}

TEST(EdgeCodec, FirstLocalIdBeyondCapacityIsRejected)
{
    const GridPartition part(64, smallTiling());
    std::vector<unsigned char> s;
    putV(s, 1);
    putV(s, 1);
    putV(s, 0);
    putV(s, 1);
    s.push_back(0);
    putV(s, part.tileCapacity()); // one past the last cell
    expectDecodeThrows(part, s);
}

TEST(EdgeCodec, UnknownWeightModeIsRejected)
{
    const GridPartition part(64, smallTiling());
    std::vector<unsigned char> s;
    putV(s, 1);
    putV(s, 1);
    putV(s, 0);
    putV(s, 1);
    s.push_back(3); // weight mode 3 is unassigned
    putV(s, 0);
    expectDecodeThrows(part, s);
}

TEST(EdgeCodec, PaddingRegionEdgeIsRejected)
{
    // A cell that exists in the padded grid but whose endpoint lies
    // beyond the real vertex count: structurally fine, semantically
    // out of range.
    const GridPartition part(10, smallTiling()); // padded to 16 cols
    std::vector<unsigned char> s;
    putV(s, 1);
    putV(s, 1);
    putV(s, 0);
    putV(s, 1);
    s.push_back(0);
    // Column 12 of tile 0 (vertex 12 >= 10): local id 12 * 4.
    putV(s, 48);
    expectDecodeThrows(part, s);
}

TEST(EdgeCodec, NonCanonicalZeroExceptionIsRejected)
{
    // The exception stream may only carry non-zero high parts; an
    // explicit zero has a canonical run-length representation.
    const GridPartition part(64, smallTiling());
    std::vector<unsigned char> s;
    putV(s, 1);
    putV(s, 2);
    putV(s, 0);
    putV(s, 2);
    s.push_back(0); // k = 0: every delta is an exception
    putV(s, 0);
    putV(s, 0); // zero-run of 0, then...
    putV(s, 0); // ...an exception value of 0
    expectDecodeThrows(part, s);
}

TEST(EdgeCodec, TrailingBytesAreRejected)
{
    const GridPartition part(64, smallTiling());
    const Ordered ordered = orderEdges(part, {Edge{1, 2, 1.0}});
    std::vector<unsigned char> bytes =
        encode(part, ordered.edges, ordered.tiles);
    bytes.push_back(0);
    expectDecodeThrows(part, bytes);
}

TEST(EdgeCodec, ZeroTilesWithDeclaredEdgesIsRejected)
{
    const GridPartition part(64, smallTiling());
    std::vector<unsigned char> s;
    putV(s, 0);
    putV(s, 5);
    EXPECT_THROW(indexEdgeStream(part, s),
                 CodecError);
}

TEST(EdgeCodec, ImplausibleDeclaredTotalsAreRejectedBeforeAllocation)
{
    // A tiny stream declaring 2^40 edges must be refused up front —
    // the decode-expansion bound is what makes a hostile artifact
    // unable to force an unbounded allocation.
    const GridPartition part(64, smallTiling());
    std::vector<unsigned char> s;
    putV(s, 1);
    putV(s, std::uint64_t{1} << 40);
    EXPECT_THROW(indexEdgeStream(part, s),
                 CodecError);

    std::vector<unsigned char> t;
    putV(t, std::uint64_t{1} << 40); // tile count also bounded
    putV(t, std::uint64_t{1} << 40);
    EXPECT_THROW(indexEdgeStream(part, t),
                 CodecError);
}

TEST(EdgeCodec, EmptyBufferIsRejected)
{
    const GridPartition part(64, smallTiling());
    const std::vector<unsigned char> empty;
    EXPECT_THROW(indexEdgeStream(part, empty),
                 CodecError);
}

TEST(EdgeCodec, OverlongVarintIsRejected)
{
    const GridPartition part(64, smallTiling());
    // Eleven continuation bytes: past any valid 64-bit varint.
    const std::vector<unsigned char> s(11, 0xff);
    EXPECT_THROW(indexEdgeStream(part, s),
                 CodecError);
}

} // namespace
} // namespace graphr
