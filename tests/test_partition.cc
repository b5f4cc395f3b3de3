/**
 * @file
 * Unit and property tests for the grid partitioner (paper Eqs. 1-9),
 * including its division-free arithmetic against plain division.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "graph/partition.hh"

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

TEST(PartitionTest, PaperFigure12Geometry)
{
    // Fig. 12: V=64, B=32, C=4, N=2, G=2 -> subgraph 4x16, 16 tiles
    // per block, 4 blocks.
    const GridPartition part(64, tiling(4, 2, 2, 32));
    EXPECT_EQ(part.tileWidth(), 16u);
    EXPECT_EQ(part.blockSize(), 32u);
    EXPECT_EQ(part.paddedVertices(), 64u);
    EXPECT_EQ(part.blocksPerDim(), 2u);
    EXPECT_EQ(part.tileRowsPerBlock(), 8u);
    EXPECT_EQ(part.tileColsPerBlock(), 2u);
    EXPECT_EQ(part.tilesPerBlock(), 16u);
    EXPECT_EQ(part.numBlocks(), 4u);
    EXPECT_EQ(part.numTiles(), 64u);
    EXPECT_EQ(part.tileCapacity(), 64u);
}

TEST(PartitionTest, SingleBlockPadsToTileWidth)
{
    const GridPartition part(100, tiling(8, 4, 4));
    // tileWidth = 8*4*4 = 128; block rounds 100 up to 128.
    EXPECT_EQ(part.tileWidth(), 128u);
    EXPECT_EQ(part.blockSize(), 128u);
    EXPECT_EQ(part.paddedVertices(), 128u);
    EXPECT_EQ(part.numBlocks(), 1u);
}

TEST(PartitionTest, BlockIndexIsColumnMajor)
{
    const GridPartition part(64, tiling(4, 2, 2, 32));
    // B(0,0) -> B(1,0) -> B(0,1) -> B(1,1) per paper section 3.4.
    EXPECT_EQ(part.blockIndex(0, 0), 0u);
    EXPECT_EQ(part.blockIndex(1, 0), 1u);
    EXPECT_EQ(part.blockIndex(0, 1), 2u);
    EXPECT_EQ(part.blockIndex(1, 1), 3u);
}

TEST(PartitionTest, TileIndexColumnMajorWithinBlock)
{
    const GridPartition part(64, tiling(4, 2, 2, 32));
    // Within block 0: tile (row 0, col 0) = 0, (row 1, col 0) = 1,
    // ..., (row 0, col 1) = 8.
    EXPECT_EQ(part.tileIndex(0, 0), 0u);
    EXPECT_EQ(part.tileIndex(4, 0), 1u);
    EXPECT_EQ(part.tileIndex(28, 0), 7u);
    EXPECT_EQ(part.tileIndex(0, 16), 8u);
    // First tile of block B(1,0) (rows 32.., cols 0..).
    EXPECT_EQ(part.tileIndex(32, 0), 16u);
    // First tile of block B(0,1) (rows 0.., cols 32..).
    EXPECT_EQ(part.tileIndex(0, 32), 32u);
}

TEST(PartitionTest, TileCoordRoundTrip)
{
    const GridPartition part(64, tiling(4, 2, 2, 32));
    for (std::uint64_t t = 0; t < part.numTiles(); ++t) {
        const TileCoord coord = part.tileCoord(t);
        std::uint64_t row0 = 0;
        std::uint64_t col0 = 0;
        part.tileOrigin(coord, row0, col0);
        EXPECT_EQ(part.tileIndex(static_cast<VertexId>(row0),
                                 static_cast<VertexId>(col0)),
                  t);
    }
}

TEST(PartitionTest, OrderIdColumnMajorWithinTile)
{
    const GridPartition part(64, tiling(4, 2, 2, 32));
    // Cells of tile 0, column-major: (0,0)=0, (1,0)=1, ..., (0,1)=4.
    EXPECT_EQ(part.globalOrderId(0, 0), 0u);
    EXPECT_EQ(part.globalOrderId(1, 0), 1u);
    EXPECT_EQ(part.globalOrderId(3, 0), 3u);
    EXPECT_EQ(part.globalOrderId(0, 1), 4u);
    // First cell of tile 1 (rows 4..7).
    EXPECT_EQ(part.globalOrderId(4, 0), 64u);
}

/** Property sweep over architectural parameter combinations. */
class PartitionPropertyTest
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint32_t, std::uint32_t,
                     std::uint32_t, VertexId>>
{
};

TEST_P(PartitionPropertyTest, OrderIdIsABijection)
{
    const auto [c, n, g, b, v] = GetParam();
    const GridPartition part(v, tiling(c, n, g, b));
    const std::uint64_t pv = part.paddedVertices();
    ASSERT_LE(pv * pv, 1u << 20) << "test sweep too large";

    std::set<std::uint64_t> ids;
    for (std::uint64_t i = 0; i < pv; ++i) {
        for (std::uint64_t j = 0; j < pv; ++j) {
            const std::uint64_t id = part.globalOrderId(
                static_cast<VertexId>(i), static_cast<VertexId>(j));
            EXPECT_LT(id, pv * pv);
            ids.insert(id);
            // Inverse is consistent.
            std::uint64_t ri = 0;
            std::uint64_t rj = 0;
            part.cellOfOrderId(id, ri, rj);
            EXPECT_EQ(ri, i);
            EXPECT_EQ(rj, j);
        }
    }
    EXPECT_EQ(ids.size(), pv * pv) << "order ids must be unique";
}

TEST_P(PartitionPropertyTest, OrderIdGroupsTilesContiguously)
{
    const auto [c, n, g, b, v] = GetParam();
    const GridPartition part(v, tiling(c, n, g, b));
    const std::uint64_t pv = part.paddedVertices();
    ASSERT_LE(pv * pv, 1u << 20);

    // All cells of tile k occupy [k*cap, (k+1)*cap).
    for (std::uint64_t i = 0; i < pv; ++i) {
        for (std::uint64_t j = 0; j < pv; ++j) {
            const std::uint64_t id = part.globalOrderId(
                static_cast<VertexId>(i), static_cast<VertexId>(j));
            const std::uint64_t tile = part.tileIndex(
                static_cast<VertexId>(i), static_cast<VertexId>(j));
            EXPECT_EQ(id / part.tileCapacity(), tile);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PartitionPropertyTest,
    ::testing::Values(
        std::make_tuple(4u, 2u, 2u, 32u, VertexId{64}),
        std::make_tuple(4u, 2u, 2u, 0u, VertexId{64}),
        std::make_tuple(8u, 2u, 2u, 0u, VertexId{100}),
        std::make_tuple(4u, 4u, 1u, 16u, VertexId{64}),
        std::make_tuple(2u, 2u, 2u, 8u, VertexId{30}),
        std::make_tuple(8u, 4u, 4u, 256u, VertexId{1000}),
        std::make_tuple(16u, 2u, 2u, 0u, VertexId{200})));

TEST(PartitionTest, RejectsZeroParameters)
{
    EXPECT_DEATH(GridPartition(0, tiling(4, 2, 2)), "");
}

// ------------------------------------------- division-free arithmetic

/** The tilings the partition, preprocessing and tile-metadata tests
 *  use, the default one, and the crossbar sizes 1, 3, 5, 6, 8 and 64
 *  with and without blocks. */
std::vector<TilingParams>
testedTilings()
{
    std::vector<TilingParams> out = {
        TilingParams{},     tiling(4, 2, 2, 32), tiling(4, 2, 2),
        tiling(8, 2, 2),    tiling(4, 4, 1, 16), tiling(2, 2, 2, 8),
        tiling(8, 4, 4, 256), tiling(16, 2, 2),  tiling(4, 2, 2, 64),
        tiling(4, 2, 2, 16), tiling(8, 2, 4),    tiling(2, 4, 2, 16),
        tiling(8, 8, 1, 64), tiling(16, 1, 1, 32), tiling(6, 3, 2),
        tiling(5, 2, 3, 60), tiling(64, 2, 1),   tiling(64, 1, 1, 128),
        tiling(1, 1, 1),    tiling(4, 2, 3, 48),
    };
    for (const std::uint32_t c : {1u, 3u, 5u, 6u, 8u, 64u}) {
        out.push_back(tiling(c, 2, 3));
        // 2W - 1 pads to two tile columns per block.
        out.push_back(tiling(c, 2, 3, 2 * c * 6 - 1));
    }
    return out;
}

/** A tiling's padded sizes by plain arithmetic (Eqs. 1-5). */
struct PlainGrid
{
    std::uint64_t tileWidth = 0;
    std::uint64_t blockSize = 0;
    std::uint64_t paddedVertices = 0;
};

PlainGrid
plainGrid(std::uint64_t v, const TilingParams &t)
{
    const auto round_up = [](std::uint64_t x, std::uint64_t unit) {
        return (x + unit - 1) / unit * unit;
    };
    PlainGrid g;
    g.tileWidth = std::uint64_t{t.crossbarDim} * t.crossbarsPerGe * t.numGe;
    g.blockSize = round_up(t.blockSize == 0 ? v : t.blockSize, g.tileWidth);
    g.paddedVertices = round_up(v, g.blockSize);
    return g;
}

TEST(ReciprocalTest, QuotientAndRemainderAreThoseOfDivision)
{
    std::set<std::uint64_t> divisors;
    for (std::uint64_t d = 1; d <= 70; ++d)
        divisors.insert(d);
    // Every tested tile width and block size, padded as the partition
    // pads them; 2^32 - 1 vertices pads single blocks past 2^32, where
    // the partition refuses the grid but the divisor still divides.
    for (const TilingParams &t : testedTilings()) {
        for (const VertexId v : {VertexId{100}, VertexId{1000},
                                 VertexId{4294967295u}}) {
            const PlainGrid grid = plainGrid(v, t);
            divisors.insert(t.crossbarDim);
            divisors.insert(grid.tileWidth);
            divisors.insert(grid.blockSize);
        }
    }
    divisors.insert(std::uint64_t{1} << 32);

    constexpr std::uint64_t kMax = std::numeric_limits<std::uint32_t>::max();
    std::mt19937_64 rng(29);
    for (const std::uint64_t d : divisors) {
        SCOPED_TRACE(d);
        const Reciprocal by(d);
        EXPECT_EQ(by.divisor(), d);
        std::vector<std::uint64_t> numerators = {0, d - 1, d, d + 1, kMax};
        for (int k = 0; k < 200; ++k)
            numerators.push_back(rng() & kMax);
        for (int k = 0; k < 50; ++k)
            numerators.push_back(rng() % (d * 4));
        for (const std::uint64_t n : numerators) {
            if (n > kMax)
                continue;
            const auto n32 = static_cast<std::uint32_t>(n);
            const std::uint64_t q = by.quotient(n32);
            EXPECT_EQ(q, n / d) << "n = " << n;
            EXPECT_EQ(n - q * d, n % d) << "n = " << n;
        }
        // quotientWide divides any 64-bit numerator: a local cell ID
        // passes 2^32 once a tile holds more cells than that.
        for (const std::uint64_t n :
             {std::uint64_t{0}, d, kMax, kMax + 1, kMax * d + d - 1,
              rng(), ~std::uint64_t{0}})
            EXPECT_EQ(by.quotientWide(n), n / d) << "n = " << n;
    }
}

/** One cell's tile and order ID by Eqs. 1-9 with plain division. */
struct PlainCell
{
    std::uint64_t tile = 0;
    std::uint64_t orderId = 0;
};

PlainCell
plainCell(const GridPartition &p, std::uint64_t i, std::uint64_t j)
{
    const std::uint64_t b = p.blockSize();
    const std::uint64_t c = p.crossbarDim();
    const std::uint64_t w = p.tileWidth();
    const std::uint64_t tile =
        (i / b + p.blocksPerDim() * (j / b)) * p.tilesPerBlock() +
        i % b / c + j % b / w * p.tileRowsPerBlock();
    return PlainCell{tile, tile * p.tileCapacity() + i % b % c +
                               j % b % w * c};
}

TileCoord
plainCoord(const GridPartition &p, std::uint64_t tile)
{
    const std::uint64_t block = tile / p.tilesPerBlock();
    const std::uint64_t in_block = tile % p.tilesPerBlock();
    return TileCoord{block % p.blocksPerDim(), block / p.blocksPerDim(),
                     in_block % p.tileRowsPerBlock(),
                     in_block / p.tileRowsPerBlock()};
}

/** Cell coordinates to probe along one axis: every one of a small
 *  padded grid, else the edges of crossbars, tiles and blocks, the
 *  last vertex and padded cell, and seeded random ones; each a
 *  VertexId. */
std::vector<std::uint64_t>
probeCoordinates(const GridPartition &p, std::mt19937_64 &rng)
{
    const std::uint64_t pv = std::min<std::uint64_t>(
        p.paddedVertices(),
        std::uint64_t{std::numeric_limits<VertexId>::max()} + 1);
    std::vector<std::uint64_t> out;
    if (pv <= 512) {
        for (std::uint64_t v = 0; v < pv; ++v)
            out.push_back(v);
        return out;
    }
    for (const std::uint64_t unit :
         {std::uint64_t{p.crossbarDim()}, p.tileWidth(), p.blockSize()}) {
        for (const std::uint64_t k : {1u, 2u, 3u}) {
            for (const std::uint64_t v :
                 {k * unit - 1, k * unit, k * unit + 1}) {
                if (v < pv)
                    out.push_back(v);
            }
        }
    }
    out.push_back(0);
    out.push_back(p.numVertices() - 1);
    out.push_back(pv - 1);
    for (int k = 0; k < 24; ++k)
        out.push_back(rng() % pv);
    return out;
}

TEST(PartitionTest, IndexArithmeticEqualsPlainDivision)
{
    std::mt19937_64 rng(7);
    for (const TilingParams &t : testedTilings()) {
        for (const VertexId v : {VertexId{1}, VertexId{97}, VertexId{1000},
                                 VertexId{4294967295u}}) {
            SCOPED_TRACE("C=" + std::to_string(t.crossbarDim) + " N=" +
                         std::to_string(t.crossbarsPerGe) + " G=" +
                         std::to_string(t.numGe) + " B=" +
                         std::to_string(t.blockSize) + " V=" +
                         std::to_string(v));
            // Past 2^32 padded vertices an order ID would wrap and
            // stop naming its cell, so the partition refuses the grid.
            if (plainGrid(v, t).paddedVertices >
                GridPartition::kMaxPaddedVertices) {
                EXPECT_THROW(GridPartition(v, t), PartitionError);
                continue;
            }
            // At exactly 2^32 padded vertices (C*N*G a power of two)
            // numTiles() * tileCapacity() wraps to 0, so the round
            // trip checks cellOfOrderId's range test does not form it.
            const GridPartition part(v, t);
            ASSERT_EQ(part.paddedVertices(), plainGrid(v, t).paddedVertices);
            const std::vector<std::uint64_t> coords =
                probeCoordinates(part, rng);
            for (const std::uint64_t i : coords) {
                for (const std::uint64_t j : coords) {
                    const PlainCell want = plainCell(part, i, j);
                    const auto vi = static_cast<VertexId>(i);
                    const auto vj = static_cast<VertexId>(j);
                    ASSERT_EQ(part.tileIndex(vi, vj), want.tile)
                        << "(" << i << "," << j << ")";
                    ASSERT_EQ(part.globalOrderId(vi, vj), want.orderId)
                        << "(" << i << "," << j << ")";
                    ASSERT_EQ(part.tileCoord(want.tile),
                              plainCoord(part, want.tile));
                    std::uint64_t ri = 0;
                    std::uint64_t rj = 0;
                    part.cellOfOrderId(want.orderId, ri, rj);
                    ASSERT_EQ(ri, i) << "order id " << want.orderId;
                    ASSERT_EQ(rj, j) << "order id " << want.orderId;
                }
            }
        }
    }
}

TEST(PartitionTest, CrossbarTallerThanTheRowMaskIsRefused)
{
    // A tile's row activity is a 64-bit mask; with C <= 64 no tile
    // holds more than 2^38 cells, which bounds the codec's k.
    EXPECT_NO_THROW(GridPartition(100, tiling(64, 1, 1)));
    EXPECT_THROW(GridPartition(100, tiling(65, 1, 1)), PartitionError);
    EXPECT_THROW(GridPartition(100, tiling(1u << 31, 1, 1)), PartitionError);
    const GridPartition widest(4294967295u, tiling(64, 1u << 13, 1u << 13));
    EXPECT_EQ(widest.tileCapacity(), GridPartition::kMaxTileCapacity);
}

TEST(PartitionTest, GridPast2To32IsRefusedByName)
{
    // 4294967295 vertices under C=6 N=3 G=2 pad to 4294967328: distinct
    // cells would share an order ID, so construction throws, naming
    // the vertex count and the tiling, instead of wrapping.
    TilingParams t;
    t.crossbarDim = 6;
    t.crossbarsPerGe = 3;
    t.numGe = 2;
    try {
        const GridPartition part(4294967295u, t);
        FAIL() << "accepted " << part.paddedVertices() << " padded vertices";
    } catch (const PartitionError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("4294967295"), std::string::npos) << what;
        EXPECT_NE(what.find("4294967328"), std::string::npos) << what;
        EXPECT_NE(what.find("C=6 N=3 G=2"), std::string::npos) << what;
    }
    // A tile wider than any grid is refused before padding can wrap.
    t.crossbarDim = 64;
    t.crossbarsPerGe = 1u << 20;
    t.numGe = 1u << 20;
    EXPECT_THROW(GridPartition(100, t), PartitionError);
}

} // namespace
} // namespace graphr
