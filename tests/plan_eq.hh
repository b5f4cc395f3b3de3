/**
 * @file
 * Exact, field-by-field TilePlan comparison for differential tests:
 * the fingerprint, the stream bytes, the tile directory, every tile's
 * decoded edges, every TileMeta field and each tile row's index, so a
 * failure names the byte, edge, tile or field that moved.
 */

#ifndef GRAPHR_TESTS_PLAN_EQ_HH
#define GRAPHR_TESTS_PLAN_EQ_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "graphr/engine/tile_plan.hh"

namespace graphr
{

/** Every edge of @p ordered, decoded tile by tile, in stream order. */
inline std::vector<Edge>
decodedEdges(const OrderedEdgeList &ordered)
{
    std::vector<Edge> all;
    std::vector<Edge> scratch;
    for (std::size_t t = 0; t < ordered.tiles().size(); ++t) {
        const std::span<const Edge> tile = ordered.decodeTile(t, scratch);
        all.insert(all.end(), tile.begin(), tile.end());
    }
    return all;
}

/** Bit-pattern edge equality: NaN payloads and -0.0 must survive,
 *  which float == cannot express. */
inline void
expectEdgesBitIdentical(std::span<const Edge> got,
                        std::span<const Edge> want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].src, want[i].src) << "edge " << i;
        EXPECT_EQ(got[i].dst, want[i].dst) << "edge " << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].weight),
                  std::bit_cast<std::uint64_t>(want[i].weight))
            << "edge " << i;
    }
}

/** Same tiles in both directories, byte offsets included. */
inline void
expectSameDirectory(std::span<const TileSpan> got,
                    std::span<const TileSpan> want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].tileIndex, want[i].tileIndex) << "tile " << i;
        EXPECT_EQ(got[i].firstEdge, want[i].firstEdge) << "tile " << i;
        EXPECT_EQ(got[i].numEdges, want[i].numEdges) << "tile " << i;
        EXPECT_EQ(got[i].byteOffset, want[i].byteOffset) << "tile " << i;
    }
}

inline void
expectSamePlan(const TilePlan &got, const TilePlan &want)
{
    EXPECT_EQ(got.fingerprint, want.fingerprint);
    EXPECT_EQ(got.partition.numVertices(), want.partition.numVertices());
    EXPECT_EQ(got.partition.blockSize(), want.partition.blockSize());

    EXPECT_TRUE(std::ranges::equal(got.ordered.stream(),
                                   want.ordered.stream()))
        << "stream bytes differ";
    expectSameDirectory(got.ordered.tiles(), want.ordered.tiles());
    expectEdgesBitIdentical(decodedEdges(got.ordered),
                            decodedEdges(want.ordered));
    EXPECT_EQ(got.meta.totalNnz(), want.meta.totalNnz());
    ASSERT_EQ(got.meta.tiles().size(), want.meta.tiles().size());
    for (std::size_t i = 0; i < got.meta.tiles().size(); ++i) {
        const TileMeta &a = got.meta.tiles()[i];
        const TileMeta &b = want.meta.tiles()[i];
        EXPECT_EQ(a.tileIndex, b.tileIndex) << "tile " << i;
        EXPECT_EQ(a.row0, b.row0) << "tile " << i;
        EXPECT_EQ(a.col0, b.col0) << "tile " << i;
        EXPECT_EQ(a.nnz, b.nnz) << "tile " << i;
        EXPECT_EQ(a.crossbarsUsed, b.crossbarsUsed) << "tile " << i;
        EXPECT_EQ(a.maxRowsProgrammed, b.maxRowsProgrammed) << "tile " << i;
        EXPECT_EQ(a.rowMask, b.rowMask) << "tile " << i;
        EXPECT_EQ(a.nnzColumns, b.nnzColumns) << "tile " << i;
        EXPECT_TRUE(std::ranges::equal(got.meta.rowNnz(i),
                                       want.meta.rowNnz(i)))
            << "tile " << i;
    }
    const std::uint64_t dim = want.partition.crossbarDim();
    const std::uint64_t rows = (want.partition.numVertices() + dim - 1) / dim;
    for (std::uint64_t row = 0; row < rows; ++row) {
        EXPECT_TRUE(std::ranges::equal(got.meta.rowTiles(row),
                                       want.meta.rowTiles(row)))
            << "tile row " << row;
    }
}

} // namespace graphr

#endif // GRAPHR_TESTS_PLAN_EQ_HH
