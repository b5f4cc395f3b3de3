/**
 * @file
 * Exact, field-by-field TilePlan comparison for differential tests:
 * the fingerprint, the ordered edges, the tile directory, every
 * TileMeta field and each tile row's index, so a failure names the
 * edge, tile or field that moved.
 */

#ifndef GRAPHR_TESTS_PLAN_EQ_HH
#define GRAPHR_TESTS_PLAN_EQ_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "graphr/engine/tile_plan.hh"

namespace graphr
{

inline void
expectSamePlan(const TilePlan &got, const TilePlan &want)
{
    EXPECT_EQ(got.fingerprint, want.fingerprint);
    EXPECT_EQ(got.partition.numVertices(), want.partition.numVertices());
    EXPECT_EQ(got.partition.blockSize(), want.partition.blockSize());

    ASSERT_EQ(got.ordered.edges().size(), want.ordered.edges().size());
    for (std::size_t i = 0; i < got.ordered.edges().size(); ++i) {
        EXPECT_EQ(got.ordered.edges()[i], want.ordered.edges()[i])
            << "edge " << i;
    }
    ASSERT_EQ(got.ordered.tiles().size(), want.ordered.tiles().size());
    for (std::size_t i = 0; i < got.ordered.tiles().size(); ++i) {
        const TileSpan &a = got.ordered.tiles()[i];
        const TileSpan &b = want.ordered.tiles()[i];
        EXPECT_EQ(a.tileIndex, b.tileIndex) << "tile " << i;
        EXPECT_EQ(a.firstEdge, b.firstEdge) << "tile " << i;
        EXPECT_EQ(a.numEdges, b.numEdges) << "tile " << i;
    }
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
