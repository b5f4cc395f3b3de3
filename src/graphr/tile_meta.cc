#include "tile_meta.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/logging.hh"

namespace graphr
{

TileMetaTable::TileMetaTable(const OrderedEdgeList &ordered)
{
    const GridPartition &part = ordered.partition();
    const std::uint32_t dim = part.crossbarDim();
    GRAPHR_ASSERT(dim <= 64, "tile row mask supports C <= 64");

    tiles_.reserve(ordered.tiles().size());
    for (const TileSpan &span : ordered.tiles()) {
        TileMeta meta;
        meta.tileIndex = span.tileIndex;
        meta.nnz = span.numEdges;
        totalNnz_ += span.numEdges;

        const TileCoord coord = part.tileCoord(span.tileIndex);
        part.tileOrigin(coord, meta.row0, meta.col0);
        meta.rowNnz.assign(dim, 0);

        // A tile's edges are in column-major order (sub = row + col*C),
        // so each distinct column, and each crossbar's C columns, is
        // one run of consecutive edges: count runs instead of sets.
        std::uint64_t cb_rows = 0; // row mask of the current crossbar
        const auto close_crossbar = [&meta, &cb_rows] {
            if (cb_rows == 0)
                return;
            ++meta.crossbarsUsed;
            meta.maxRowsProgrammed = std::max(
                meta.maxRowsProgrammed,
                static_cast<std::uint32_t>(std::popcount(cb_rows)));
            cb_rows = 0;
        };
        std::uint64_t prev_col = 0;
        for (const Edge &e : ordered.tileEdges(span)) {
            const std::uint64_t row = e.src - meta.row0;
            const std::uint64_t col = e.dst - meta.col0;
            GRAPHR_ASSERT(row < dim && col < part.tileWidth(),
                          "edge outside its tile");
            if (meta.nnzColumns == 0 || col != prev_col) {
                GRAPHR_ASSERT(meta.nnzColumns == 0 || col > prev_col,
                              "tile edges not in column-major order");
                if (col / dim != prev_col / dim)
                    close_crossbar();
                ++meta.nnzColumns;
                prev_col = col;
            }
            const std::uint64_t bit = std::uint64_t{1} << row;
            meta.rowMask |= bit;
            ++meta.rowNnz[row];
            cb_rows |= bit;
        }
        close_crossbar();
        tiles_.push_back(std::move(meta));
    }
}

} // namespace graphr
