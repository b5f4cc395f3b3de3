#include "tile_meta.hh"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>

#include "common/logging.hh"

namespace graphr
{

TileMeta
describeTile(const GridPartition &part, std::uint64_t tile_index,
             std::span<const Edge> edges)
{
    const std::uint32_t dim = part.crossbarDim();
    GRAPHR_ASSERT(dim <= 64, "tile row mask supports C <= 64");

    TileMeta meta;
    meta.tileIndex = tile_index;
    meta.nnz = edges.size();
    part.tileOrigin(part.tileCoord(tile_index), meta.row0, meta.col0);
    meta.rowNnz.assign(dim, 0);

    // A tile's edges are in column-major order (sub = row + col*C),
    // so each distinct column, and each crossbar's C columns, is one
    // run of consecutive edges: count runs instead of sets.
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
    for (const Edge &e : edges) {
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
    return meta;
}

TileMetaTable::TileMetaTable(const OrderedEdgeList &ordered)
{
    const GridPartition &part = ordered.partition();
    const std::uint32_t dim = part.crossbarDim();
    GRAPHR_ASSERT(ordered.tiles().size() <= UINT32_MAX, "tile count ",
                  ordered.tiles().size(), " overflows the tile-row index");
    // rowOffsets_[r + 1] counts tile row r's tiles first; the prefix
    // sum below turns the counts into offsets.
    rowOffsets_.assign((part.numVertices() + dim - 1) / dim + 1, 0);
    tiles_.reserve(ordered.tiles().size());
    for (const TileSpan &span : ordered.tiles()) {
        tiles_.push_back(describeTile(part, span.tileIndex,
                                      ordered.tileEdges(span)));
        totalNnz_ += span.numEdges;
        ++rowOffsets_[tiles_.back().row0 / dim + 1];
    }

    // Counting sort of the positions by tile row; a stable fill keeps
    // each row's positions ascending.
    std::partial_sum(rowOffsets_.begin(), rowOffsets_.end(),
                     rowOffsets_.begin());
    rowPositions_.resize(tiles_.size());
    std::vector<std::uint32_t> next(rowOffsets_.begin(),
                                    rowOffsets_.end() - 1);
    for (std::size_t t = 0; t < tiles_.size(); ++t)
        rowPositions_[next[tiles_[t].row0 / dim]++] =
            static_cast<std::uint32_t>(t);
}

} // namespace graphr
