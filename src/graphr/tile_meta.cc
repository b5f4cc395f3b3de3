#include "tile_meta.hh"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "common/logging.hh"

namespace graphr
{

TileMeta
describeTile(const GridPartition &part, std::uint64_t tile_index,
             std::span<const std::uint64_t> locals,
             std::span<std::uint32_t> row_nnz)
{
    const std::uint32_t dim = part.crossbarDim();
    GRAPHR_ASSERT(dim <= 64, "tile row mask supports C <= 64");
    GRAPHR_ASSERT(row_nnz.empty() || row_nnz.size() == dim,
                  "row counts of ", row_nnz.size(), " rows for C = ", dim);

    TileMeta meta;
    meta.tileIndex = tile_index;
    meta.nnz = locals.size();
    part.tileOrigin(part.tileCoord(tile_index), meta.row0, meta.col0);

    // A tile's cells are in column-major order (local = row + col*C),
    // so each distinct column, and each crossbar's C columns, is one
    // run of consecutive cells: count runs instead of sets. Most cells
    // of a sparse tile open a crossbar, so the loop takes no branch on
    // it: a cell opens one when its crossbar, a reciprocal multiply
    // rather than a divide, differs from the previous cell's.
    const Reciprocal by_dim(dim);
    const std::uint64_t capacity = part.tileCapacity();
    std::uint64_t prev_local = 0;
    std::uint64_t prev_col = ~std::uint64_t{0};
    std::uint64_t prev_crossbar = ~std::uint64_t{0};
    std::uint64_t cb_rows = 0;  // rows of the current crossbar so far
    std::uint32_t cb_count = 0; // and their number
    std::uint64_t row_mask = 0;
    std::uint64_t columns = 0;
    std::uint32_t crossbars = 0;
    std::uint32_t max_rows = 0;
    for (const std::uint64_t local : locals) {
        GRAPHR_ASSERT(local < capacity, "cell outside its tile");
        GRAPHR_ASSERT(columns == 0 || local >= prev_local,
                      "tile cells not in column-major order");
        const std::uint64_t col = by_dim.quotientWide(local);
        const std::uint64_t row = local - col * dim;
        const std::uint64_t crossbar =
            by_dim.quotient(static_cast<std::uint32_t>(col));
        const bool opens = crossbar != prev_crossbar;
        columns += col != prev_col;
        crossbars += opens;
        cb_rows = opens ? 0 : cb_rows;
        cb_count = opens ? 0 : cb_count;
        const std::uint64_t bit = std::uint64_t{1} << row;
        cb_count += (cb_rows & bit) == 0;
        cb_rows |= bit;
        max_rows = std::max(max_rows, cb_count);
        row_mask |= bit;
        if (!row_nnz.empty())
            ++row_nnz[row];
        prev_local = local;
        prev_col = col;
        prev_crossbar = crossbar;
    }
    meta.rowMask = row_mask;
    meta.nnzColumns = columns;
    meta.crossbarsUsed = crossbars;
    meta.maxRowsProgrammed = max_rows;
    return meta;
}

TileMetaTable::TileMetaTable(const OrderedEdgeList &ordered)
    : dim_(ordered.partition().crossbarDim())
{
    const GridPartition &part = ordered.partition();
    const std::uint32_t dim = dim_;
    const std::span<const TileSpan> spans = ordered.tiles();
    GRAPHR_ASSERT(spans.size() <= UINT32_MAX, "tile count ", spans.size(),
                  " overflows the tile-row index");
    // rowOffsets_[r + 1] counts tile row r's tiles first; the prefix
    // sum below turns the counts into offsets.
    rowOffsets_.assign((part.numVertices() + dim - 1) / dim + 1, 0);
    tiles_.reserve(spans.size());
    rowNnz_.assign(spans.size() * dim, 0);
    std::vector<std::uint64_t> locals; // one tile's cells, reused
    for (std::size_t t = 0; t < spans.size(); ++t) {
        decodeTileLocals(ordered.stream(), spans[t], locals);
        tiles_.push_back(describeTile(
            part, spans[t].tileIndex, locals,
            std::span<std::uint32_t>(rowNnz_).subspan(t * dim, dim)));
        totalNnz_ += spans[t].numEdges;
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

std::size_t
TileMetaTable::bytes() const
{
    return tiles_.capacity() * sizeof(TileMeta) +
           (rowNnz_.capacity() + rowOffsets_.capacity() +
            rowPositions_.capacity()) *
               sizeof(std::uint32_t);
}

} // namespace graphr
