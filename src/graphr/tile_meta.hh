/**
 * @file
 * Precomputed per-tile activity metadata.
 *
 * The cost model needs, per non-empty tile: how many crossbars hold
 * non-zeros, the serial row-write depth, and which source rows carry
 * edges (to intersect with active sets for BFS/SSSP). Computing this
 * once after preprocessing keeps the per-iteration simulation loop a
 * cheap table walk, which matters when iterating large graphs. The
 * table also indexes its tiles by tile row, so an add-op round
 * reaches the tiles of its active sources without walking the rest.
 * Each tile's C row counts live in one flat array the table owns, so
 * describing a tile allocates nothing.
 */

#ifndef GRAPHR_GRAPHR_TILE_META_HH
#define GRAPHR_GRAPHR_TILE_META_HH

#include <cstdint>
#include <span>
#include <vector>

#include "graph/preprocess.hh"

namespace graphr
{

/** Static activity facts about one non-empty tile. */
struct TileMeta
{
    std::uint64_t tileIndex = 0;
    std::uint64_t row0 = 0; ///< first source vertex covered
    std::uint64_t col0 = 0; ///< first destination vertex covered
    std::uint64_t nnz = 0;
    std::uint32_t crossbarsUsed = 0;
    std::uint32_t maxRowsProgrammed = 0; ///< deepest crossbar write queue
    std::uint64_t rowMask = 0; ///< bit r set if tile row r has edges
    std::uint64_t nnzColumns = 0; ///< distinct destination columns
};

/**
 * Metadata of tile @p tile_index holding @p edges, which must be in
 * the plan's column-major tile order. Any contiguous run of a plan
 * tile's edges is itself in that order, so this also describes the
 * part of a tile that falls in a destination range (multi-node
 * stripes). @p row_nnz, when not empty, holds C zeros and receives
 * each tile row's edge count.
 */
TileMeta describeTile(const GridPartition &part, std::uint64_t tile_index,
                      std::span<const Edge> edges,
                      std::span<std::uint32_t> row_nnz = {});

/** Table of metadata for every non-empty tile, in streaming order. */
class TileMetaTable
{
  public:
    explicit TileMetaTable(const OrderedEdgeList &ordered);

    const std::vector<TileMeta> &tiles() const { return tiles_; }

    std::uint64_t
    totalNnz() const
    {
        return totalNnz_;
    }

    /** Edge count of each of the C rows of the tile at position
     *  @p position in tiles(), by tile-relative row. */
    std::span<const std::uint32_t>
    rowNnz(std::size_t position) const
    {
        return std::span<const std::uint32_t>(rowNnz_).subspan(
            position * dim_, dim_);
    }

    /**
     * Positions in tiles() of the tiles of tile row @p row — those
     * whose sources are [row * C, row * C + C) — ascending. Every
     * tile row starts at a multiple of C (blocks hold whole tile
     * rows), so vertex v lies in tile row v / C.
     */
    std::span<const std::uint32_t>
    rowTiles(std::uint64_t row) const
    {
        return std::span<const std::uint32_t>(rowPositions_)
            .subspan(rowOffsets_[row],
                     rowOffsets_[row + 1] - rowOffsets_[row]);
    }

  private:
    std::vector<TileMeta> tiles_;
    std::uint64_t totalNnz_ = 0;
    std::uint32_t dim_ = 0;
    /** Tile t's row counts: rowNnz_[t * C, t * C + C). */
    std::vector<std::uint32_t> rowNnz_;
    /** Tile row r's positions: rowPositions_[rowOffsets_[r],
     *  rowOffsets_[r + 1]); one 4-byte entry per tile. */
    std::vector<std::uint32_t> rowOffsets_;
    std::vector<std::uint32_t> rowPositions_;
};

} // namespace graphr

#endif // GRAPHR_GRAPHR_TILE_META_HH
