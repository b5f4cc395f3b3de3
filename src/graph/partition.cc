#include "partition.hh"

#include <string>

#include "common/logging.hh"

namespace graphr
{

namespace
{

/** Round value up to the next multiple of unit. */
std::uint64_t
roundUp(std::uint64_t value, std::uint64_t unit)
{
    return (value + unit - 1) / unit * unit;
}

} // namespace

GridPartition::GridPartition(VertexId num_vertices,
                             const TilingParams &params)
    : numVertices_(num_vertices), params_(params)
{
    GRAPHR_ASSERT(params_.crossbarDim > 0, "crossbar dim must be > 0");
    GRAPHR_ASSERT(params_.crossbarsPerGe > 0, "need >= 1 crossbar per GE");
    GRAPHR_ASSERT(params_.numGe > 0, "need >= 1 graph engine");
    GRAPHR_ASSERT(num_vertices > 0, "graph must have vertices");
    if (params_.crossbarDim > kMaxCrossbarDim) {
        throw PartitionError(
            "C=" + std::to_string(params_.crossbarDim) +
            " exceeds 64: a tile's row activity is a 64-bit row mask");
    }

    // A block must hold a whole number of tile rows (height C) and
    // tile columns (width C*N*G). Pad the requested block size (or
    // the vertex count for the single-block case) up to a multiple of
    // lcm(C, tileWidth) = tileWidth (C divides tileWidth). The padded
    // grid is at least one tile wide, so a tile wider than the
    // largest grid fails the same check before any rounding can wrap.
    const bool wide =
        __builtin_mul_overflow(
            static_cast<std::uint64_t>(params_.crossbarDim),
            static_cast<std::uint64_t>(params_.crossbarsPerGe),
            &tileWidth_) ||
        __builtin_mul_overflow(tileWidth_,
                               static_cast<std::uint64_t>(params_.numGe),
                               &tileWidth_) ||
        tileWidth_ > kMaxPaddedVertices;
    if (!wide) {
        const std::uint64_t unit = tileWidth_;
        blockSize_ = roundUp(params_.blockSize == 0 ? num_vertices
                                                    : params_.blockSize,
                             unit);
        paddedVertices_ = roundUp(num_vertices, blockSize_);
    }
    if (wide || paddedVertices_ > kMaxPaddedVertices) {
        throw PartitionError(
            std::to_string(num_vertices) + " vertices under C=" +
            std::to_string(params_.crossbarDim) +
            " N=" + std::to_string(params_.crossbarsPerGe) +
            " G=" + std::to_string(params_.numGe) +
            " B=" + std::to_string(params_.blockSize) +
            (wide ? std::string(" need tiles wider than")
                  : " pad to " + std::to_string(paddedVertices_) +
                        ", more than") +
            " the 2^32 vertices whose cells 64-bit order IDs can "
            "number");
    }
    tileCapacity_ = params_.crossbarDim * tileWidth_;

    blocksPerDim_ = paddedVertices_ / blockSize_;
    tileRowsPerBlock_ = blockSize_ / params_.crossbarDim;
    tileColsPerBlock_ = blockSize_ / tileWidth_;
    byBlock_ = Reciprocal(blockSize_);
    byCrossbar_ = Reciprocal(params_.crossbarDim);
    byTileWidth_ = Reciprocal(tileWidth_);
    byTilesPerBlock_ = Reciprocal(tilesPerBlock());
    byBlocksPerDim_ = Reciprocal(blocksPerDim_);
    byTileRowsPerBlock_ = Reciprocal(tileRowsPerBlock_);
}

TileCoord
GridPartition::tileCoord(std::uint64_t tile_index) const
{
    GRAPHR_ASSERT(tile_index < numTiles(), "tile index ", tile_index,
                  " out of range ", numTiles());
    TileCoord coord;
    const std::uint64_t bi = byTilesPerBlock_.quotientWide(tile_index);
    const std::uint64_t in_block = tile_index - bi * tilesPerBlock();
    coord.blockCol = byBlocksPerDim_.quotientWide(bi);
    coord.blockRow = bi - coord.blockCol * blocksPerDim_;
    coord.tileCol = byTileRowsPerBlock_.quotientWide(in_block);
    coord.tileRow = in_block - coord.tileCol * tileRowsPerBlock_;
    return coord;
}

void
GridPartition::tileOrigin(const TileCoord &coord, std::uint64_t &row0,
                          std::uint64_t &col0) const
{
    row0 = coord.blockRow * blockSize_ +
           coord.tileRow * params_.crossbarDim;
    col0 = coord.blockCol * blockSize_ + coord.tileCol * tileWidth_;
}

void
GridPartition::cellOfOrderId(std::uint64_t order_id, std::uint64_t &i,
                             std::uint64_t &j) const
{
    // numTiles() * tileCapacity_ is paddedVertices^2, which wraps to
    // 0 at 2^32 padded vertices: bound the tile index instead.
    GRAPHR_ASSERT(order_id / tileCapacity_ < numTiles(),
                  "order id out of range");
    const std::uint64_t si = order_id / tileCapacity_;
    const std::uint64_t sub = order_id % tileCapacity_;
    const TileCoord coord = tileCoord(si);
    std::uint64_t row0 = 0;
    std::uint64_t col0 = 0;
    tileOrigin(coord, row0, col0);
    i = row0 + sub % params_.crossbarDim;
    j = col0 + sub / params_.crossbarDim;
}

} // namespace graphr
