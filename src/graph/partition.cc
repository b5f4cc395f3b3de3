#include "partition.hh"

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

    tileWidth_ = static_cast<std::uint64_t>(params_.crossbarDim) *
                 params_.crossbarsPerGe * params_.numGe;
    tileCapacity_ = params_.crossbarDim * tileWidth_;

    // A block must hold a whole number of tile rows (height C) and
    // tile columns (width C*N*G). Pad the requested block size (or
    // the vertex count for the single-block case) up to a multiple of
    // lcm(C, tileWidth) = tileWidth (C divides tileWidth).
    const std::uint64_t unit = tileWidth_;
    if (params_.blockSize == 0) {
        blockSize_ = roundUp(num_vertices, unit);
    } else {
        blockSize_ = roundUp(params_.blockSize, unit);
    }
    paddedVertices_ = roundUp(num_vertices, blockSize_);

    blocksPerDim_ = paddedVertices_ / blockSize_;
    tileRowsPerBlock_ = blockSize_ / params_.crossbarDim;
    tileColsPerBlock_ = blockSize_ / tileWidth_;
    byBlock_ = Reciprocal(blockSize_);
    byCrossbar_ = Reciprocal(params_.crossbarDim);
    byTileWidth_ = Reciprocal(tileWidth_);
}

TileCoord
GridPartition::tileCoord(std::uint64_t tile_index) const
{
    GRAPHR_ASSERT(tile_index < numTiles(), "tile index ", tile_index,
                  " out of range ", numTiles());
    TileCoord coord;
    const std::uint64_t bi = tile_index / tilesPerBlock();
    const std::uint64_t in_block = tile_index % tilesPerBlock();
    coord.blockRow = bi % blocksPerDim_;
    coord.blockCol = bi / blocksPerDim_;
    coord.tileRow = in_block % tileRowsPerBlock_;
    coord.tileCol = in_block / tileRowsPerBlock_;
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
