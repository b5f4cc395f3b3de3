/**
 * @file
 * Grid partitioning of the adjacency matrix into blocks and subgraph
 * tiles (paper section 3.4, Fig. 12).
 *
 * Terminology follows the paper:
 *  - C: crossbar dimension (a crossbar is C x C),
 *  - N: crossbars per graph engine,
 *  - G: graph engines per GraphR node,
 *  - B: block size (vertices per block; a block is B x B and is the
 *    disk-load unit of the out-of-core setting),
 *  - a *subgraph* (here: tile) is the unit all GEs process together:
 *    C rows by C*N*G columns.
 *
 * Ordering (all column-major, the variant GraphR adopts in section
 * 3.3 because it minimises RegO):
 *  - blocks:    B(0,0) -> B(1,0) -> ... -> B(0,1) -> B(1,1) -> ...
 *  - tiles within a block: tile-row varies fastest (Eq. 6),
 *  - cells within a tile: column-major (Eq. 8).
 *
 * Note: the paper's Eq. 2 prints "IB = Bj + (V/B) x Bj"; taken with
 * the stated column-major block order B(0,0)->B(1,0)->B(0,1)->B(1,1)
 * this is a typo for BI = Bi + (V/B) x Bj, which is what we implement.
 * All indices here are 0-based (the paper mixes 0- and 1-based).
 *
 * A cell's order ID is computed once per edge by the preprocessing
 * sort, so it runs without a hardware divide: the partition holds
 * exact reciprocals of its fixed sizes B, C and C*N*G, and every
 * quotient of a 32-bit vertex id or in-block offset is a multiply.
 * Tile coordinates are met once per tile decoded or described; they
 * take reciprocal multiplies of the tile grid's sizes while the tile
 * index fits 32 bits, and the divide past that.
 */

#ifndef GRAPHR_GRAPH_PARTITION_HH
#define GRAPHR_GRAPH_PARTITION_HH

#include <cstdint>
#include <limits>
#include <stdexcept>

#include "common/logging.hh"
#include "common/types.hh"

namespace graphr
{

/** Architectural tiling parameters (paper Fig. 9 legend). */
struct TilingParams
{
    std::uint32_t crossbarDim = 8;     ///< C
    std::uint32_t crossbarsPerGe = 32; ///< N
    std::uint32_t numGe = 64;          ///< G
    /**
     * Block size in vertices (B). 0 means "single block": the whole
     * (padded) graph fits in memory ReRAM, the common case in the
     * paper's evaluation ("in all experiments, graph data could fit
     * in memory").
     */
    std::uint32_t blockSize = 0;
};

/**
 * Division by a fixed divisor without a hardware divide (Lemire,
 * Kaser & Kurz, "Faster remainder by direct computation", 2019).
 * With c = floor((2^64 - 1) / d) + 1, n / d = (c * n) >> 64 exactly
 * for every n < 2^32 and 2 <= d < 2^32; a divisor of 2^32 or more
 * gives c <= 2^32, so c * n < 2^64 and the quotient 0, exact too.
 * d = 1 has no 64-bit c and is its own case.
 */
class Reciprocal
{
  public:
    explicit Reciprocal(std::uint64_t divisor) : divisor_(divisor)
    {
        GRAPHR_ASSERT(divisor > 0, "division by zero");
        if (divisor > 1)
            multiplier_ = std::numeric_limits<std::uint64_t>::max() /
                              divisor +
                          1;
    }

    std::uint64_t divisor() const { return divisor_; }

    /** n / d; n - quotient(n) * d is then n % d. */
    std::uint64_t
    quotient(std::uint32_t n) const
    {
        if (divisor_ == 1)
            return n;
        __extension__ using Wide = unsigned __int128;
        return static_cast<std::uint64_t>(
            (static_cast<Wide>(multiplier_) * n) >> 64);
    }

    /** n / d for any 64-bit n: the multiply below 2^32, a divide
     *  above. */
    std::uint64_t
    quotientWide(std::uint64_t n) const
    {
        return n >> 32 == 0 ? quotient(static_cast<std::uint32_t>(n))
                            : n / divisor_;
    }

  private:
    std::uint64_t divisor_;
    std::uint64_t multiplier_ = 0;
};

/** A tiling whose padded grid no 64-bit order ID can number. */
class PartitionError : public std::invalid_argument
{
  public:
    using std::invalid_argument::invalid_argument;
};

/** Coordinates of one tile in the global grid. */
struct TileCoord
{
    std::uint64_t blockRow = 0; ///< Bi
    std::uint64_t blockCol = 0; ///< Bj
    std::uint64_t tileRow = 0;  ///< SIi' within the block
    std::uint64_t tileCol = 0;  ///< SIj' within the block

    bool operator==(const TileCoord &other) const = default;
};

/**
 * Pure index arithmetic for the block/tile/cell grid over a padded
 * |V| x |V| adjacency matrix. This class owns no edge data.
 */
class GridPartition
{
  public:
    /**
     * @param num_vertices real vertex count of the graph
     * @param params tiling parameters; blockSize 0 selects a single
     *        block covering the padded vertex range
     * @throws PartitionError when C exceeds 64, the rows a tile's
     *         64-bit row mask holds, or when the vertex count pads to
     *         more than 2^32 vertices: order IDs count the padded
     *         grid's paddedVertices^2 cells in 64 bits, so past that
     *         they wrap and distinct cells would share an ID
     */
    GridPartition(VertexId num_vertices, const TilingParams &params);

    /** The tallest crossbar a partition accepts: C = 64 rows. */
    static constexpr std::uint32_t kMaxCrossbarDim = 64;
    /** The widest padded grid a partition accepts: 2^32 vertices. */
    static constexpr std::uint64_t kMaxPaddedVertices = std::uint64_t{1}
                                                        << 32;
    /** The largest tile capacity, 64 rows of 2^32 columns: every
     *  local cell ID, and so every delta between two, is below 2^38. */
    static constexpr std::uint64_t kMaxTileCapacity =
        kMaxCrossbarDim * kMaxPaddedVertices;

    /** C in the paper. */
    std::uint32_t crossbarDim() const { return params_.crossbarDim; }
    /** N in the paper. */
    std::uint32_t crossbarsPerGe() const { return params_.crossbarsPerGe; }
    /** G in the paper. */
    std::uint32_t numGe() const { return params_.numGe; }
    /** Tile width: C * N * G columns. */
    std::uint64_t tileWidth() const { return tileWidth_; }
    /** Tile capacity in cells: C * tileWidth. */
    std::uint64_t tileCapacity() const { return tileCapacity_; }

    /**
     * Occupancy of @p tiles non-empty tiles holding @p nnz edges:
     * nnz / (tiles * tileCapacity), 0 without tiles.
     */
    double
    occupancy(std::uint64_t nnz, std::uint64_t tiles) const
    {
        if (tiles == 0)
            return 0.0;
        return static_cast<double>(nnz) /
               (static_cast<double>(tiles) *
                static_cast<double>(tileCapacity_));
    }
    /** Effective block size B after padding. */
    std::uint64_t blockSize() const { return blockSize_; }
    /** Vertex count padded up so B | V and tiles divide B exactly. */
    std::uint64_t paddedVertices() const { return paddedVertices_; }
    /** Real (unpadded) vertex count. */
    VertexId numVertices() const { return numVertices_; }

    /** Blocks per dimension: paddedVertices / B. */
    std::uint64_t blocksPerDim() const { return blocksPerDim_; }
    /** Tile rows per block: B / C. */
    std::uint64_t tileRowsPerBlock() const { return tileRowsPerBlock_; }
    /** Tile columns per block: B / tileWidth. */
    std::uint64_t tileColsPerBlock() const { return tileColsPerBlock_; }
    /** Tiles per block. */
    std::uint64_t tilesPerBlock() const
    {
        return tileRowsPerBlock_ * tileColsPerBlock_;
    }
    /** Total blocks. */
    std::uint64_t numBlocks() const
    {
        return blocksPerDim_ * blocksPerDim_;
    }
    /** Total tiles in the global grid. */
    std::uint64_t numTiles() const
    {
        return numBlocks() * tilesPerBlock();
    }

    /** Column-major block index BI (Eq. 2, typo corrected). */
    std::uint64_t
    blockIndex(std::uint64_t block_row, std::uint64_t block_col) const
    {
        return block_row + blocksPerDim_ * block_col;
    }

    /** Global tile index SI of the tile containing cell (i, j). */
    std::uint64_t tileIndex(VertexId i, VertexId j) const;

    /** Tile coordinates for a global tile index (inverse of Eq. 6). */
    TileCoord tileCoord(std::uint64_t tile_index) const;

    /** First (row, column) covered by a tile. */
    void tileOrigin(const TileCoord &coord, std::uint64_t &row0,
                    std::uint64_t &col0) const;

    /**
     * Global order ID I(i, j) of a cell (Eq. 9): counts every cell —
     * zero or not — that precedes (i, j) in streaming-apply order.
     */
    std::uint64_t globalOrderId(VertexId i, VertexId j) const;

    /** Inverse of globalOrderId, for property tests. */
    void cellOfOrderId(std::uint64_t order_id, std::uint64_t &i,
                       std::uint64_t &j) const;

  private:
    /**
     * Global tile index SI of cell (i, j), also returning the cell's
     * offsets within that tile (Eq. 7).
     */
    std::uint64_t locate(VertexId i, VertexId j, std::uint64_t &sub_i,
                         std::uint64_t &sub_j) const;

    // Vertex ids, and so every in-block offset, are below 2^32: the
    // range in which a Reciprocal quotient is exact.
    static_assert(std::numeric_limits<VertexId>::max() <=
                  std::numeric_limits<std::uint32_t>::max());

    VertexId numVertices_;
    TilingParams params_;
    std::uint64_t tileWidth_ = 0;
    std::uint64_t tileCapacity_ = 0;
    std::uint64_t blockSize_ = 0;
    std::uint64_t paddedVertices_ = 0;
    std::uint64_t blocksPerDim_;
    std::uint64_t tileRowsPerBlock_;
    std::uint64_t tileColsPerBlock_;
    Reciprocal byBlock_{1};     ///< B
    Reciprocal byCrossbar_{1};  ///< C
    Reciprocal byTileWidth_{1}; ///< C * N * G
    Reciprocal byTilesPerBlock_{1};    ///< tiles per block
    Reciprocal byBlocksPerDim_{1};     ///< blocks per dimension
    Reciprocal byTileRowsPerBlock_{1}; ///< B / C
};

inline std::uint64_t
GridPartition::locate(VertexId i, VertexId j, std::uint64_t &sub_i,
                      std::uint64_t &sub_j) const
{
    GRAPHR_ASSERT(i < paddedVertices_ && j < paddedVertices_,
                  "cell (", i, ",", j, ") outside padded grid ",
                  paddedVertices_);
    // Eq. 1: block coordinates.
    const std::uint64_t block_row = byBlock_.quotient(i);
    const std::uint64_t block_col = byBlock_.quotient(j);
    // Eq. 4: offsets within the block, no larger than the ids.
    const auto i_in_block =
        static_cast<std::uint32_t>(i - block_row * blockSize_);
    const auto j_in_block =
        static_cast<std::uint32_t>(j - block_col * blockSize_);
    // Eq. 5: tile coordinates within the block.
    const std::uint64_t tile_row = byCrossbar_.quotient(i_in_block);
    const std::uint64_t tile_col = byTileWidth_.quotient(j_in_block);
    // Eq. 7: offsets within the tile.
    sub_i = i_in_block - tile_row * params_.crossbarDim;
    sub_j = j_in_block - tile_col * tileWidth_;
    // Eq. 6 (0-based): column-major within the block, blocks first.
    return blockIndex(block_row, block_col) * tilesPerBlock() + tile_row +
           tile_col * tileRowsPerBlock_;
}

inline std::uint64_t
GridPartition::tileIndex(VertexId i, VertexId j) const
{
    std::uint64_t sub_i = 0;
    std::uint64_t sub_j = 0;
    return locate(i, j, sub_i, sub_j);
}

inline std::uint64_t
GridPartition::globalOrderId(VertexId i, VertexId j) const
{
    std::uint64_t sub_i = 0;
    std::uint64_t sub_j = 0;
    const std::uint64_t si = locate(i, j, sub_i, sub_j);
    // Eq. 8 (0-based): column-major within the tile.
    const std::uint64_t sub = sub_i + sub_j * params_.crossbarDim;
    // Eq. 9 (0-based).
    return si * tileCapacity_ + sub;
}

} // namespace graphr

#endif // GRAPHR_GRAPH_PARTITION_HH
