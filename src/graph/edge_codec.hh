/**
 * @file
 * The delta-coded tile stream: the one form a plan keeps its edges
 * in, in memory and in plan artifacts alike.
 *
 * A sorted edge list is already tile-clustered: within one tile the
 * global order IDs are non-decreasing, and consecutive IDs are close
 * (GraphR's streaming-apply order walks a tile's cells column-major).
 * The codec exploits exactly that — edges become per-tile streams of
 * local-cell-ID deltas, split into a fixed-width low-bits plane plus
 * a zero-run/varint exception stream for the rare high parts, with
 * per-tile weight modes so the common all-1.0 case costs nothing:
 *
 *   stream   := varint tileCount
 *               varint edgeCount
 *               tile*                      (tileCount records)
 *   tile     := varint tileIndexDelta     (first record: absolute
 *                                          tileIndex; later: gap to
 *                                          the previous tile, >= 1)
 *               varint numEdges           (>= 1)
 *               u8     flags              (bits 0..1: weight mode,
 *                                          bits 2..7: k, the packed
 *                                          low-bits width)
 *               varint firstLocalId       (cell order ID within the
 *                                          tile, < tileCapacity)
 *               [mode 1] u64 weightBits   (bit pattern shared by
 *                                          every edge of the tile)
 *               low-bits plane            ((numEdges-1) x k bits of
 *                                          each delta, LSB-first,
 *                                          padded to a whole byte)
 *               exception stream          (zero-run/varint coding of
 *                                          high[i] = delta[i] >> k:
 *                                          alternating varint
 *                                          zero-run length and varint
 *                                          non-zero value until all
 *                                          numEdges-1 high parts are
 *                                          covered)
 *               [mode 2] numEdges x u64 weightBits, stream order
 *
 * A local cell ID is row + col * C within the tile (Eq. 8), so an
 * edge of the tile at (row0, col0) is (row0 + local mod C, col0 +
 * local / C).
 *
 * Weight modes: 0 = every weight is bit-exactly 1.0 (the default
 * generator case), 1 = every weight shares one bit pattern, 2 = raw
 * per-edge f64 bits. All comparisons are on bit patterns, never
 * float equality, so -0.0, NaN payloads and denormals round-trip
 * byte-identically.
 *
 * Varints are LEB128 (7 bits per byte, little-endian groups).
 *
 * The preprocessing sort writes a stream with EdgeStreamWriter, tile
 * by tile, straight from its sorted order keys. A stream read from
 * disk is indexed once by indexEdgeStream(), which validates every
 * structural invariant — tile order, local IDs inside the tile
 * capacity, endpoints inside the real vertex range, declared totals,
 * the expansion bound, no trailing bytes — and throws CodecError on
 * the first violation; the plan store turns that into a rejected
 * load (degrade to a fresh prepare, never a crash). Past that, a
 * tile is decoded only where a run reads it, from the byte offset its
 * TileSpan records, into scratch the caller owns.
 */

#ifndef GRAPHR_GRAPH_EDGE_CODEC_HH
#define GRAPHR_GRAPH_EDGE_CODEC_HH

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "graph/edge.hh"
#include "graph/partition.hh"

namespace graphr
{

/** Malformed or inconsistent compressed edge stream. */
class CodecError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** One non-empty tile of an ordered edge stream. */
struct TileSpan
{
    std::uint64_t tileIndex = 0;  ///< global tile index SI
    std::uint64_t firstEdge = 0;  ///< edges of the tiles before it
    std::uint64_t numEdges = 0;   ///< non-zeros in this tile
    std::uint64_t byteOffset = 0; ///< its record's offset in the stream
};

/**
 * Decode-expansion bound: a stream may not declare more edges than
 * this many per encoded byte. Duplicate-heavy tiles compress without
 * limit (a run of equal cells is one varint), so without a cap a
 * hand-crafted 100-byte artifact could declare 2^40 edges and force
 * an unbounded allocation before any data is decoded. The writer's
 * caller keeps its own streams inside the bound: a stream that would
 * pass it is written again with every tile's low-bits width k floored
 * at 1, so each delta costs at least one packed bit and the stream
 * stays under 8 edges per byte.
 */
constexpr std::uint64_t kMaxEdgesPerStreamByte = 1024;

/**
 * Writes a stream one tile record at a time, and its tile directory.
 * The records go after room left for the two leading totals, which
 * finish() fills in, so the stream is written once and never moved.
 * Tiles must come in strictly increasing tile order, each with its
 * local cell IDs ascending.
 */
class EdgeStreamWriter
{
  public:
    /**
     * @param min_low_bits floor of every tile's low-bits width k
     * @param reserve_edges edges expected, to size the first buffer
     */
    EdgeStreamWriter(unsigned min_low_bits, std::size_t reserve_edges);

    /**
     * Append the record of tile @p tile_index holding cells
     * @p locals (ascending, non-empty). @p weight_bits holds each
     * edge's weight bits in the same order, or is empty when every
     * weight is 1.0.
     */
    void addTile(std::uint64_t tile_index,
                 std::span<const std::uint64_t> locals,
                 std::span<const std::uint64_t> weight_bits);

    /** Bytes the finished stream will take. */
    std::size_t streamSize() const;

    /**
     * Write the totals in front of the records and hand over the
     * buffer, whose bytes from @p stream_offset on are the stream,
     * and the tile directory, into @p tiles.
     */
    std::vector<unsigned char> finish(std::size_t &stream_offset,
                                      std::vector<TileSpan> &tiles);

  private:
    unsigned minLowBits_;
    std::vector<unsigned char> out_;
    std::vector<TileSpan> tiles_; ///< offsets past the totals' room
    std::uint64_t edges_ = 0;
    std::vector<std::uint64_t> deltas_; ///< one tile's, reused
};

/**
 * Validate a whole stream and return its tile directory, counted
 * once as `store.codec.decoded_edges` and `store.codec.decoded_tiles`.
 * Throws CodecError on the first violated invariant; bounds the
 * declared totals by the stream's size before allocating anything.
 * Each tile record, and the end of the stream, is a
 * `store.decode.fail` failpoint site.
 */
std::vector<TileSpan> indexEdgeStream(const GridPartition &partition,
                                      std::span<const unsigned char> stream);

/**
 * Local cell IDs of one tile of an indexed stream, ascending, into
 * @p locals (resized to the tile's edge count).
 */
void decodeTileLocals(std::span<const unsigned char> stream,
                      const TileSpan &tile,
                      std::vector<std::uint64_t> &locals);

/**
 * Edges of one tile of an indexed stream, in stream order, into
 * @p edges (resized to the tile's edge count).
 */
void decodeTileEdges(const GridPartition &partition,
                     std::span<const unsigned char> stream,
                     const TileSpan &tile, std::vector<Edge> &edges);

} // namespace graphr

#endif // GRAPHR_GRAPH_EDGE_CODEC_HH
