/**
 * @file
 * Bit-packed, delta-coded edge payload codec for plan artifacts.
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
 * Weight modes: 0 = every weight is bit-exactly 1.0 (the default
 * generator case), 1 = every weight shares one bit pattern, 2 = raw
 * per-edge f64 bits. All comparisons are on bit patterns, never
 * float equality, so -0.0, NaN payloads and denormals round-trip
 * byte-identically.
 *
 * Varints are LEB128 (7 bits per byte, little-endian groups). The
 * decoder validates every structural invariant — tile order, local
 * IDs inside the tile capacity, endpoints inside the real vertex
 * range, declared totals, no trailing bytes — and throws CodecError
 * on the first violation; the plan store turns that into a rejected
 * load (degrade to a fresh prepare, never a crash).
 */

#ifndef GRAPHR_STORE_EDGE_CODEC_HH
#define GRAPHR_STORE_EDGE_CODEC_HH

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "graph/partition.hh"
#include "graph/preprocess.hh"

namespace graphr
{

/** Malformed or inconsistent compressed edge stream. */
class CodecError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Decode-expansion bound: a stream may not declare more edges than
 * this many per encoded byte. Duplicate-heavy tiles compress without
 * limit (a run of equal cells is one varint), so without a cap a
 * hand-crafted 100-byte artifact could declare 2^40 edges and force
 * an unbounded allocation before any data is decoded. The encoder
 * keeps its own streams inside the bound: a stream that would pass it
 * is encoded again with every tile's low-bits width k floored at 1,
 * so each delta costs at least one packed bit and the stream stays
 * under 8 edges per byte.
 */
constexpr std::uint64_t kMaxEdgesPerStreamByte = 1024;

/**
 * Encode an ordered, tiled edge list (the products of the
 * preprocessing sort) into the delta-stream format. Throws CodecError
 * if the input violates canonical streaming order — which indicates a
 * caller bug, not bad data.
 */
std::vector<unsigned char>
encodeEdgeStream(const GridPartition &partition,
                 std::span<const Edge> edges,
                 std::span<const TileSpan> tiles);

/**
 * Streaming decoder over an encoded byte range (not owned; must
 * outlive the decoder). Implements the engine's TileChunkSource seam:
 * each next() materialises exactly one tile's edges in a reused
 * scratch buffer, so a consumer that streams tiles keeps O(tile)
 * decode state while only the compressed bytes are read from disk.
 * Every method throws CodecError on a malformed stream.
 */
class EdgeStreamDecoder final : public TileChunkSource
{
  public:
    EdgeStreamDecoder(const GridPartition &partition,
                      const unsigned char *data, std::size_t size);

    /** Declared totals (validated against the whole stream by the
     *  time next() returns false). */
    std::uint64_t totalEdges() const override { return edgeCount_; }
    std::uint64_t totalTiles() const override { return tileCount_; }

    bool next(Chunk &chunk) override;

  private:
    std::uint64_t readVarint(const char *what);

    const GridPartition &partition_;
    const unsigned char *data_;
    std::size_t size_;
    std::size_t pos_ = 0;

    std::uint64_t tileCount_ = 0;
    std::uint64_t edgeCount_ = 0;
    std::uint64_t tilesDecoded_ = 0;
    std::uint64_t edgesDecoded_ = 0;
    std::uint64_t prevTileIndex_ = 0;
    std::vector<Edge> scratch_;
    std::vector<std::uint64_t> highs_;
};

} // namespace graphr

#endif // GRAPHR_STORE_EDGE_CODEC_HH
