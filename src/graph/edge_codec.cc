#include "edge_codec.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string>

#include "common/failpoint.hh"
#include "graph/tile_meta.hh"
#include "perf/counters.hh"

namespace graphr
{

namespace
{

constexpr unsigned kWeightAllOnes = 0;  ///< every weight is 1.0
constexpr unsigned kWeightConstant = 1; ///< one shared bit pattern
constexpr unsigned kWeightRaw = 2;      ///< per-edge f64 bits

/** Room the writer leaves for the two leading varint totals. */
constexpr std::size_t kTotalsRoom = 20;


/** Bytes of the longest LEB128 varint, a 64-bit value's. */
constexpr std::size_t kMaxVarintBytes = 10;

/** LEB128 write at @p p; returns the byte past it. */
unsigned char *
putVarint(unsigned char *p, std::uint64_t v)
{
    while (v >= 0x80) {
        *p++ = static_cast<unsigned char>(v) | 0x80u;
        v >>= 7;
    }
    *p++ = static_cast<unsigned char>(v);
    return p;
}

/** Bytes putVarint() writes for @p v. */
std::size_t
varintBytes(std::uint64_t v)
{
    return v == 0 ? 1 : (std::bit_width(v) + 6) / 7;
}

/** The 8 bytes of @p v at @p p; returns the byte past them. */
unsigned char *
putU64(unsigned char *p, std::uint64_t v)
{
    std::memcpy(p, &v, 8);
    return p + 8;
}

std::uint64_t
getU64(const unsigned char *p)
{
    std::uint64_t v = 0;
    std::memcpy(&v, p, 8);
    return v;
}

/**
 * The k-bit fields of a low-bits plane of @p bytes bytes, read at any
 * field index with one unaligned 8-byte load: k is at most 38, so a
 * field and its bit offset in its first byte fit one. A load never
 * passes @p end, the end of the stream; the plane's bytes were
 * bounds-checked when the stream was indexed. A plane is fast when
 * every load has 8 bytes before the end, which holds for every plane
 * but those of the stream's last few bytes.
 */
class BitPlane
{
  public:
    BitPlane(const unsigned char *data, std::size_t bytes,
             const unsigned char *end, unsigned k)
        : data_(data), end_(end), k_(k),
          mask_((std::uint64_t{1} << k) - 1),
          fast_(static_cast<std::size_t>(end - data) >= bytes + 8)
    {
    }

    bool fast() const { return fast_; }

    /** Field @p i of a fast plane. */
    std::uint64_t
    getFast(std::uint64_t i) const
    {
        const std::uint64_t bit = i * k_;
        std::uint64_t w = 0;
        if constexpr (std::endian::native == std::endian::little)
            std::memcpy(&w, data_ + (bit >> 3), 8);
        else
            w = load(bit >> 3);
        return (w >> (bit & 7)) & mask_;
    }

    /** Field @p i of any plane. */
    std::uint64_t
    get(std::uint64_t i) const
    {
        const std::uint64_t bit = i * k_;
        return (load(bit >> 3) >> (bit & 7)) & mask_;
    }

  private:
    /** The little-endian 8 bytes at @p byte, zero past the end. */
    std::uint64_t
    load(std::uint64_t byte) const
    {
        const unsigned char *p = data_ + byte;
        const auto avail = static_cast<std::size_t>(end_ - p);
        std::uint64_t w = 0;
        if (std::endian::native == std::endian::little && avail >= 8) {
            std::memcpy(&w, p, 8);
            return w;
        }
        for (std::size_t b = 0; b < 8 && b < avail; ++b)
            w |= static_cast<std::uint64_t>(p[b]) << (8 * b);
        return w;
    }

    const unsigned char *data_;
    const unsigned char *end_;
    unsigned k_;
    std::uint64_t mask_;
    bool fast_;
};

/**
 * Pick the low-bits width k minimising the estimated tile size of
 * @p m deltas, @p widths[w] of them w bits wide and none wider than
 * @p max_width: every delta pays k packed bits, and each delta wider
 * than k pays an exception, its high part as ceil((w - k) / 7) varint
 * bytes plus about one run-length byte. With S(x) the number of
 * deltas wider than x, a delta of width w > k counts once in S(k + 7j)
 * for each of its varint bytes, so the estimate is m k + 8 (S(k) +
 * sum_j S(k + 7j)): one pass down from the widest delta builds both
 * suffix counts. The smallest k of least cost wins. The estimate only
 * has to be deterministic and reasonable — the chosen k is written
 * into the tile's flags, so the decoder never re-derives it. k is at
 * least @p min_bits.
 */
struct LowBits
{
    unsigned k;
    std::uint64_t exceptions; ///< S(k): deltas with a non-zero high part
};

LowBits
chooseLowBits(const std::uint32_t *widths, unsigned max_width,
              std::uint64_t m, unsigned min_bits)
{
    if (min_bits >= max_width)
        return LowBits{min_bits, 0};
    // varint_bytes[x] = sum_j S(x + 7j), zero from max_width on.
    std::uint64_t varint_bytes[kMaxLowBits + 7];
    std::fill_n(varint_bytes + max_width, 7, 0);
    std::uint64_t wider = 0; // S(k)
    LowBits best{max_width, 0};
    std::uint64_t best_cost = m * max_width;
    for (unsigned k = max_width; k-- > min_bits;) {
        wider += widths[k + 1];
        varint_bytes[k] = wider + varint_bytes[k + 7];
        const std::uint64_t cost = m * k + 8 * (wider + varint_bytes[k]);
        if (cost <= best_cost) {
            best_cost = cost;
            best = LowBits{k, wider};
        }
    }
    return best;
}

[[noreturn]] void
malformedInput(const std::string &why)
{
    throw CodecError("edge codec: " + why);
}

/**
 * Reads a record's varints. Checked, a truncated or overlong varint
 * throws CodecError; unchecked, the reader trusts an indexed stream.
 */
template <bool Checked>
class VarintReader
{
  public:
    VarintReader(const unsigned char *p, const unsigned char *end)
        : p_(p), end_(end)
    {
    }

    std::uint64_t
    get(const char *what)
    {
        std::uint64_t v = 0;
        unsigned shift = 0;
        for (;;) {
            if constexpr (Checked) {
                if (p_ >= end_)
                    malformedInput(std::string("truncated varint (") +
                                   what + ")");
            }
            const unsigned char byte = *p_++;
            if constexpr (Checked) {
                if (shift == 63 && byte > 1)
                    malformedInput(
                        std::string("varint overflows 64 bits (") +
                        what + ")");
            }
            v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
            if ((byte & 0x80) == 0)
                return v;
            shift += 7;
            if constexpr (Checked) {
                if (shift > 63)
                    malformedInput(
                        std::string("varint overflows 64 bits (") +
                        what + ")");
            }
        }
    }

    const unsigned char *pos() const { return p_; }
    void skip(std::size_t n) { p_ += n; }
    std::size_t left() const { return static_cast<std::size_t>(end_ - p_); }

  private:
    const unsigned char *p_;
    const unsigned char *end_;
};

/** A tile record's fields up to its low-bits plane. */
struct RecordHead
{
    unsigned mode = kWeightAllOnes;
    unsigned k = 0;
    std::uint64_t firstLocal = 0;
    std::uint64_t weightBits = std::bit_cast<std::uint64_t>(1.0);
};

/**
 * Walk a tile's n local cell IDs: @p emit(i, local) for each, in
 * order, with the reader @p in just past the plane, on the exception
 * stream; returns with @p in past the exception stream, where a mode-2
 * record's raw weights start. The high parts are read in step with
 * the plane, one exception at a time, and the deltas between two
 * exceptions take a loop of their own. Checked, every delta is
 * bounded so that the IDs stay below @p capacity.
 */
template <bool Checked, typename Emit>
void
walkLocals(const RecordHead &head, std::uint64_t n, const BitPlane &plane,
           VarintReader<Checked> &in, std::uint64_t capacity, Emit emit)
{
    std::uint64_t local = head.firstLocal;
    emit(std::uint64_t{0}, local);
    const std::uint64_t m = n - 1;
    if (m == 0)
        return;
    const unsigned k = head.k;
    const std::uint64_t max_delta = capacity - 1;
    // next: the delta index of the next non-zero high part, m if none.
    std::uint64_t next = 0;
    std::uint64_t high = 0;
    const auto read_exception = [&](std::uint64_t from) {
        const std::uint64_t run = in.get("zero-run length");
        if constexpr (Checked) {
            if (run > m - from)
                malformedInput("zero run exceeds the tile's deltas");
        }
        next = from + run;
        if (next < m) {
            high = in.get("delta high part");
            if constexpr (Checked) {
                if (high == 0)
                    malformedInput("non-canonical zero exception");
                if (high > (max_delta >> k))
                    malformedInput("delta exceeds tile capacity");
            }
        }
    };
    const auto add = [&](std::uint64_t i, std::uint64_t delta) {
        if constexpr (Checked) {
            if (delta > max_delta - local)
                malformedInput("local cell id exceeds tile capacity");
        }
        local += delta;
        emit(i + 1, local);
    };
    const auto walk = [&](auto low) {
        read_exception(0);
        for (std::uint64_t i = 0;;) {
            for (; i < next; ++i)
                add(i, low(i));
            if (i == m)
                return;
            add(i, low(i) | high << k);
            if (++i == m)
                return;
            read_exception(i);
        }
    };
    if (plane.fast())
        walk([&plane](std::uint64_t i) { return plane.getFast(i); });
    else
        walk([&plane](std::uint64_t i) { return plane.get(i); });
}

/** Read a record's head, @p in on its flags byte; trusted. */
RecordHead
readHead(VarintReader<false> &in)
{
    RecordHead head;
    const unsigned char flags = *in.pos();
    in.skip(1);
    head.mode = flags & 0x3u;
    head.k = flags >> 2;
    head.firstLocal = in.get("first local id");
    if (head.mode == kWeightConstant) {
        head.weightBits = getU64(in.pos());
        in.skip(8);
    }
    return head;
}

/**
 * Position @p in on a trusted record's plane, having read its head,
 * and return the plane.
 */
BitPlane
openRecord(std::span<const unsigned char> stream, const TileSpan &tile,
           VarintReader<false> &in, RecordHead &head)
{
    in.get("tile index");
    in.get("tile edge count");
    head = readHead(in);
    const auto bytes =
        static_cast<std::size_t>(((tile.numEdges - 1) * head.k + 7) / 8);
    const BitPlane plane(in.pos(), bytes, stream.data() + stream.size(),
                         head.k);
    in.skip(bytes);
    return plane;
}

} // namespace

EdgeStreamWriter::EdgeStreamWriter(unsigned min_low_bits,
                                   std::size_t reserve_edges)
    : minLowBits_(min_low_bits)
{
    // Dense small deltas dominate, so ~2 bytes/edge is a generous
    // first reservation; the buffer grows for exception-heavy or
    // weighted tiles.
    out_.reserve(kTotalsRoom + 2 * reserve_edges);
    out_.resize(kTotalsRoom);
}

void
EdgeStreamWriter::addTile(std::uint64_t tile_index,
                          std::span<const std::uint64_t> locals,
                          std::span<const std::uint64_t> weight_bits)
{
    GRAPHR_ASSERT(locals.back() < GridPartition::kMaxTileCapacity,
                  "cell ", locals.back(), " past the largest tile");
    const std::uint64_t one_bits = std::bit_cast<std::uint64_t>(1.0);
    bool all_ones = true;
    bool constant = true;
    for (const std::uint64_t bits : weight_bits) {
        all_ones &= bits == one_bits;
        constant &= bits == weight_bits.front();
    }
    const unsigned mode = all_ones   ? kWeightAllOnes
                          : constant ? kWeightConstant
                                     : kWeightRaw;

    // One pass takes the deltas and counts their widths; the counts
    // are cleared again up to the widest once k is chosen.
    const std::size_t m = locals.size() - 1;
    deltas_.resize(m);
    std::uint64_t any = 0;
    for (std::size_t i = 0; i < m; ++i) {
        const std::uint64_t d = locals[i + 1] - locals[i];
        deltas_[i] = d;
        any |= d;
        ++widths_[std::bit_width(d)];
    }
    const auto max_width = static_cast<unsigned>(std::bit_width(any));
    const auto [k, exceptions] =
        chooseLowBits(widths_, max_width, m, minLowBits_);
    std::fill_n(widths_, max_width + 1, 0);

    const std::uint64_t gap =
        tiles_.empty() ? tile_index : tile_index - tiles_.back().tileIndex;
    const std::size_t at = out_.size();
    tiles_.push_back(
        TileSpan{tile_index, edges_, locals.size(), at - kTotalsRoom});
    edges_ += locals.size();

    // The record is written in place, into room for its longest form:
    // the head, the plane and 8 bytes past it, each exception's run
    // and high part, the run after the last, and raw weights.
    const std::size_t plane_bytes = (m * k + 7) / 8;
    out_.resize(at + 3 * kMaxVarintBytes + 9 + plane_bytes + 8 +
                (2 * exceptions + 1) * kMaxVarintBytes +
                (mode == kWeightRaw ? 8 * locals.size() : 0));
    unsigned char *p = out_.data() + at;
    p = putVarint(p, gap);
    p = putVarint(p, locals.size());
    *p++ = static_cast<unsigned char>(mode | (k << 2));
    p = putVarint(p, locals.front());
    if (mode == kWeightConstant)
        p = putU64(p, weight_bits.front());

    // The plane, packed in a register: a field goes in above the bits
    // not yet stored, the whole word is stored, and the output moves
    // on by the bytes it completed. Fewer than 8 bits stay behind, so
    // a field of k <= 38 bits always fits the word. The last store
    // may run 8 bytes past the plane.
    if (k > 0) {
        unsigned char *plane = p;
        const std::uint64_t mask = (std::uint64_t{1} << k) - 1;
        std::uint64_t acc = 0;
        unsigned bits = 0;
        for (const std::uint64_t d : deltas_) {
            acc |= (d & mask) << bits;
            bits += k;
            const std::uint64_t word =
                std::endian::native == std::endian::little
                    ? acc
                    : __builtin_bswap64(acc);
            std::memcpy(plane, &word, 8);
            plane += bits >> 3;
            acc >>= bits & ~7u;
            bits &= 7;
        }
    }
    p += plane_bytes;

    // Zero-run/varint exception stream over the high parts: each
    // non-zero high part follows the run of zero ones before it, and a
    // run after the last is written too.
    std::uint64_t run = 0;
    for (std::uint64_t left = exceptions, i = 0; left > 0; ++i) {
        const std::uint64_t high = deltas_[i] >> k;
        if (high == 0) {
            ++run;
            continue;
        }
        p = putVarint(p, run);
        p = putVarint(p, high);
        run = 0;
        --left;
        if (left == 0)
            run = m - 1 - i;
    }
    if (exceptions == 0)
        run = m;
    if (run > 0)
        p = putVarint(p, run);

    if (mode == kWeightRaw) {
        for (const std::uint64_t bits : weight_bits)
            p = putU64(p, bits);
    }
    out_.resize(static_cast<std::size_t>(p - out_.data()));
}

std::size_t
EdgeStreamWriter::streamSize() const
{
    return out_.size() - kTotalsRoom + varintBytes(tiles_.size()) +
           varintBytes(edges_);
}

std::vector<unsigned char>
EdgeStreamWriter::finish(std::size_t &stream_offset,
                         std::vector<TileSpan> &tiles)
{
    unsigned char totals[2 * kMaxVarintBytes];
    const std::size_t totals_bytes = static_cast<std::size_t>(
        putVarint(putVarint(totals, tiles_.size()), edges_) - totals);
    stream_offset = kTotalsRoom - totals_bytes;
    std::memcpy(out_.data() + stream_offset, totals, totals_bytes);
    for (TileSpan &span : tiles_)
        span.byteOffset += totals_bytes;
    tiles_.shrink_to_fit();
    tiles = std::move(tiles_);
    // A weighted stream outgrows the first reservation by doubling;
    // give back what the doubling left unused.
    if (out_.capacity() - out_.size() > out_.size() / 8)
        out_.shrink_to_fit();
    return std::move(out_);
}

std::vector<TileSpan>
indexEdgeStream(const GridPartition &partition,
                std::span<const unsigned char> stream, TileMetaTable *meta)
{
    const unsigned char *const end = stream.data() + stream.size();
    VarintReader<true> in(stream.data(), end);
    const std::uint64_t tile_count = in.get("tile count");
    const std::uint64_t edge_count = in.get("edge count");
    if (tile_count > edge_count)
        malformedInput("more tiles than edges declared");
    if (tile_count == 0 && edge_count != 0)
        malformedInput("edges declared but no tiles");
    // Allocation safety: bound the declared totals by what the byte
    // count could plausibly encode before reserving anything.
    if (edge_count > stream.size() * kMaxEdgesPerStreamByte)
        malformedInput("declared edge count implausible for stream "
                       "size");
    if (tile_count > stream.size() / 4)
        malformedInput("declared tile count implausible for stream "
                       "size");

    const std::uint64_t capacity = partition.tileCapacity();
    const unsigned max_k =
        std::max(1u, static_cast<unsigned>(std::bit_width(capacity - 1)));
    const std::uint32_t dim = partition.crossbarDim();
    const std::uint64_t width = partition.tileWidth();
    const std::uint64_t vertices = partition.numVertices();
    const bool padded = partition.paddedVertices() != vertices;
    const Reciprocal by_dim(dim);

    std::vector<TileSpan> tiles;
    tiles.reserve(tile_count);
    std::vector<std::uint64_t> locals; // one tile's cells, for meta
    if (meta != nullptr)
        meta->reserve(tile_count);
    std::uint64_t edges = 0;
    std::uint64_t prev_tile = 0;
    for (std::uint64_t t = 0; t < tile_count; ++t) {
        if (GRAPHR_FAILPOINT("store.decode.fail"))
            malformedInput("injected decode fault (store.decode.fail)");
        TileSpan span;
        span.byteOffset =
            static_cast<std::uint64_t>(in.pos() - stream.data());
        span.firstEdge = edges;

        const std::uint64_t gap = in.get("tile index");
        if (t == 0) {
            span.tileIndex = gap;
        } else {
            if (gap == 0)
                malformedInput("tile directory out of streaming order");
            if (gap > ~std::uint64_t{0} - prev_tile)
                malformedInput("tile index overflows");
            span.tileIndex = prev_tile + gap;
        }
        if (span.tileIndex >= partition.numTiles())
            malformedInput("tile index outside the grid");

        const std::uint64_t n = in.get("tile edge count");
        if (n == 0)
            malformedInput("empty tile record");
        if (n > edge_count - edges)
            malformedInput("tile edge counts exceed the declared total");
        span.numEdges = n;

        if (in.left() == 0)
            malformedInput("truncated tile flags");
        const unsigned char flags = *in.pos();
        in.skip(1);
        RecordHead head;
        head.mode = flags & 0x3u;
        head.k = flags >> 2;
        if (head.mode > kWeightRaw)
            malformedInput("unknown weight mode");
        if (head.k > max_k)
            malformedInput("low-bits width exceeds the tile capacity");
        head.firstLocal = in.get("first local id");
        if (head.firstLocal >= capacity)
            malformedInput("local cell id exceeds tile capacity");
        if (head.mode == kWeightConstant) {
            if (in.left() < 8)
                malformedInput("truncated constant weight");
            in.skip(8);
        }

        const std::uint64_t m = n - 1;
        const std::size_t plane_bytes =
            static_cast<std::size_t>((m * head.k + 7) / 8);
        if (in.left() < plane_bytes)
            malformedInput("truncated low-bits plane");
        const BitPlane plane(in.pos(), plane_bytes, end, head.k);
        in.skip(plane_bytes);

        // Endpoints can pass the vertex count only in a tile that
        // reaches into the padding. The walk keeps the cells only for
        // the table, which describes them once the tile validates.
        std::uint64_t row0 = 0;
        std::uint64_t col0 = 0;
        if (padded)
            partition.tileOrigin(partition.tileCoord(span.tileIndex), row0,
                                 col0);
        const bool inside =
            !padded || (row0 + dim <= vertices && col0 + width <= vertices);
        if (meta != nullptr)
            locals.resize(n);
        std::uint64_t *const cells = locals.data();
        walkLocals(head, n, plane, in, capacity,
                   [&](std::uint64_t i, std::uint64_t local) {
                       if (meta != nullptr)
                           cells[i] = local;
                       if (inside)
                           return;
                       const std::uint64_t col = by_dim.quotientWide(local);
                       if (row0 + (local - col * dim) >= vertices ||
                           col0 + col >= vertices)
                           malformedInput("edge endpoint outside "
                                          "the vertex range");
                   });
        if (head.mode == kWeightRaw) {
            if (in.left() / 8 < n)
                malformedInput("truncated raw weights");
            in.skip(static_cast<std::size_t>(n * 8));
        }
        if (meta != nullptr)
            meta->add(partition, span.tileIndex, locals);
        prev_tile = span.tileIndex;
        edges += n;
        tiles.push_back(span);
    }
    if (GRAPHR_FAILPOINT("store.decode.fail"))
        malformedInput("injected decode fault (store.decode.fail)");
    if (edges != edge_count)
        malformedInput("stream ended short of its declared edge count");
    if (in.left() != 0)
        malformedInput("trailing bytes after the final tile");

    static perf::Counter &decoded_edges =
        perf::Registry::instance().counter("store.codec.decoded_edges");
    static perf::Counter &decoded_tiles =
        perf::Registry::instance().counter("store.codec.decoded_tiles");
    decoded_edges.add(edge_count);
    decoded_tiles.add(tile_count);
    return tiles;
}

void
decodeTileLocals(std::span<const unsigned char> stream,
                 const TileSpan &tile, std::vector<std::uint64_t> &locals,
                 std::vector<double> *weights)
{
    VarintReader<false> in(stream.data() + tile.byteOffset,
                           stream.data() + stream.size());
    RecordHead head;
    const BitPlane plane = openRecord(stream, tile, in, head);
    locals.resize(tile.numEdges);
    std::uint64_t *out = locals.data();
    walkLocals(head, tile.numEdges, plane, in, 0,
               [out](std::uint64_t i, std::uint64_t local) {
                   out[i] = local;
               });
    if (weights == nullptr)
        return;
    weights->clear();
    if (head.mode == kWeightConstant) {
        weights->assign(tile.numEdges,
                        std::bit_cast<double>(head.weightBits));
    } else if (head.mode == kWeightRaw) {
        weights->resize(tile.numEdges);
        const unsigned char *raw = in.pos();
        for (std::uint64_t e = 0; e < tile.numEdges; ++e)
            (*weights)[e] = std::bit_cast<double>(getU64(raw + 8 * e));
    }
}

void
decodeTileEdges(const GridPartition &partition,
                std::span<const unsigned char> stream, const TileSpan &tile,
                std::vector<Edge> &edges)
{
    VarintReader<false> in(stream.data() + tile.byteOffset,
                           stream.data() + stream.size());
    RecordHead head;
    const BitPlane plane = openRecord(stream, tile, in, head);

    std::uint64_t row0 = 0;
    std::uint64_t col0 = 0;
    partition.tileOrigin(partition.tileCoord(tile.tileIndex), row0, col0);
    const std::uint32_t dim = partition.crossbarDim();
    const Reciprocal by_dim(dim);
    const double weight = std::bit_cast<double>(head.weightBits);
    edges.resize(tile.numEdges);
    Edge *out = edges.data();
    walkLocals(head, tile.numEdges, plane, in, 0,
               [&](std::uint64_t i, std::uint64_t local) {
                   const std::uint64_t col = by_dim.quotientWide(local);
                   out[i] = Edge{
                       static_cast<VertexId>(row0 + (local - col * dim)),
                       static_cast<VertexId>(col0 + col), weight};
               });
    if (head.mode == kWeightRaw) {
        const unsigned char *raw = in.pos();
        for (std::uint64_t e = 0; e < tile.numEdges; ++e)
            out[e].weight = std::bit_cast<double>(getU64(raw + 8 * e));
    }
}

} // namespace graphr
