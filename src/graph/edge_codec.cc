#include "edge_codec.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string>

#include "common/failpoint.hh"
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

/** LEB128 append. */
void
putVarint(std::vector<unsigned char> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<unsigned char>(v) | 0x80u);
        v >>= 7;
    }
    out.push_back(static_cast<unsigned char>(v));
}

/** Bytes putVarint() writes for @p v. */
std::size_t
varintBytes(std::uint64_t v)
{
    return v == 0 ? 1 : (std::bit_width(v) + 6) / 7;
}

void
putU64(std::vector<unsigned char> &out, std::uint64_t v)
{
    const std::size_t at = out.size();
    out.resize(at + 8);
    std::memcpy(out.data() + at, &v, 8);
}

std::uint64_t
getU64(const unsigned char *p)
{
    std::uint64_t v = 0;
    std::memcpy(&v, p, 8);
    return v;
}

/** LSB-first bit packer for the fixed-width low-bits plane. */
class BitWriter
{
  public:
    explicit BitWriter(std::vector<unsigned char> &out) : out_(out) {}

    void
    put(std::uint64_t v, unsigned k)
    {
        // nbits_ stays < 8, so a single shift is safe up to k = 56;
        // wider fields (possible only for degenerate huge tilings)
        // split into two chunks.
        if (k > 56) {
            put(v & ((std::uint64_t{1} << 56) - 1), 56);
            put(v >> 56, k - 56);
            return;
        }
        if (k == 0)
            return;
        acc_ |= (v & ((std::uint64_t{1} << k) - 1)) << nbits_;
        nbits_ += k;
        while (nbits_ >= 8) {
            out_.push_back(static_cast<unsigned char>(acc_));
            acc_ >>= 8;
            nbits_ -= 8;
        }
    }

    void
    flush()
    {
        if (nbits_ > 0) {
            out_.push_back(static_cast<unsigned char>(acc_));
            acc_ = 0;
            nbits_ = 0;
        }
    }

  private:
    std::vector<unsigned char> &out_;
    std::uint64_t acc_ = 0;
    unsigned nbits_ = 0;
};

/**
 * The k-bit fields of a low-bits plane of @p bytes bytes, read at any
 * field index with one unaligned 8-byte load (k <= 56) or two (wider
 * k). A load never passes @p end, the end of the stream; the plane's
 * bytes were bounds-checked when the stream was indexed. A plane is
 * fast when k <= 56 and every load has 8 bytes before the end, which
 * holds for every plane but those of the stream's last few bytes.
 */
class BitPlane
{
  public:
    BitPlane(const unsigned char *data, std::size_t bytes,
             const unsigned char *end, unsigned k)
        : data_(data), end_(end), k_(k),
          mask_(k >= 64 ? ~std::uint64_t{0}
                        : (std::uint64_t{1} << k) - 1),
          fast_(k <= 56 &&
                static_cast<std::size_t>(end - data) >= bytes + 8)
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
        if (k_ <= 56)
            return (load(bit >> 3) >> (bit & 7)) & mask_;
        const std::uint64_t low =
            (load(bit >> 3) >> (bit & 7)) &
            ((std::uint64_t{1} << 56) - 1);
        const std::uint64_t high_bit = bit + 56;
        return (low | ((load(high_bit >> 3) >> (high_bit & 7)) << 56)) &
               mask_;
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
 * Pick the low-bits width k minimising the estimated tile size: every
 * delta pays k packed bits, and each delta wider than k pays an
 * exception (its high part as a varint plus ~one run-length byte).
 * The estimate only has to be deterministic and reasonable — the
 * chosen k is written into the tile's flags, so the decoder never
 * re-derives it. k is at least @p min_bits.
 */
unsigned
chooseLowBits(const std::uint64_t *deltas, std::size_t m,
              unsigned min_bits)
{
    if (m == 0)
        return min_bits;
    std::size_t hist[65] = {};
    unsigned max_width = 0;
    for (std::size_t i = 0; i < m; ++i) {
        const unsigned w =
            static_cast<unsigned>(std::bit_width(deltas[i]));
        ++hist[w];
        max_width = std::max(max_width, w);
    }
    unsigned best_k = min_bits;
    std::uint64_t best_cost = ~std::uint64_t{0};
    for (unsigned k = min_bits; k <= std::max(max_width, min_bits); ++k) {
        std::uint64_t cost = static_cast<std::uint64_t>(m) * k;
        for (unsigned w = k + 1; w <= max_width; ++w) {
            // High part is w-k bits -> ceil((w-k)/7) varint bytes,
            // plus one run-length byte of bookkeeping.
            cost += static_cast<std::uint64_t>(hist[w]) *
                    (((w - k + 6) / 7 + 1) * 8);
        }
        if (cost < best_cost) {
            best_cost = cost;
            best_k = k;
        }
    }
    return best_k;
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

    deltas_.resize(locals.size() - 1);
    for (std::size_t i = 1; i < locals.size(); ++i)
        deltas_[i - 1] = locals[i] - locals[i - 1];
    const unsigned k =
        chooseLowBits(deltas_.data(), deltas_.size(), minLowBits_);

    const std::uint64_t gap =
        tiles_.empty() ? tile_index : tile_index - tiles_.back().tileIndex;
    tiles_.push_back(TileSpan{tile_index, edges_, locals.size(),
                              out_.size() - kTotalsRoom});
    edges_ += locals.size();
    putVarint(out_, gap);
    putVarint(out_, locals.size());
    out_.push_back(static_cast<unsigned char>(mode | (k << 2)));
    putVarint(out_, locals.front());
    if (mode == kWeightConstant)
        putU64(out_, weight_bits.front());

    BitWriter plane(out_);
    for (const std::uint64_t d : deltas_)
        plane.put(d, k);
    plane.flush();

    // Zero-run/varint exception stream over the high parts.
    std::size_t i = 0;
    while (i < deltas_.size()) {
        std::size_t run = 0;
        while (i + run < deltas_.size() && (deltas_[i + run] >> k) == 0)
            ++run;
        putVarint(out_, run);
        i += run;
        if (i < deltas_.size()) {
            putVarint(out_, deltas_[i] >> k);
            ++i;
        }
    }

    if (mode == kWeightRaw) {
        for (const std::uint64_t bits : weight_bits)
            putU64(out_, bits);
    }
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
    std::vector<unsigned char> totals;
    putVarint(totals, tiles_.size());
    putVarint(totals, edges_);
    stream_offset = kTotalsRoom - totals.size();
    std::copy(totals.begin(), totals.end(),
              out_.begin() + static_cast<std::ptrdiff_t>(stream_offset));
    for (TileSpan &span : tiles_)
        span.byteOffset += totals.size();
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
                std::span<const unsigned char> stream)
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
    const std::uint32_t dim = partition.crossbarDim();
    const std::uint64_t width = partition.tileWidth();
    const std::uint64_t vertices = partition.numVertices();
    const bool padded = partition.paddedVertices() != vertices;
    const Reciprocal by_dim(dim);

    std::vector<TileSpan> tiles;
    tiles.reserve(tile_count);
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
        // reaches into the padding.
        std::uint64_t row0 = 0;
        std::uint64_t col0 = 0;
        if (padded)
            partition.tileOrigin(partition.tileCoord(span.tileIndex), row0,
                                 col0);
        if (!padded || (row0 + dim <= vertices && col0 + width <= vertices)) {
            walkLocals(head, n, plane, in, capacity,
                       [](std::uint64_t, std::uint64_t) {});
        } else {
            walkLocals(head, n, plane, in, capacity,
                       [&](std::uint64_t, std::uint64_t local) {
                           const std::uint64_t col =
                               by_dim.quotientWide(local);
                           if (row0 + (local - col * dim) >= vertices ||
                               col0 + col >= vertices)
                               malformedInput("edge endpoint outside "
                                              "the vertex range");
                       });
        }
        if (head.mode == kWeightRaw) {
            if (in.left() / 8 < n)
                malformedInput("truncated raw weights");
            in.skip(static_cast<std::size_t>(n * 8));
        }
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
                 const TileSpan &tile, std::vector<std::uint64_t> &locals)
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
