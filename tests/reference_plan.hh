/**
 * @file
 * The plan path that kept every edge as a 16-byte record, copied
 * verbatim as a differential reference: the radix sort and the gather
 * of the ordered edges, the whole-list stream encoder, and the tile
 * description over edges. A plan the stream-writing sort builds must
 * equal what this path yields — the same stream bytes, tile
 * directory, edges and metadata — and the encoder doubles as the
 * edge-list encoder the codec tests craft streams with.
 */

#ifndef GRAPHR_TESTS_REFERENCE_PLAN_HH
#define GRAPHR_TESTS_REFERENCE_PLAN_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "graph/coo.hh"
#include "graph/edge_codec.hh"
#include "graph/partition.hh"
#include "graph/tile_meta.hh"

namespace graphr::reference
{

/** An ordered edge list and its tile directory (no byte offsets). */
struct Ordered
{
    std::vector<Edge> edges;
    std::vector<TileSpan> tiles;
};

namespace detail
{

constexpr unsigned kRadixBits = 12;
constexpr std::uint64_t kRadixMask = (std::uint64_t{1} << kRadixBits) - 1;

template <unsigned Passes>
void
countDigits(std::span<const std::uint64_t> words, unsigned low_bit,
            std::uint32_t *counts)
{
    for (const std::uint64_t word : words) {
        const std::uint64_t key = word >> low_bit;
        for (unsigned pass = 0; pass < Passes; ++pass)
            ++counts[(pass << kRadixBits) +
                     ((key >> (pass * kRadixBits)) & kRadixMask)];
    }
}

constexpr void (*kCountDigits[])(std::span<const std::uint64_t>, unsigned,
                                 std::uint32_t *) = {
    countDigits<1>, countDigits<2>, countDigits<3>,
    countDigits<4>, countDigits<5>, countDigits<6>,
};

inline void
radixSort(std::vector<std::uint64_t> &words,
          std::vector<std::uint32_t> &index, unsigned low_bit,
          unsigned key_bits)
{
    const std::size_t n = words.size();
    const unsigned passes = (key_bits + kRadixBits - 1) / kRadixBits;
    if (n == 0 || passes == 0)
        return;

    std::vector<std::uint32_t> counts(passes << kRadixBits);
    kCountDigits[passes - 1](words, low_bit, counts.data());

    std::vector<std::uint64_t> word_buf(n);
    std::vector<std::uint32_t> index_buf(index.size());
    for (unsigned pass = 0; pass < passes; ++pass) {
        const unsigned shift = low_bit + pass * kRadixBits;
        const std::span<std::uint32_t> offsets(
            counts.data() + (pass << kRadixBits), kRadixMask + 1);
        if (offsets[(words[0] >> shift) & kRadixMask] == n)
            continue;
        std::uint32_t next = 0;
        for (std::uint32_t &offset : offsets)
            next += std::exchange(offset, next);
        for (std::size_t e = 0; e < n; ++e) {
            const std::uint32_t to =
                offsets[(words[e] >> shift) & kRadixMask]++;
            word_buf[to] = words[e];
            if (!index.empty())
                index_buf[to] = index[e];
        }
        words.swap(word_buf);
        index.swap(index_buf);
    }
}

/** OrderedEdgeList::sortEdges as it gathered the ordered edges. */
template <typename ForEachEdge, typename EdgeAt>
Ordered
sortEdges(const GridPartition &partition_, std::size_t num_edges,
          std::uint64_t max_origin, ForEachEdge for_each_edge,
          EdgeAt edge_at)
{
    Ordered out;
    std::vector<TileSpan> &tiles_ = out.tiles;
    const unsigned key_bits = std::min(
        64u, static_cast<unsigned>(
                 2 * std::bit_width(partition_.paddedVertices() - 1)));
    const auto origin_bits =
        static_cast<unsigned>(std::bit_width(max_origin));
    const bool packed = key_bits + origin_bits <= 64;
    const unsigned low_bit = packed ? origin_bits : 0;

    std::vector<std::uint32_t> index;
    {
        std::vector<std::uint64_t> words(num_edges);
        std::size_t at = 0;
        if (packed) {
            for_each_edge([&](const Edge &edge, std::uint64_t origin) {
                words[at++] =
                    partition_.globalOrderId(edge.src, edge.dst) << low_bit |
                    origin;
            });
        } else {
            index.resize(num_edges);
            for_each_edge([&](const Edge &edge, std::uint64_t origin) {
                words[at] = partition_.globalOrderId(edge.src, edge.dst);
                index[at] = static_cast<std::uint32_t>(origin);
                ++at;
            });
        }
        radixSort(words, index, low_bit, key_bits);

        if (packed)
            index.resize(num_edges);
        const std::uint64_t capacity = partition_.tileCapacity();
        const std::uint64_t origin_mask =
            (std::uint64_t{1} << origin_bits) - 1;
        std::uint64_t tile_first = 0;
        for (std::size_t e = 0; e < num_edges; ++e) {
            const std::uint64_t key = words[e] >> low_bit;
            if (e == 0 || key - tile_first >= capacity) {
                const std::uint64_t tile = key / capacity;
                tile_first = tile * capacity;
                tiles_.push_back(TileSpan{tile, e, 0, 0});
            }
            ++tiles_.back().numEdges;
            if (packed)
                index[e] = static_cast<std::uint32_t>(words[e] & origin_mask);
        }
    }

    out.edges.resize(num_edges);
    for (std::size_t e = 0; e < num_edges; ++e)
        out.edges[e] = edge_at(index[e]);
    return out;
}

constexpr unsigned kWeightAllOnes = 0;
constexpr unsigned kWeightConstant = 1;
constexpr unsigned kWeightRaw = 2;

inline void
putVarint(std::vector<unsigned char> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<unsigned char>(v) | 0x80u);
        v >>= 7;
    }
    out.push_back(static_cast<unsigned char>(v));
}

inline void
putU64(std::vector<unsigned char> &out, std::uint64_t v)
{
    const std::size_t at = out.size();
    out.resize(at + 8);
    std::memcpy(out.data() + at, &v, 8);
}

class BitWriter
{
  public:
    explicit BitWriter(std::vector<unsigned char> &out) : out_(out) {}

    void
    put(std::uint64_t v, unsigned k)
    {
        if (k > 56) {
            put(v & ((std::uint64_t{1} << 56) - 1), 56);
            put(v >> 56, k - 56);
            return;
        }
        if (k == 0)
            return;
        acc_ |= (k < 64 ? (v & ((std::uint64_t{1} << k) - 1)) : v)
                << nbits_;
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

inline unsigned
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

[[noreturn]] inline void
malformedInput(const std::string &why)
{
    throw CodecError("edge codec: " + why);
}

inline std::vector<unsigned char>
encodeTiles(const GridPartition &partition, std::span<const Edge> edges,
            std::span<const TileSpan> tiles, unsigned min_low_bits)
{
    const std::uint64_t one_bits = std::bit_cast<std::uint64_t>(1.0);
    const std::uint32_t dim = partition.crossbarDim();
    const std::uint64_t width = partition.tileWidth();
    const std::uint64_t capacity = partition.tileCapacity();

    std::vector<unsigned char> out;
    out.reserve(16 + 2 * edges.size());
    putVarint(out, tiles.size());
    putVarint(out, edges.size());

    std::vector<std::uint64_t> locals;
    std::vector<std::uint64_t> deltas;
    std::uint64_t prev_tile = 0;
    std::uint64_t covered = 0;
    for (std::size_t t = 0; t < tiles.size(); ++t) {
        const TileSpan &span = tiles[t];
        if (span.numEdges == 0 || span.firstEdge != covered ||
            span.numEdges > edges.size() - covered)
            malformedInput("tile directory is not a contiguous cover");
        if (span.tileIndex >= partition.numTiles() ||
            (t > 0 && span.tileIndex <= prev_tile))
            malformedInput("tile directory out of streaming order");
        covered += span.numEdges;

        std::uint64_t row0 = 0;
        std::uint64_t col0 = 0;
        partition.tileOrigin(partition.tileCoord(span.tileIndex),
                             row0, col0);

        locals.clear();
        locals.reserve(span.numEdges);
        bool all_ones = true;
        bool constant = true;
        std::uint64_t first_weight = 0;
        for (std::uint64_t e = span.firstEdge;
             e < span.firstEdge + span.numEdges; ++e) {
            const Edge &edge = edges[e];
            const std::uint64_t row = edge.src - row0;
            const std::uint64_t col = edge.dst - col0;
            if (row >= dim || col >= width)
                malformedInput("edge outside its tile window");
            locals.push_back(row + col * dim);
            const std::uint64_t bits = std::bit_cast<std::uint64_t>(
                static_cast<double>(edge.weight));
            if (e == span.firstEdge)
                first_weight = bits;
            all_ones &= bits == one_bits;
            constant &= bits == first_weight;
        }
        deltas.clear();
        deltas.reserve(locals.size());
        for (std::size_t i = 1; i < locals.size(); ++i) {
            if (locals[i] < locals[i - 1])
                malformedInput("tile edges out of streaming order");
            deltas.push_back(locals[i] - locals[i - 1]);
        }
        GRAPHR_ASSERT(locals.front() < capacity &&
                          locals.back() < capacity,
                      "local cell id exceeds tile capacity");

        const unsigned mode = all_ones    ? kWeightAllOnes
                              : constant  ? kWeightConstant
                                          : kWeightRaw;
        const unsigned k =
            chooseLowBits(deltas.data(), deltas.size(), min_low_bits);

        putVarint(out, t == 0 ? span.tileIndex
                              : span.tileIndex - prev_tile);
        prev_tile = span.tileIndex;
        putVarint(out, span.numEdges);
        out.push_back(static_cast<unsigned char>(mode | (k << 2)));
        putVarint(out, locals.front());
        if (mode == kWeightConstant)
            putU64(out, first_weight);

        BitWriter plane(out);
        for (const std::uint64_t d : deltas)
            plane.put(d, k);
        plane.flush();

        std::size_t i = 0;
        while (i < deltas.size()) {
            std::size_t run = 0;
            while (i + run < deltas.size() &&
                   (deltas[i + run] >> k) == 0)
                ++run;
            putVarint(out, run);
            i += run;
            if (i < deltas.size()) {
                putVarint(out, deltas[i] >> k);
                ++i;
            }
        }

        if (mode == kWeightRaw) {
            for (std::uint64_t e = span.firstEdge;
                 e < span.firstEdge + span.numEdges; ++e) {
                putU64(out, std::bit_cast<std::uint64_t>(
                                static_cast<double>(
                                    edges[e].weight)));
            }
        }
    }
    if (covered != edges.size())
        malformedInput("tile directory does not cover the edge list");
    return out;
}

} // namespace detail

/** The sorted edges and tile directory of @p graph. */
inline Ordered
sortPlan(const CooGraph &graph, const GridPartition &partition)
{
    const std::span<const Edge> input = graph.edges();
    return detail::sortEdges(
        partition, input.size(), input.empty() ? 0 : input.size() - 1,
        [input](const auto &visit) {
            for (std::size_t e = 0; e < input.size(); ++e)
                visit(input[e], e);
        },
        [input](std::uint32_t e) { return input[e]; });
}

/** The sorted edges and tile directory of the symmetrised graph. */
inline Ordered
sortPlan(const SymmetrizedView &view, const GridPartition &partition)
{
    const std::size_t graph_edges = view.graph().numEdges();
    return detail::sortEdges(
        partition, view.numEdges(),
        graph_edges == 0 ? 0 : 2 * graph_edges - 1,
        [&view](const auto &visit) { view.forEachEdge(visit); },
        [&view](std::uint32_t origin) { return view.edgeAt(origin); });
}

/**
 * The stream of an ordered, tiled edge list. Throws CodecError if the
 * input violates canonical streaming order.
 */
inline std::vector<unsigned char>
encodeEdgeStream(const GridPartition &partition,
                 std::span<const Edge> edges,
                 std::span<const TileSpan> tiles)
{
    std::vector<unsigned char> out =
        detail::encodeTiles(partition, edges, tiles, 0);
    if (edges.size() > out.size() * kMaxEdgesPerStreamByte)
        out = detail::encodeTiles(partition, edges, tiles, 1);
    return out;
}

/** Metadata of tile @p tile_index from its edges, in tile order. */
inline TileMeta
describeTile(const GridPartition &part, std::uint64_t tile_index,
             std::span<const Edge> edges,
             std::span<std::uint32_t> row_nnz = {})
{
    const std::uint32_t dim = part.crossbarDim();
    TileMeta meta;
    meta.tileIndex = tile_index;
    meta.nnz = edges.size();
    part.tileOrigin(part.tileCoord(tile_index), meta.row0, meta.col0);

    const Reciprocal by_dim(dim);
    const std::uint64_t width = part.tileWidth();
    std::uint64_t prev_col = ~std::uint64_t{0};
    std::uint64_t prev_crossbar = ~std::uint64_t{0};
    std::uint64_t cb_rows = 0;
    std::uint32_t cb_count = 0;
    std::uint64_t row_mask = 0;
    std::uint64_t columns = 0;
    std::uint32_t crossbars = 0;
    std::uint32_t max_rows = 0;
    for (const Edge &e : edges) {
        const std::uint64_t row = e.src - meta.row0;
        const std::uint64_t col = e.dst - meta.col0;
        GRAPHR_ASSERT(row < dim && col < width, "edge outside its tile");
        GRAPHR_ASSERT(columns == 0 || col >= prev_col,
                      "tile edges not in column-major order");
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
        prev_col = col;
        prev_crossbar = crossbar;
    }
    meta.rowMask = row_mask;
    meta.nnzColumns = columns;
    meta.crossbarsUsed = crossbars;
    meta.maxRowsProgrammed = max_rows;
    return meta;
}

} // namespace graphr::reference

#endif // GRAPHR_TESTS_REFERENCE_PLAN_HH
