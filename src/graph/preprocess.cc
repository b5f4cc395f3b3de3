#include "preprocess.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>
#include <span>
#include <utility>

#include "common/logging.hh"
#include "perf/counters.hh"

namespace graphr
{

namespace
{

/** Counts every preprocessing sort, process-wide. */
std::atomic<std::uint64_t> g_sorts_performed{0};

/** Digit width of the LSD radix sort: 4096 buckets per pass. */
constexpr unsigned kRadixBits = 12;
constexpr std::uint64_t kRadixMask = (std::uint64_t{1} << kRadixBits) - 1;

/**
 * Adds each word's Passes digits above @p low_bit to their counts,
 * pass p's at counts[p * 4096, (p + 1) * 4096), in one read. A fixed
 * pass count unrolls the inner loop; a run-time one costs four times
 * as much.
 */
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

/** countDigits for 1 to 6 passes: six 12-bit digits cover 64 bits. */
constexpr void (*kCountDigits[])(std::span<const std::uint64_t>, unsigned,
                                 std::uint32_t *) = {
    countDigits<1>, countDigits<2>, countDigits<3>,
    countDigits<4>, countDigits<5>, countDigits<6>,
};

/**
 * Stable LSD radix sort of @p words on their bits [low_bit, low_bit +
 * key_bits), in 12-bit digits; the bits below low_bit ride along
 * unsorted. @p index, when not empty, moves with the words. One read
 * builds every pass's histogram, and a pass whose digits all fall in
 * one bucket is skipped. Equal keys keep their input order. The
 * scratch arrays are freed on return.
 */
void
radixSort(std::vector<std::uint64_t> &words,
          std::vector<std::uint32_t> &index, unsigned low_bit,
          unsigned key_bits)
{
    const std::size_t n = words.size();
    const unsigned passes = (key_bits + kRadixBits - 1) / kRadixBits;
    if (n == 0 || passes == 0)
        return;

    // Counts fit 32 bits: the sort indexes its input with 32 bits.
    std::vector<std::uint32_t> counts(passes << kRadixBits);
    kCountDigits[passes - 1](words, low_bit, counts.data());

    std::vector<std::uint64_t> word_buf(n);
    std::vector<std::uint32_t> index_buf(index.size());
    for (unsigned pass = 0; pass < passes; ++pass) {
        const unsigned shift = low_bit + pass * kRadixBits;
        const std::span<std::uint32_t> offsets(
            counts.data() + (pass << kRadixBits), kRadixMask + 1);
        // One bucket holding every word makes this pass the identity.
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

} // namespace

std::uint64_t
OrderedEdgeList::sortsPerformed()
{
    return g_sorts_performed.load(std::memory_order_relaxed);
}

template <typename ForEachEdge, typename WeightAt>
void
OrderedEdgeList::sortEdges(std::size_t num_edges, std::uint64_t max_origin,
                           ForEachEdge for_each_edge, WeightAt weight_at)
{
    g_sorts_performed.fetch_add(1, std::memory_order_relaxed);
    static perf::Counter &sorts =
        perf::Registry::instance().counter("preprocess.sorts");
    sorts.add();

    // Order IDs are below paddedVertices^2 (numTiles * tileCapacity),
    // so they fit in twice the bits of paddedVertices - 1; the product
    // itself wraps at 2^32 padded vertices. When an ID and its origin
    // share one word, the sort moves 8 bytes per edge and ties fall
    // to the origin bits, which ascend with the visit order; a wider
    // ID keeps the origins in a separate array.
    const unsigned key_bits = std::min(
        64u, static_cast<unsigned>(
                 2 * std::bit_width(partition_.paddedVertices() - 1)));
    const auto origin_bits =
        static_cast<unsigned>(std::bit_width(max_origin));
    const bool packed = key_bits + origin_bits <= 64;
    const unsigned low_bit = packed ? origin_bits : 0;

    // The key pass also notes whether any weight differs from 1.0 in
    // its bits: when none does, every tile is weight mode 0 and the
    // stream needs nothing of the edges but their keys.
    const std::uint64_t one_bits = std::bit_cast<std::uint64_t>(1.0);
    std::uint64_t weight_diff = 0;
    std::vector<std::uint32_t> index;
    std::vector<std::uint64_t> words(num_edges);
    std::size_t at = 0;
    if (packed) {
        for_each_edge([&](const Edge &edge, std::uint64_t origin) {
            words[at++] =
                partition_.globalOrderId(edge.src, edge.dst) << low_bit |
                origin;
            weight_diff |= std::bit_cast<std::uint64_t>(edge.weight) ^
                           one_bits;
        });
    } else {
        index.resize(num_edges);
        for_each_edge([&](const Edge &edge, std::uint64_t origin) {
            words[at] = partition_.globalOrderId(edge.src, edge.dst);
            index[at] = static_cast<std::uint32_t>(origin);
            weight_diff |= std::bit_cast<std::uint64_t>(edge.weight) ^
                           one_bits;
            ++at;
        });
    }
    GRAPHR_ASSERT(at == num_edges, "visited ", at, " edges of ",
                  num_edges);
    radixSort(words, index, low_bit, key_bits);

    // One walk over the sorted words finds the tile boundaries (one
    // division per tile), takes each edge's local cell ID as its key
    // less the tile's first ID, and writes the tile's record; only a
    // weighted graph reads its edges again, for the weights.
    const std::uint64_t capacity = partition_.tileCapacity();
    const std::uint64_t origin_mask = (std::uint64_t{1} << origin_bits) - 1;
    std::vector<std::uint64_t> locals;
    std::vector<std::uint64_t> weights;
    const auto write = [&](unsigned min_low_bits) {
        EdgeStreamWriter writer(min_low_bits, num_edges);
        std::uint64_t tile = 0;
        std::uint64_t tile_first = 0; // first ID of the current tile
        for (std::size_t e = 0; e < num_edges; ++e) {
            const std::uint64_t key = words[e] >> low_bit;
            if (e == 0 || key - tile_first >= capacity) {
                if (e > 0)
                    writer.addTile(tile, locals, weights);
                locals.clear();
                weights.clear();
                tile = key / capacity;
                tile_first = tile * capacity;
            }
            locals.push_back(key - tile_first);
            if (weight_diff != 0) {
                weights.push_back(std::bit_cast<std::uint64_t>(weight_at(
                    packed ? words[e] & origin_mask : index[e])));
            }
        }
        if (num_edges > 0)
            writer.addTile(tile, locals, weights);
        return writer;
    };
    EdgeStreamWriter writer = write(0);
    // Runs of equal cells pick k = 0 and cost next to nothing per
    // edge, so a duplicate-heavy stream can pass the decoder's
    // expansion bound. Flooring k at 1 makes every delta pay a packed
    // bit, which keeps the stream under 8 edges per byte.
    if (num_edges > writer.streamSize() * kMaxEdgesPerStreamByte)
        writer = write(1);
    bytes_ = writer.finish(streamOffset_, tiles_);
}

OrderedEdgeList::OrderedEdgeList(const CooGraph &graph,
                                 const GridPartition &partition)
    : partition_(partition)
{
    GRAPHR_ASSERT(graph.numVertices() == partition.numVertices(),
                  "partition built for |V|=", partition.numVertices(),
                  " but graph has |V|=", graph.numVertices());
    const std::span<const Edge> input = graph.edges();
    GRAPHR_ASSERT(input.size() <= std::numeric_limits<std::uint32_t>::max(),
                  "graph has ", input.size(),
                  " edges; preprocessing indexes edges with 32 bits");
    sortEdges(
        input.size(), input.empty() ? 0 : input.size() - 1,
        [input](const auto &visit) {
            for (std::size_t e = 0; e < input.size(); ++e)
                visit(input[e], e);
        },
        [input](std::uint64_t e) { return input[e].weight; });
}

OrderedEdgeList::OrderedEdgeList(const SymmetrizedView &view,
                                 const GridPartition &partition)
    : partition_(partition)
{
    GRAPHR_ASSERT(view.numVertices() == partition.numVertices(),
                  "partition built for |V|=", partition.numVertices(),
                  " but graph has |V|=", view.numVertices());
    const std::span<const Edge> input = view.graph().edges();
    GRAPHR_ASSERT(input.size() <=
                      std::numeric_limits<std::uint32_t>::max() / 2,
                  "graph has ", input.size(),
                  " edges; preprocessing indexes both directions of an "
                  "edge with 32 bits");
    // A skipped self-loop leaves a gap in the origins, so the largest
    // one is 2E - 1 even when the view holds fewer than 2E edges. Both
    // directions of an edge carry its weight.
    sortEdges(
        view.numEdges(), input.empty() ? 0 : 2 * input.size() - 1,
        [&view](const auto &visit) { view.forEachEdge(visit); },
        [input](std::uint64_t origin) { return input[origin / 2].weight; });
}

OrderedEdgeList::OrderedEdgeList(const GridPartition &partition,
                                 std::vector<unsigned char> bytes,
                                 std::size_t stream_offset)
    : partition_(partition), bytes_(std::move(bytes)),
      streamOffset_(stream_offset)
{
    GRAPHR_ASSERT(stream_offset <= bytes_.size(), "stream offset ",
                  stream_offset, " past ", bytes_.size(), " bytes");
    tiles_ = indexEdgeStream(partition_, stream());
}

namespace
{

perf::Counter &
tileDecodes()
{
    static perf::Counter &decodes =
        perf::Registry::instance().counter("engine.tile_decodes");
    return decodes;
}

} // namespace

std::span<const Edge>
OrderedEdgeList::decodeTile(std::size_t position,
                            std::vector<Edge> &scratch) const
{
    tileDecodes().add();
    decodeTileEdges(partition_, stream(), tiles_[position], scratch);
    return scratch;
}

std::span<const std::uint64_t>
OrderedEdgeList::decodeTileLocals(std::size_t position,
                                  std::vector<std::uint64_t> &scratch) const
{
    tileDecodes().add();
    graphr::decodeTileLocals(stream(), tiles_[position], scratch);
    return scratch;
}

double
OrderedEdgeList::occupancy() const
{
    return partition_.occupancy(numEdges(), tiles_.size());
}

std::size_t
OrderedEdgeList::bytes() const
{
    return bytes_.capacity() + tiles_.capacity() * sizeof(TileSpan);
}

} // namespace graphr
