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

template <typename ForEachEdge, typename EdgeAt>
void
OrderedEdgeList::sortEdges(std::size_t num_edges, std::uint64_t max_origin,
                           ForEachEdge for_each_edge, EdgeAt edge_at)
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
        GRAPHR_ASSERT(at == num_edges, "visited ", at, " edges of ",
                      num_edges);
        radixSort(words, index, low_bit, key_bits);

        // Build the non-empty tile directory in a single pass, one
        // division per tile; a packed word gives up its origin to a
        // 4-byte index on the way.
        if (packed)
            index.resize(num_edges);
        const std::uint64_t capacity = partition_.tileCapacity();
        const std::uint64_t origin_mask =
            (std::uint64_t{1} << origin_bits) - 1;
        std::uint64_t tile_first = 0; // first ID of the current tile
        for (std::size_t e = 0; e < num_edges; ++e) {
            const std::uint64_t key = words[e] >> low_bit;
            if (e == 0 || key - tile_first >= capacity) {
                const std::uint64_t tile = key / capacity;
                tile_first = tile * capacity;
                tiles_.push_back(TileSpan{tile, e, 0});
            }
            ++tiles_.back().numEdges;
            if (packed)
                index[e] = static_cast<std::uint32_t>(words[e] & origin_mask);
        }
    } // the words are freed before the gather allocates the edges

    edges_.resize(num_edges);
    for (std::size_t e = 0; e < num_edges; ++e)
        edges_[e] = edge_at(index[e]);
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
        [input](std::uint32_t e) { return input[e]; });
}

OrderedEdgeList::OrderedEdgeList(const SymmetrizedView &view,
                                 const GridPartition &partition)
    : partition_(partition)
{
    GRAPHR_ASSERT(view.numVertices() == partition.numVertices(),
                  "partition built for |V|=", partition.numVertices(),
                  " but graph has |V|=", view.numVertices());
    const std::size_t graph_edges = view.graph().numEdges();
    GRAPHR_ASSERT(graph_edges <=
                      std::numeric_limits<std::uint32_t>::max() / 2,
                  "graph has ", graph_edges,
                  " edges; preprocessing indexes both directions of an "
                  "edge with 32 bits");
    // A skipped self-loop leaves a gap in the origins, so the largest
    // one is 2E - 1 even when the view holds fewer than 2E edges.
    sortEdges(
        view.numEdges(), graph_edges == 0 ? 0 : 2 * graph_edges - 1,
        [&view](const auto &visit) { view.forEachEdge(visit); },
        [&view](std::uint32_t origin) { return view.edgeAt(origin); });
}

OrderedEdgeList::OrderedEdgeList(const GridPartition &partition,
                                 TileChunkSource &chunks)
    : partition_(partition)
{
    edges_.reserve(chunks.totalEdges());
    tiles_.reserve(chunks.totalTiles());
    TileChunkSource::Chunk chunk;
    while (chunks.next(chunk)) {
        tiles_.push_back(TileSpan{chunk.tileIndex, edges_.size(),
                                  chunk.edges.size()});
        edges_.insert(edges_.end(), chunk.edges.begin(),
                      chunk.edges.end());
    }
}

double
OrderedEdgeList::occupancy() const
{
    return partition_.occupancy(edges_.size(), tiles_.size());
}

} // namespace graphr
