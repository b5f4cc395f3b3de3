#include "preprocess.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>
#include <memory>
#include <numeric>
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

/**
 * Digit width of the sort within one cache-sized bucket: a bucket
 * holds about kBucketWords words, so 256 counts per pass keep its
 * prefix sums small beside its scatters.
 */
constexpr unsigned kBucketRadixBits = 8;

/**
 * Bytes the second-level TLB maps in 4 KiB pages (2048 entries on
 * current x86 server cores). An LSD pass scatters to 4096 buckets,
 * each writing its own place in the scratch array; once the words and
 * their scratch, 16 B a word, span more than this, nearly every write
 * misses the TLB.
 */
constexpr std::size_t kTlbReachBytes = std::size_t{8} << 20;

/** Words from which one scatter out of cache beats three. */
constexpr std::size_t kMsdMinWords =
    kTlbReachBytes / (2 * sizeof(std::uint64_t));

/** Words of a cache-sized bucket: with its scratch, 16 KiB of L1. */
constexpr std::size_t kBucketWords = 1024;

/**
 * Adds each word's Passes digits of Bits bits above @p low_bit to
 * their counts, pass p's at counts[p << Bits, (p + 1) << Bits), in one
 * read. A fixed pass count unrolls the inner loop; a run-time one
 * costs four times as much.
 */
template <unsigned Bits, unsigned Passes>
void
countDigits(std::span<const std::uint64_t> words, unsigned low_bit,
            std::uint32_t *counts)
{
    constexpr std::uint64_t mask = (std::uint64_t{1} << Bits) - 1;
    for (const std::uint64_t word : words) {
        const std::uint64_t key = word >> low_bit;
        for (unsigned pass = 0; pass < Passes; ++pass)
            ++counts[(pass << Bits) + ((key >> (pass * Bits)) & mask)];
    }
}

/** countDigits for 1 to 7 passes: six 12-bit digits cover 64 bits,
 *  seven 8-bit digits the at most 55 below a bucketed sort's top
 *  bits (9 or more). */
template <unsigned Bits>
constexpr void (*kCountDigits[])(std::span<const std::uint64_t>, unsigned,
                                 std::uint32_t *) = {
    countDigits<Bits, 1>, countDigits<Bits, 2>, countDigits<Bits, 3>,
    countDigits<Bits, 4>, countDigits<Bits, 5>, countDigits<Bits, 6>,
    countDigits<Bits, 7>,
};

/** The words to sort and the origins that move with them (none when
 *  the origins ride in the words' low bits). */
struct SortArrays
{
    std::uint64_t *words;
    std::uint32_t *index;
};

/**
 * Stable LSD radix sort of the @p n words of @p from on their bits
 * [low_bit, low_bit + key_bits), in Bits-bit digits, alternating with
 * @p to; returns the one holding the result. One read builds every
 * pass's histogram into @p counts, and a pass whose digits all fall
 * in one bucket is skipped. Equal keys keep their input order.
 */
template <unsigned Bits>
SortArrays
lsdSort(SortArrays from, SortArrays to, std::size_t n, unsigned low_bit,
        unsigned key_bits, std::vector<std::uint32_t> &counts)
{
    constexpr std::uint64_t mask = (std::uint64_t{1} << Bits) - 1;
    const unsigned passes = (key_bits + Bits - 1) / Bits;
    if (n == 0 || passes == 0)
        return from;
    // Counts fit 32 bits: the sort indexes its input with 32 bits.
    counts.assign(passes << Bits, 0);
    kCountDigits<Bits>[passes - 1](std::span(from.words, n), low_bit,
                                   counts.data());
    for (unsigned pass = 0; pass < passes; ++pass) {
        const unsigned shift = low_bit + pass * Bits;
        const std::span<std::uint32_t> offsets(
            counts.data() + (pass << Bits), mask + 1);
        // One bucket holding every word makes this pass the identity.
        if (offsets[(from.words[0] >> shift) & mask] == n)
            continue;
        std::uint32_t next = 0;
        for (std::uint32_t &offset : offsets)
            next += std::exchange(offset, next);
        for (std::size_t e = 0; e < n; ++e) {
            const std::uint32_t at =
                offsets[(from.words[e] >> shift) & mask]++;
            to.words[at] = from.words[e];
            if (from.index != nullptr)
                to.index[at] = from.index[e];
        }
        std::swap(from, to);
    }
    return from;
}

/**
 * Stable radix sort of @p words on their bits [low_bit, low_bit +
 * key_bits); the bits below low_bit ride along unsorted. @p index,
 * when not null, moves with the words. Fewer than kMsdMinWords words
 * take LSD passes of 12-bit digits, in cache. More take one stable
 * MSD scatter on their top bits into buckets of about kBucketWords
 * words, the only pass out of cache, and then LSD passes of 8-bit
 * digits within each bucket, which leave it sorted in place. Equal
 * keys keep their input order either way. The scratch arrays are not
 * zero-filled, and freed on return: the sort peaks at 16 B a word (24
 * with @p index).
 */
void
radixSort(std::unique_ptr<std::uint64_t[]> &words,
          std::unique_ptr<std::uint32_t[]> &index, std::size_t n,
          unsigned low_bit, unsigned key_bits)
{
    if (n == 0 || key_bits == 0)
        return;
    auto word_buf = std::make_unique_for_overwrite<std::uint64_t[]>(n);
    auto index_buf =
        index ? std::make_unique_for_overwrite<std::uint32_t[]>(n) : nullptr;
    const SortArrays data{words.get(), index.get()};
    const SortArrays buf{word_buf.get(), index_buf.get()};
    std::vector<std::uint32_t> counts;
    if (n < kMsdMinWords) {
        if (lsdSort<kRadixBits>(data, buf, n, low_bit, key_bits, counts)
                .words == buf.words) {
            words.swap(word_buf);
            index.swap(index_buf);
        }
        return;
    }

    const unsigned top_bits =
        std::min({kRadixBits, key_bits,
                  static_cast<unsigned>(std::bit_width(n / kBucketWords)) -
                      1});
    const unsigned top_shift = low_bit + key_bits - top_bits;
    const std::uint64_t top_mask = (std::uint64_t{1} << top_bits) - 1;
    std::vector<std::uint32_t> starts((std::size_t{1} << top_bits) + 1, 0);
    for (std::size_t e = 0; e < n; ++e)
        ++starts[((data.words[e] >> top_shift) & top_mask) + 1];
    std::partial_sum(starts.begin(), starts.end(), starts.begin());
    std::vector<std::uint32_t> next(starts.begin(), starts.end() - 1);
    for (std::size_t e = 0; e < n; ++e) {
        const std::uint32_t at =
            next[(data.words[e] >> top_shift) & top_mask]++;
        buf.words[at] = data.words[e];
        if (data.index != nullptr)
            buf.index[at] = data.index[e];
    }
    // Each bucket sorts from the scatter's copy against its own range
    // of the input, a cache-sized pair, and ends in the input's range.
    const auto from = [](SortArrays arrays, std::size_t offset) {
        return SortArrays{arrays.words + offset,
                          arrays.index ? arrays.index + offset : nullptr};
    };
    for (std::size_t b = 0; b + 1 < starts.size(); ++b) {
        const std::size_t first = starts[b];
        const std::size_t size = starts[b + 1] - first;
        const SortArrays sorted =
            lsdSort<kBucketRadixBits>(from(buf, first), from(data, first),
                                      size, low_bit, key_bits - top_bits,
                                      counts);
        if (size == 0 || sorted.words == data.words + first)
            continue;
        std::copy_n(sorted.words, size, data.words + first);
        if (data.index != nullptr)
            std::copy_n(sorted.index, size, data.index + first);
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
                           ForEachEdge for_each_edge, WeightAt weight_at,
                           TileMetaTable *meta)
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
    std::unique_ptr<std::uint32_t[]> index;
    auto words = std::make_unique_for_overwrite<std::uint64_t[]>(num_edges);
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
        index = std::make_unique_for_overwrite<std::uint32_t[]>(num_edges);
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
    radixSort(words, index, num_edges, low_bit, key_bits);

    // One walk over the sorted words finds each tile's end (one
    // division per tile), takes its edges' local cell IDs as their
    // keys less the tile's first ID, and writes the tile's record; the
    // first walk also describes the tile from the same cells. Only a
    // weighted graph reads its edges again, for the weights.
    const std::uint64_t capacity = partition_.tileCapacity();
    const std::uint64_t origin_mask = (std::uint64_t{1} << origin_bits) - 1;
    std::vector<std::uint64_t> locals;
    std::vector<std::uint64_t> weights;
    const auto write = [&](unsigned min_low_bits, TileMetaTable *table) {
        EdgeStreamWriter writer(min_low_bits, num_edges);
        const std::uint64_t *const sorted = words.get();
        for (std::size_t first = 0; first < num_edges;) {
            const std::uint64_t tile = (sorted[first] >> low_bit) / capacity;
            const std::uint64_t tile_first = tile * capacity;
            std::size_t end = first + 1;
            while (end < num_edges &&
                   (sorted[end] >> low_bit) - tile_first < capacity)
                ++end;
            locals.resize(end - first);
            for (std::size_t e = first; e < end; ++e)
                locals[e - first] = (sorted[e] >> low_bit) - tile_first;
            weights.clear();
            if (weight_diff != 0) {
                for (std::size_t e = first; e < end; ++e)
                    weights.push_back(std::bit_cast<std::uint64_t>(weight_at(
                        packed ? sorted[e] & origin_mask : index[e])));
            }
            writer.addTile(tile, locals, weights);
            if (table != nullptr)
                table->add(partition_, tile, locals);
            first = end;
        }
        return writer;
    };
    EdgeStreamWriter writer = write(0, meta);
    // Runs of equal cells pick k = 0 and cost next to nothing per
    // edge, so a duplicate-heavy stream can pass the decoder's
    // expansion bound. Flooring k at 1 makes every delta pay a packed
    // bit, which keeps the stream under 8 edges per byte; the tiles
    // and so their metadata stay the same.
    if (num_edges > writer.streamSize() * kMaxEdgesPerStreamByte)
        writer = write(1, nullptr);
    bytes_ = writer.finish(streamOffset_, tiles_);
    // The table's final copy is made once the sorted words are gone.
    words.reset();
    index.reset();
    if (meta != nullptr)
        meta->finish();
}

OrderedEdgeList::OrderedEdgeList(const CooGraph &graph,
                                 const GridPartition &partition,
                                 TileMetaTable *meta)
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
        [input](std::uint64_t e) { return input[e].weight; }, meta);
}

OrderedEdgeList::OrderedEdgeList(const SymmetrizedView &view,
                                 const GridPartition &partition,
                                 TileMetaTable *meta)
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
        [input](std::uint64_t origin) { return input[origin / 2].weight; },
        meta);
}

OrderedEdgeList::OrderedEdgeList(const GridPartition &partition,
                                 std::vector<unsigned char> bytes,
                                 std::size_t stream_offset,
                                 TileMetaTable *meta)
    : partition_(partition), bytes_(std::move(bytes)),
      streamOffset_(stream_offset)
{
    GRAPHR_ASSERT(stream_offset <= bytes_.size(), "stream offset ",
                  stream_offset, " past ", bytes_.size(), " bytes");
    tiles_ = indexEdgeStream(partition_, stream(), meta);
    if (meta != nullptr)
        meta->finish();
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
                                  std::vector<std::uint64_t> &scratch,
                                  std::vector<double> *weights) const
{
    tileDecodes().add();
    graphr::decodeTileLocals(stream(), tiles_[position], scratch, weights);
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
