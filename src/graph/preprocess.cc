#include "preprocess.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>
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
 * Stable LSD radix sort of (key, index) pairs held as parallel arrays,
 * ceil(bits(max key) / 12) passes. Equal keys keep their input order.
 * The scratch arrays are freed on return: the sort peaks at 24 B per
 * pair, and the caller is left holding the two sorted arrays.
 */
void
radixSortByKey(std::vector<std::uint64_t> &keys,
               std::vector<std::uint32_t> &index)
{
    const std::size_t n = keys.size();
    const std::uint64_t max_key =
        n == 0 ? 0 : *std::max_element(keys.begin(), keys.end());
    const unsigned passes =
        (std::bit_width(max_key) + kRadixBits - 1) / kRadixBits;

    std::vector<std::uint64_t> key_buf(n);
    std::vector<std::uint32_t> index_buf(n);
    std::vector<std::size_t> offsets(kRadixMask + 1);
    for (unsigned pass = 0; pass < passes; ++pass) {
        const unsigned shift = pass * kRadixBits;
        std::fill(offsets.begin(), offsets.end(), 0);
        for (const std::uint64_t key : keys)
            ++offsets[(key >> shift) & kRadixMask];
        // One bucket holding every key makes this pass the identity.
        if (offsets[(keys[0] >> shift) & kRadixMask] == n)
            continue;
        std::size_t next = 0;
        for (std::size_t &offset : offsets)
            next += std::exchange(offset, next);
        for (std::size_t e = 0; e < n; ++e) {
            const std::size_t to = offsets[(keys[e] >> shift) & kRadixMask]++;
            key_buf[to] = keys[e];
            index_buf[to] = index[e];
        }
        keys.swap(key_buf);
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
OrderedEdgeList::sortEdges(std::size_t num_edges,
                           ForEachEdge for_each_edge, EdgeAt edge_at)
{
    g_sorts_performed.fetch_add(1, std::memory_order_relaxed);
    static perf::Counter &sorts =
        perf::Registry::instance().counter("preprocess.sorts");
    sorts.add();

    std::vector<std::uint32_t> index(num_edges);
    {
        std::vector<std::uint64_t> keys(num_edges);
        std::size_t at = 0;
        for_each_edge([&](const Edge &edge, std::uint64_t origin) {
            keys[at] = partition_.globalOrderId(edge.src, edge.dst);
            index[at] = static_cast<std::uint32_t>(origin);
            ++at;
        });
        GRAPHR_ASSERT(at == num_edges, "visited ", at, " edges of ",
                      num_edges);
        radixSortByKey(keys, index);

        // Build the non-empty tile directory in a single pass.
        const std::uint64_t capacity = partition_.tileCapacity();
        std::uint64_t prev_tile = ~std::uint64_t{0};
        for (std::size_t e = 0; e < keys.size(); ++e) {
            const std::uint64_t tile = keys[e] / capacity;
            if (tile != prev_tile) {
                tiles_.push_back(TileSpan{tile, e, 1});
                prev_tile = tile;
            } else {
                ++tiles_.back().numEdges;
            }
        }
    } // the keys are freed before the gather allocates the edges

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
        input.size(),
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
    sortEdges(
        view.numEdges(),
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

std::vector<TileSpan>
OrderedEdgeList::tilesOfBlock(std::uint64_t block_index) const
{
    const std::uint64_t per_block = partition_.tilesPerBlock();
    const std::uint64_t first = block_index * per_block;
    const std::uint64_t last = first + per_block;
    std::vector<TileSpan> out;
    for (const TileSpan &span : tiles_) {
        if (span.tileIndex >= first && span.tileIndex < last)
            out.push_back(span);
    }
    return out;
}

} // namespace graphr
