/**
 * @file
 * Edge-list preprocessing for the streaming-apply execution model
 * (paper section 3.4).
 *
 * Preprocessing sorts the COO edge list by the global order ID so
 * that all edges of one tile (subgraph) are contiguous and tiles
 * appear in streaming-apply (column-major) order. The sort is a
 * stable LSD radix sort, linear in E; edges with equal order IDs
 * (parallel edges) keep their input order. It moves one 8-byte word
 * per edge, the order ID above the edge's origin bits, unless the two
 * need more than 64 bits; then the origins travel in an array of
 * their own. The sorted IDs are then written as the delta-coded tile
 * stream the plan keeps (graph/edge_codec.hh), with no ordered copy
 * of the edges in between. Loading a block or tile then requires
 * only sequential I/O. The paper performs this once, offline, in
 * software; so do we.
 */

#ifndef GRAPHR_GRAPH_PREPROCESS_HH
#define GRAPHR_GRAPH_PREPROCESS_HH

#include <span>
#include <vector>

#include "graph/coo.hh"
#include "graph/edge_codec.hh"
#include "graph/partition.hh"

namespace graphr
{

/**
 * The ordered edge list as GraphR's controller streams it out of
 * memory ReRAM: the delta-coded tile stream (graph/edge_codec.hh)
 * plus the directory of its non-empty tiles, each with its record's
 * byte offset. The stream is the plan's only edge representation, byte
 * for byte the payload a plan artifact stores after its codec tag; a
 * run decodes a tile only where it reads one, into scratch of its own.
 * Immutable once built, so concurrent readers need no locking.
 */
class OrderedEdgeList
{
  public:
    /**
     * Preprocess a graph: compute I(i, j) for every edge, sort, and
     * write the stream and its tile directory. Linear in E: a stable
     * radix sort with one 12-bit digit per pass, at most
     * ceil(2 * bits(paddedVertices - 1) / 12) passes, of which those
     * with a single digit value are skipped; ties keep input order.
     * The sort's arrays peak at 16 B per edge while the IDs and input
     * positions share one word (24 B when they do not). One walk over
     * the sorted IDs then writes each tile's record: a cell's local ID
     * is its order ID less the tile's first. No edge is gathered when
     * every weight is 1.0; otherwise only the weights are, by input
     * position. Edges are indexed with 32 bits, so a graph with more
     * than 2^32 - 1 edges panics instead of wrapping.
     */
    OrderedEdgeList(const CooGraph &graph, const GridPartition &partition);

    /**
     * Preprocess the symmetrised graph from the graph itself: the
     * same sort over the view's edges, read both ways. The sort index
     * of an edge is its origin (2e + direction, see
     * SymmetrizedView::forEachEdge), so equal keys keep symmetrize()'s
     * order and the list equals OrderedEdgeList(symmetrize(graph),
     * partition) byte for byte. The largest origin is 2E - 1 however
     * many self-loops the view skips. The graph may hold up to
     * 2^31 - 1 edges.
     */
    OrderedEdgeList(const SymmetrizedView &view,
                    const GridPartition &partition);

    /**
     * Adopt a stream read from a plan artifact, without a copy: the
     * stream is @p bytes from @p stream_offset on. One validating pass
     * (indexEdgeStream) builds the tile directory; throws CodecError
     * if the stream is malformed. This does not count as a
     * preprocessing sort.
     */
    OrderedEdgeList(const GridPartition &partition,
                    std::vector<unsigned char> bytes,
                    std::size_t stream_offset);

    const GridPartition &partition() const { return partition_; }

    /** The delta-coded stream, as a plan artifact stores it. */
    std::span<const unsigned char>
    stream() const
    {
        return std::span<const unsigned char>(bytes_).subspan(
            streamOffset_);
    }

    /** The non-empty tiles, in streaming order. */
    std::span<const TileSpan> tiles() const { return tiles_; }

    /** Number of non-empty tiles ("subgraphs GEs actually process"). */
    std::uint64_t numNonEmptyTiles() const { return tiles_.size(); }

    /** Edges in the list. */
    std::uint64_t
    numEdges() const
    {
        return tiles_.empty()
                   ? 0
                   : tiles_.back().firstEdge + tiles_.back().numEdges;
    }

    /**
     * Edges of the tile at @p position in tiles(), decoded into
     * @p scratch (resized to fit) in stream order. Thread-safe, O(tile
     * edges); each call counts one perf counter
     * `engine.tile_decodes`.
     */
    std::span<const Edge> decodeTile(std::size_t position,
                                     std::vector<Edge> &scratch) const;

    /**
     * Local cell IDs (row + col * C) of the tile at @p position,
     * ascending, decoded into @p scratch; counted like decodeTile().
     */
    std::span<const std::uint64_t>
    decodeTileLocals(std::size_t position,
                     std::vector<std::uint64_t> &scratch) const;

    /**
     * Occupancy: average non-zeros per non-empty tile divided by the
     * tile capacity; this is the fraction of crossbar cells doing
     * useful work (the "waste due to sparsity" of section 1).
     */
    double occupancy() const;

    /** Heap bytes held: the stream's buffer and the directory. */
    std::size_t bytes() const;

    /**
     * Process-wide count of preprocessing sorts executed (adopting a
     * stored stream does not count). Lets tests assert a warm plan
     * store makes a run sort-free.
     */
    static std::uint64_t sortsPerformed();

  private:
    /**
     * The sort both preprocessing constructors run: @p for_each_edge
     * visits @p num_edges edges as (edge, origin), origins ascending
     * and at most @p max_origin < 2^32, and @p weight_at(origin)
     * returns that edge's weight again for the stream's weights.
     */
    template <typename ForEachEdge, typename WeightAt>
    void sortEdges(std::size_t num_edges, std::uint64_t max_origin,
                   ForEachEdge for_each_edge, WeightAt weight_at);

    GridPartition partition_;
    /** The stream is bytes_[streamOffset_, end). */
    std::vector<unsigned char> bytes_;
    std::size_t streamOffset_ = 0;
    std::vector<TileSpan> tiles_;
};

} // namespace graphr

#endif // GRAPHR_GRAPH_PREPROCESS_HH
