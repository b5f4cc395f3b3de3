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
 * their own. Loading a block or tile then requires only sequential
 * I/O. The paper performs this once, offline, in software; so do we.
 */

#ifndef GRAPHR_GRAPH_PREPROCESS_HH
#define GRAPHR_GRAPH_PREPROCESS_HH

#include <span>
#include <vector>

#include "graph/coo.hh"
#include "graph/partition.hh"

namespace graphr
{

/** One non-empty tile in the ordered edge list. */
struct TileSpan
{
    std::uint64_t tileIndex = 0; ///< global tile index SI
    std::uint64_t firstEdge = 0; ///< offset into the ordered edge list
    std::uint64_t numEdges = 0;  ///< non-zeros in this tile
};

/**
 * Pull-based stream of already-ordered edges, one non-empty tile at a
 * time. This is the streaming-decode seam between the on-disk plan
 * store and the engine: a decoder materialises only one tile's edges
 * in scratch memory per step, and OrderedEdgeList drains the stream
 * without re-sorting. Implementations must yield tiles in strictly
 * increasing tileIndex order with each tile's edges in streaming-apply
 * (global order ID) order — the same canonical shape the sorting
 * constructor produces.
 */
class TileChunkSource
{
  public:
    struct Chunk
    {
        std::uint64_t tileIndex = 0;
        /** Edges of this tile; valid only until the next next(). */
        std::span<const Edge> edges;
    };

    virtual ~TileChunkSource() = default;

    /** Advance to the next non-empty tile; false at end of stream. */
    virtual bool next(Chunk &chunk) = 0;
    /** Total edges the stream will yield (for reservation). */
    virtual std::uint64_t totalEdges() const = 0;
    /** Total non-empty tiles the stream will yield. */
    virtual std::uint64_t totalTiles() const = 0;
};

/**
 * The ordered edge list plus the tile directory built from it. This
 * is the representation GraphR's controller streams out of memory
 * ReRAM; downstream consumers iterate non-empty tiles in order.
 */
class OrderedEdgeList
{
  public:
    /**
     * Preprocess a graph: compute I(i, j) for every edge, sort, and
     * build the non-empty tile directory. Linear in E: a stable radix
     * sort with one 12-bit digit per pass, at most
     * ceil(2 * bits(paddedVertices - 1) / 12) passes, of which those
     * with a single digit value are skipped; ties keep input order.
     * The sort's arrays peak at 16 B per edge while the IDs and input
     * positions share one word (24 B when they do not), and are freed
     * but for 4 B per edge of positions before the ordered edges are
     * allocated. Edges are indexed with 32 bits, so a graph with more
     * than 2^32 - 1 edges panics instead of wrapping.
     */
    OrderedEdgeList(const CooGraph &graph, const GridPartition &partition);

    /**
     * Preprocess the symmetrised graph from the graph itself: the
     * same sort over the view's edges, read both ways. The sort index
     * of an edge is its origin (2e + direction, see
     * SymmetrizedView::forEachEdge), so equal keys keep symmetrize()'s
     * order and the list equals OrderedEdgeList(symmetrize(graph),
     * partition) edge for edge. The largest origin is 2E - 1 however
     * many self-loops the view skips. The graph may hold up to
     * 2^31 - 1 edges.
     */
    OrderedEdgeList(const SymmetrizedView &view,
                    const GridPartition &partition);

    /**
     * Drain a tile-at-a-time chunk source (streaming decode of a
     * plan artifact) without re-sorting. The source guarantees
     * canonical streaming order; this does not count as a
     * preprocessing sort.
     */
    OrderedEdgeList(const GridPartition &partition,
                    TileChunkSource &chunks);

    const GridPartition &partition() const { return partition_; }
    std::span<const Edge> edges() const { return edges_; }
    std::span<const TileSpan> tiles() const { return tiles_; }

    /** Number of non-empty tiles ("subgraphs GEs actually process"). */
    std::uint64_t numNonEmptyTiles() const { return tiles_.size(); }

    /** Edges of one tile. */
    std::span<const Edge>
    tileEdges(const TileSpan &span) const
    {
        return std::span<const Edge>(edges_.data() + span.firstEdge,
                                     span.numEdges);
    }

    /**
     * Occupancy: average non-zeros per non-empty tile divided by the
     * tile capacity; this is the fraction of crossbar cells doing
     * useful work (the "waste due to sparsity" of section 1).
     */
    double occupancy() const;

    /**
     * Process-wide count of preprocessing sorts executed (draining a
     * chunk source does not count). Lets tests assert a warm plan
     * store makes a run sort-free.
     */
    static std::uint64_t sortsPerformed();

  private:
    /**
     * The sort both preprocessing constructors run: @p for_each_edge
     * visits @p num_edges edges as (edge, origin), origins ascending
     * and at most @p max_origin < 2^32, and @p edge_at(origin) returns
     * that edge again for the gather.
     */
    template <typename ForEachEdge, typename EdgeAt>
    void sortEdges(std::size_t num_edges, std::uint64_t max_origin,
                   ForEachEdge for_each_edge, EdgeAt edge_at);

    GridPartition partition_;
    std::vector<Edge> edges_;
    std::vector<TileSpan> tiles_;
};

} // namespace graphr

#endif // GRAPHR_GRAPH_PREPROCESS_HH
