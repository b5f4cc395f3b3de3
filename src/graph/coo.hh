/**
 * @file
 * Coordinate-list (COO) graph container.
 */

#ifndef GRAPHR_GRAPH_COO_HH
#define GRAPHR_GRAPH_COO_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/types.hh"
#include "graph/edge.hh"

namespace graphr
{

class GraphMemo;

/**
 * A directed graph stored as a coordinate list, the representation
 * GraphR keeps in memory ReRAM and on disk (paper Fig. 4/5). Vertices
 * are implicit in [0, numVertices).
 *
 * Edges change only through the mutators below, so the graph can
 * memoise what its edges alone determine (graph/graph_memo.hh):
 * every mutator drops the memo.
 */
class CooGraph
{
  public:
    CooGraph() = default;

    /** Construct from an explicit vertex count and edge list. */
    CooGraph(VertexId num_vertices, std::vector<Edge> edges);

    VertexId numVertices() const { return numVertices_; }
    EdgeId numEdges() const { return static_cast<EdgeId>(edges_.size()); }
    std::span<const Edge> edges() const { return edges_; }

    /** Append one edge; endpoints must be < numVertices(). */
    void addEdge(VertexId src, VertexId dst, Value weight = 1.0);

    /** Sort edges by (src, dst) — the paper's assumed initial order. */
    void sortBySource();

    /** Remove duplicate (src, dst) pairs, keeping the first weight. */
    void dedupe();

    /** Remove self loops (src == dst). */
    void removeSelfLoops();

    /** Out-degree of every vertex. */
    std::vector<EdgeId> outDegrees() const;

    /** In-degree of every vertex. */
    std::vector<EdgeId> inDegrees() const;

    /** Edge density |E| / |V|^2 (the x-axis of paper Fig. 21). */
    double density() const;

    /**
     * Order-sensitive 64-bit fingerprint: the XXH64 of the vertex and
     * edge counts (little-endian 64-bit words) followed by the edge
     * records as stored (src, dst, weight bits) — the key of every
     * plan cache and store artifact. The hash streams over the edges
     * once, on the first call; later calls, and copies of the graph,
     * return the memoised value until a mutator changes the edges.
     * Safe to call from concurrent readers.
     */
    std::uint64_t fingerprint() const;

    /**
     * Whether every edge weighs bit-exactly 1.0, when SSSP relaxes
     * what BFS does. One pass over the weights on the first call,
     * memoised like fingerprint(). Safe to call from concurrent
     * readers.
     */
    bool unitWeights() const;

    /**
     * This graph's build-once products (graph/graph_memo.hh),
     * allocated on the first call. Copies share the memo; every
     * mutator drops this graph's reference, and a moved-from graph
     * loses it with its edges. Safe to call from concurrent readers.
     */
    std::shared_ptr<GraphMemo> memo() const { return memo_.get(); }

  private:
    /** Holds this graph's reference to its memo: copies share the
     *  memo, a move takes it, and reset() drops this graph's
     *  reference (other holders keep theirs). */
    class MemoSlot
    {
      public:
        MemoSlot() = default;
        MemoSlot(const MemoSlot &other) : memo_(other.peek()) {}
        MemoSlot(MemoSlot &&other) noexcept : memo_(other.take()) {}
        MemoSlot &operator=(const MemoSlot &other);
        MemoSlot &operator=(MemoSlot &&other) noexcept;

        /** The memo, allocated on the first call. */
        std::shared_ptr<GraphMemo> get() const;
        void reset() { take(); }

      private:
        std::shared_ptr<GraphMemo> peek() const;
        std::shared_ptr<GraphMemo> take();

        mutable std::mutex mutex_;
        mutable std::shared_ptr<GraphMemo> memo_; ///< guarded by mutex_
    };

    VertexId numVertices_ = 0;
    std::vector<Edge> edges_;
    MemoSlot memo_;
};

/**
 * The symmetrised graph (symmetrize() in algorithms/wcc.hh) as a view
 * of a graph: each edge, in order, followed by its reverse unless it
 * is a self-loop, read from the graph's own edges. GraphR stores a
 * graph's edges once; a WCC run reads them both ways, so nothing holds
 * a second, doubled edge list. The view's edge count and fingerprint
 * are those of the copy symmetrize() would build, memoised on the
 * graph; its plan (TilePlan) and relaxation rows (RelaxationSweep)
 * are sorted and scattered from forEachEdge(). The view borrows the
 * graph, which must outlive it.
 */
class SymmetrizedView
{
  public:
    explicit SymmetrizedView(const CooGraph &graph) : graph_(graph) {}

    const CooGraph &graph() const { return graph_; }
    VertexId numVertices() const { return graph_.numVertices(); }

    /** Edges of the symmetrised graph: twice the graph's, less one
     *  per self-loop. Counted on the first call (memo). */
    EdgeId numEdges() const;

    /**
     * The symmetrised graph's fingerprint, bit for bit the
     * CooGraph::fingerprint() of symmetrize(graph()): the XXH64 of
     * the vertex count, numEdges() and forEachEdge()'s records,
     * streamed from the graph on the first call (memo).
     */
    std::uint64_t fingerprint() const;

    /**
     * Call @p visit(edge, origin) on each edge of the symmetrised
     * graph, in symmetrize()'s order. The origin of edge e of the
     * graph is 2e, that of its reverse 2e + 1: the origins ascend,
     * and edgeAt() turns one back into its edge.
     */
    template <typename Visit>
    void
    forEachEdge(Visit &&visit) const
    {
        const std::span<const Edge> edges = graph_.edges();
        for (std::size_t e = 0; e < edges.size(); ++e) {
            const Edge &edge = edges[e];
            visit(edge, std::uint64_t{2} * e);
            if (edge.src != edge.dst)
                visit(reversed(edge), std::uint64_t{2} * e + 1);
        }
    }

    /** The edge forEachEdge() visits with origin @p origin. */
    Edge
    edgeAt(std::uint64_t origin) const
    {
        const Edge &edge = graph_.edges()[origin / 2];
        return origin % 2 == 0 ? edge : reversed(edge);
    }

  private:
    static Edge
    reversed(const Edge &edge)
    {
        return Edge{edge.dst, edge.src, edge.weight};
    }

    const CooGraph &graph_;
};

} // namespace graphr

#endif // GRAPHR_GRAPH_COO_HH
