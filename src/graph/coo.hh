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

} // namespace graphr

#endif // GRAPHR_GRAPH_COO_HH
