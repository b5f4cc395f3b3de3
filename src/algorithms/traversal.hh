/**
 * @file
 * Golden BFS and SSSP (paper Fig. 14 / Table 2 vertex programs).
 *
 * Both are synchronous Bellman-Ford style relaxations: processEdge is
 * an addition, reduce is min — the paper's "parallel add-op" pattern.
 * BFS is SSSP with all edge weights forced to 1.
 */

#ifndef GRAPHR_ALGORITHMS_TRAVERSAL_HH
#define GRAPHR_ALGORITHMS_TRAVERSAL_HH

#include <memory>
#include <span>
#include <vector>

#include "graph/coo.hh"
#include "graph/csr.hh"
#include "graph/graph_memo.hh"

namespace graphr
{

/** Result of an SSSP/BFS run. */
struct TraversalResult
{
    std::vector<Value> dist;       ///< distance label per vertex
    std::vector<VertexId> parent;  ///< shortest-path tree parent
    int iterations = 0;            ///< synchronous rounds executed
};

/**
 * Synchronous single-source shortest paths. Edge weights must be
 * non-negative. Terminates when no distance label changes.
 */
TraversalResult sssp(const CooGraph &graph, VertexId source);

/** BFS: level labels; equals sssp() with unit weights. */
TraversalResult bfs(const CooGraph &graph, VertexId source);

/**
 * How edge weights enter the relaxation candidate label:
 * kOriginal -> label(u) + w (SSSP), kUnit -> label(u) + 1 (BFS),
 * kZero -> label(u) (WCC min-label propagation).
 */
enum class WeightMode
{
    kOriginal,
    kUnit,
    kZero,
};

/**
 * Round-by-round synchronous min-relaxation exposing the per-round
 * active set: used by the GraphR simulator to know which tiles a
 * round touches. Covers SSSP, BFS and WCC-style label propagation
 * (all the paper's parallel-add-op workloads).
 *
 * A round costs its frontier: step() relaxes the round's active ids
 * in ascending order, updating labels in place (a vertex relaxed
 * later in the round sees the labels earlier ones lowered, as in
 * sssp()), and takes the next round's ids, ascending, from the
 * vertices it improved, not from a test of every vertex.
 *
 * The sweep builds the graph's out-adjacency once, in one scatter,
 * holding only what its weight mode reads: neighbour ids (4 B per
 * edge) under kUnit and kZero, id and weight together under
 * kOriginal. Each vertex's neighbours keep the edge-list order.
 */
class RelaxationSweep
{
  public:
    /** Single-source form (SSSP/BFS). */
    RelaxationSweep(const CooGraph &graph, VertexId source,
                    bool unit_weights);

    /**
     * General form: explicit initial labels and active set, with a
     * weight mode (WCC uses all-active, label = id, kZero).
     */
    RelaxationSweep(const CooGraph &graph,
                    std::vector<Value> init_labels,
                    std::vector<bool> init_active, WeightMode mode);

    /** Vertices active at the start of the current round, as one
     *  flag per vertex (the baseline cost models index it). */
    const std::vector<bool> &active() const { return active_; }

    /** The same vertices as ascending ids. */
    std::span<const VertexId> activeIds() const { return ids_; }

    /** Current distance labels. */
    const std::vector<Value> &dist() const { return dist_; }

    /** Whether any vertex is still active. */
    bool done() const { return ids_.empty(); }

    /**
     * Offsets of the out-adjacency the rounds relax over (|V|+1
     * entries): vertex v's out-edges are [offsets()[v],
     * offsets()[v + 1]), in edge-list order. The baseline cost models
     * read degrees and neighbours from it.
     */
    std::span<const EdgeId>
    offsets() const
    {
        return weighted() ? weighted_.offsets() : neighborIds_.offsets();
    }

    /** Out-degree of vertex @p v. */
    EdgeId
    degree(VertexId v) const
    {
        return weighted() ? weighted_.degree(v) : neighborIds_.degree(v);
    }

    /** The vertex out-edge @p i (an index into offsets()) leads to. */
    VertexId
    neighbor(EdgeId i) const
    {
        return weighted() ? weighted_.entry(i).neighbor
                          : neighborIds_.entry(i);
    }

    /** Execute one synchronous round; returns updated-vertex count. */
    std::uint64_t step();

  private:
    bool weighted() const { return mode_ == WeightMode::kOriginal; }

    /** Build the adjacency mode_ reads from @p graph's out-edges. */
    void buildAdjacency(const CooGraph &graph);

    /** Relax every out-edge of the round's active ids over @p rows,
     *  an edge of entry x weighing @p weight(x). */
    template <typename Entry, typename Weight>
    void relaxFrontier(const CompressedRows<Entry> &rows, Weight weight);

    WeightMode mode_;
    /** Out-neighbour ids: the adjacency under kUnit and kZero. */
    CompressedRows<VertexId> neighborIds_;
    /** Out-neighbours with weights: the adjacency under kOriginal. */
    CompressedRows<Adjacency> weighted_;
    std::vector<Value> dist_;
    std::vector<bool> active_;
    /** Bit v set once v improved in the running round; all clear
     *  between rounds. */
    std::vector<std::uint64_t> improved_;
    std::vector<VertexId> ids_;
    std::vector<VertexId> nextIds_;
};

/**
 * Run @p sweep to convergence, recording each round's active ids into
 * a schedule that keeps them while they fit @p cap_bytes (the memo's
 * schedules use FrontierSchedule::capFor(graph)).
 */
FrontierSchedule recordSchedule(RelaxationSweep sweep,
                                std::size_t cap_bytes);

/**
 * The frontier schedules of bfs(graph, source) and
 * sssp(graph, source), each recorded once per graph and source from
 * a RelaxationSweep and memoised on the graph (CooGraph::memo()).
 * rounds() equals the golden iterations: relax() and RelaxationSweep
 * are the same algorithm.
 */
std::shared_ptr<const FrontierSchedule> bfsSchedule(const CooGraph &graph,
                                                    VertexId source);
std::shared_ptr<const FrontierSchedule>
ssspSchedule(const CooGraph &graph, VertexId source);

} // namespace graphr

#endif // GRAPHR_ALGORITHMS_TRAVERSAL_HH
