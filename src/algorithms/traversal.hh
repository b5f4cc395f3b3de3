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

#include <vector>

#include "graph/coo.hh"
#include "graph/csr.hh"

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
 * bfs(graph, source).iterations and sssp(graph, source).iterations,
 * each computed once per graph and source and memoised on the graph
 * (CooGraph::memo()).
 */
int goldenBfsRounds(const CooGraph &graph, VertexId source);
int goldenSsspRounds(const CooGraph &graph, VertexId source);

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

    /** Vertices active at the start of the current round. */
    const std::vector<bool> &active() const { return active_; }

    /** Current distance labels. */
    const std::vector<Value> &dist() const { return dist_; }

    /** Whether any vertex is still active. */
    bool done() const { return activeCount_ == 0; }

    /** Count of active vertices. */
    std::uint64_t activeCount() const { return activeCount_; }

    /** The graph's out-adjacency the rounds relax over (the baseline
     *  cost models read per-vertex degrees and neighbours from it). */
    const CsrGraph &outAdjacency() const { return outAdj_; }

    /** Execute one synchronous round; returns updated-vertex count. */
    std::uint64_t step();

  private:
    const CooGraph &graph_;
    CsrGraph outAdj_;
    WeightMode mode_;
    std::vector<Value> dist_;
    std::vector<bool> active_;
    std::uint64_t activeCount_ = 0;
};

} // namespace graphr

#endif // GRAPHR_ALGORITHMS_TRAVERSAL_HH
