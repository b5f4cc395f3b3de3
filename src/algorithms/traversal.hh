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

#include <functional>
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
 * Which way a relaxation reads an edge (src, dst): kForward relaxes
 * dst from src (BFS, SSSP); kBoth also src from dst, unless the edge
 * is a self-loop, which relaxes the symmetrised graph (WCC) from the
 * graph's own edges (SymmetrizedView).
 */
enum class EdgeDirections
{
    kForward,
    kBoth,
};

/**
 * Round-by-round synchronous min-relaxation exposing the per-round
 * active ids: the one relaxation of the paper's parallel-add-op
 * workloads (SSSP, BFS and WCC-style label propagation). The
 * frontier schedules are recorded from it, and forEachRound() runs
 * it live for a relaxation whose schedule kept no ids.
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
 * kOriginal. Each vertex's neighbours keep the edge-list order; read
 * both ways (EdgeDirections::kBoth), that is the order of
 * symmetrize()'s list, so the rows are those over the copy.
 */
class RelaxationSweep
{
  public:
    /** Single-source form (SSSP/BFS). */
    RelaxationSweep(const CooGraph &graph, VertexId source,
                    bool unit_weights);

    /**
     * General form: explicit initial labels and active set, with a
     * weight mode and the edge directions relaxed (WCC uses
     * all-active, label = id, kZero, kBoth).
     */
    RelaxationSweep(const CooGraph &graph,
                    std::vector<Value> init_labels,
                    const std::vector<bool> &init_active, WeightMode mode,
                    EdgeDirections directions = EdgeDirections::kForward);

    /** Vertices active at the start of the current round, ascending. */
    std::span<const VertexId> activeIds() const { return ids_; }

    /** Current distance labels. */
    const std::vector<Value> &dist() const { return dist_; }

    /** Whether any vertex is still active. */
    bool done() const { return ids_.empty(); }

    /** Execute one synchronous round; returns updated-vertex count. */
    std::uint64_t step();

  private:
    bool weighted() const { return mode_ == WeightMode::kOriginal; }

    /** Build the adjacency mode_ reads from @p graph's out-edges,
     *  read in @p directions. */
    void buildAdjacency(const CooGraph &graph, EdgeDirections directions);

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
    /** Bit v set once v improved in the running round; all clear
     *  between rounds. */
    std::vector<std::uint64_t> improved_;
    std::vector<VertexId> ids_;
    std::vector<VertexId> nextIds_;
};

/**
 * The out-neighbour ids a relaxation of @p graph's edges read in
 * @p directions walks: row v holds v's out-neighbours in edge-list
 * order (read both ways, the rows over symmetrize(graph)). A cost
 * model reads a round's degrees and neighbours here.
 */
CompressedRows<VertexId> relaxationRows(const CooGraph &graph,
                                        EdgeDirections directions);

/**
 * The row lengths of relaxationRows(@p graph, @p directions), counted
 * in one pass without building the rows: out-degrees, or read both
 * ways out-degree plus in-degree less self-loops. A cost model that
 * prices a round from its degrees alone reads them here.
 */
std::vector<EdgeId> relaxationDegrees(const CooGraph &graph,
                                      EdgeDirections directions);

/**
 * Run @p sweep to convergence, recording each round's active ids into
 * a schedule that keeps them while they fit @p cap_bytes (the memo's
 * schedules use FrontierSchedule::capFor of the edges relaxed).
 */
FrontierSchedule recordSchedule(RelaxationSweep sweep,
                                std::size_t cap_bytes);

/**
 * The frontier schedules of bfs(graph, source) and
 * sssp(graph, source), each recorded once per graph and source from
 * a RelaxationSweep and memoised on the graph (CooGraph::memo()).
 * rounds() equals the golden iterations: relax() and RelaxationSweep
 * are the same algorithm. On a graph whose weights are all 1.0
 * (CooGraph::unitWeights()) SSSP's rounds are BFS's, so
 * ssspSchedule() returns bfsSchedule().
 */
std::shared_ptr<const FrontierSchedule> bfsSchedule(const CooGraph &graph,
                                                    VertexId source);
std::shared_ptr<const FrontierSchedule>
ssspSchedule(const CooGraph &graph, VertexId source);

/** Receives each add-op round's active vertex ids, ascending. */
using RoundObserver = std::function<void(std::span<const VertexId> ids)>;

/**
 * One add-op (min-relaxation) execution: its start, how it reads the
 * edges, and where its rounds come from. Every cost model walks its
 * rounds through forEachRound().
 */
struct AddOpSpec
{
    std::vector<Value> initLabels;
    std::vector<bool> initActive;
    WeightMode mode = WeightMode::kOriginal;
    /** The edge directions relaxed: kBoth for WCC, whose plan is the
     *  symmetrised graph's (PlanCache::get(SymmetrizedView)). */
    EdgeDirections directions = EdgeDirections::kForward;
    /**
     * Optional: the recorded frontier of the relaxation the four
     * fields above start (bfsSchedule() and its siblings; the
     * factories below attach it). Null, or a schedule past its cap
     * (FrontierSchedule::recorded() false), makes forEachRound() run
     * a RelaxationSweep instead.
     */
    std::shared_ptr<const FrontierSchedule> schedule;
    /**
     * Optional: shown every round's active ids, in round order,
     * before the walker's own observer (the out-of-core runner
     * derives its selective disk schedule from them).
     */
    RoundObserver onRound;
};

/** BFS from @p source: label 0 and active there, unit weights, the
 *  memoised bfsSchedule(graph, source) attached. */
AddOpSpec bfsSpec(const CooGraph &graph, VertexId source);

/** SSSP from @p source, likewise, with ssspSchedule(graph, source):
 *  on a unit-weight graph, bfsSpec(graph, source). */
AddOpSpec ssspSpec(const CooGraph &graph, VertexId source);

/**
 * The one round walk: show each round of the relaxation @p spec
 * describes over @p graph to spec.onRound and then @p on_round, as
 * its active ids, ascending, in round order. A recorded
 * spec.schedule is replayed; otherwise a RelaxationSweep relaxes the
 * rounds here. When @p labels_out is non-null it receives the final
 * labels, from a sweep run for them if the rounds were replayed.
 */
void forEachRound(const CooGraph &graph, const AddOpSpec &spec,
                  const RoundObserver &on_round,
                  std::vector<Value> *labels_out = nullptr);

} // namespace graphr

#endif // GRAPHR_ALGORITHMS_TRAVERSAL_HH
