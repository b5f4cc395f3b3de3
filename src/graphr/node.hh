/**
 * @file
 * GraphRNode: the top-level simulated accelerator.
 *
 * One node owns memory ReRAM (holding the preprocessed COO edge
 * list), G graph engines of N crossbars each, the controller and the
 * streaming-apply scheduler (paper Fig. 8-11). The public entry
 * points run one algorithm end to end and return a SimReport with
 * simulated time, energy and workload statistics.
 *
 * Two execution modes (GraphRConfig::functional):
 *  - functional: edges are programmed into the modelled crossbars and
 *    results are computed through the analog datapath (bit-sliced
 *    fixed point). A tile costs the cells it holds, not the full
 *    array width, and its cells are derived once per run
 *    (rram/graph_engine.hh, graphr/engine/tile_executor.hh).
 *  - timing-only: semantics come from the golden algorithms; the node
 *    walks the tile stream and charges the cost model. Used by the
 *    benches on large graphs. Iteration counts and the add-op
 *    workloads' frontier schedules come from the graph's memo
 *    (graph/graph_memo.hh), and golden vectors are computed only when
 *    the caller asks for them.
 *
 * Both modes charge identical event counts per processed tile (a
 * property test asserts this).
 *
 * The node does not walk tiles itself: preprocessing products come
 * from the shared PlanCache (one prepare per graph x tiling across
 * all runners of the process) and both the timing accounting and the
 * functional datapath are driven by the TileExecutor from
 * per-algorithm MacSpec/AddOpSpec descriptions (graphr/engine/).
 */

#ifndef GRAPHR_GRAPHR_NODE_HH
#define GRAPHR_GRAPHR_NODE_HH

#include <vector>

#include "algorithms/collaborative_filtering.hh"
#include "algorithms/pagerank.hh"
#include "graph/coo.hh"
#include "graphr/config.hh"
#include "graphr/engine/tile_executor.hh"
#include "graphr/sim_report.hh"

namespace graphr
{

/** A single GraphR accelerator node in the out-of-core setting. */
class GraphRNode
{
  public:
    /** @throws ConfigError on an invalid configuration. */
    explicit GraphRNode(GraphRConfig config = GraphRConfig{});

    const GraphRConfig &config() const { return config_; }

    /**
     * PageRank (parallel MAC; paper Fig. 13/16b).
     * @param ranks_out optional: final rank vector (in timing mode,
     *                  the golden ranks, computed for this call)
     */
    SimReport runPageRank(const CooGraph &graph,
                          const PageRankParams &params,
                          std::vector<Value> *ranks_out = nullptr);

    /** One SpMV pass y = A^T x (parallel MAC; Table 2 row 1). In
     *  timing mode @p y_out, when given, receives the golden spmv(). */
    SimReport runSpmv(const CooGraph &graph, const std::vector<Value> &x,
                      std::vector<Value> *y_out = nullptr);

    /**
     * BFS levels from a source (parallel add-op; Table 2 row 3). The
     * rounds are the memoised bfsSchedule(graph, source).
     * @param dist_out optional: final labels (in timing mode, from a
     *                 relaxation run for this call); likewise below
     * @param on_round optional: sees each relaxation round's active
     *                 ids (AddOpSpec::onRound); likewise below
     */
    SimReport runBfs(const CooGraph &graph, VertexId source,
                     std::vector<Value> *dist_out = nullptr,
                     const RoundObserver &on_round = {});

    /** SSSP from a source (parallel add-op; paper Fig. 14/16c). */
    SimReport runSssp(const CooGraph &graph, VertexId source,
                      std::vector<Value> *dist_out = nullptr,
                      const RoundObserver &on_round = {});

    /**
     * Weakly connected components by min-label propagation over the
     * symmetrised graph (parallel add-op with zero edge weight; the
     * natural third add-op vertex program alongside BFS/SSSP). The
     * rounds @p on_round sees are those over symmetrized(graph).
     */
    SimReport runWcc(const CooGraph &graph,
                     std::vector<VertexId> *labels_out = nullptr,
                     const RoundObserver &on_round = {});

    /**
     * Collaborative filtering training (parallel MAC over the rating
     * matrix; section 5.1). Semantics always come from the golden
     * SGD, so a functional config returns the timing report; the
     * node models the per-epoch tile schedule with featureLength MAC
     * passes per tile (one per feature).
     */
    SimReport runCf(const CooGraph &ratings, const CfParams &params);

    /**
     * Engine counters of the most recent run* call: plan-cache hit,
     * functional tile programs/loads. Test and bench visibility only
     * — not part of the SimReport.
     */
    const EngineStats &lastEngineStats() const { return lastStats_; }

  private:
    /** Executor over the (cached) plan for this graph. */
    TileExecutor makeExecutor(const CooGraph &graph);

    GraphRConfig config_;
    EngineStats lastStats_;
};

} // namespace graphr

#endif // GRAPHR_GRAPHR_NODE_HH
