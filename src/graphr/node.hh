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
 *    fixed point). Each tile costs its edges plus its occupied
 *    crossbars, not the full array width (rram/graph_engine.hh).
 *  - timing-only: semantics come from the golden algorithms; the node
 *    walks the tile stream and charges the cost model. Used by the
 *    benches on large graphs. Iteration counts come from the graph's
 *    memo (graph/graph_memo.hh), and golden vectors are computed only
 *    when the caller asks for them.
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

    /** BFS levels from a source (parallel add-op; Table 2 row 3). */
    SimReport runBfs(const CooGraph &graph, VertexId source,
                     std::vector<Value> *dist_out = nullptr);

    /** SSSP from a source (parallel add-op; paper Fig. 14/16c). */
    SimReport runSssp(const CooGraph &graph, VertexId source,
                      std::vector<Value> *dist_out = nullptr);

    /**
     * Weakly connected components by min-label propagation over the
     * symmetrised graph (parallel add-op with zero edge weight; the
     * natural third add-op vertex program alongside BFS/SSSP).
     */
    SimReport runWcc(const CooGraph &graph,
                     std::vector<VertexId> *labels_out = nullptr);

    /**
     * Collaborative filtering training (parallel MAC over the rating
     * matrix; section 5.1). Semantics always come from the golden
     * SGD; the node models the per-epoch tile schedule with
     * 2 * featureLength MAC passes per tile (one per feature per
     * direction).
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
