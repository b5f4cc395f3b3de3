/**
 * @file
 * Multi-node GraphR (paper section 3.1: "multi-node: one can connect
 * different GraphR nodes ... to process large graphs. In this case,
 * each block is processed by a GraphR node. Data movements happen
 * between GraphR nodes.").
 *
 * The graph's destination range is split into contiguous stripes,
 * one per node; node k owns every edge whose destination falls in
 * its stripe (a block column of the global grid). Each iteration the
 * nodes sweep their stripes in parallel, then all-gather the updated
 * vertex properties over the interconnect so every node has the full
 * source vector for the next iteration.
 */

#ifndef GRAPHR_GRAPHR_MULTI_NODE_HH
#define GRAPHR_GRAPHR_MULTI_NODE_HH

#include <functional>
#include <vector>

#include "algorithms/pagerank.hh"
#include "graphr/node.hh"

namespace graphr
{

/** Inter-node link model (PCIe/NVLink-class point-to-point). */
struct LinkParams
{
    double bandwidthGBs = 8.0;
    double latencyUs = 2.0;
    double energyPjPerByte = 30.0;
    std::uint32_t bytesPerProperty = 2; ///< 16-bit fixed point
};

/** Outcome of a multi-node execution. */
struct MultiNodeReport
{
    std::uint32_t numNodes = 0;
    double seconds = 0.0;     ///< end-to-end (compute + all-gather)
    double joules = 0.0;      ///< all nodes + interconnect
    double commSeconds = 0.0; ///< all-gather time across iterations
    double commJoules = 0.0;
    std::uint64_t iterations = 0;
    /** Per-node single-sweep compute seconds (load balance view). */
    std::vector<double> nodeSweepSeconds;

    /** Fraction of end-to-end time spent communicating. */
    double
    commShare() const
    {
        return seconds > 0.0 ? commSeconds / seconds : 0.0;
    }
};

/** A cluster of GraphR nodes with destination-stripe partitioning. */
class MultiNodeGraphR
{
  public:
    MultiNodeGraphR(const GraphRConfig &config, std::uint32_t num_nodes,
                    const LinkParams &link = LinkParams{});

    std::uint32_t numNodes() const { return numNodes_; }

    /**
     * Multi-node PageRank: per-iteration parallel sweeps + property
     * all-gather. Iteration count comes from the golden run, memoised
     * on the graph (goldenPageRankIterations).
     */
    MultiNodeReport runPageRank(const CooGraph &graph,
                                const PageRankParams &params);

    /** One SpMV pass (a single parallel sweep + all-gather). */
    MultiNodeReport runSpmv(const CooGraph &graph);

    /**
     * Add-op workloads (BFS/SSSP/WCC): round count from the golden
     * run, memoised on the graph (goldenBfsRounds and its siblings;
     * WCC counts wcc()'s in-place propagation rounds); each round
     * every node sweeps its stripe of the graph (for WCC, of its
     * symmetrised copy) and the updated labels are all-gathered.
     * Charging a full stripe sweep per round is a conservative bound
     * — sparse-frontier rounds touch fewer tiles.
     */
    MultiNodeReport runBfs(const CooGraph &graph, VertexId source);
    MultiNodeReport runSssp(const CooGraph &graph, VertexId source);
    MultiNodeReport runWcc(const CooGraph &graph);

    /**
     * CF training: per epoch each node runs the GraphRNode CF tile
     * schedule (one MVM pass per feature) over its rating stripe and
     * the factor rows are all-gathered (featureLength properties per
     * vertex).
     */
    MultiNodeReport runCf(const CooGraph &ratings, const CfParams &params);

  private:
    /** Cost of one sweep over one node's stripe subgraph. */
    using SweepFn =
        std::function<SimReport(GraphRNode &, const CooGraph &)>;

    /**
     * Shared cost core: `iterations` rounds, each charging one
     * parallel stripe sweep (costed by `sweep_fn`) and one all-gather
     * of `props_per_vertex` properties per vertex.
     */
    MultiNodeReport runSweeps(const CooGraph &graph,
                              std::uint64_t iterations,
                              const SweepFn &sweep_fn,
                              double props_per_vertex);

    /** Edges of node k (destinations within its stripe). */
    std::vector<Edge> stripeEdges(const CooGraph &graph,
                                  std::uint32_t node) const;

    GraphRConfig config_;
    std::uint32_t numNodes_;
    LinkParams link_;
};

} // namespace graphr

#endif // GRAPHR_GRAPHR_MULTI_NODE_HH
