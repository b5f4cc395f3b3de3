#include "multi_node.hh"

#include <algorithm>

#include "algorithms/traversal.hh"
#include "algorithms/wcc.hh"
#include "common/logging.hh"
#include "graphr/engine/plan_cache.hh"

namespace graphr
{

MultiNodeGraphR::MultiNodeGraphR(const GraphRConfig &config,
                                 std::uint32_t num_nodes,
                                 const LinkParams &link)
    : config_(config), numNodes_(num_nodes), link_(link)
{
    config_.validate();
    GRAPHR_ASSERT(numNodes_ > 0, "need at least one node");
}

template <typename Graph>
MultiNodeReport
MultiNodeGraphR::runSweeps(const Graph &graph,
                           std::uint64_t iterations,
                           const MacSpec &sweep,
                           double props_per_vertex) const
{
    MultiNodeReport report;
    report.numNodes = numNodes_;
    report.iterations = iterations;

    // Per-node sweep cost: one sweep over the node's destination
    // stripe, all stripes priced in one pass over the graph's plan.
    // An empty stripe reads 0 s and 0 J.
    const TileExecutor exec(
        config_, PlanCache::instance().get(graph, config_.tiling));
    double max_sweep_s = 0.0;
    double sweep_joules = 0.0;
    for (const SimReport &node : exec.macStripeReports(sweep, numNodes_)) {
        report.nodeSweepSeconds.push_back(node.seconds);
        max_sweep_s = std::max(max_sweep_s, node.seconds);
        sweep_joules += node.joules;
    }

    // All-gather: each node broadcasts its stripe's updated
    // properties to the other nodes every iteration.
    const double stripe_props =
        static_cast<double>(graph.numVertices()) / numNodes_ *
        props_per_vertex;
    const double bytes_sent_per_node =
        stripe_props * link_.bytesPerProperty * (numNodes_ - 1);
    const double comm_per_iter =
        numNodes_ > 1 ? bytes_sent_per_node /
                                (link_.bandwidthGBs * 1e9) +
                            link_.latencyUs * 1e-6
                      : 0.0;
    const double total_comm_bytes =
        bytes_sent_per_node * numNodes_ * static_cast<double>(iterations);

    const double iters = static_cast<double>(iterations);
    report.commSeconds = comm_per_iter * iters;
    report.commJoules =
        total_comm_bytes * link_.energyPjPerByte * 1e-12;
    report.seconds = (max_sweep_s + comm_per_iter) * iters;
    report.joules = sweep_joules * iters + report.commJoules;
    return report;
}

namespace
{

/** One SpMV-shaped sweep: the per-iteration tile schedule shared by
 *  PageRank and the add-op rounds' conservative bound (the schedule
 *  GraphRNode::runSpmv prices). */
MacSpec
spmvSweep()
{
    MacSpec spec;
    spec.name = "spmv";
    return spec;
}

} // namespace

MultiNodeReport
MultiNodeGraphR::runPageRank(const CooGraph &graph,
                             const PageRankParams &params)
{
    // Iteration count from the golden run (identical convergence on
    // every partitioning).
    return runSweeps(graph,
                     static_cast<std::uint64_t>(
                         goldenPageRankIterations(graph, params)),
                     spmvSweep(), /*props_per_vertex=*/1.0);
}

MultiNodeReport
MultiNodeGraphR::runSpmv(const CooGraph &graph)
{
    return runSweeps(graph, /*iterations=*/1, spmvSweep(),
                     /*props_per_vertex=*/1.0);
}

MultiNodeReport
MultiNodeGraphR::runBfs(const CooGraph &graph, VertexId source)
{
    return runSweeps(graph,
                     static_cast<std::uint64_t>(
                         bfsSchedule(graph, source)->rounds()),
                     spmvSweep(), /*props_per_vertex=*/1.0);
}

MultiNodeReport
MultiNodeGraphR::runSssp(const CooGraph &graph, VertexId source)
{
    return runSweeps(graph,
                     static_cast<std::uint64_t>(
                         ssspSchedule(graph, source)->rounds()),
                     spmvSweep(), /*props_per_vertex=*/1.0);
}

MultiNodeReport
MultiNodeGraphR::runWcc(const CooGraph &graph)
{
    // Labels propagate over the symmetrised edge set; each node owns
    // the symmetrised edges of its destination stripe, priced off the
    // symmetrised plan sorted from the graph itself.
    return runSweeps(SymmetrizedView(graph),
                     static_cast<std::uint64_t>(goldenWccRounds(graph)),
                     spmvSweep(), /*props_per_vertex=*/1.0);
}

MultiNodeReport
MultiNodeGraphR::runCf(const CooGraph &ratings, const CfParams &params)
{
    GRAPHR_ASSERT(params.featureLength > 0, "feature length must be > 0");
    // Per epoch each stripe runs the node's own CF tile schedule
    // (GraphRNode::runCf for one epoch: one MVM pass per feature,
    // compute-phase scaling only); the all-gather moves whole factor
    // rows.
    MacSpec epoch;
    epoch.name = "cf";
    epoch.passesPerTile = static_cast<std::uint32_t>(params.featureLength);
    return runSweeps(ratings, static_cast<std::uint64_t>(params.epochs),
                     epoch, static_cast<double>(params.featureLength));
}

} // namespace graphr
