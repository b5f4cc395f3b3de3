#include "node.hh"

#include <cmath>
#include <utility>

#include "algorithms/spmv.hh"
#include "algorithms/traversal.hh"
#include "algorithms/wcc.hh"
#include "common/logging.hh"
#include "graphr/engine/plan_cache.hh"

namespace graphr
{

namespace
{

/** Validate before any member uses the configuration. */
GraphRConfig
validated(GraphRConfig config)
{
    config.validate();
    return config;
}

} // namespace

GraphRNode::GraphRNode(GraphRConfig config)
    : config_(validated(std::move(config)))
{
}

template <typename Graph>
TileExecutor
GraphRNode::makeExecutor(const Graph &graph)
{
    bool hit = false;
    TilePlanPtr plan =
        PlanCache::instance().get(graph, config_.tiling, &hit);
    TileExecutor exec(config_, std::move(plan));
    exec.stats().planCacheHit = hit;
    return exec;
}

SimReport
GraphRNode::runPageRank(const CooGraph &graph,
                        const PageRankParams &params,
                        std::vector<Value> *ranks_out)
{
    GRAPHR_ASSERT(graph.numVertices() > 0, "empty graph");
    TileExecutor exec = makeExecutor(graph);

    MacSpec spec;
    spec.name = "pagerank";

    std::uint64_t iterations = 0;
    std::vector<Value> ranks;
    // Function scope: referenced by spec.sourceDivisors below.
    std::vector<EdgeId> out_deg;

    if (config_.functional) {
        // Execute through the modelled analog datapath. The
        // programmed weight of an edge is its PageRank contribution
        // factor — constant across iterations, so resident tiles
        // (ProgramCharging::kOnce) are programmed once per run.
        const VertexId nv = graph.numVertices();
        out_deg = graph.outDegrees();
        spec.sourceDivisors = out_deg;
        spec.weightNumerator = params.damping;

        ranks.assign(nv, 1.0 / static_cast<double>(nv));
        for (int iter = 0; iter < params.maxIterations; ++iter) {
            double dangling = 0.0;
            for (VertexId v = 0; v < nv; ++v) {
                if (out_deg[v] == 0)
                    dangling += ranks[v];
            }
            const double base =
                (1.0 - params.damping) / static_cast<double>(nv) +
                params.damping * dangling / static_cast<double>(nv);
            std::vector<Value> next(nv, base);
            exec.functionalMacSweep(spec, ranks, next);

            double delta = 0.0;
            for (VertexId v = 0; v < nv; ++v)
                delta += std::abs(next[v] - ranks[v]);
            ranks = std::move(next);
            ++iterations;
            if (params.tolerance > 0.0 && delta < params.tolerance)
                break;
        }
    } else if (ranks_out != nullptr) {
        PageRankResult golden = pagerank(graph, params);
        iterations = static_cast<std::uint64_t>(golden.iterations);
        ranks = std::move(golden.ranks);
    } else {
        iterations = static_cast<std::uint64_t>(
            goldenPageRankIterations(graph, params));
    }

    spec.sweeps = iterations;
    SimReport report = exec.macReport(spec);
    lastStats_ = exec.stats();
    if (ranks_out != nullptr)
        *ranks_out = std::move(ranks);
    return report;
}

SimReport
GraphRNode::runSpmv(const CooGraph &graph, const std::vector<Value> &x,
                    std::vector<Value> *y_out)
{
    GRAPHR_ASSERT(x.size() == graph.numVertices(),
                  "input vector length mismatch");
    TileExecutor exec = makeExecutor(graph);

    MacSpec spec;
    spec.name = "spmv";
    spec.sweeps = 1;
    spec.applyVariation = false; // SpMV is the exact validation path

    std::vector<Value> y;
    // Function scope: referenced by spec.sourceDivisors below.
    std::vector<EdgeId> out_deg;
    if (config_.functional) {
        // Each edge programs its weight over its source's out-degree.
        out_deg = graph.outDegrees();
        spec.sourceDivisors = out_deg;
        y.assign(graph.numVertices(), 0.0);
        exec.functionalMacSweep(spec, x, y);
    } else if (y_out != nullptr) {
        y = spmv(graph, x);
    }

    SimReport report = exec.macReport(spec);
    lastStats_ = exec.stats();
    if (y_out != nullptr)
        *y_out = std::move(y);
    return report;
}

// The add-op runs take their schedule before their plan: a first run
// then builds the relaxation's adjacency and the plan one after the
// other, so its peak memory holds only one of them.

SimReport
GraphRNode::runBfs(const CooGraph &graph, VertexId source,
                   std::vector<Value> *dist_out,
                   const RoundObserver &on_round)
{
    AddOpSpec spec = bfsSpec(graph, source);
    spec.onRound = on_round;
    TileExecutor exec = makeExecutor(graph);
    SimReport report = exec.addOpRun(graph, spec, "bfs", dist_out);
    lastStats_ = exec.stats();
    return report;
}

SimReport
GraphRNode::runSssp(const CooGraph &graph, VertexId source,
                    std::vector<Value> *dist_out,
                    const RoundObserver &on_round)
{
    AddOpSpec spec = ssspSpec(graph, source);
    spec.onRound = on_round;
    TileExecutor exec = makeExecutor(graph);
    SimReport report = exec.addOpRun(graph, spec, "sssp", dist_out);
    lastStats_ = exec.stats();
    return report;
}

SimReport
GraphRNode::runWcc(const CooGraph &graph,
                   std::vector<VertexId> *labels_out,
                   const RoundObserver &on_round)
{
    // Min-label propagation needs both edge directions: the plan is
    // the symmetrised graph's, the relaxation reads each edge both ways.
    AddOpSpec spec = wccSpec(graph);
    spec.onRound = on_round;
    TileExecutor exec = makeExecutor(SymmetrizedView(graph));

    std::vector<Value> labels;
    SimReport report =
        exec.addOpRun(graph, spec, "wcc",
                      labels_out != nullptr ? &labels : nullptr);
    lastStats_ = exec.stats();
    if (labels_out != nullptr) {
        labels_out->resize(labels.size());
        for (std::size_t v = 0; v < labels.size(); ++v)
            (*labels_out)[v] = static_cast<VertexId>(labels[v]);
    }
    return report;
}

SimReport
GraphRNode::runCf(const CooGraph &ratings, const CfParams &params)
{
    GRAPHR_ASSERT(params.featureLength > 0, "feature length must be > 0");
    TileExecutor exec = makeExecutor(ratings);
    // One MVM pass per feature; the gradient updates reuse the pass
    // results through the sALU datapath.
    MacSpec spec;
    spec.name = "cf";
    spec.sweeps = static_cast<std::uint64_t>(params.epochs);
    spec.passesPerTile = static_cast<std::uint32_t>(params.featureLength);
    SimReport report = exec.macReport(spec);
    lastStats_ = exec.stats();
    return report;
}

} // namespace graphr
