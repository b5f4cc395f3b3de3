#include "pagerank.hh"

#include <bit>
#include <cmath>

#include "common/logging.hh"
#include "graph/graph_memo.hh"

namespace graphr
{

namespace
{

/** One synchronous PageRank iteration. */
std::vector<Value>
pagerankIteration(const CooGraph &graph, const std::vector<Value> &ranks,
                  const std::vector<EdgeId> &out_degrees, double damping)
{
    const VertexId nv = graph.numVertices();
    const double base = (1.0 - damping) / static_cast<double>(nv);
    std::vector<Value> next(nv, base);

    // Dangling vertices donate their mass uniformly so the vector
    // stays stochastic (standard PageRank fix; the paper's Fig. 13
    // elides it).
    double dangling = 0.0;
    for (VertexId v = 0; v < nv; ++v) {
        if (out_degrees[v] == 0)
            dangling += ranks[v];
    }
    const double dangling_share =
        damping * dangling / static_cast<double>(nv);
    for (VertexId v = 0; v < nv; ++v)
        next[v] += dangling_share;

    for (const Edge &e : graph.edges()) {
        next[e.dst] += damping * ranks[e.src] /
                       static_cast<double>(out_degrees[e.src]);
    }
    return next;
}

} // namespace

PageRankResult
pagerank(const CooGraph &graph, const PageRankParams &params)
{
    GRAPHR_ASSERT(graph.numVertices() > 0, "empty graph");
    const VertexId nv = graph.numVertices();
    const std::vector<EdgeId> out_degrees = graph.outDegrees();

    PageRankResult result;
    result.ranks.assign(nv, 1.0 / static_cast<double>(nv));

    for (int iter = 0; iter < params.maxIterations; ++iter) {
        std::vector<Value> next = pagerankIteration(
            graph, result.ranks, out_degrees, params.damping);
        double delta = 0.0;
        for (VertexId v = 0; v < nv; ++v)
            delta += std::abs(next[v] - result.ranks[v]);
        result.ranks = std::move(next);
        result.iterations = iter + 1;
        if (params.tolerance > 0.0 && delta < params.tolerance) {
            result.converged = true;
            break;
        }
    }
    return result;
}

int
goldenPageRankIterations(const CooGraph &graph,
                         const PageRankParams &params)
{
    const GraphMemo::GoldenKey key{
        GraphMemo::GoldenKey::Product::kPageRankIterations,
        {std::bit_cast<std::uint64_t>(params.damping),
         static_cast<std::uint64_t>(params.maxIterations),
         std::bit_cast<std::uint64_t>(params.tolerance)}};
    return graph.memo()->goldenCount(key, [&graph, &params] {
        return pagerank(graph, params).iterations;
    });
}

} // namespace graphr
