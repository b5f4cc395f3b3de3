#include "pagerank.hh"

#include <bit>
#include <cmath>

#include "common/logging.hh"
#include "graph/csr.hh"
#include "graph/graph_memo.hh"

namespace graphr
{

PageRankResult
pagerank(const CooGraph &graph, const PageRankParams &params)
{
    GRAPHR_ASSERT(graph.numVertices() > 0, "empty graph");
    const VertexId nv = graph.numVertices();
    const std::vector<EdgeId> out_degrees = graph.outDegrees();
    // Each vertex's in-edge sources in edge-list order. A vertex sums
    // its in-edges' contributions in that order, the order in which a
    // push over the edge list adds them, so every rank is the push
    // form's bit for bit.
    const CompressedRows<VertexId> in_sources(
        nv, graph.edges(), [](const Edge &e) { return e.dst; },
        [](const Edge &e) { return e.src; });
    const double base = (1.0 - params.damping) / static_cast<double>(nv);

    PageRankResult result;
    result.ranks.assign(nv, 1.0 / static_cast<double>(nv));
    std::vector<Value> contribution(nv, 0.0);
    std::vector<Value> next(nv);

    for (int iter = 0; iter < params.maxIterations; ++iter) {
        // Dangling vertices donate their mass uniformly so the vector
        // stays stochastic (standard PageRank fix; the paper's Fig. 13
        // elides it). Every other vertex sends damping * rank /
        // out-degree along each out-edge.
        double dangling = 0.0;
        for (VertexId v = 0; v < nv; ++v) {
            if (out_degrees[v] == 0) {
                dangling += result.ranks[v];
            } else {
                contribution[v] = params.damping * result.ranks[v] /
                                  static_cast<double>(out_degrees[v]);
            }
        }
        const double start =
            base + params.damping * dangling / static_cast<double>(nv);

        double delta = 0.0;
        for (VertexId v = 0; v < nv; ++v) {
            Value rank = start;
            for (const VertexId u : in_sources.row(v))
                rank += contribution[u];
            next[v] = rank;
            delta += std::abs(rank - result.ranks[v]);
        }
        result.ranks.swap(next);
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
