#include "traversal.hh"

#include "common/logging.hh"
#include "graph/graph_memo.hh"

namespace graphr
{

namespace
{

TraversalResult
relax(const CooGraph &graph, VertexId source, bool unit_weights)
{
    GRAPHR_ASSERT(source < graph.numVertices(), "source ", source,
                  " out of range");
    const VertexId nv = graph.numVertices();

    TraversalResult result;
    result.dist.assign(nv, kInfDistance);
    result.parent.assign(nv, kInvalidVertex);
    result.dist[source] = 0.0;
    result.parent[source] = source;

    CsrGraph out(graph, CsrGraph::Direction::kOut);

    std::vector<Value> dist(nv, kInfDistance);
    dist[source] = 0.0;
    std::vector<bool> active(nv, false);
    active[source] = true;
    std::uint64_t active_count = 1;

    while (active_count > 0) {
        std::vector<bool> next_active(nv, false);
        std::uint64_t next_count = 0;
        for (VertexId u = 0; u < nv; ++u) {
            if (!active[u])
                continue;
            for (const Adjacency &adj : out.neighbors(u)) {
                const Value w = unit_weights ? 1.0 : adj.weight;
                GRAPHR_ASSERT(w >= 0.0, "negative edge weight");
                const Value cand = dist[u] + w;
                if (cand < dist[adj.neighbor]) {
                    dist[adj.neighbor] = cand;
                    result.parent[adj.neighbor] = u;
                    if (!next_active[adj.neighbor]) {
                        next_active[adj.neighbor] = true;
                        ++next_count;
                    }
                }
            }
        }
        active = std::move(next_active);
        active_count = next_count;
        ++result.iterations;
    }
    result.dist = std::move(dist);
    return result;
}

} // namespace

TraversalResult
sssp(const CooGraph &graph, VertexId source)
{
    return relax(graph, source, /*unit_weights=*/false);
}

TraversalResult
bfs(const CooGraph &graph, VertexId source)
{
    return relax(graph, source, /*unit_weights=*/true);
}

int
goldenBfsRounds(const CooGraph &graph, VertexId source)
{
    return graph.memo()->goldenCount(
        {GraphMemo::GoldenKey::Product::kBfsRounds, {source}},
        [&graph, source] { return bfs(graph, source).iterations; });
}

int
goldenSsspRounds(const CooGraph &graph, VertexId source)
{
    return graph.memo()->goldenCount(
        {GraphMemo::GoldenKey::Product::kSsspRounds, {source}},
        [&graph, source] { return sssp(graph, source).iterations; });
}

RelaxationSweep::RelaxationSweep(const CooGraph &graph, VertexId source,
                                 bool unit_weights)
    : graph_(graph), outAdj_(graph, CsrGraph::Direction::kOut),
      mode_(unit_weights ? WeightMode::kUnit : WeightMode::kOriginal)
{
    GRAPHR_ASSERT(source < graph.numVertices(), "source out of range");
    dist_.assign(graph.numVertices(), kInfDistance);
    active_.assign(graph.numVertices(), false);
    dist_[source] = 0.0;
    active_[source] = true;
    activeCount_ = 1;
}

RelaxationSweep::RelaxationSweep(const CooGraph &graph,
                                 std::vector<Value> init_labels,
                                 std::vector<bool> init_active,
                                 WeightMode mode)
    : graph_(graph), outAdj_(graph, CsrGraph::Direction::kOut),
      mode_(mode), dist_(std::move(init_labels)),
      active_(std::move(init_active))
{
    GRAPHR_ASSERT(dist_.size() == graph.numVertices() &&
                      active_.size() == graph.numVertices(),
                  "initial label/active length mismatch");
    activeCount_ = 0;
    for (const bool a : active_)
        activeCount_ += a ? 1 : 0;
}

std::uint64_t
RelaxationSweep::step()
{
    const VertexId nv = graph_.numVertices();
    std::vector<bool> next_active(nv, false);
    std::uint64_t updated = 0;
    for (VertexId u = 0; u < nv; ++u) {
        if (!active_[u])
            continue;
        for (const Adjacency &adj : outAdj_.neighbors(u)) {
            const Value w = mode_ == WeightMode::kOriginal ? adj.weight
                            : mode_ == WeightMode::kUnit   ? 1.0
                                                           : 0.0;
            const Value cand = dist_[u] + w;
            if (cand < dist_[adj.neighbor]) {
                dist_[adj.neighbor] = cand;
                if (!next_active[adj.neighbor]) {
                    next_active[adj.neighbor] = true;
                    ++updated;
                }
            }
        }
    }
    active_ = std::move(next_active);
    activeCount_ = updated;
    return updated;
}

} // namespace graphr
