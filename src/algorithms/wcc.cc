#include "wcc.hh"

#include <numeric>
#include <unordered_set>

#include "common/logging.hh"
#include "graph/graph_memo.hh"

namespace graphr
{

CooGraph
symmetrize(const CooGraph &graph)
{
    std::vector<Edge> edges;
    edges.reserve(graph.numEdges() * 2);
    for (const Edge &e : graph.edges()) {
        edges.push_back(e);
        if (e.src != e.dst)
            edges.push_back(Edge{e.dst, e.src, e.weight});
    }
    return CooGraph(graph.numVertices(), std::move(edges));
}

std::shared_ptr<const CooGraph>
symmetrized(const CooGraph &graph)
{
    return graph.memo()->symmetrized(
        [&graph] { return symmetrize(graph); });
}

namespace
{

std::uint64_t
countDistinct(const std::vector<VertexId> &labels)
{
    std::unordered_set<VertexId> distinct(labels.begin(), labels.end());
    return distinct.size();
}

/**
 * In-place min-label passes over @p sym's edges, in edge order, from
 * label = id until a pass changes nothing; returns the pass count.
 */
int
propagateLabels(const CooGraph &sym, std::vector<VertexId> &labels)
{
    labels.resize(sym.numVertices());
    std::iota(labels.begin(), labels.end(), 0);
    int passes = 0;
    bool changed = true;
    while (changed) {
        changed = false;
        for (const Edge &e : sym.edges()) {
            if (labels[e.src] < labels[e.dst]) {
                labels[e.dst] = labels[e.src];
                changed = true;
            }
        }
        ++passes;
    }
    return passes;
}

} // namespace

WccResult
wcc(const CooGraph &graph)
{
    GRAPHR_ASSERT(graph.numVertices() > 0, "empty graph");
    WccResult result;
    result.iterations = propagateLabels(symmetrize(graph), result.labels);
    result.numComponents = countDistinct(result.labels);
    return result;
}

int
goldenWccRounds(const CooGraph &graph)
{
    return graph.memo()->goldenCount(
        {GraphMemo::GoldenKey::Product::kWccRounds, {}}, [&graph] {
            GRAPHR_ASSERT(graph.numVertices() > 0, "empty graph");
            std::vector<VertexId> labels;
            return propagateLabels(*symmetrized(graph), labels);
        });
}

WccResult
wccUnionFind(const CooGraph &graph)
{
    const VertexId nv = graph.numVertices();
    std::vector<VertexId> parent(nv);
    std::iota(parent.begin(), parent.end(), 0);

    // Path-halving find.
    auto find = [&parent](VertexId v) {
        while (parent[v] != v) {
            parent[v] = parent[parent[v]];
            v = parent[v];
        }
        return v;
    };
    for (const Edge &e : graph.edges()) {
        const VertexId a = find(e.src);
        const VertexId b = find(e.dst);
        if (a != b)
            parent[std::max(a, b)] = std::min(a, b);
    }

    WccResult result;
    result.labels.resize(nv);
    for (VertexId v = 0; v < nv; ++v) {
        // Canonical label: the minimum vertex id in the component.
        // After min-union, the root is already the minimum.
        result.labels[v] = find(v);
    }
    result.numComponents = countDistinct(result.labels);
    result.iterations = 1;
    return result;
}

RelaxationSweep
makeWccSweep(const CooGraph &sym_graph)
{
    std::vector<Value> labels(sym_graph.numVertices());
    for (VertexId v = 0; v < sym_graph.numVertices(); ++v)
        labels[v] = static_cast<Value>(v);
    std::vector<bool> active(sym_graph.numVertices(), true);
    return RelaxationSweep(sym_graph, std::move(labels),
                           std::move(active), WeightMode::kZero);
}

std::shared_ptr<const FrontierSchedule>
wccSchedule(const CooGraph &graph)
{
    const std::shared_ptr<const CooGraph> sym = symmetrized(graph);
    return sym->memo()->frontierSchedule(
        {GraphMemo::ScheduleKey::Relaxation::kWcc, 0},
        [&sym] {
            return recordSchedule(makeWccSweep(*sym),
                                  FrontierSchedule::capFor(*sym));
        });
}

} // namespace graphr
