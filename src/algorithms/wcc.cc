#include "wcc.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"
#include "graph/graph_memo.hh"
#include "perf/counters.hh"

namespace graphr
{

CooGraph
symmetrize(const CooGraph &graph)
{
    static perf::Counter &symmetrizations =
        perf::Registry::instance().counter("graph.symmetrizations");
    symmetrizations.add();
    std::vector<Edge> edges;
    edges.reserve(graph.numEdges() * 2);
    for (const Edge &e : graph.edges()) {
        edges.push_back(e);
        if (e.src != e.dst)
            edges.push_back(Edge{e.dst, e.src, e.weight});
    }
    return CooGraph(graph.numVertices(), std::move(edges));
}

namespace
{

std::uint64_t
countDistinct(const std::vector<VertexId> &labels)
{
    // Labels are vertex ids, so one flag per vertex counts them.
    std::vector<bool> seen(labels.size(), false);
    std::uint64_t distinct = 0;
    for (const VertexId label : labels) {
        if (!seen[label]) {
            seen[label] = true;
            ++distinct;
        }
    }
    return distinct;
}

/** Lower @p to's label to @p from's if smaller; true if it changed. */
bool
relabel(std::vector<VertexId> &labels, VertexId from, VertexId to)
{
    if (labels[from] < labels[to]) {
        labels[to] = labels[from];
        return true;
    }
    return false;
}

/**
 * In-place min-label passes over @p graph, from label = id until a
 * pass changes nothing; returns the pass count. A pass applies each
 * edge and then its reverse, skipping the reverse of a self-loop:
 * the update sequence of a pass over symmetrize(graph)'s edges,
 * without building that copy. (Either order of the pair leaves both
 * ends at the smaller label, and a self-loop compares a label with
 * itself, so neither choice can change a label or a pass count; the
 * order kept is symmetrize()'s.)
 */
int
propagateLabels(const CooGraph &graph, std::vector<VertexId> &labels)
{
    labels.resize(graph.numVertices());
    std::iota(labels.begin(), labels.end(), 0);
    int passes = 0;
    bool changed = true;
    while (changed) {
        changed = false;
        for (const Edge &e : graph.edges()) {
            changed |= relabel(labels, e.src, e.dst);
            if (e.src != e.dst)
                changed |= relabel(labels, e.dst, e.src);
        }
        ++passes;
    }
    return passes;
}

/** WCC's start: every vertex active with its own id as label, zero
 *  weights, each edge relaxed both ways. */
AddOpSpec
wccStart(const CooGraph &graph)
{
    AddOpSpec spec;
    spec.initLabels.resize(graph.numVertices());
    std::iota(spec.initLabels.begin(), spec.initLabels.end(), 0.0);
    spec.initActive.assign(graph.numVertices(), true);
    spec.mode = WeightMode::kZero;
    spec.directions = EdgeDirections::kBoth;
    return spec;
}

} // namespace

WccResult
wcc(const CooGraph &graph)
{
    GRAPHR_ASSERT(graph.numVertices() > 0, "empty graph");
    WccResult result;
    result.iterations = propagateLabels(graph, result.labels);
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
            return propagateLabels(graph, labels);
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
makeWccSweep(const CooGraph &graph)
{
    AddOpSpec start = wccStart(graph);
    return RelaxationSweep(graph, std::move(start.initLabels),
                           start.initActive, start.mode, start.directions);
}

std::shared_ptr<const FrontierSchedule>
wccSchedule(const CooGraph &graph)
{
    return graph.memo()->frontierSchedule(
        {GraphMemo::ScheduleKey::Relaxation::kWcc, 0}, [&graph] {
            return recordSchedule(
                makeWccSweep(graph),
                FrontierSchedule::capFor(SymmetrizedView(graph).numEdges()));
        });
}

AddOpSpec
wccSpec(const CooGraph &graph)
{
    AddOpSpec spec = wccStart(graph);
    spec.schedule = wccSchedule(graph);
    return spec;
}

} // namespace graphr
