#include "traversal.hh"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/logging.hh"

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

namespace
{

VertexId
neighborOf(VertexId neighbor)
{
    return neighbor;
}

VertexId
neighborOf(const Adjacency &adj)
{
    return adj.neighbor;
}

} // namespace

void
RelaxationSweep::buildAdjacency(const CooGraph &graph)
{
    const auto source = [](const Edge &e) { return e.src; };
    if (weighted()) {
        weighted_ = CompressedRows<Adjacency>(
            graph.numVertices(), graph.edges(), source,
            [](const Edge &e) { return Adjacency{e.dst, e.weight}; });
    } else {
        neighborIds_ = CompressedRows<VertexId>(
            graph.numVertices(), graph.edges(), source,
            [](const Edge &e) { return e.dst; });
    }
}

RelaxationSweep::RelaxationSweep(const CooGraph &graph, VertexId source,
                                 bool unit_weights)
    : mode_(unit_weights ? WeightMode::kUnit : WeightMode::kOriginal)
{
    GRAPHR_ASSERT(source < graph.numVertices(), "source out of range");
    buildAdjacency(graph);
    dist_.assign(graph.numVertices(), kInfDistance);
    active_.assign(graph.numVertices(), false);
    improved_.assign((graph.numVertices() + 63) / 64, 0);
    dist_[source] = 0.0;
    active_[source] = true;
    ids_.push_back(source);
}

RelaxationSweep::RelaxationSweep(const CooGraph &graph,
                                 std::vector<Value> init_labels,
                                 std::vector<bool> init_active,
                                 WeightMode mode)
    : mode_(mode), dist_(std::move(init_labels)),
      active_(std::move(init_active))
{
    GRAPHR_ASSERT(dist_.size() == graph.numVertices() &&
                      active_.size() == graph.numVertices(),
                  "initial label/active length mismatch");
    buildAdjacency(graph);
    improved_.assign((graph.numVertices() + 63) / 64, 0);
    for (VertexId v = 0; v < graph.numVertices(); ++v) {
        if (active_[v])
            ids_.push_back(v);
    }
}

template <typename Entry, typename Weight>
void
RelaxationSweep::relaxFrontier(const CompressedRows<Entry> &rows,
                               Weight weight)
{
    for (const VertexId u : ids_) {
        for (const Entry &entry : rows.row(u)) {
            const VertexId v = neighborOf(entry);
            const Value cand = dist_[u] + weight(entry);
            if (cand < dist_[v]) {
                dist_[v] = cand;
                std::uint64_t &word = improved_[v / 64];
                const std::uint64_t bit = std::uint64_t{1} << (v % 64);
                if ((word & bit) == 0) {
                    word |= bit;
                    nextIds_.push_back(v);
                }
            }
        }
    }
}

std::uint64_t
RelaxationSweep::step()
{
    nextIds_.clear();
    if (weighted()) {
        relaxFrontier(weighted_,
                      [](const Adjacency &adj) { return adj.weight; });
    } else {
        const Value w = mode_ == WeightMode::kUnit ? 1.0 : 0.0;
        relaxFrontier(neighborIds_, [w](VertexId) { return w; });
    }
    for (const VertexId u : ids_)
        active_[u] = false;

    // The next round's ids, ascending. A round that improved at least
    // one vertex per 64 reads them off the improved bits in one pass
    // over the words, which costs less than sorting them; a sparser
    // round sorts. Either way the bits end clear.
    if (nextIds_.size() >= improved_.size()) {
        nextIds_.clear();
        for (std::size_t w = 0; w < improved_.size(); ++w) {
            for (std::uint64_t bits = improved_[w]; bits != 0;
                 bits &= bits - 1) {
                const auto bit =
                    static_cast<std::size_t>(std::countr_zero(bits));
                nextIds_.push_back(static_cast<VertexId>(w * 64 + bit));
            }
            improved_[w] = 0;
        }
    } else {
        std::sort(nextIds_.begin(), nextIds_.end());
        for (const VertexId v : nextIds_)
            improved_[v / 64] = 0;
    }
    for (const VertexId v : nextIds_)
        active_[v] = true;
    ids_.swap(nextIds_);
    return ids_.size();
}

FrontierSchedule
recordSchedule(RelaxationSweep sweep, std::size_t cap_bytes)
{
    FrontierSchedule schedule(cap_bytes);
    while (!sweep.done()) {
        schedule.addRound(sweep.activeIds());
        sweep.step();
    }
    schedule.finish();
    return schedule;
}

namespace
{

std::shared_ptr<const FrontierSchedule>
singleSourceSchedule(const CooGraph &graph, VertexId source,
                     GraphMemo::ScheduleKey::Relaxation relaxation)
{
    return graph.memo()->frontierSchedule(
        {relaxation, source}, [&graph, source, relaxation] {
            const bool unit =
                relaxation == GraphMemo::ScheduleKey::Relaxation::kBfs;
            return recordSchedule(RelaxationSweep(graph, source, unit),
                                  FrontierSchedule::capFor(graph));
        });
}

} // namespace

std::shared_ptr<const FrontierSchedule>
bfsSchedule(const CooGraph &graph, VertexId source)
{
    return singleSourceSchedule(graph, source,
                                GraphMemo::ScheduleKey::Relaxation::kBfs);
}

std::shared_ptr<const FrontierSchedule>
ssspSchedule(const CooGraph &graph, VertexId source)
{
    return singleSourceSchedule(
        graph, source, GraphMemo::ScheduleKey::Relaxation::kSssp);
}

} // namespace graphr
