#include "traversal.hh"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/logging.hh"

namespace graphr
{

namespace
{

/**
 * Synchronous relaxation from @p source. A round relaxes the out-edges
 * of its active ids in ascending order, in place (a vertex relaxed
 * later in the round sees the labels earlier ones lowered), and the
 * vertices it improved, sorted, are the next round's ids: a round
 * costs its frontier, not a scan of every vertex.
 */
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

    std::vector<Value> &dist = result.dist;
    std::vector<bool> queued(nv, false); // in next, this round
    std::vector<VertexId> ids{source};
    std::vector<VertexId> next;

    while (!ids.empty()) {
        next.clear();
        for (const VertexId u : ids) {
            for (const Adjacency &adj : out.neighbors(u)) {
                const Value w = unit_weights ? 1.0 : adj.weight;
                GRAPHR_ASSERT(w >= 0.0, "negative edge weight");
                const Value cand = dist[u] + w;
                if (cand < dist[adj.neighbor]) {
                    dist[adj.neighbor] = cand;
                    result.parent[adj.neighbor] = u;
                    if (!queued[adj.neighbor]) {
                        queued[adj.neighbor] = true;
                        next.push_back(adj.neighbor);
                    }
                }
            }
        }
        std::sort(next.begin(), next.end());
        for (const VertexId v : next)
            queued[v] = false;
        ids.swap(next);
        ++result.iterations;
    }
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

/** Out-rows of Entry over @p graph's edges read in @p directions. */
template <typename Entry, typename MakeEntry>
CompressedRows<Entry>
outRows(const CooGraph &graph, EdgeDirections directions, MakeEntry entry)
{
    const auto source = [](const Edge &e) { return e.src; };
    if (directions == EdgeDirections::kBoth)
        return CompressedRows<Entry>(SymmetrizedView(graph), source, entry);
    return CompressedRows<Entry>(graph.numVertices(), graph.edges(), source,
                                 entry);
}

} // namespace

CompressedRows<VertexId>
relaxationRows(const CooGraph &graph, EdgeDirections directions)
{
    return outRows<VertexId>(graph, directions,
                             [](const Edge &e) { return e.dst; });
}

std::vector<EdgeId>
relaxationDegrees(const CooGraph &graph, EdgeDirections directions)
{
    std::vector<EdgeId> degrees(graph.numVertices(), 0);
    const bool both = directions == EdgeDirections::kBoth;
    for (const Edge &e : graph.edges()) {
        ++degrees[e.src];
        if (both && e.src != e.dst)
            ++degrees[e.dst];
    }
    return degrees;
}

void
RelaxationSweep::buildAdjacency(const CooGraph &graph,
                                EdgeDirections directions)
{
    if (weighted()) {
        weighted_ = outRows<Adjacency>(graph, directions, [](const Edge &e) {
            return Adjacency{e.dst, e.weight};
        });
    } else {
        neighborIds_ = relaxationRows(graph, directions);
    }
}

RelaxationSweep::RelaxationSweep(const CooGraph &graph, VertexId source,
                                 bool unit_weights)
    : mode_(unit_weights ? WeightMode::kUnit : WeightMode::kOriginal)
{
    GRAPHR_ASSERT(source < graph.numVertices(), "source out of range");
    buildAdjacency(graph, EdgeDirections::kForward);
    dist_.assign(graph.numVertices(), kInfDistance);
    improved_.assign((graph.numVertices() + 63) / 64, 0);
    dist_[source] = 0.0;
    ids_.push_back(source);
}

RelaxationSweep::RelaxationSweep(const CooGraph &graph,
                                 std::vector<Value> init_labels,
                                 const std::vector<bool> &init_active,
                                 WeightMode mode, EdgeDirections directions)
    : mode_(mode), dist_(std::move(init_labels))
{
    GRAPHR_ASSERT(dist_.size() == graph.numVertices() &&
                      init_active.size() == graph.numVertices(),
                  "initial label/active length mismatch");
    buildAdjacency(graph, directions);
    improved_.assign((graph.numVertices() + 63) / 64, 0);
    for (VertexId v = 0; v < graph.numVertices(); ++v) {
        if (init_active[v])
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
            return recordSchedule(
                RelaxationSweep(graph, source, unit),
                FrontierSchedule::capFor(graph.numEdges()));
        });
}

/** The add-op spec of a BFS or SSSP from @p source. */
AddOpSpec
singleSourceSpec(const CooGraph &graph, VertexId source, WeightMode mode,
                 std::shared_ptr<const FrontierSchedule> schedule)
{
    GRAPHR_ASSERT(source < graph.numVertices(), "source out of range");
    AddOpSpec spec;
    spec.initLabels.assign(graph.numVertices(), kInfDistance);
    spec.initActive.assign(graph.numVertices(), false);
    spec.initLabels[source] = 0.0;
    spec.initActive[source] = true;
    spec.mode = mode;
    spec.schedule = std::move(schedule);
    return spec;
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
    // Over weights that are all bit-exactly 1.0, SSSP relaxes
    // dist[u] + 1.0 over the same rows, in the same order, as BFS:
    // its rounds are BFS's.
    if (graph.unitWeights())
        return bfsSchedule(graph, source);
    return singleSourceSchedule(
        graph, source, GraphMemo::ScheduleKey::Relaxation::kSssp);
}

AddOpSpec
bfsSpec(const CooGraph &graph, VertexId source)
{
    return singleSourceSpec(graph, source, WeightMode::kUnit,
                            bfsSchedule(graph, source));
}

AddOpSpec
ssspSpec(const CooGraph &graph, VertexId source)
{
    // Unit weights: BFS's spec, whose relaxation keeps only neighbour
    // ids and gives the same labels.
    if (graph.unitWeights())
        return bfsSpec(graph, source);
    return singleSourceSpec(graph, source, WeightMode::kOriginal,
                            ssspSchedule(graph, source));
}

void
forEachRound(const CooGraph &graph, const AddOpSpec &spec,
             const RoundObserver &on_round, std::vector<Value> *labels_out)
{
    const auto show = [&spec, &on_round](std::span<const VertexId> ids) {
        if (spec.onRound)
            spec.onRound(ids);
        on_round(ids);
    };
    const bool replay = spec.schedule != nullptr && spec.schedule->recorded();
    if (replay) {
        for (int r = 0; r < spec.schedule->rounds(); ++r)
            show(spec.schedule->round(r));
        if (labels_out == nullptr)
            return;
    }
    RelaxationSweep sweep(graph, spec.initLabels, spec.initActive, spec.mode,
                          spec.directions);
    for (; !sweep.done(); sweep.step()) {
        if (!replay)
            show(sweep.activeIds());
    }
    if (labels_out != nullptr)
        *labels_out = sweep.dist();
}

} // namespace graphr
