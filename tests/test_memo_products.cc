/**
 * @file
 * Each build-once graph product against a verbatim copy of the code
 * it replaced: golden PageRank (a push over the edge list, one divide
 * per edge), the BFS/SSSP/WCC relaxations (a 16-byte id-and-weight
 * CSR for every mode) and WCC's label passes (over a materialised
 * symmetrize() copy). The products must match those bit for bit:
 * reports, golden files and stored plans depend on them.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/pagerank.hh"
#include "algorithms/traversal.hh"
#include "algorithms/wcc.hh"
#include "graph/generator.hh"
#include "graph/graph_memo.hh"

namespace graphr
{
namespace
{

// ------------------------------------------- the replaced code

/** One synchronous PageRank iteration, as the push form ran it. */
std::vector<Value>
legacyPagerankIteration(const CooGraph &graph,
                        const std::vector<Value> &ranks,
                        const std::vector<EdgeId> &out_degrees,
                        double damping)
{
    const VertexId nv = graph.numVertices();
    const double base = (1.0 - damping) / static_cast<double>(nv);
    std::vector<Value> next(nv, base);

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

PageRankResult
legacyPagerank(const CooGraph &graph, const PageRankParams &params)
{
    const VertexId nv = graph.numVertices();
    const std::vector<EdgeId> out_degrees = graph.outDegrees();

    PageRankResult result;
    result.ranks.assign(nv, 1.0 / static_cast<double>(nv));

    for (int iter = 0; iter < params.maxIterations; ++iter) {
        std::vector<Value> next = legacyPagerankIteration(
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

/** The out-CSR every relaxation mode built: id and weight per edge. */
struct LegacyCsr
{
    std::vector<EdgeId> offsets;
    std::vector<Adjacency> adj;

    explicit LegacyCsr(const CooGraph &coo)
    {
        offsets.assign(static_cast<std::size_t>(coo.numVertices()) + 1, 0);
        for (const Edge &e : coo.edges())
            ++offsets[e.src + 1];
        for (std::size_t v = 0; v < coo.numVertices(); ++v)
            offsets[v + 1] += offsets[v];

        adj.resize(coo.edges().size());
        std::vector<EdgeId> cursor(offsets.begin(), offsets.end() - 1);
        for (const Edge &e : coo.edges())
            adj[cursor[e.src]++] = Adjacency{e.dst, e.weight};
    }
};

/** The relaxation as RelaxationSweep ran it over LegacyCsr. */
class LegacySweep
{
  public:
    LegacySweep(const CooGraph &graph, std::vector<Value> init_labels,
                std::vector<bool> init_active, WeightMode mode)
        : outAdj_(graph), mode_(mode), dist_(std::move(init_labels)),
          active_(std::move(init_active))
    {
        improved_.assign((graph.numVertices() + 63) / 64, 0);
        for (VertexId v = 0; v < graph.numVertices(); ++v) {
            if (active_[v])
                ids_.push_back(v);
        }
    }

    const std::vector<Value> &dist() const { return dist_; }
    const std::vector<VertexId> &activeIds() const { return ids_; }
    bool done() const { return ids_.empty(); }

    void
    step()
    {
        const Value unit = mode_ == WeightMode::kUnit ? 1.0 : 0.0;
        nextIds_.clear();
        for (const VertexId u : ids_) {
            for (EdgeId i = outAdj_.offsets[u]; i < outAdj_.offsets[u + 1];
                 ++i) {
                const Adjacency &adj = outAdj_.adj[i];
                const Value w =
                    mode_ == WeightMode::kOriginal ? adj.weight : unit;
                const Value cand = dist_[u] + w;
                if (cand < dist_[adj.neighbor]) {
                    dist_[adj.neighbor] = cand;
                    std::uint64_t &word = improved_[adj.neighbor / 64];
                    const std::uint64_t bit = std::uint64_t{1}
                                              << (adj.neighbor % 64);
                    if ((word & bit) == 0) {
                        word |= bit;
                        nextIds_.push_back(adj.neighbor);
                    }
                }
            }
        }
        for (const VertexId u : ids_)
            active_[u] = false;

        if (nextIds_.size() >= improved_.size()) {
            nextIds_.clear();
            for (std::size_t w = 0; w < improved_.size(); ++w) {
                for (std::uint64_t bits = improved_[w]; bits != 0;
                     bits &= bits - 1) {
                    const auto bit =
                        static_cast<std::size_t>(std::countr_zero(bits));
                    nextIds_.push_back(
                        static_cast<VertexId>(w * 64 + bit));
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
    }

  private:
    LegacyCsr outAdj_;
    WeightMode mode_;
    std::vector<Value> dist_;
    std::vector<bool> active_;
    std::vector<std::uint64_t> improved_;
    std::vector<VertexId> ids_;
    std::vector<VertexId> nextIds_;
};

/** WCC's label passes, as they ran over symmetrize(graph). */
int
legacyPropagateLabels(const CooGraph &sym, std::vector<VertexId> &labels)
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

// ------------------------------------------------------ inputs

/**
 * A multigraph with what the generators avoid: parallel edges of
 * different weights, repeated edges, self-loops (one of weight 0),
 * zero-weight edges, dangling vertices (no out-edges) and isolated
 * ones, with edges in no sorted order.
 */
CooGraph
handMultigraph()
{
    CooGraph g(14, {});
    const Edge edges[] = {
        {5, 4, 2.5}, {0, 1, 2.0}, {0, 1, 0.5}, {1, 1, 3.0}, {1, 2, 0.0},
        {2, 0, 1.0}, {2, 3, 4.0}, {2, 3, 4.0}, {3, 3, 0.0}, {4, 5, 1.5},
        {5, 6, 0.0}, {6, 7, 1.0}, {7, 10, 2.0}, {9, 8, 0.0}, {8, 9, 1.0},
        {3, 10, 1.0}, {0, 9, 7.0}, {12, 12, 1.0}, {6, 11, 0.0},
        {6, 11, 9.0}, {2, 12, 0.0},
    };
    for (const Edge &e : edges)
        g.addEdge(e.src, e.dst, e.weight);
    return g;
}

/**
 * A seeded random multigraph: sources only in the lower three
 * quarters (the rest dangle), self-loops, parallel edges, and weights
 * drawn from {0, 0.5, 1, 2.5, 7}.
 */
CooGraph
randomMultigraph(std::uint64_t seed)
{
    const VertexId nv = 240;
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<VertexId> src(0, nv * 3 / 4 - 1);
    std::uniform_int_distribution<VertexId> dst(0, nv - 1);
    const Value weights[] = {0.0, 0.5, 1.0, 2.5, 7.0};
    std::uniform_int_distribution<int> weight(0, 4);
    CooGraph g(nv, {});
    for (int i = 0; i < 1800; ++i) {
        const VertexId s = src(rng);
        // One edge in twelve is a self-loop, one in twelve repeats
        // the source's previous edge with another weight.
        const VertexId d = i % 12 == 0 ? s : dst(rng);
        g.addEdge(s, d, weights[weight(rng)]);
        if (i % 12 == 5)
            g.addEdge(s, d, weights[weight(rng)]);
    }
    return g;
}

std::vector<std::pair<std::string, CooGraph>>
families()
{
    std::vector<std::pair<std::string, CooGraph>> out;
    out.emplace_back("rmat", makeRmat({.numVertices = 600,
                                       .numEdges = 4800,
                                       .maxWeight = 9.0,
                                       .seed = 31}));
    out.emplace_back("er", makeErdosRenyi(500, 3000, 32, 5.0));
    out.emplace_back("grid", makeGrid2d(24, 17, 33));
    out.emplace_back("chain", makeChain(90));
    out.emplace_back("star", makeStar(70));
    out.emplace_back("complete", makeComplete(25));
    out.emplace_back("bipartite", makeBipartiteRatings(60, 40, 700, 34));
    out.emplace_back("multigraph", handMultigraph());
    out.emplace_back("random-multigraph", randomMultigraph(35));
    return out;
}

/** Bit-for-bit equality of two label vectors. */
void
expectSameBits(const std::vector<Value> &got, const std::vector<Value> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t v = 0; v < got.size(); ++v) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[v]),
                  std::bit_cast<std::uint64_t>(want[v]))
            << "vertex " << v << ": " << got[v] << " vs " << want[v];
    }
}

// ---------------------------------------------------- PageRank

TEST(MemoProductsTest, PageRankIsThePushFormBitForBit)
{
    for (const auto &[family, g] : families()) {
        for (const double damping : {0.85, 0.5}) {
            for (const double tolerance : {0.0, 1e-6, 1e-12}) {
                SCOPED_TRACE(family + ", damping " +
                             std::to_string(damping) + ", tolerance " +
                             std::to_string(tolerance));
                const PageRankParams params{.damping = damping,
                                            .maxIterations = 60,
                                            .tolerance = tolerance};
                const PageRankResult want = legacyPagerank(g, params);
                const PageRankResult got = pagerank(g, params);
                EXPECT_EQ(got.iterations, want.iterations);
                EXPECT_EQ(got.converged, want.converged);
                expectSameBits(got.ranks, want.ranks);
                EXPECT_EQ(goldenPageRankIterations(g, params),
                          want.iterations);
            }
        }
    }
}

// ------------------------------------------ relaxation schedules

/** Run @p legacy and @p sweep side by side: the same ids every
 *  round, the same round count and the same final labels. */
void
expectSameRelaxation(LegacySweep legacy, RelaxationSweep sweep,
                     const FrontierSchedule &schedule)
{
    int round = 0;
    for (; !legacy.done(); legacy.step(), sweep.step(), ++round) {
        ASSERT_FALSE(sweep.done()) << "round " << round;
        const std::span<const VertexId> ids = sweep.activeIds();
        EXPECT_EQ(std::vector<VertexId>(ids.begin(), ids.end()),
                  legacy.activeIds())
            << "round " << round;
        if (schedule.recorded() && round < schedule.rounds()) {
            const std::span<const VertexId> kept = schedule.round(round);
            EXPECT_EQ(std::vector<VertexId>(kept.begin(), kept.end()),
                      legacy.activeIds())
                << "scheduled round " << round;
        }
    }
    EXPECT_TRUE(sweep.done());
    EXPECT_EQ(schedule.rounds(), round);
    expectSameBits(sweep.dist(), legacy.dist());
}

TEST(MemoProductsTest, SingleSourceSchedulesAreTheCsrRelaxation)
{
    for (const auto &[family, g] : families()) {
        const VertexId nv = g.numVertices();
        for (const VertexId source : {VertexId{0}, nv / 3, nv - 1}) {
            SCOPED_TRACE(family + ", source " + std::to_string(source));
            std::vector<Value> dist(nv, kInfDistance);
            std::vector<bool> active(nv, false);
            dist[source] = 0.0;
            active[source] = true;
            for (const WeightMode mode :
                 {WeightMode::kUnit, WeightMode::kOriginal}) {
                const bool unit = mode == WeightMode::kUnit;
                SCOPED_TRACE(unit ? "bfs" : "sssp");
                const std::shared_ptr<const FrontierSchedule> schedule =
                    unit ? bfsSchedule(g, source) : ssspSchedule(g, source);
                expectSameRelaxation(LegacySweep(g, dist, active, mode),
                                     RelaxationSweep(g, source, unit),
                                     *schedule);
                expectSameRelaxation(
                    LegacySweep(g, dist, active, mode),
                    RelaxationSweep(g, dist, active, mode),
                    recordSchedule(RelaxationSweep(g, source, unit),
                                   SIZE_MAX));
            }
        }
    }
}

TEST(MemoProductsTest, WccScheduleIsTheCsrRelaxationOfTheSymmetrisedCopy)
{
    for (const auto &[family, g] : families()) {
        SCOPED_TRACE(family);
        const CooGraph sym = symmetrize(g);
        std::vector<Value> labels(sym.numVertices());
        for (VertexId v = 0; v < sym.numVertices(); ++v)
            labels[v] = static_cast<Value>(v);
        const std::vector<bool> active(sym.numVertices(), true);
        expectSameRelaxation(
            LegacySweep(sym, labels, active, WeightMode::kZero),
            makeWccSweep(sym), *wccSchedule(g));
    }
}

// -------------------------------------------------- WCC passes

TEST(MemoProductsTest, WccPassesAreThoseOverTheSymmetrisedList)
{
    std::vector<std::pair<std::string, CooGraph>> graphs = families();
    // Edge orders whose pass counts differ: a chain listed backwards
    // takes a pass per edge, and a shuffled one lies in between.
    std::vector<Edge> backwards;
    for (VertexId v = 60; v > 0; --v)
        backwards.push_back(Edge{v, static_cast<VertexId>(v - 1), 1.0});
    graphs.emplace_back("backward-chain", CooGraph(61, backwards));
    std::vector<Edge> shuffled = backwards;
    std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937_64(36));
    graphs.emplace_back("shuffled-chain", CooGraph(61, shuffled));

    for (const auto &[family, g] : graphs) {
        SCOPED_TRACE(family);
        std::vector<VertexId> want;
        const int passes = legacyPropagateLabels(symmetrize(g), want);
        const WccResult got = wcc(g);
        EXPECT_EQ(got.iterations, passes);
        EXPECT_EQ(got.labels, want);
        EXPECT_EQ(got.numComponents, wccUnionFind(g).numComponents);
        EXPECT_EQ(goldenWccRounds(g), passes);
    }
}

} // namespace
} // namespace graphr
