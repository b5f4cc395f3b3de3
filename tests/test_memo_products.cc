/**
 * @file
 * Each build-once graph product against a verbatim copy of the code
 * it replaced: golden PageRank (a push over the edge list, one divide
 * per edge), the BFS/SSSP/WCC relaxations (a 16-byte id-and-weight
 * CSR for every mode), WCC's label passes (over a materialised
 * symmetrize() copy) and golden bfs()/sssp() (a scan of every vertex
 * per round). The symmetrised graph's view (SymmetrizedView) is
 * checked against the copy it replaced: its edge count, fingerprint,
 * plan, WCC rows, WCC schedule and WCC runs. The products must match
 * those bit for bit: reports, golden files and stored plans depend on
 * them.
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
#include "graph/csr.hh"
#include "graph/generator.hh"
#include "graph/graph_memo.hh"
#include "graphr/engine/plan_cache.hh"
#include "graphr/engine/tile_executor.hh"
#include "graphr/multi_node.hh"
#include "graphr/node.hh"
#include "sim_report_eq.hh"
#include "tests/plan_eq.hh"

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

/** bfs() and sssp() as they ran: every round tested every vertex
 *  for activity and allocated a fresh next-round flag vector. */
TraversalResult
legacyRelax(const CooGraph &graph, VertexId source, bool unit_weights)
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

/**
 * The families; a graph of 1100 self-loops followed by 100 other
 * edges, whose view holds 1300 edges yet whose last origin is 2399,
 * one bit wider than 1299; and last a chain listed backwards: its WCC
 * passes and its directed and undirected rounds differ most.
 */
std::vector<std::pair<std::string, CooGraph>>
viewGraphs()
{
    std::vector<std::pair<std::string, CooGraph>> graphs = families();
    CooGraph loops(64, {});
    for (int e = 0; e < 1100; ++e) {
        const auto v = static_cast<VertexId>(e % 64);
        loops.addEdge(v, v, e);
    }
    for (int e = 0; e < 100; ++e) {
        loops.addEdge(static_cast<VertexId>(e % 50),
                      static_cast<VertexId>(63 - e % 13), 1100 + e);
    }
    graphs.emplace_back("mostly-self-loops", std::move(loops));

    std::vector<Edge> backwards;
    for (VertexId v = 60; v > 0; --v)
        backwards.push_back(Edge{v, static_cast<VertexId>(v - 1), 1.0});
    graphs.emplace_back("backward-chain", CooGraph(61, backwards));
    return graphs;
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
            makeWccSweep(g), *wccSchedule(g));
    }
}

// -------------------------------------------------- WCC passes

TEST(MemoProductsTest, WccPassesAreThoseOverTheSymmetrisedList)
{
    // Edge orders whose pass counts differ: the backward chain takes
    // a pass per edge, and a shuffled one lies in between.
    std::vector<std::pair<std::string, CooGraph>> graphs = viewGraphs();
    const std::span<const Edge> backwards = graphs.back().second.edges();
    std::vector<Edge> shuffled(backwards.begin(), backwards.end());
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

// ------------------------------------------ golden BFS and SSSP

TEST(MemoProductsTest, GoldenTraversalsAreTheVertexScanBitForBit)
{
    std::vector<std::pair<std::string, CooGraph>> graphs = families();
    // The scan costs V per round: a 40,000-vertex chain runs 40,000
    // rounds of it, so only from the one source that walks them all.
    graphs.emplace_back("chain-40000", makeChain(40000));
    for (const auto &[family, g] : graphs) {
        const VertexId nv = g.numVertices();
        std::vector<VertexId> sources = {0, nv / 3, nv - 1};
        if (nv > 1000)
            sources = {0};
        for (const VertexId source : sources) {
            for (const bool unit : {true, false}) {
                SCOPED_TRACE(family + ", source " + std::to_string(source) +
                             (unit ? ", bfs" : ", sssp"));
                const TraversalResult want = legacyRelax(g, source, unit);
                const TraversalResult got =
                    unit ? bfs(g, source) : sssp(g, source);
                EXPECT_EQ(got.iterations, want.iterations);
                expectSameBits(got.dist, want.dist);
                EXPECT_EQ(got.parent, want.parent);
            }
        }
    }
}

// ------------------------------------------- the symmetrised view

/** Labels = ids, every vertex active: the start of WCC over @p nv. */
std::vector<Value>
idLabels(VertexId nv)
{
    std::vector<Value> labels(nv);
    for (VertexId v = 0; v < nv; ++v)
        labels[v] = static_cast<Value>(v);
    return labels;
}

/** WCC's relaxation as it ran, forward over the copy @p sym. */
RelaxationSweep
copySweep(const CooGraph &sym)
{
    return RelaxationSweep(sym, idLabels(sym.numVertices()),
                           std::vector<bool>(sym.numVertices(), true),
                           WeightMode::kZero);
}

/** The WCC schedule as it was recorded, over the copy @p sym. */
FrontierSchedule
copySchedule(const CooGraph &sym)
{
    return recordSchedule(copySweep(sym),
                          FrontierSchedule::capFor(sym.numEdges()));
}

TEST(SymmetrizedViewTest, EdgesCountAndFingerprintAreTheCopys)
{
    for (const auto &[family, g] : viewGraphs()) {
        SCOPED_TRACE(family);
        const CooGraph sym = symmetrize(g);
        const SymmetrizedView view(g);
        std::vector<Edge> visited;
        std::vector<std::uint64_t> origins;
        view.forEachEdge([&](const Edge &e, std::uint64_t origin) {
            visited.push_back(e);
            origins.push_back(origin);
            EXPECT_EQ(view.edgeAt(origin), e);
        });
        EXPECT_TRUE(std::ranges::equal(visited, sym.edges()));
        EXPECT_TRUE(std::ranges::is_sorted(origins));
        EXPECT_EQ(view.numVertices(), sym.numVertices());
        EXPECT_EQ(view.numEdges(), sym.numEdges());
        EXPECT_EQ(view.fingerprint(), sym.fingerprint());
    }
}

TEST(SymmetrizedViewTest, PlanIsTheCopysPlanAndSharesItsEntry)
{
    std::vector<std::pair<std::string, TilingParams>> tilings;
    tilings.emplace_back("default", TilingParams{});
    tilings.emplace_back("C5 N2 G3", TilingParams{.crossbarDim = 5,
                                                  .crossbarsPerGe = 2,
                                                  .numGe = 3});
    tilings.emplace_back("C4 N2 G3 B48", TilingParams{.crossbarDim = 4,
                                                      .crossbarsPerGe = 2,
                                                      .numGe = 3,
                                                      .blockSize = 48});
    PlanCache cache;
    for (const auto &[family, g] : viewGraphs()) {
        const CooGraph sym = symmetrize(g);
        for (const auto &[name, tiling] : tilings) {
            SCOPED_TRACE(family + ", " + name);
            expectSamePlan(TilePlan(SymmetrizedView(g), tiling),
                           TilePlan(sym, tiling));
            // The view's key is the copy's: a plan cached for the
            // copy is the one WCC gets.
            const TilePlanPtr cached = cache.get(sym, tiling);
            bool hit = false;
            EXPECT_EQ(cache.get(SymmetrizedView(g), tiling, &hit), cached);
            EXPECT_TRUE(hit);
        }
    }
}

TEST(SymmetrizedViewTest, WccRowsAreTheCopysRows)
{
    for (const auto &[family, g] : viewGraphs()) {
        SCOPED_TRACE(family);
        const CooGraph sym = symmetrize(g);
        const CompressedRows<VertexId> got =
            relaxationRows(g, EdgeDirections::kBoth);
        const CompressedRows<VertexId> want =
            relaxationRows(sym, EdgeDirections::kForward);
        ASSERT_TRUE(std::ranges::equal(got.offsets(), want.offsets()));
        ASSERT_EQ(got.numEntries(), sym.numEdges());
        for (EdgeId i = 0; i < sym.numEdges(); ++i)
            EXPECT_EQ(got.entry(i), want.entry(i)) << "entry " << i;
    }
}

TEST(SymmetrizedViewTest, WccScheduleIsTheCopysIncludingOverTheCap)
{
    int recorded = 0;
    int over_cap = 0;
    for (const auto &[family, g] : viewGraphs()) {
        SCOPED_TRACE(family);
        const FrontierSchedule want = copySchedule(symmetrize(g));
        const std::shared_ptr<const FrontierSchedule> got = wccSchedule(g);
        EXPECT_EQ(got->cap(), want.cap());
        EXPECT_EQ(got->recorded(), want.recorded());
        ASSERT_EQ(got->rounds(), want.rounds());
        EXPECT_EQ(got->bytes(), want.bytes());
        if (want.recorded() && got->recorded()) {
            for (int r = 0; r < want.rounds(); ++r) {
                EXPECT_TRUE(std::ranges::equal(got->round(r), want.round(r)))
                    << "round " << r;
            }
        }
        ++(want.recorded() ? recorded : over_cap);
    }
    // Both kinds are covered: the chain, star and grid outgrow their
    // cap in the first round (every vertex active).
    EXPECT_GT(recorded, 0);
    EXPECT_GT(over_cap, 0);
}

TEST(SymmetrizedViewTest, WccRunsAreThoseOverTheCopy)
{
    GraphRConfig base;
    base.tiling = TilingParams{.crossbarDim = 4,
                               .crossbarsPerGe = 2,
                               .numGe = 3,
                               .blockSize = 48};
    for (const auto &[family, g] : viewGraphs()) {
        const CooGraph sym = symmetrize(g);
        const std::vector<VertexId> golden = wcc(g).labels;
        for (const bool functional : {false, true}) {
            SCOPED_TRACE(family + (functional ? ", functional" : ""));
            GraphRConfig cfg = base;
            cfg.functional = functional;

            // The node's WCC as it ran: over the copy's plan, forward,
            // pricing the copy's schedule (or relaxing live past its
            // cap).
            AddOpSpec spec;
            spec.initLabels = idLabels(sym.numVertices());
            spec.initActive.assign(sym.numVertices(), true);
            spec.mode = WeightMode::kZero;
            spec.schedule =
                std::make_shared<const FrontierSchedule>(copySchedule(sym));
            TileExecutor exec(cfg, PlanCache::instance().get(sym, cfg.tiling));
            std::vector<Value> want_labels;
            const SimReport want =
                exec.addOpRun(sym, spec, "wcc", &want_labels);

            std::vector<VertexId> labels;
            expectSameSimReport(GraphRNode(cfg).runWcc(g, &labels), want);
            EXPECT_EQ(labels, golden);
            EXPECT_EQ(std::vector<VertexId>(want_labels.begin(),
                                            want_labels.end()),
                      golden);

            // Without labels the node prices the schedule alone.
            expectSameSimReport(GraphRNode(cfg).runWcc(g), want);

            // The cluster prices the copy's stripes each round.
            const MultiNodeReport cluster =
                MultiNodeGraphR(cfg, 3).runWcc(g);
            EXPECT_EQ(cluster.iterations,
                      static_cast<std::uint64_t>(wcc(g).iterations));
            EXPECT_EQ(cluster.nodeSweepSeconds,
                      MultiNodeGraphR(cfg, 3).runSpmv(sym).nodeSweepSeconds);
        }
    }
}

} // namespace
} // namespace graphr
