/**
 * @file
 * Unit tests for the COO container (including its memo: the
 * fingerprint, golden counts, frontier schedules and symmetrised
 * copy) and the CSR/CSC adjacency builder.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "algorithms/pagerank.hh"
#include "algorithms/traversal.hh"
#include "algorithms/wcc.hh"
#include "graph/coo.hh"
#include "graph/csr.hh"
#include "graph/generator.hh"
#include "graph/graph_memo.hh"
#include "graphr/engine/plan_cache.hh"
#include "perf/counters.hh"

namespace graphr
{
namespace
{

CooGraph
paperGraph()
{
    // The 8-vertex graph of paper Fig. 5(a).
    CooGraph g(8, {});
    const std::pair<int, int> edges[] = {
        {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 0}, {3, 0}, {3, 1},
        {4, 1}, {5, 0}, {5, 1}, {6, 0}, {6, 1}, {6, 2}, {6, 3},
        {7, 1}, {7, 2}, {4, 6}, {4, 7}, {5, 6}, {5, 7}, {6, 4},
        {6, 5}, {7, 4}, {7, 6}, {7, 7},
    };
    for (const auto &[s, d] : edges)
        g.addEdge(static_cast<VertexId>(s), static_cast<VertexId>(d));
    return g;
}

TEST(CooTest, ConstructionAndCounts)
{
    const CooGraph g = paperGraph();
    EXPECT_EQ(g.numVertices(), 8u);
    EXPECT_EQ(g.numEdges(), 25u);
}

TEST(CooTest, DegreesMatchPaperFigure)
{
    const CooGraph g = paperGraph();
    const auto out = g.outDegrees();
    const auto in = g.inDegrees();
    EXPECT_EQ(out[0], 2u);
    EXPECT_EQ(out[6], 6u);
    EXPECT_EQ(out[7], 5u);
    std::uint64_t total_out = 0;
    std::uint64_t total_in = 0;
    for (VertexId v = 0; v < 8; ++v) {
        total_out += out[v];
        total_in += in[v];
    }
    EXPECT_EQ(total_out, g.numEdges());
    EXPECT_EQ(total_in, g.numEdges());
}

TEST(CooTest, SortBySourceOrdersPairs)
{
    CooGraph g(4, {});
    g.addEdge(3, 1);
    g.addEdge(0, 2);
    g.addEdge(3, 0);
    g.addEdge(1, 3);
    g.sortBySource();
    const auto edges = g.edges();
    for (std::size_t i = 1; i < edges.size(); ++i) {
        const bool ordered =
            edges[i - 1].src < edges[i].src ||
            (edges[i - 1].src == edges[i].src &&
             edges[i - 1].dst <= edges[i].dst);
        EXPECT_TRUE(ordered);
    }
}

TEST(CooTest, DedupeRemovesDuplicatePairs)
{
    CooGraph g(3, {});
    g.addEdge(0, 1, 5.0);
    g.addEdge(0, 1, 7.0);
    g.addEdge(1, 2);
    g.dedupe();
    EXPECT_EQ(g.numEdges(), 2u);
}

TEST(CooTest, RemoveSelfLoops)
{
    CooGraph g(3, {});
    g.addEdge(0, 0);
    g.addEdge(0, 1);
    g.addEdge(2, 2);
    g.removeSelfLoops();
    EXPECT_EQ(g.numEdges(), 1u);
    EXPECT_EQ(g.edges()[0].dst, 1u);
}

TEST(CooTest, DensityMatchesDefinition)
{
    const CooGraph g = paperGraph();
    EXPECT_DOUBLE_EQ(g.density(), 25.0 / 64.0);
}

TEST(CsrTest, OutNeighborsMatchEdges)
{
    const CooGraph g = paperGraph();
    const CsrGraph csr(g, CsrGraph::Direction::kOut);
    EXPECT_EQ(csr.numEdges(), g.numEdges());
    EXPECT_EQ(csr.degree(6), 6u);

    std::uint64_t found = 0;
    for (VertexId v = 0; v < g.numVertices(); ++v)
        found += csr.neighbors(v).size();
    EXPECT_EQ(found, g.numEdges());

    // Every COO edge appears under its source.
    for (const Edge &e : g.edges()) {
        bool present = false;
        for (const Adjacency &adj : csr.neighbors(e.src))
            present |= adj.neighbor == e.dst;
        EXPECT_TRUE(present) << e.src << "->" << e.dst;
    }
}

TEST(CsrTest, InNeighborsMatchEdges)
{
    const CooGraph g = paperGraph();
    const CsrGraph csc(g, CsrGraph::Direction::kIn);
    for (const Edge &e : g.edges()) {
        bool present = false;
        for (const Adjacency &adj : csc.neighbors(e.dst))
            present |= adj.neighbor == e.src;
        EXPECT_TRUE(present);
    }
}

TEST(CsrTest, WeightsPreserved)
{
    CooGraph g(3, {});
    g.addEdge(0, 1, 2.5);
    g.addEdge(1, 2, 7.25);
    const CsrGraph csr(g, CsrGraph::Direction::kOut);
    EXPECT_DOUBLE_EQ(csr.neighbors(0)[0].weight, 2.5);
    EXPECT_DOUBLE_EQ(csr.neighbors(1)[0].weight, 7.25);
}

TEST(CsrTest, OffsetsMonotone)
{
    const CooGraph g = paperGraph();
    const CsrGraph csr(g, CsrGraph::Direction::kOut);
    const auto offsets = csr.offsets();
    ASSERT_EQ(offsets.size(), g.numVertices() + 1);
    for (std::size_t i = 1; i < offsets.size(); ++i)
        EXPECT_LE(offsets[i - 1], offsets[i]);
    EXPECT_EQ(offsets.back(), g.numEdges());
}

// ------------------------------------------------------- fingerprint

/** The fingerprint of a fresh graph with @p g's edges: no memo. */
std::uint64_t
freshFingerprint(const CooGraph &g)
{
    return CooGraph(g.numVertices(),
                    std::vector<Edge>(g.edges().begin(), g.edges().end()))
        .fingerprint();
}

TEST(CooFingerprintTest, MemoMatchesAFreshFold)
{
    const CooGraph g = paperGraph();
    const std::uint64_t first = g.fingerprint();
    EXPECT_EQ(g.fingerprint(), first);
    EXPECT_EQ(freshFingerprint(g), first);
    EXPECT_NE(first, CooGraph(8, {}).fingerprint());
}

TEST(CooFingerprintTest, EveryMutatorDropsTheMemo)
{
    // Each mutator changes the edge list after the memo was taken;
    // the next fingerprint must be that of the new edges.
    CooGraph g = paperGraph();
    g.addEdge(0, 0); // a self loop and a duplicate for the others
    g.addEdge(0, 2, 3.0);
    const auto check = [&g](const char *what) {
        EXPECT_EQ(g.fingerprint(), freshFingerprint(g)) << what;
    };
    std::uint64_t before = g.fingerprint();
    g.addEdge(1, 0);
    check("addEdge");
    EXPECT_NE(g.fingerprint(), before);

    before = g.fingerprint();
    g.sortBySource();
    check("sortBySource");
    EXPECT_NE(g.fingerprint(), before);

    before = g.fingerprint();
    g.removeSelfLoops();
    check("removeSelfLoops");
    EXPECT_NE(g.fingerprint(), before);

    before = g.fingerprint();
    g.dedupe();
    check("dedupe");
    EXPECT_NE(g.fingerprint(), before);
}

TEST(CooFingerprintTest, CopiesKeepItAndMovedFromGraphsLoseIt)
{
    CooGraph a = paperGraph();
    const std::uint64_t fp = a.fingerprint();
    CooGraph copy = a;
    EXPECT_EQ(copy.fingerprint(), fp);
    copy.addEdge(1, 1);
    EXPECT_EQ(a.fingerprint(), fp) << "a copy's mutation leaked back";

    CooGraph moved = std::move(a);
    EXPECT_EQ(moved.fingerprint(), fp);
    EXPECT_EQ(a.fingerprint(), freshFingerprint(a)); // NOLINT: moved-from
    CooGraph assigned;
    assigned = std::move(moved);
    EXPECT_EQ(assigned.fingerprint(), fp);
    EXPECT_EQ(moved.fingerprint(), freshFingerprint(moved)); // NOLINT
    assigned = copy;
    EXPECT_EQ(assigned.fingerprint(), copy.fingerprint());
}

TEST(CooFingerprintTest, ConcurrentFirstCallsAgree)
{
    const CooGraph g = paperGraph();
    const std::uint64_t want = freshFingerprint(g);
    std::vector<std::uint64_t> got(8, 0);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < got.size(); ++t)
        threads.emplace_back([&, t] { got[t] = g.fingerprint(); });
    for (std::thread &t : threads)
        t.join();
    for (const std::uint64_t fp : got)
        EXPECT_EQ(fp, want);
}

// ------------------------------------------------------------- memo

std::uint64_t
counterValue(const char *name)
{
    return perf::Registry::instance().counter(name).value();
}

TEST(CooMemoTest, SymmetrizedViewIsSymmetrizeWithoutACopy)
{
    CooGraph g = paperGraph();
    g.addEdge(2, 2, 0.5); // a self-loop has no reverse
    const std::uint64_t symmetrizations =
        counterValue("graph.symmetrizations");
    const SymmetrizedView view(g);
    std::vector<Edge> visited;
    view.forEachEdge([&](const Edge &e, std::uint64_t origin) {
        EXPECT_EQ(view.edgeAt(origin), e);
        visited.push_back(e);
    });
    const std::uint64_t edges = view.numEdges();
    const std::uint64_t fingerprint = view.fingerprint();
    EXPECT_EQ(counterValue("graph.symmetrizations"), symmetrizations)
        << "the view built a copy";

    const CooGraph want = symmetrize(g);
    EXPECT_EQ(counterValue("graph.symmetrizations"), symmetrizations + 1)
        << "symmetrize() counts the copy it builds";
    EXPECT_EQ(visited, std::vector<Edge>(want.edges().begin(),
                                         want.edges().end()));
    EXPECT_EQ(edges, want.numEdges());
    EXPECT_EQ(fingerprint, want.fingerprint());
}

TEST(CooMemoTest, MutatorsDropItCopiesShareItMovesTakeIt)
{
    CooGraph g = paperGraph();
    g.addEdge(0, 0); // a self loop and a duplicate for the others
    g.addEdge(0, 2, 3.0);
    const std::pair<const char *, std::function<void(CooGraph &)>>
        mutators[] = {
            {"addEdge", [](CooGraph &m) { m.addEdge(1, 0); }},
            {"sortBySource", [](CooGraph &m) { m.sortBySource(); }},
            {"removeSelfLoops", [](CooGraph &m) { m.removeSelfLoops(); }},
            {"dedupe", [](CooGraph &m) { m.dedupe(); }},
        };
    for (const auto &[what, mutate] : mutators) {
        const std::uint64_t before = SymmetrizedView(g).fingerprint();
        mutate(g);
        const CooGraph want = symmetrize(g);
        EXPECT_NE(SymmetrizedView(g).fingerprint(), before) << what;
        EXPECT_EQ(SymmetrizedView(g).fingerprint(), want.fingerprint())
            << what;
        EXPECT_EQ(SymmetrizedView(g).numEdges(), want.numEdges()) << what;
    }

    CooGraph copy = g;
    const std::shared_ptr<GraphMemo> memo = g.memo();
    EXPECT_EQ(copy.memo(), memo);
    CooGraph assigned;
    assigned = g;
    EXPECT_EQ(assigned.memo(), memo);
    copy.addEdge(1, 1);
    EXPECT_NE(copy.memo(), memo);
    EXPECT_EQ(g.memo(), memo) << "a copy's mutation leaked back";

    CooGraph moved = std::move(g);
    EXPECT_EQ(moved.memo(), memo);
    EXPECT_NE(g.memo(), memo); // NOLINT: moved-from
    assigned = std::move(moved);
    EXPECT_EQ(assigned.memo(), memo);
    EXPECT_NE(moved.memo(), memo); // NOLINT: moved-from
}

TEST(CooMemoTest, ConcurrentFirstCallsBuildOnce)
{
    const CooGraph g = paperGraph();
    const int want_rounds = wcc(g).iterations;
    const int want_bfs_rounds = bfs(g, 4).iterations;
    const CooGraph want_sym = symmetrize(g);
    const int want_wcc_rounds = recordSchedule(makeWccSweep(g), 0).rounds();
    const TilingParams tiling;
    const std::uint64_t symmetrizations =
        counterValue("graph.symmetrizations");
    const std::uint64_t sorts = counterValue("preprocess.sorts");
    const std::uint64_t misses = counterValue("golden_cache.misses");
    const std::uint64_t hits = counterValue("golden_cache.hits");
    const std::uint64_t frontier_misses =
        counterValue("frontier_cache.misses");
    const std::uint64_t frontier_hits = counterValue("frontier_cache.hits");

    // The first callers of the symmetrised graph race for its edge
    // count, fingerprint, WCC schedule and plan: each is built once.
    PlanCache::instance().clear();
    constexpr std::size_t kThreads = 8;
    std::vector<std::uint64_t> sym_edges(kThreads, 0);
    std::vector<std::uint64_t> sym_fingerprints(kThreads, 0);
    std::vector<const TilePlan *> sym_plans(kThreads, nullptr);
    std::vector<int> rounds(kThreads, 0);
    std::vector<const FrontierSchedule *> schedules(kThreads, nullptr);
    std::vector<const FrontierSchedule *> wcc_schedules(kThreads, nullptr);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            const SymmetrizedView view(g);
            sym_edges[t] = view.numEdges();
            sym_fingerprints[t] = view.fingerprint();
            sym_plans[t] = PlanCache::instance().get(view, tiling).get();
            rounds[t] = goldenWccRounds(g);
            schedules[t] = bfsSchedule(g, 4).get();
            wcc_schedules[t] = wccSchedule(g).get();
        });
    }
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(counterValue("graph.symmetrizations"), symmetrizations);
    EXPECT_EQ(counterValue("preprocess.sorts") - sorts, 1u);
    EXPECT_EQ(counterValue("golden_cache.misses") - misses, 1u);
    EXPECT_EQ(counterValue("golden_cache.hits") - hits, kThreads - 1);
    EXPECT_EQ(counterValue("frontier_cache.misses") - frontier_misses,
              2u);
    EXPECT_EQ(counterValue("frontier_cache.hits") - frontier_hits,
              2 * (kThreads - 1));
    for (std::size_t t = 0; t < kThreads; ++t) {
        EXPECT_EQ(sym_edges[t], want_sym.numEdges());
        EXPECT_EQ(sym_fingerprints[t], want_sym.fingerprint());
        EXPECT_EQ(sym_plans[t], sym_plans[0]);
        EXPECT_EQ(rounds[t], want_rounds);
        EXPECT_EQ(schedules[t], schedules[0]);
        EXPECT_EQ(wcc_schedules[t], wcc_schedules[0]);
    }
    EXPECT_EQ(sym_plans[0]->fingerprint, want_sym.fingerprint());
    EXPECT_EQ(schedules[0]->rounds(), want_bfs_rounds);
    EXPECT_EQ(wcc_schedules[0]->rounds(), want_wcc_rounds);

    // The memo runs each of the view's builds once.
    const CooGraph other = makeChain(40);
    const std::shared_ptr<GraphMemo> memo = other.memo();
    std::atomic<int> counts{0};
    std::atomic<int> folds{0};
    threads.clear();
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            sym_edges[t] = memo->symmetrizedEdges([&counts] {
                ++counts;
                return EdgeId{78};
            });
            sym_fingerprints[t] = memo->symmetrizedFingerprint([&folds] {
                ++folds;
                return std::uint64_t{7};
            });
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(counts.load(), 1);
    EXPECT_EQ(folds.load(), 1);
    for (std::size_t t = 0; t < kThreads; ++t) {
        EXPECT_EQ(sym_edges[t], 78u);
        EXPECT_EQ(sym_fingerprints[t], 7u);
    }
}

TEST(CooMemoTest, SchedulesStayBoundedPerProduct)
{
    // A client sending a new BFS source with every request: the memo
    // keeps the schedules of the most recent sources only, and never
    // drops the PageRank count for them.
    const CooGraph g = makeChain(64);
    const PageRankParams params;
    const int iterations = goldenPageRankIterations(g, params);
    constexpr VertexId kSources = GraphMemo::kGoldenCountsPerProduct + 1;
    const std::uint64_t misses = counterValue("frontier_cache.misses");
    const std::uint64_t golden_misses = counterValue("golden_cache.misses");
    for (VertexId s = 0; s < kSources; ++s)
        EXPECT_EQ(bfsSchedule(g, s)->rounds(), bfs(g, s).iterations) << s;
    EXPECT_EQ(counterValue("frontier_cache.misses") - misses, kSources);

    // Sources 1 .. 16 are kept, and the PageRank count with them.
    const std::uint64_t hits = counterValue("frontier_cache.hits");
    const std::uint64_t golden_hits = counterValue("golden_cache.hits");
    EXPECT_EQ(bfsSchedule(g, kSources - 1)->rounds(),
              bfs(g, kSources - 1).iterations);
    EXPECT_EQ(bfsSchedule(g, 1)->rounds(), bfs(g, 1).iterations);
    EXPECT_EQ(goldenPageRankIterations(g, params), iterations);
    EXPECT_EQ(counterValue("frontier_cache.hits") - hits, 2u);
    EXPECT_EQ(counterValue("frontier_cache.misses") - misses, kSources);
    EXPECT_EQ(counterValue("golden_cache.hits") - golden_hits, 1u);
    EXPECT_EQ(counterValue("golden_cache.misses"), golden_misses);

    // The 17th source evicted the oldest, so it is recorded again.
    EXPECT_EQ(bfsSchedule(g, 0)->rounds(), bfs(g, 0).iterations);
    EXPECT_EQ(counterValue("frontier_cache.misses") - misses,
              kSources + 1);
    // Over the chain's unit weights SSSP's rounds are BFS's: its
    // schedule is BFS's own, source 0's just recorded again, a hit.
    const std::uint64_t before = counterValue("frontier_cache.misses");
    EXPECT_EQ(ssspSchedule(g, 0), bfsSchedule(g, 0));
    EXPECT_EQ(ssspSchedule(g, 0)->rounds(), sssp(g, 0).iterations);
    EXPECT_EQ(counterValue("frontier_cache.misses"), before);

    // On a weighted graph SSSP schedules are a product of their own:
    // BFS sources never evict them.
    const CooGraph weighted = makeGrid2d(8, 8, 3, 9.0);
    ASSERT_FALSE(weighted.unitWeights());
    const std::uint64_t weighted_before =
        counterValue("frontier_cache.misses");
    EXPECT_EQ(ssspSchedule(weighted, 0)->rounds(),
              sssp(weighted, 0).iterations);
    for (VertexId s = 0; s < kSources; ++s)
        bfsSchedule(weighted, s);
    EXPECT_NE(ssspSchedule(weighted, 0), bfsSchedule(weighted, 0));
    EXPECT_EQ(ssspSchedule(weighted, 0)->rounds(),
              sssp(weighted, 0).iterations);
    EXPECT_EQ(counterValue("frontier_cache.misses") - weighted_before,
              1 + kSources + 1);
}

TEST(CooMemoTest, GoldenWccRoundsAreWccPassesWithoutACopy)
{
    // The count's passes apply each edge and then its reverse, the
    // update order of symmetrize()'s list, so it is wcc()'s pass
    // count, and neither builds the symmetrised copy.
    for (const CooGraph &g :
         {paperGraph(), makeChain(50), makeGrid2d(9, 7),
          makeRmat({.numVertices = 300, .numEdges = 1500, .seed = 4})}) {
        const std::uint64_t symmetrizations =
            counterValue("graph.symmetrizations");
        EXPECT_EQ(goldenWccRounds(g), wcc(g).iterations);
        EXPECT_EQ(counterValue("graph.symmetrizations"), symmetrizations);
    }
}

} // namespace
} // namespace graphr
