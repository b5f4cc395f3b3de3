/**
 * @file
 * Tests for the multi-node GraphR cluster model (paper section 3.1).
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "algorithms/traversal.hh"
#include "algorithms/wcc.hh"
#include "graph/generator.hh"
#include "graphr/engine/plan_cache.hh"
#include "graphr/multi_node.hh"
#include "graphr/node.hh"
#include "sim_report_eq.hh"

namespace graphr
{
namespace
{

CooGraph
testGraph()
{
    return makeRmat(
        {.numVertices = 8000, .numEdges = 64000, .seed = 91});
}

PageRankParams
prParams()
{
    PageRankParams params;
    params.maxIterations = 10;
    params.tolerance = 0.0;
    return params;
}

TEST(MultiNodeTest, SingleNodeHasNoCommunication)
{
    MultiNodeGraphR cluster(GraphRConfig{}, 1);
    const MultiNodeReport rep =
        cluster.runPageRank(testGraph(), prParams());
    EXPECT_EQ(rep.numNodes, 1u);
    EXPECT_DOUBLE_EQ(rep.commSeconds, 0.0);
    EXPECT_DOUBLE_EQ(rep.commJoules, 0.0);
    EXPECT_GT(rep.seconds, 0.0);
}

TEST(MultiNodeTest, ComputePartScalesDown)
{
    const CooGraph g = testGraph();
    const PageRankParams params = prParams();
    const MultiNodeReport one =
        MultiNodeGraphR(GraphRConfig{}, 1).runPageRank(g, params);
    const MultiNodeReport four =
        MultiNodeGraphR(GraphRConfig{}, 4).runPageRank(g, params);
    // The slowest node's sweep must be well below the single-node
    // sweep (stripes split the edges).
    double one_max = 0.0;
    double four_max = 0.0;
    for (double s : one.nodeSweepSeconds)
        one_max = std::max(one_max, s);
    for (double s : four.nodeSweepSeconds)
        four_max = std::max(four_max, s);
    EXPECT_LT(four_max, one_max);
    EXPECT_EQ(four.nodeSweepSeconds.size(), 4u);
}

TEST(MultiNodeTest, CommunicationGrowsWithNodes)
{
    const CooGraph g = testGraph();
    const PageRankParams params = prParams();
    const MultiNodeReport two =
        MultiNodeGraphR(GraphRConfig{}, 2).runPageRank(g, params);
    const MultiNodeReport eight =
        MultiNodeGraphR(GraphRConfig{}, 8).runPageRank(g, params);
    EXPECT_GT(eight.commJoules, two.commJoules);
    EXPECT_GT(eight.commShare(), 0.0);
}

TEST(MultiNodeTest, EdgesPartitionedCompletely)
{
    // Every edge lands in exactly one stripe: summing per-node sweep
    // energies with zero-width links reproduces total edge coverage.
    const CooGraph g = testGraph();
    const PageRankParams params = prParams();
    LinkParams free_link;
    free_link.energyPjPerByte = 0.0;
    std::uint64_t stripe_edges = 0;
    const std::uint32_t nodes = 4;
    const std::uint64_t stripe =
        (g.numVertices() + nodes - 1) / nodes;
    for (const Edge &e : g.edges()) {
        EXPECT_LT(e.dst / stripe, nodes);
        ++stripe_edges;
    }
    EXPECT_EQ(stripe_edges, g.numEdges());
    const MultiNodeReport rep =
        MultiNodeGraphR(GraphRConfig{}, nodes, free_link)
            .runPageRank(g, params);
    EXPECT_GT(rep.joules, 0.0);
}

TEST(MultiNodeTest, SlowLinkDominatesAtHighNodeCount)
{
    const CooGraph g = testGraph();
    const PageRankParams params = prParams();
    LinkParams slow;
    slow.bandwidthGBs = 0.0001;
    const MultiNodeReport rep =
        MultiNodeGraphR(GraphRConfig{}, 8, slow).runPageRank(g, params);
    EXPECT_GT(rep.commShare(), 0.9);
}

TEST(MultiNodeTest, IterationCountMatchesGolden)
{
    const CooGraph g = testGraph();
    PageRankParams params;
    params.maxIterations = 7;
    params.tolerance = 0.0;
    const MultiNodeReport rep =
        MultiNodeGraphR(GraphRConfig{}, 2).runPageRank(g, params);
    EXPECT_EQ(rep.iterations, 7u);
}

// ------------------------------------ stripes against their own graphs

/** Edges of destination stripe @p k of @p nodes, in input order. */
CooGraph
stripeGraph(const CooGraph &graph, std::uint32_t nodes, std::uint32_t k)
{
    const std::uint64_t width = (graph.numVertices() + nodes - 1) / nodes;
    std::vector<Edge> edges;
    for (const Edge &e : graph.edges()) {
        if (e.dst / width == k)
            edges.push_back(e);
    }
    return CooGraph(graph.numVertices(), std::move(edges));
}

/** One sweep over one stripe, priced by a node that holds only it. */
using StripeSweep =
    std::function<SimReport(GraphRNode &, const CooGraph &)>;

/**
 * The reference cluster: the stripe-as-subgraph definition. Each
 * stripe's edges are copied into a graph of their own and one sweep
 * over it is priced on a fresh GraphRNode; then `iterations` rounds
 * charge the slowest stripe plus the all-gather (default link).
 */
MultiNodeReport
referenceCluster(const GraphRConfig &config, std::uint32_t nodes,
                 const CooGraph &graph, std::uint64_t iterations,
                 const StripeSweep &sweep, double props_per_vertex)
{
    const LinkParams link;
    MultiNodeReport report;
    report.numNodes = nodes;
    report.iterations = iterations;
    double max_sweep_s = 0.0;
    double sweep_joules = 0.0;
    for (std::uint32_t k = 0; k < nodes; ++k) {
        const CooGraph sub = stripeGraph(graph, nodes, k);
        if (sub.numEdges() == 0) {
            report.nodeSweepSeconds.push_back(0.0);
            continue;
        }
        GraphRNode node(config);
        const SimReport one = sweep(node, sub);
        report.nodeSweepSeconds.push_back(one.seconds);
        max_sweep_s = std::max(max_sweep_s, one.seconds);
        sweep_joules += one.joules;
    }
    const double bytes_sent_per_node =
        static_cast<double>(graph.numVertices()) / nodes *
        props_per_vertex * link.bytesPerProperty * (nodes - 1);
    const double comm_per_iter =
        nodes > 1 ? bytes_sent_per_node / (link.bandwidthGBs * 1e9) +
                        link.latencyUs * 1e-6
                  : 0.0;
    const double iters = static_cast<double>(iterations);
    report.commSeconds = comm_per_iter * iters;
    report.commJoules = bytes_sent_per_node * nodes * iters *
                        link.energyPjPerByte * 1e-12;
    report.seconds = (max_sweep_s + comm_per_iter) * iters;
    report.joules = sweep_joules * iters + report.commJoules;
    return report;
}

void
expectSameCluster(const MultiNodeReport &got, const MultiNodeReport &want)
{
    EXPECT_EQ(got.numNodes, want.numNodes);
    EXPECT_EQ(got.iterations, want.iterations);
    EXPECT_EQ(got.seconds, want.seconds);
    EXPECT_EQ(got.joules, want.joules);
    EXPECT_EQ(got.commSeconds, want.commSeconds);
    EXPECT_EQ(got.commJoules, want.commJoules);
    ASSERT_EQ(got.nodeSweepSeconds.size(), want.nodeSweepSeconds.size());
    for (std::size_t k = 0; k < got.nodeSweepSeconds.size(); ++k) {
        EXPECT_EQ(got.nodeSweepSeconds[k], want.nodeSweepSeconds[k])
            << "node " << k;
    }
}

SimReport
spmvStripe(GraphRNode &node, const CooGraph &sub)
{
    return node.runSpmv(sub, std::vector<Value>(sub.numVertices(), 1.0));
}

/**
 * All six workloads of one cluster against the reference. Iteration
 * and round counts come from the pure golden algorithms, not the
 * graph memo the cluster reads.
 */
void
expectClusterMatchesReference(const GraphRConfig &config,
                              std::uint32_t nodes, const CooGraph &g,
                              VertexId cf_users)
{
    MultiNodeGraphR cluster(config, nodes);
    PageRankParams pr;
    pr.maxIterations = 6;
    {
        SCOPED_TRACE("pagerank");
        expectSameCluster(
            cluster.runPageRank(g, pr),
            referenceCluster(config, nodes, g,
                             static_cast<std::uint64_t>(
                                 pagerank(g, pr).iterations),
                             spmvStripe, 1.0));
    }
    {
        SCOPED_TRACE("spmv");
        expectSameCluster(cluster.runSpmv(g),
                          referenceCluster(config, nodes, g, 1,
                                           spmvStripe, 1.0));
    }
    {
        SCOPED_TRACE("bfs");
        expectSameCluster(
            cluster.runBfs(g, 0),
            referenceCluster(
                config, nodes, g,
                static_cast<std::uint64_t>(bfs(g, 0).iterations),
                spmvStripe, 1.0));
    }
    {
        SCOPED_TRACE("sssp");
        expectSameCluster(
            cluster.runSssp(g, 0),
            referenceCluster(
                config, nodes, g,
                static_cast<std::uint64_t>(sssp(g, 0).iterations),
                spmvStripe, 1.0));
    }
    {
        SCOPED_TRACE("wcc");
        expectSameCluster(
            cluster.runWcc(g),
            referenceCluster(
                config, nodes, symmetrize(g),
                static_cast<std::uint64_t>(wcc(g).iterations),
                spmvStripe, 1.0));
    }
    {
        SCOPED_TRACE("cf");
        CfParams cf;
        cf.numUsers = cf_users;
        cf.featureLength = 3;
        cf.epochs = 2;
        CfParams epoch = cf;
        epoch.epochs = 1;
        expectSameCluster(
            cluster.runCf(g, cf),
            referenceCluster(
                config, nodes, g, 2,
                [&epoch](GraphRNode &node, const CooGraph &sub) {
                    return node.runCf(sub, epoch);
                },
                3.0));
    }
}

struct NamedGraph
{
    std::string name;
    CooGraph graph;
    VertexId cfUsers; ///< user/item split the CF workload assumes
};

std::vector<NamedGraph>
familyGraphs()
{
    std::vector<NamedGraph> graphs;
    graphs.push_back(
        {"rmat",
         makeRmat({.numVertices = 96, .numEdges = 700, .maxWeight = 9.0,
                   .seed = 31}),
         48});
    graphs.push_back({"er", makeErdosRenyi(80, 500, 32, 7.0), 40});
    graphs.push_back({"grid", makeGrid2d(9, 7, 33), 30});
    graphs.push_back({"star", makeStar(70), 1});
    graphs.push_back({"chain", makeChain(50), 25});
    graphs.push_back(
        {"bipartite", makeBipartiteRatings(30, 45, 400, 34), 30});
    return graphs;
}

/** Tilings whose tile width (24 or 20) rarely divides a stripe,
 *  with and without blocks, and the default single tile column. */
std::vector<std::pair<std::string, TilingParams>>
stripeTilings()
{
    return {
        {"C4xN2xG3", {.crossbarDim = 4, .crossbarsPerGe = 2, .numGe = 3}},
        {"C4xN2xG3/B48",
         {.crossbarDim = 4, .crossbarsPerGe = 2, .numGe = 3,
          .blockSize = 48}},
        {"C4xN1xG5/B50",
         {.crossbarDim = 4, .crossbarsPerGe = 1, .numGe = 5,
          .blockSize = 50}},
        {"default", TilingParams{}},
    };
}

TEST(MultiNodeStripeTest, EveryWorkloadMatchesStripeSubgraphs)
{
    for (const NamedGraph &g : familyGraphs()) {
        for (const auto &[tiling_name, tiling] : stripeTilings()) {
            for (int setting = 0; setting < 3; ++setting) {
                GraphRConfig config;
                config.tiling = tiling;
                if (setting == 1)
                    config.programCharging = ProgramCharging::kOnce;
                if (setting == 2)
                    config.pipelineTiles = false;
                const std::uint32_t past_v = g.graph.numVertices() + 3;
                for (const std::uint32_t nodes : {1u, 3u, 7u, past_v}) {
                    SCOPED_TRACE(g.name + " " + tiling_name + " setting " +
                                 std::to_string(setting) + " nodes " +
                                 std::to_string(nodes));
                    expectClusterMatchesReference(config, nodes, g.graph,
                                                  g.cfUsers);
                }
            }
        }
    }
}

TEST(MultiNodeStripeTest, StripeReportsEqualTheirOwnPlansReports)
{
    // Whole reports, not just seconds and joules: each stripe of the
    // one-pass walk is the report of a node holding only the stripe.
    const CooGraph g = makeRmat(
        {.numVertices = 300, .numEdges = 2400, .maxWeight = 5.0,
         .seed = 35});
    GraphRConfig config;
    config.tiling = {.crossbarDim = 4, .crossbarsPerGe = 2, .numGe = 3,
                     .blockSize = 72};
    const TileExecutor exec(
        config, PlanCache::instance().get(g, config.tiling));
    MacSpec spec;
    spec.name = "spmv";
    for (const std::uint32_t nodes : {1u, 5u, 11u}) {
        const std::vector<SimReport> stripes =
            exec.macStripeReports(spec, nodes);
        ASSERT_EQ(stripes.size(), nodes);
        for (std::uint32_t k = 0; k < nodes; ++k) {
            SCOPED_TRACE("nodes " + std::to_string(nodes) + " stripe " +
                         std::to_string(k));
            GraphRNode node(config);
            expectSameSimReport(stripes[k],
                                spmvStripe(node, stripeGraph(g, nodes, k)));
        }
    }
}

TEST(MultiNodeStripeTest, FunctionalModeReportsTheTimingReport)
{
    const CooGraph g = makeRmat(
        {.numVertices = 120, .numEdges = 900, .seed = 36});
    GraphRConfig timing;
    timing.tiling = {.crossbarDim = 4, .crossbarsPerGe = 2, .numGe = 3};
    GraphRConfig functional = timing;
    functional.functional = true;
    expectSameCluster(MultiNodeGraphR(functional, 5).runSpmv(g),
                      MultiNodeGraphR(timing, 5).runSpmv(g));
}

TEST(MultiNodeStripeTest, RunAddsOnlyTheGraphAndSymmetrisedPlans)
{
    PlanCache &cache = PlanCache::instance();
    cache.clear();
    const CooGraph g =
        makeRmat({.numVertices = 512, .numEdges = 4096, .seed = 3});
    MultiNodeGraphR cluster(GraphRConfig{}, 4);
    cluster.runPageRank(g, prParams());
    cluster.runWcc(g);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(MultiNodeStripeTest, NodeCountPastVerticesCostsOnePlan)
{
    PlanCache &cache = PlanCache::instance();
    cache.clear();
    const CooGraph g =
        makeRmat({.numVertices = 64, .numEdges = 400, .seed = 37});
    const MultiNodeReport rep =
        MultiNodeGraphR(GraphRConfig{}, 65536).runSpmv(g);
    ASSERT_EQ(rep.nodeSweepSeconds.size(), 65536u);
    EXPECT_EQ(cache.stats().misses, 1u);
    // Stripes are one vertex wide: every stripe past V is empty.
    for (std::size_t k = g.numVertices(); k < 65536; ++k)
        ASSERT_EQ(rep.nodeSweepSeconds[k], 0.0) << "node " << k;
    EXPECT_GT(rep.seconds, 0.0);
}

} // namespace
} // namespace graphr
