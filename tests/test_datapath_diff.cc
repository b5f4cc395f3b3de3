/**
 * @file
 * Differential test of the functional datapath: the runs that program
 * a flat cell store from each tile's local ids and read it in place
 * must give, bit for bit, what the path that copied a snapshot per
 * tile gave (reference_datapath.hh, kept verbatim): PageRank ranks,
 * SpMV outputs, BFS, SSSP and WCC labels, the crossbar MVM rows each
 * run reads, and its tile program and load counts. The graphs cover
 * unit and real weights (tiles of weight modes 0, 1 and 2), parallel
 * edges and self-loops; the settings cover C = 8, 6 and 64, variation
 * off and on, both program-charging policies and several weight
 * precisions.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/traversal.hh"
#include "algorithms/wcc.hh"
#include "common/fixed_point.hh"
#include "common/random.hh"
#include "graph/generator.hh"
#include "graphr/node.hh"
#include "perf/counters.hh"
#include "reference_datapath.hh"

namespace graphr
{
namespace
{

std::uint64_t
mvmRows()
{
    return perf::Registry::instance()
        .counter("crossbar.mvm_rows_processed")
        .value();
}

/** Equal to the bit: same length, same bit pattern everywhere. */
void
expectBitEqual(const std::vector<Value> &got,
               const std::vector<Value> &want, const std::string &what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    std::size_t mismatches = 0;
    for (std::size_t v = 0; v < got.size(); ++v) {
        if (std::bit_cast<std::uint64_t>(got[v]) !=
                std::bit_cast<std::uint64_t>(want[v]) &&
            ++mismatches <= 3) {
            ADD_FAILURE() << what << ": vertex " << v << " reads "
                          << got[v] << ", the reference " << want[v];
        }
    }
    EXPECT_EQ(mismatches, 0u) << what;
}

void
expectSameCounts(const EngineStats &got, const EngineStats &want,
                 const std::string &what)
{
    EXPECT_EQ(got.functionalTilePrograms, want.functionalTilePrograms)
        << what;
    EXPECT_EQ(got.functionalTileLoads, want.functionalTileLoads) << what;
}

struct Setting
{
    std::uint32_t dim;
    std::uint32_t crossbarsPerGe;
    std::uint32_t numGe;
    double sigma;
    ProgramCharging charging;
    int weightFracBits;
};

GraphRConfig
configOf(const Setting &s)
{
    GraphRConfig config;
    config.functional = true;
    config.tiling.crossbarDim = s.dim;
    config.tiling.crossbarsPerGe = s.crossbarsPerGe;
    config.tiling.numGe = s.numGe;
    config.variationSigma = s.sigma;
    config.programCharging = s.charging;
    config.weightFracBits = s.weightFracBits;
    return config;
}

std::string
nameOf(const Setting &s)
{
    return "C=" + std::to_string(s.dim) + " N=" +
           std::to_string(s.crossbarsPerGe) + " G=" +
           std::to_string(s.numGe) + " sigma=" + std::to_string(s.sigma) +
           (s.charging == ProgramCharging::kOnce ? " once" : " per-sweep") +
           " wfb=" + std::to_string(s.weightFracBits);
}

/** A multigraph whose parallel edges weigh alike or differ, with
 *  self-loops and tiles of every weight mode. */
CooGraph
parallelEdges()
{
    CooGraph g(96, {});
    for (VertexId v = 0; v < 96; ++v) {
        const VertexId a = (v * 7 + 3) % 96;
        const VertexId b = (v * 5 + 1) % 96;
        g.addEdge(v, a, 2.0);
        g.addEdge(v, a, 2.0);
        g.addEdge(v, b, 0.5 + v % 3);
        g.addEdge(v, b, 1.0);
        g.addEdge(v, a, 1.0);
        if (v % 10 == 0)
            g.addEdge(v, v, 1.5);
    }
    // A unit-weight corner: tiles of weight mode 0 beside the rest.
    for (VertexId v = 0; v < 16; ++v) {
        g.addEdge(v, 95 - v);
        g.addEdge(v, 95 - v);
    }
    return g;
}

struct NamedGraph
{
    std::string name;
    CooGraph graph;
};

std::vector<NamedGraph>
graphs()
{
    std::vector<NamedGraph> out;
    out.push_back({"rmat", makeRmat({.numVertices = 256,
                                     .numEdges = 2048,
                                     .seed = 5})});
    out.push_back({"rmat-weighted", makeRmat({.numVertices = 256,
                                              .numEdges = 2048,
                                              .maxWeight = 9.0,
                                              .seed = 6})});
    out.push_back({"grid", makeGrid2d(12, 10, 7, 10.0)});
    out.push_back({"star", makeStar(100)});
    out.push_back({"chain", makeChain(120)});
    out.push_back({"er", makeErdosRenyi(200, 1500, 3, 4.0)});
    out.push_back({"bipartite", makeBipartiteRatings(60, 40, 600, 4)});
    out.push_back({"parallel", parallelEdges()});
    return out;
}

/** GraphRNode::runPageRank's functional loop, over the reference. */
std::vector<Value>
referencePageRank(const GraphRConfig &config, const CooGraph &graph,
                  const PageRankParams &params, EngineStats &stats)
{
    reference::MacRun run(
        config, std::make_shared<const TilePlan>(graph, config.tiling),
        true);
    const VertexId nv = graph.numVertices();
    const std::vector<EdgeId> out_deg = graph.outDegrees();
    const auto scale = [damping = params.damping,
                        &out_deg](const Edge &e) {
        return damping / static_cast<double>(out_deg[e.src]);
    };
    std::vector<Value> ranks(nv, 1.0 / static_cast<double>(nv));
    for (int iter = 0; iter < params.maxIterations; ++iter) {
        double dangling = 0.0;
        for (VertexId v = 0; v < nv; ++v) {
            if (out_deg[v] == 0)
                dangling += ranks[v];
        }
        const double base =
            (1.0 - params.damping) / static_cast<double>(nv) +
            params.damping * dangling / static_cast<double>(nv);
        std::vector<Value> next(nv, base);
        run.sweep(scale, ranks, next);
        ranks = std::move(next);
    }
    stats = run.stats;
    return ranks;
}

/** GraphRNode::runSpmv's functional sweep, over the reference. */
std::vector<Value>
referenceSpmv(const GraphRConfig &config, const CooGraph &graph,
              const std::vector<Value> &x, EngineStats &stats)
{
    reference::MacRun run(
        config, std::make_shared<const TilePlan>(graph, config.tiling),
        false);
    const std::vector<EdgeId> out_deg = graph.outDegrees();
    std::vector<Value> y(graph.numVertices(), 0.0);
    run.sweep(
        [&out_deg](const Edge &e) {
            return e.weight / static_cast<double>(out_deg[e.src]);
        },
        x, y);
    stats = run.stats;
    return y;
}

/** SSSP from @p source as it was specified: original weights. */
AddOpSpec
originalWeightSssp(const CooGraph &graph, VertexId source)
{
    AddOpSpec spec;
    spec.initLabels.assign(graph.numVertices(), kInfDistance);
    spec.initActive.assign(graph.numVertices(), false);
    spec.initLabels[source] = 0.0;
    spec.initActive[source] = true;
    spec.mode = WeightMode::kOriginal;
    return spec;
}

void
expectSameDatapath(const NamedGraph &named, const Setting &setting)
{
    const CooGraph &graph = named.graph;
    const GraphRConfig config = configOf(setting);
    const std::string where = named.name + " " + nameOf(setting);
    GraphRNode node(config);
    EngineStats want;

    PageRankParams params;
    params.maxIterations = 4;
    params.tolerance = 0.0;
    std::uint64_t before = mvmRows();
    std::vector<Value> ranks;
    node.runPageRank(graph, params, &ranks);
    const std::uint64_t rows = mvmRows() - before;
    before = mvmRows();
    expectBitEqual(ranks, referencePageRank(config, graph, params, want),
                   where + " pagerank");
    EXPECT_EQ(rows, mvmRows() - before) << where << " pagerank";
    expectSameCounts(node.lastEngineStats(), want, where + " pagerank");

    std::vector<Value> x(graph.numVertices());
    for (VertexId v = 0; v < graph.numVertices(); ++v)
        x[v] = 0.125 + 0.25 * static_cast<double>(v % 7);
    before = mvmRows();
    std::vector<Value> y;
    node.runSpmv(graph, x, &y);
    const std::uint64_t spmv_rows = mvmRows() - before;
    before = mvmRows();
    expectBitEqual(y, referenceSpmv(config, graph, x, want),
                   where + " spmv");
    EXPECT_EQ(spmv_rows, mvmRows() - before) << where << " spmv";
    expectSameCounts(node.lastEngineStats(), want, where + " spmv");

    const TilePlan plan(graph, config.tiling);
    want = {};
    std::vector<Value> dist;
    node.runBfs(graph, 0, &dist);
    expectBitEqual(dist,
                   reference::addOpSolve(config, plan, graph,
                                         bfsSpec(graph, 0), want),
                   where + " bfs");
    expectSameCounts(node.lastEngineStats(), want, where + " bfs");
    want = {};

    node.runSssp(graph, 0, &dist);
    expectBitEqual(dist,
                   reference::addOpSolve(config, plan, graph,
                                         originalWeightSssp(graph, 0),
                                         want),
                   where + " sssp");
    expectSameCounts(node.lastEngineStats(), want, where + " sssp");
    want = {};

    std::vector<VertexId> labels;
    node.runWcc(graph, &labels);
    const std::vector<Value> ref_labels = reference::addOpSolve(
        config, TilePlan(SymmetrizedView(graph), config.tiling), graph,
        wccSpec(graph), want);
    ASSERT_EQ(labels.size(), ref_labels.size()) << where;
    for (VertexId v = 0; v < labels.size(); ++v) {
        ASSERT_EQ(labels[v], static_cast<VertexId>(ref_labels[v]))
            << where << " wcc vertex " << v;
    }
    expectSameCounts(node.lastEngineStats(), want, where + " wcc");
}

const Setting kSettings[] = {
    {8, 4, 2, 0.0, ProgramCharging::kPerSweep, 12},
    {8, 32, 64, 0.0, ProgramCharging::kOnce, 16},
    {8, 4, 2, 0.5, ProgramCharging::kPerSweep, 8},
    {6, 3, 2, 0.5, ProgramCharging::kOnce, 12},
    {6, 3, 2, 0.0, ProgramCharging::kPerSweep, 16},
    {64, 2, 2, 0.5, ProgramCharging::kPerSweep, 16},
    {64, 2, 2, 0.0, ProgramCharging::kOnce, 12},
};

TEST(DatapathDiffTest, CellStoreRunsMatchTheSnapshotPath)
{
    for (const NamedGraph &named : graphs()) {
        for (const Setting &setting : kSettings)
            expectSameDatapath(named, setting);
    }
}

TEST(DatapathDiffTest, PerEdgeAndRawWeightsMatchTheSnapshotPath)
{
    // The weight rules no runner of the program uses: a per-edge
    // MacSpec::edgeScale, and raw weights when a spec sets no rule.
    // Two sweeps each: the first programs, the second reads in place.
    for (const NamedGraph &named : graphs()) {
        for (const Setting &setting : kSettings) {
            const GraphRConfig config = configOf(setting);
            const std::string where = named.name + " " + nameOf(setting);
            const CooGraph &graph = named.graph;
            const auto plan =
                std::make_shared<const TilePlan>(graph, config.tiling);
            const std::vector<EdgeId> out_deg = graph.outDegrees();
            const std::function<double(const Edge &)> scales[] = {
                [&out_deg](const Edge &e) {
                    return 0.5 * e.weight /
                           static_cast<double>(out_deg[e.src]);
                },
                nullptr,
            };
            std::vector<Value> x(graph.numVertices());
            for (VertexId v = 0; v < graph.numVertices(); ++v)
                x[v] = 1.0 / static_cast<double>(1 + v % 5);
            for (const auto &scale : scales) {
                TileExecutor exec(config, plan);
                MacSpec spec;
                spec.edgeScale = scale;
                reference::MacRun run(config, plan, true);
                for (int sweep = 0; sweep < 2; ++sweep) {
                    std::vector<Value> got(graph.numVertices(), 0.0);
                    std::vector<Value> want(graph.numVertices(), 0.0);
                    exec.functionalMacSweep(spec, x, got);
                    run.sweep(scale, x, want);
                    expectBitEqual(got, want,
                                   where + (scale ? " edge scale"
                                                  : " raw weights"));
                }
                expectSameCounts(exec.stats(), run.stats, where);
            }
        }
    }
}

TEST(DatapathDiffTest, QuantiserRoundsLikeLlround)
{
    // The inline rounding (truncate, then one up from a half) against
    // the llround it replaced, where the two could part: just below a
    // half, on halves, near and past the top of the range, and a
    // negative value within the tolerance.
    std::vector<double> values = {
        0.0,
        std::nextafter(0.5, 0.0),
        0.5,
        std::nextafter(0.5, 1.0),
        1.5,
        2.5,
        65534.5,
        65535.0,
        65535.4,
        std::nextafter(65535.5, 0.0),
        65535.5,
        65535.6,
        70000.0,
        1e300,
        std::numeric_limits<double>::infinity(),
        -1e-13,
        -0.0,
        std::numeric_limits<double>::denorm_min(),
    };
    for (std::uint32_t k = 0; k < 65535; ++k) {
        values.push_back(k + 0.5);
        values.push_back(std::nextafter(k + 0.5, 0.0));
        values.push_back(k + 0.25);
    }
    for (const int frac_bits : {0, 4, 12, 16}) {
        for (const double value : values) {
            ASSERT_EQ(FixedPoint::quantize(value, frac_bits).raw(),
                      reference::quantize(value, frac_bits))
                << value << " at " << frac_bits << " fractional bits";
        }
    }
    // Each of a seeded sweep's values, scaled into the range.
    Rng rng(17);
    for (int i = 0; i < 200000; ++i) {
        const double value = rng.uniform() * 70000.0;
        for (const int frac_bits : {0, 12}) {
            const double scaled =
                value / static_cast<double>(1u << frac_bits);
            ASSERT_EQ(FixedPoint::quantize(scaled, frac_bits).raw(),
                      reference::quantize(scaled, frac_bits))
                << scaled;
        }
    }
}

} // namespace
} // namespace graphr
