/**
 * @file
 * Tests for the CPU / GPU / PIM baseline models.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/traversal.hh"
#include "algorithms/wcc.hh"
#include "baselines/cpu_model.hh"
#include "baselines/gpu_model.hh"
#include "baselines/pim_model.hh"
#include "graph/csr.hh"
#include "graph/generator.hh"
#include "perf/counters.hh"

namespace graphr
{
namespace
{

CooGraph
testGraph()
{
    return makeRmat({.numVertices = 2000,
                     .numEdges = 16000,
                     .maxWeight = 15.0,
                     .seed = 51});
}

TEST(CpuModelTest, PageRankScalesWithIterations)
{
    CpuModel cpu;
    const CooGraph g = testGraph();
    const BaselineReport r5 = cpu.runPageRank(g, 5);
    const BaselineReport r10 = cpu.runPageRank(g, 10);
    EXPECT_GT(r5.seconds, 0.0);
    EXPECT_NEAR(r10.seconds / r5.seconds, 2.0, 0.05);
    EXPECT_EQ(r10.edgesProcessed, 2 * r5.edgesProcessed);
}

TEST(CpuModelTest, EnergyIncludesDram)
{
    CpuModel cpu;
    const CooGraph g = testGraph();
    const BaselineReport r = cpu.runPageRank(g, 5);
    EXPECT_GT(r.joules, cpu.params().packageWatts * r.seconds * 0.99);
    EXPECT_GT(r.dramAccesses, 0u);
}

TEST(CpuModelTest, TraversalVisitsReachableEdges)
{
    CpuModel cpu;
    const CooGraph g = testGraph();
    const BaselineReport r = cpu.runBfs(g, 0);
    EXPECT_GT(r.iterations, 1u);
    EXPECT_GT(r.edgesProcessed, 0u);
    // Synchronous relaxation may revisit edges across rounds but the
    // volume stays within iterations * |E|.
    EXPECT_LE(r.edgesProcessed, r.iterations * g.numEdges());
}

TEST(CpuModelTest, SsspAndBfsSameStructure)
{
    CpuModel cpu;
    const CooGraph g = testGraph();
    const BaselineReport b = cpu.runBfs(g, 0);
    const BaselineReport s = cpu.runSssp(g, 0);
    EXPECT_EQ(b.platform, "cpu");
    EXPECT_EQ(s.algorithm, "sssp");
    EXPECT_GT(s.seconds, 0.0);
    EXPECT_GT(b.seconds, 0.0);
}

TEST(CpuModelTest, CfCostGrowsWithK)
{
    CpuModel cpu;
    const CooGraph ratings = makeBipartiteRatings(400, 80, 6000, 52);
    CfParams k8;
    k8.numUsers = 400;
    k8.featureLength = 8;
    k8.epochs = 2;
    CfParams k32 = k8;
    k32.featureLength = 32;
    EXPECT_GT(cpu.runCf(ratings, k32).seconds,
              cpu.runCf(ratings, k8).seconds);
}

TEST(GpuModelTest, TransferChargedOnce)
{
    GpuModel gpu;
    const CooGraph g = testGraph();
    const BaselineReport r1 = gpu.runPageRank(g, 1);
    const BaselineReport r10 = gpu.runPageRank(g, 10);
    // 10 iterations cost less than 10x one iteration because the
    // PCIe transfer amortises.
    EXPECT_LT(r10.seconds, 10.0 * r1.seconds);
    EXPECT_GT(r10.seconds, r1.seconds);
}

TEST(GpuModelTest, BandwidthBoundScaling)
{
    GpuModel gpu;
    const CooGraph small = makeRmat(
        {.numVertices = 1000, .numEdges = 8000, .seed = 53});
    const CooGraph big = makeRmat(
        {.numVertices = 1000, .numEdges = 64000, .seed = 53});
    const BaselineReport rs = gpu.runPageRank(small, 10);
    const BaselineReport rb = gpu.runPageRank(big, 10);
    EXPECT_GT(rb.seconds, rs.seconds);
    EXPECT_GT(rb.joules, rs.joules);
}

TEST(GpuModelTest, TraversalRoundsMatchGolden)
{
    GpuModel gpu;
    const CooGraph g = testGraph();
    const BaselineReport r = gpu.runBfs(g, 0);
    EXPECT_GT(r.iterations, 1u);
    EXPECT_GT(r.joules, 0.0);
}

TEST(GpuModelTest, CfComputeBound)
{
    GpuModel gpu;
    const CooGraph ratings = makeBipartiteRatings(400, 80, 6000, 54);
    CfParams cf;
    cf.numUsers = 400;
    cf.featureLength = 32;
    cf.epochs = 3;
    const BaselineReport r = gpu.runCf(ratings, cf);
    EXPECT_GT(r.seconds, 0.0);
    EXPECT_EQ(r.iterations, 3u);
}

TEST(PimModelTest, FasterThanCpuOnPageRank)
{
    // Tesseract's headline claim: order-of-magnitude speedup over
    // conventional systems on graph workloads.
    CpuModel cpu;
    PimModel pim;
    const CooGraph g = testGraph();
    const BaselineReport rc = cpu.runPageRank(g, 10);
    const BaselineReport rp = pim.runPageRank(g, 10);
    EXPECT_GT(rc.seconds / rp.seconds, 2.0);
}

TEST(PimModelTest, CoreCountMatchesConfig)
{
    PimModel pim;
    EXPECT_EQ(pim.totalCores(), 512u);
}

TEST(PimModelTest, BarrierCostPerIteration)
{
    PimModel pim;
    const CooGraph tiny = makeChain(16);
    const BaselineReport r = pim.runPageRank(tiny, 100);
    // Tiny graph: barrier dominates; 100 iterations >= 100 barriers.
    EXPECT_GE(r.seconds, 100.0 * pim.params().barrierUs * 1e-6);
}

TEST(PimModelTest, TraversalActiveEdgesOnly)
{
    PimModel pim;
    const CooGraph g = testGraph();
    const BaselineReport full = pim.runPageRank(g, 1);
    const BaselineReport bfs_r = pim.runBfs(g, 0);
    // Per-round PIM BFS work is bounded by whole-graph sweeps.
    EXPECT_LE(bfs_r.edgesProcessed,
              bfs_r.iterations * full.edgesProcessed);
}

// ------------------------------------ the per-round scan, verbatim

/**
 * The relaxation as each model once ran its own: a RelaxationSweep
 * plus one active flag per vertex, and the offsets, degrees and
 * neighbours of the out-rows of @p relaxed (for WCC the copy
 * symmetrize(g), whose rows the sweep reads from g both ways).
 */
class ScanSweep
{
  public:
    ScanSweep(RelaxationSweep sweep, const CooGraph &relaxed)
        : sweep_(std::move(sweep)),
          out_(relaxed, CsrGraph::Direction::kOut),
          active_(relaxed.numVertices(), false)
    {
        flag(true);
    }

    const std::vector<bool> &active() const { return active_; }
    bool done() const { return sweep_.done(); }
    std::span<const EdgeId> offsets() const { return out_.offsets(); }
    EdgeId degree(VertexId v) const { return out_.degree(v); }

    VertexId
    neighbor(EdgeId i) const
    {
        // Row-major entries: entry i lies in the row whose offsets
        // bracket it.
        const std::span<const EdgeId> offsets = out_.offsets();
        const auto row = static_cast<VertexId>(
            std::upper_bound(offsets.begin(), offsets.end(), i) -
            offsets.begin() - 1);
        return out_.neighbors(row)[i - offsets[row]].neighbor;
    }

    void
    step()
    {
        flag(false);
        sweep_.step();
        flag(true);
    }

  private:
    void
    flag(bool on)
    {
        for (const VertexId v : sweep_.activeIds())
            active_[v] = on;
    }

    RelaxationSweep sweep_;
    CsrGraph out_;
    std::vector<bool> active_;
};

// The three traces below are the models' relaxation replays as they
// ran before the models walked forEachRound(), copied verbatim: each
// round scans every vertex's active flag. They are the definition
// the models' reports must keep.

namespace scan_cpu
{

constexpr std::uint64_t kSrcPropBase = 0;
constexpr std::uint64_t kDstPropBase = 1ull << 40;
constexpr std::uint64_t kEdgeBase = 1ull << 41;
constexpr std::uint32_t kPropBytes = 8;
constexpr std::uint32_t kEdgeBytes = 12;

BaselineReport
relaxationTrace(const CooGraph &graph, ScanSweep &sweep,
                const char *name, const CpuParams &params)
{
    BaselineReport report;
    report.platform = "cpu";
    report.algorithm = name;

    const std::span<const EdgeId> offsets = sweep.offsets();
    CacheHierarchy cache(params.cache);

    // GridGraph-style P x P grid: P chosen so a vertex chunk is
    // cache-resident; chunk = source range of one block row.
    const VertexId chunk = std::max<VertexId>(
        4096, graph.numVertices() / params.gridP);

    double cycles = 0.0;
    while (!sweep.done()) {
        const std::vector<bool> &active = sweep.active();
        for (VertexId base = 0; base < graph.numVertices();
             base += chunk) {
            const VertexId end =
                std::min<VertexId>(base + chunk, graph.numVertices());
            bool chunk_active = false;
            for (VertexId u = base; u < end && !chunk_active; ++u)
                chunk_active = active[u];
            if (!chunk_active)
                continue; // whole block skipped by the scheduler

            for (VertexId u = base; u < end; ++u) {
                const EdgeId first = offsets[u];
                const EdgeId last = offsets[u + 1];
                const bool is_active = active[u];
                for (EdgeId idx = first; idx < last; ++idx) {
                    // Edge block streams sequentially regardless of
                    // per-source activity.
                    cycles += cache.access(kEdgeBase + idx * kEdgeBytes);
                    if (is_active) {
                        cycles += cache.access(
                            kSrcPropBase +
                            static_cast<std::uint64_t>(u) * kPropBytes);
                        cycles += cache.access(
                            kDstPropBase +
                            static_cast<std::uint64_t>(
                                sweep.neighbor(idx)) *
                                kPropBytes);
                        cycles += params.cyclesPerEdge;
                        report.randomAccesses += 1;
                    } else {
                        cycles += 2.0; // active-bitmap check only
                    }
                    ++report.edgesProcessed;
                }
                report.sequentialBytes +=
                    (last - first) *
                    static_cast<std::uint64_t>(kEdgeBytes);
            }
        }
        cycles += params.iterationOverheadUs * 1e-6 *
                  params.frequencyGhz * 1e9;
        ++report.iterations;
        sweep.step();
    }

    const double seconds =
        cycles / (params.frequencyGhz * 1e9) /
        params.effectiveParallelism;
    report.seconds = seconds;
    report.dramAccesses = cache.stats().dramAccesses;
    const double dram_j = static_cast<double>(cache.stats().dramAccesses) *
                          params.cache.dramEnergyPjPerLine * 1e-12;
    report.joules = params.packageWatts * seconds + dram_j;
    return report;
}

} // namespace scan_cpu

namespace scan_gpu
{

constexpr double kEdgeBytes = 8.0;   ///< packed (dst, weight) in CSR
constexpr double kVertexBytes = 8.0; ///< property + frontier flag

template <typename Graph>
BaselineReport
gpuRelaxation(const Graph &graph, ScanSweep &sweep,
              const char *name, const GpuParams &params)
{
    BaselineReport report;
    report.platform = "gpu";
    report.algorithm = name;

    // Replay the synchronous rounds to obtain per-round frontier and
    // edge volumes (Gunrock advance+filter).
    const double bw = params.memBandwidthGBs * 1e9 *
                      params.bandwidthEfficiency;

    double kernel_s = 0.0;
    double bytes_total = 0.0;
    while (!sweep.done()) {
        const std::vector<bool> &active = sweep.active();
        std::uint64_t frontier_edges = 0;
        std::uint64_t frontier_vertices = 0;
        for (VertexId u = 0; u < graph.numVertices(); ++u) {
            if (!active[u])
                continue;
            ++frontier_vertices;
            frontier_edges += sweep.degree(u);
        }
        // Advance reads frontier edges + labels (random gathers pay
        // the transaction waste), filter compacts the new frontier;
        // re-relaxations and atomic serialisation inflate the work.
        const double bytes =
            (static_cast<double>(frontier_edges) *
                 (kEdgeBytes + 8.0 * params.randomTransactionWaste) +
             static_cast<double>(frontier_vertices) * kVertexBytes *
                 3.0) *
            params.traversalWorkInflation;
        kernel_s += bytes / bw + 2.0 * params.kernelLaunchUs * 1e-6;
        bytes_total += bytes;
        report.edgesProcessed += frontier_edges;
        ++report.iterations;
        sweep.step();
    }
    report.sequentialBytes = static_cast<std::uint64_t>(bytes_total);

    const double transfer_bytes =
        static_cast<double>(graph.numEdges()) * 12.0 +
        static_cast<double>(graph.numVertices()) * kVertexBytes;
    const double transfer_s =
        transfer_bytes / (params.pcieBandwidthGBs * 1e9);
    report.seconds = kernel_s + transfer_s;
    report.joules =
        params.boardWatts * kernel_s + params.idleWatts * transfer_s;
    return report;
}

} // namespace scan_gpu

namespace scan_pim
{

BaselineReport
pimRelaxation(const CooGraph &graph, ScanSweep &sweep,
              const char *name, const PimModel &model,
              const PimParams &params)
{
    BaselineReport report;
    report.platform = "pim";
    report.algorithm = name;

    double seconds = 0.0;
    while (!sweep.done()) {
        const std::vector<bool> &active = sweep.active();
        std::uint64_t frontier_edges = 0;
        for (VertexId u = 0; u < graph.numVertices(); ++u) {
            if (active[u])
                frontier_edges += sweep.degree(u);
        }
        // Small frontiers cannot use all vault cores; retain a
        // minimum serial cost of one edge per active round. Frontier
        // skew and Put-queue congestion inflate the round's work.
        seconds += model.edgeBatchSeconds(std::max<std::uint64_t>(
                       frontier_edges, 1)) *
                       params.traversalWorkInflation +
                   params.barrierUs * 1e-6;
        report.edgesProcessed += frontier_edges;
        ++report.iterations;
        sweep.step();
    }
    report.seconds = seconds;
    report.joules = params.activeWatts * seconds;
    return report;
}

} // namespace scan_pim

void
expectSameReport(const BaselineReport &got, const BaselineReport &want)
{
    EXPECT_EQ(got.platform, want.platform);
    EXPECT_EQ(got.algorithm, want.algorithm);
    EXPECT_EQ(got.seconds, want.seconds);
    EXPECT_EQ(got.joules, want.joules);
    EXPECT_EQ(got.iterations, want.iterations);
    EXPECT_EQ(got.edgesProcessed, want.edgesProcessed);
    EXPECT_EQ(got.sequentialBytes, want.sequentialBytes);
    EXPECT_EQ(got.randomAccesses, want.randomAccesses);
    EXPECT_EQ(got.dramAccesses, want.dramAccesses);
}

/** Each model's report of one relaxation equals its scan's. */
void
expectModelsAreTheScans(const CooGraph &graph, const CooGraph &relaxed,
                        const std::function<RelaxationSweep()> &sweep,
                        const std::function<BaselineReport(CpuModel &)> &cpu,
                        const std::function<BaselineReport(GpuModel &)> &gpu,
                        const std::function<BaselineReport(PimModel &)> &pim,
                        const char *name)
{
    SCOPED_TRACE(name);
    CpuModel cpu_model;
    GpuModel gpu_model;
    PimModel pim_model;
    {
        ScanSweep scan(sweep(), relaxed);
        expectSameReport(cpu(cpu_model),
                         scan_cpu::relaxationTrace(graph, scan, name,
                                                   cpu_model.params()));
    }
    {
        // The GPU prices the transfer of the edges relaxed: for WCC
        // the symmetrised ones (the relaxed copy's).
        ScanSweep scan(sweep(), relaxed);
        expectSameReport(gpu(gpu_model),
                         scan_gpu::gpuRelaxation(relaxed, scan, name,
                                                 gpu_model.params()));
    }
    {
        ScanSweep scan(sweep(), relaxed);
        expectSameReport(pim(pim_model),
                         scan_pim::pimRelaxation(graph, scan, name,
                                                 pim_model,
                                                 pim_model.params()));
    }
}

TEST(BaselineRoundsTest, ModelsPriceTheScansRoundsOnEveryFamily)
{
    const std::pair<std::string, CooGraph> families[] = {
        // Over 4096 vertices, so the CPU's source chunks are several
        // and early rounds skip some.
        {"rmat", makeRmat({.numVertices = 20000,
                           .numEdges = 80000,
                           .maxWeight = 15.0,
                           .seed = 55})},
        {"er", makeErdosRenyi(500, 3000, 56, 5.0)},
        {"star", makeStar(300)},
        {"bipartite", makeBipartiteRatings(60, 40, 700, 57)},
        // A weighted grid re-relaxes its vertices over many rounds:
        // its SSSP schedule passes its cap and is relaxed live.
        {"grid", makeGrid2d(40, 40, 7, 10.0)},
        // One vertex a round: every schedule passes its cap.
        {"chain", makeChain(600)},
    };
    for (const auto &[family, g] : families) {
        SCOPED_TRACE(family);
        const VertexId nv = g.numVertices();
        for (const VertexId source : {VertexId{0}, nv / 3}) {
            SCOPED_TRACE("source " + std::to_string(source));
            expectModelsAreTheScans(
                g, g, [&] { return RelaxationSweep(g, source, true); },
                [&](CpuModel &m) { return m.runBfs(g, source); },
                [&](GpuModel &m) { return m.runBfs(g, source); },
                [&](PimModel &m) { return m.runBfs(g, source); }, "bfs");
            expectModelsAreTheScans(
                g, g, [&] { return RelaxationSweep(g, source, false); },
                [&](CpuModel &m) { return m.runSssp(g, source); },
                [&](GpuModel &m) { return m.runSssp(g, source); },
                [&](PimModel &m) { return m.runSssp(g, source); }, "sssp");
        }
        expectModelsAreTheScans(
            g, symmetrize(g), [&] { return makeWccSweep(g); },
            [&](CpuModel &m) { return m.runWcc(g); },
            [&](GpuModel &m) { return m.runWcc(g); },
            [&](PimModel &m) { return m.runWcc(g); }, "wcc");

        if (family == "grid") {
            EXPECT_FALSE(ssspSchedule(g, 0)->recorded());
        }
        if (family == "chain") {
            for (const VertexId source : {VertexId{0}, nv / 3}) {
                EXPECT_FALSE(bfsSchedule(g, source)->recorded());
                EXPECT_FALSE(ssspSchedule(g, source)->recorded());
            }
            EXPECT_FALSE(wccSchedule(g)->recorded());
        }
    }
}

std::uint64_t
counterValue(const char *name)
{
    return perf::Registry::instance().counter(name).value();
}

TEST(BaselineRoundsTest, ModelsShareTheGraphsMemoisedSchedule)
{
    const CooGraph g = testGraph();
    const std::uint64_t misses = counterValue("frontier_cache.misses");
    const std::uint64_t hits = counterValue("frontier_cache.hits");

    // The first BFS from a source records its schedule ...
    CpuModel().runBfs(g, 0);
    EXPECT_EQ(counterValue("frontier_cache.misses"), misses + 1);
    EXPECT_EQ(counterValue("frontier_cache.hits"), hits);

    // ... and another model's BFS from it replays that recording.
    GpuModel().runBfs(g, 0);
    EXPECT_EQ(counterValue("frontier_cache.misses"), misses + 1);
    EXPECT_EQ(counterValue("frontier_cache.hits"), hits + 1);
}

} // namespace
} // namespace graphr
