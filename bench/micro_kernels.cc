/**
 * @file
 * Micro-benchmarks of the hot simulation kernels: crossbar MVM,
 * preprocessing sort, tile-meta extraction, plan cache/store paths,
 * the node-level PageRank sweep, driver sweep throughput and serving
 * request latency. These track the *simulator's* own performance,
 * not the modelled hardware.
 *
 * Runs on the in-tree perf harness (src/perf/bench.hh) — no external
 * benchmark library. Each case does its setup, then times an inner
 * loop of kernel invocations across --reps repetitions (after
 * --warmups untimed ones) and reports min/median/IQR per invocation
 * plus a throughput rate.
 *
 *   bench_micro_kernels [--filter SUBSTR] [--reps N] [--warmups N]
 *                       [--list]
 */

#include <cstdint>
#include <filesystem>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/table.hh"
#include "driver/driver.hh"
#include "graph/generator.hh"
#include "graph/preprocess.hh"
#include "graphr/engine/plan_cache.hh"
#include "graphr/node.hh"
#include "graphr/tile_meta.hh"
#include "perf/bench.hh"
#include "rram/crossbar.hh"
#include "rram/simd/simd.hh"
#include "service/server.hh"
#include "store/plan_store.hh"

namespace
{

using namespace graphr;

/** One finished case: per-invocation timing + a throughput count. */
struct CaseResult
{
    perf::RepStats stats;
    /** Kernel invocations per timed repetition (the inner loop). */
    std::uint64_t itersPerRep = 1;
    /** Work items (edges, cells, runs) per kernel invocation. */
    std::uint64_t itemsPerIter = 1;
    std::string label;
};

/** A registered micro-benchmark: setup runs inside run(). */
struct MicroCase
{
    std::string name;
    std::function<CaseResult(const perf::RepOptions &)> run;
};

/** Time @p iters invocations of @p body per repetition. */
perf::RepStats
timeLoop(const perf::RepOptions &rep, std::uint64_t iters,
         const std::function<void()> &body)
{
    return perf::measure(rep, [&] {
        for (std::uint64_t i = 0; i < iters; ++i)
            body();
    });
}

CaseResult
crossbarMvm(const perf::RepOptions &rep, std::uint32_t dim)
{
    DeviceParams params;
    Crossbar cb(dim, params);
    Rng rng(1);
    for (std::uint32_t r = 0; r < dim; ++r)
        for (std::uint32_t c = 0; c < dim; ++c)
            cb.programValue(
                r, c,
                FixedPoint::fromRaw(static_cast<FixedPoint::Raw>(
                                        rng.below(65536)),
                                    0));
    std::vector<FixedPoint::Raw> x(dim);
    for (auto &v : x)
        v = static_cast<FixedPoint::Raw>(rng.below(65536));
    const std::uint64_t iters = 2048;
    CaseResult result;
    result.stats = timeLoop(
        rep, iters, [&] { perf::doNotOptimize(cb.mvmRaw(x)); });
    result.itersPerRep = iters;
    result.itemsPerIter = static_cast<std::uint64_t>(dim) * dim;
    return result;
}

CaseResult
crossbarMvmSparse(const perf::RepOptions &rep, std::uint32_t dim,
                  std::uint32_t occupied)
{
    // Dense-vs-sparse kernel cost: `occupied` wordlines of a dim x dim
    // crossbar hold values. Real power-law tiles leave most rows
    // empty, and the row-occupancy mask skips them outright — the gap
    // to the dense row is the per-MVM win.
    DeviceParams params;
    Crossbar cb(dim, params);
    Rng rng(1);
    for (std::uint32_t r = 0; r < occupied; ++r) {
        // Spread occupied rows across the array.
        const std::uint32_t row = r * dim / std::max(occupied, 1u);
        for (std::uint32_t c = 0; c < dim; ++c)
            cb.programValue(
                row, c,
                FixedPoint::fromRaw(static_cast<FixedPoint::Raw>(
                                        1 + rng.below(65535)),
                                    0));
    }
    std::vector<FixedPoint::Raw> x(dim);
    for (auto &v : x)
        v = static_cast<FixedPoint::Raw>(rng.below(65536));
    const std::uint64_t iters = 2048;
    CaseResult result;
    result.stats = timeLoop(
        rep, iters, [&] { perf::doNotOptimize(cb.mvmRaw(x)); });
    result.itersPerRep = iters;
    result.itemsPerIter = static_cast<std::uint64_t>(dim) * dim;
    result.label = occupied == dim
                       ? "dense"
                       : std::to_string(occupied) + "/" +
                             std::to_string(dim) + " rows";
    return result;
}

CaseResult
crossbarMvmSimd(const perf::RepOptions &rep, simd::Level level,
                std::uint32_t dim, std::uint32_t occupied)
{
    // Same MVM under a pinned kernel tier: the spread between the
    // scalar row and the dispatched SSE/AVX2 rows is the SIMD win on
    // this host. Results are byte-identical across tiers (the exact
    // path is pure mod-2^64 integer arithmetic), so only time moves.
    DeviceParams params;
    Crossbar cb(dim, params);
    cb.setSimdKernels(simd::kernelsFor(level));
    Rng rng(1);
    for (std::uint32_t r = 0; r < occupied; ++r) {
        const std::uint32_t row = r * dim / std::max(occupied, 1u);
        for (std::uint32_t c = 0; c < dim; ++c)
            cb.programValue(
                row, c,
                FixedPoint::fromRaw(static_cast<FixedPoint::Raw>(
                                        1 + rng.below(65535)),
                                    0));
    }
    std::vector<FixedPoint::Raw> x(dim);
    for (auto &v : x)
        v = static_cast<FixedPoint::Raw>(rng.below(65536));
    const std::uint64_t iters = 4096;
    CaseResult result;
    result.stats = timeLoop(
        rep, iters, [&] { perf::doNotOptimize(cb.mvmRaw(x)); });
    result.itersPerRep = iters;
    result.itemsPerIter = static_cast<std::uint64_t>(occupied) * dim;
    result.label = occupied == dim
                       ? "dense"
                       : std::to_string(occupied) + "/" +
                             std::to_string(dim) + " rows";
    return result;
}

CaseResult
preprocessSort(const perf::RepOptions &rep, EdgeId edges)
{
    const CooGraph g = makeRmat({.numVertices =
                                     static_cast<VertexId>(edges / 8),
                                 .numEdges = edges,
                                 .seed = 2});
    const GridPartition part(g.numVertices(), TilingParams{});
    CaseResult result;
    result.stats = timeLoop(rep, 1, [&] {
        OrderedEdgeList ordered(g, part);
        perf::doNotOptimize(ordered.numNonEmptyTiles());
    });
    result.itemsPerIter = edges;
    return result;
}

CaseResult
tileMeta(const perf::RepOptions &rep, EdgeId edges)
{
    const CooGraph g = makeRmat({.numVertices =
                                     static_cast<VertexId>(edges / 8),
                                 .numEdges = edges,
                                 .seed = 3});
    const GridPartition part(g.numVertices(), TilingParams{});
    const OrderedEdgeList ordered(g, part);
    const std::uint64_t iters = 4;
    CaseResult result;
    result.stats = timeLoop(rep, iters, [&] {
        TileMetaTable meta(ordered);
        perf::doNotOptimize(meta.totalNnz());
    });
    result.itersPerRep = iters;
    result.itemsPerIter = edges;
    return result;
}

CaseResult
planPrepareCold(const perf::RepOptions &rep, EdgeId edges)
{
    // Cost of a cache miss: fingerprint + partition + radix sort +
    // tile-meta extraction.
    const CooGraph g = makeRmat({.numVertices =
                                     static_cast<VertexId>(edges / 8),
                                 .numEdges = edges,
                                 .seed = 5});
    const TilingParams tiling;
    CaseResult result;
    result.stats = timeLoop(rep, 1, [&] {
        PlanCache::instance().clear();
        perf::doNotOptimize(PlanCache::instance().get(g, tiling));
    });
    result.itemsPerIter = edges;
    PlanCache::instance().clear();
    return result;
}

CaseResult
planCacheHit(const perf::RepOptions &rep, EdgeId edges)
{
    // Cost of a cache hit: fingerprint + lookup. The gap to
    // plan_prepare_cold is what every re-run/backend saves.
    const CooGraph g = makeRmat({.numVertices =
                                     static_cast<VertexId>(edges / 8),
                                 .numEdges = edges,
                                 .seed = 5});
    const TilingParams tiling;
    PlanCache::instance().get(g, tiling);
    const std::uint64_t iters = 256;
    CaseResult result;
    result.stats = timeLoop(rep, iters, [&] {
        perf::doNotOptimize(PlanCache::instance().get(g, tiling));
    });
    result.itersPerRep = iters;
    result.itemsPerIter = edges;
    PlanCache::instance().clear();
    return result;
}

CaseResult
planStoreColdVsWarm(const perf::RepOptions &rep, EdgeId edges,
                    bool warm)
{
    // The cold-start win of the on-disk preprocessing store: cold
    // pays fingerprint + partition + radix sort + meta
    // extraction (what a storeless process pays); warm is a validated
    // artifact load through the store's mmap/chunked path — no sort.
    const CooGraph g = makeRmat({.numVertices =
                                     static_cast<VertexId>(edges / 8),
                                 .numEdges = edges,
                                 .seed = 5});
    const TilingParams tiling;
    const std::uint64_t fingerprint = graphFingerprint(g);

    const std::string dir =
        (std::filesystem::temp_directory_path() /
         "graphr_bench_plan_store")
            .string();
    std::filesystem::remove_all(dir);
    const PlanStore store(dir);
    store.save(TilePlan(g, tiling), tiling);

    CaseResult result;
    if (warm) {
        result.stats = timeLoop(rep, 1, [&] {
            perf::doNotOptimize(store.load(fingerprint, tiling));
        });
    } else {
        result.stats = timeLoop(rep, 1, [&] {
            const TilePlan plan(g, tiling);
            perf::doNotOptimize(plan.ordered.numNonEmptyTiles());
        });
    }
    result.itemsPerIter = edges;
    result.label = warm ? "warm" : "cold";
    std::filesystem::remove_all(dir);
    return result;
}

CaseResult
functionalPageRank(const perf::RepOptions &rep, bool resident)
{
    // Functional wall-clock, reprogram-per-sweep vs resident weights
    // (ProgramCharging::kOnce programs each tile once per run and
    // replays the stored crossbar state afterwards).
    GraphRConfig cfg;
    cfg.tiling.crossbarDim = 8;
    cfg.tiling.crossbarsPerGe = 4;
    cfg.tiling.numGe = 4;
    cfg.functional = true;
    cfg.programCharging = resident ? ProgramCharging::kOnce
                                   : ProgramCharging::kPerSweep;
    const CooGraph g =
        makeRmat({.numVertices = 512, .numEdges = 4096, .seed = 6});
    GraphRNode node(cfg);
    PageRankParams params;
    params.maxIterations = 10;
    params.tolerance = 0.0;
    CaseResult result;
    result.stats = timeLoop(rep, 1, [&] {
        perf::doNotOptimize(node.runPageRank(g, params).seconds);
    });
    result.itemsPerIter = g.numEdges() * 10;
    result.label = resident ? "resident" : "reprogram";
    return result;
}

CaseResult
nodePageRankSweep(const perf::RepOptions &rep, EdgeId edges)
{
    const CooGraph g = makeRmat({.numVertices =
                                     static_cast<VertexId>(edges / 8),
                                 .numEdges = edges,
                                 .seed = 4});
    GraphRNode node;
    PageRankParams params;
    params.maxIterations = 10;
    params.tolerance = 0.0;
    CaseResult result;
    result.stats = timeLoop(rep, 1, [&] {
        perf::doNotOptimize(node.runPageRank(g, params).seconds);
    });
    result.itemsPerIter = edges * 10;
    return result;
}

CaseResult
sweepThroughput(const perf::RepOptions &rep, std::uint32_t jobs)
{
    // Driver sweep throughput at --jobs N: the full workload x
    // backend matrix on one small graph. Warm plan cache: the plans
    // are shared, so this measures the parallel execution scaling,
    // not preprocessing (each sweep resolves a fresh graph, whose
    // golden counts it computes once).
    driver::SweepSpec spec;
    spec.workloads = {"all"};
    spec.backends = {"all"};
    spec.datasets = {"rmat:vertices=256,edges=2048,seed=3"};
    spec.params =
        driver::ParamMap::parse("epochs=1,features=4,iterations=5");
    spec.jobs = jobs;
    const std::size_t runs = runSweep(spec).size(); // warm-up
    CaseResult result;
    result.stats = timeLoop(
        rep, 1, [&] { perf::doNotOptimize(runSweep(spec).size()); });
    result.itemsPerIter = runs;
    result.label = "jobs=" + std::to_string(jobs);
    return result;
}

CaseResult
serveRequest(const perf::RepOptions &rep, bool warm)
{
    // Per-request latency of the serving daemon: cold drops the
    // resident datasets and caches before each request, so the daemon
    // re-pays dataset resolution and the edge sort (what a one-shot
    // graphr_run process pays); warm is answered by the resident
    // dataset and PlanCache — the paper's online-phase steady state.
    service::Server server(service::ServeOptions{});
    const std::string request =
        "{\"id\":\"r\",\"type\":\"run\",\"workload\":\"pagerank\","
        "\"backend\":\"outofcore\","
        "\"dataset\":\"rmat:vertices=16384,edges=131072,seed=5\"}";
    std::string response;
    const auto serve = [&server, &request, &response] {
        const service::Server::SessionPtr session =
            server.openSession([&response](std::string &&line) {
                response = std::move(line);
            });
        server.handleLine(session, request);
        server.drainSession(*session);
        server.closeSession(session);
    };
    if (warm)
        serve();
    CaseResult result;
    result.stats = timeLoop(rep, 1, [&] {
        if (!warm) {
            // Cache drops are part of the scenario, not overhead
            // worth excluding: the sort they force dominates anyway.
            server.datasets().clear();
            PlanCache::instance().clear();
        }
        serve();
        perf::doNotOptimize(response.size());
    });
    result.itemsPerIter = 1;
    result.label = warm ? "warm" : "cold";
    return result;
}

std::vector<MicroCase>
allCases()
{
    using perf::RepOptions;
    std::vector<MicroCase> cases;
    const auto add = [&cases](std::string name, auto fn) {
        cases.push_back({std::move(name), std::move(fn)});
    };

    for (const std::uint32_t dim : {4u, 8u, 16u, 32u})
        add("crossbar_mvm/" + std::to_string(dim),
            [dim](const RepOptions &r) { return crossbarMvm(r, dim); });
    for (const std::uint32_t occ : {32u, 8u, 2u, 0u})
        add("crossbar_mvm_sparse/32x" + std::to_string(occ),
            [occ](const RepOptions &r) {
                return crossbarMvmSparse(r, 32, occ);
            });
    // One row per supported kernel tier; hosts without SSE4.1/AVX2
    // simply register fewer rows.
    for (const simd::Level level :
         {simd::Level::kScalar, simd::Level::kSse,
          simd::Level::kAvx2}) {
        if (!simd::levelSupported(level))
            continue;
        for (const std::uint32_t occ : {64u, 8u})
            add(std::string("crossbar_mvm_simd/") +
                    simd::levelName(level) + "/" +
                    (occ == 64u ? "dense" : "sparse"),
                [level, occ](const RepOptions &r) {
                    return crossbarMvmSimd(r, level, 64, occ);
                });
    }
    for (const EdgeId e : {EdgeId(10000), EdgeId(100000),
                           EdgeId(1000000)})
        add("preprocess_sort/" + std::to_string(e),
            [e](const RepOptions &r) { return preprocessSort(r, e); });
    for (const EdgeId e : {EdgeId(10000), EdgeId(100000)})
        add("tile_meta/" + std::to_string(e),
            [e](const RepOptions &r) { return tileMeta(r, e); });
    for (const EdgeId e : {EdgeId(10000), EdgeId(100000),
                           EdgeId(1000000)})
        add("plan_prepare_cold/" + std::to_string(e),
            [e](const RepOptions &r) {
                return planPrepareCold(r, e);
            });
    for (const EdgeId e : {EdgeId(10000), EdgeId(100000),
                           EdgeId(1000000)})
        add("plan_cache_hit/" + std::to_string(e),
            [e](const RepOptions &r) { return planCacheHit(r, e); });
    for (const EdgeId e : {EdgeId(100000), EdgeId(1000000)})
        for (const bool warm : {false, true})
            add("plan_store/" + std::to_string(e) + "/" +
                    (warm ? "warm" : "cold"),
                [e, warm](const RepOptions &r) {
                    return planStoreColdVsWarm(r, e, warm);
                });
    for (const bool resident : {false, true})
        add(std::string("functional_pagerank/") +
                (resident ? "resident" : "reprogram"),
            [resident](const RepOptions &r) {
                return functionalPageRank(r, resident);
            });
    add("node_pagerank_sweep/100000", [](const RepOptions &r) {
        return nodePageRankSweep(r, 100000);
    });
    for (const std::uint32_t jobs : {1u, 2u, 4u, 8u})
        add("sweep_throughput/jobs=" + std::to_string(jobs),
            [jobs](const RepOptions &r) {
                return sweepThroughput(r, jobs);
            });
    for (const bool warm : {false, true})
        add(std::string("serve_request/") + (warm ? "warm" : "cold"),
            [warm](const RepOptions &r) {
                return serveRequest(r, warm);
            });
    return cases;
}

/** Seconds formatted with an auto unit (ns/us/ms/s). */
std::string
humanSeconds(double s)
{
    std::ostringstream os;
    os.precision(3);
    if (s < 1e-6)
        os << s * 1e9 << " ns";
    else if (s < 1e-3)
        os << s * 1e6 << " us";
    else if (s < 1.0)
        os << s * 1e3 << " ms";
    else
        os << s << " s";
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    perf::RepOptions rep;
    rep.reps = 3;
    rep.warmups = 1;
    std::string filter;
    bool list = false;

    const std::vector<std::string> args(argv + 1, argv + argc);
    for (std::size_t i = 0; i < args.size(); ++i) {
        const auto next = [&](const std::string &flag) {
            if (i + 1 >= args.size()) {
                std::cerr << "error: " << flag << " needs a value\n";
                std::exit(1);
            }
            return args[++i];
        };
        if (args[i] == "--filter") {
            filter = next(args[i]);
        } else if (args[i] == "--reps") {
            rep.reps = static_cast<unsigned>(
                std::stoul(next("--reps")));
        } else if (args[i] == "--warmups") {
            rep.warmups = static_cast<unsigned>(
                std::stoul(next("--warmups")));
        } else if (args[i] == "--list") {
            list = true;
        } else if (args[i] == "--help" || args[i] == "-h") {
            std::cout
                << "bench_micro_kernels [--filter SUBSTR] [--reps N]"
                   " [--warmups N] [--list]\n";
            return 0;
        } else {
            std::cerr << "error: unknown flag '" << args[i]
                      << "' (see --help)\n";
            return 1;
        }
    }

    const std::vector<MicroCase> cases = allCases();
    if (list) {
        for (const MicroCase &c : cases)
            std::cout << c.name << "\n";
        return 0;
    }

    TextTable table;
    table.header({"bench", "label", "reps", "min/iter", "median/iter",
                  "iqr", "items/s"});
    bool ran = false;
    for (const MicroCase &c : cases) {
        if (!filter.empty() && c.name.find(filter) == std::string::npos)
            continue;
        std::cerr << "[bench] " << c.name << "\n";
        const CaseResult result = c.run(rep);
        ran = true;
        const double per_iter_median =
            result.stats.median() /
            static_cast<double>(result.itersPerRep);
        const double per_iter_min =
            result.stats.min() /
            static_cast<double>(result.itersPerRep);
        const double rate =
            per_iter_median > 0.0
                ? static_cast<double>(result.itemsPerIter) /
                      per_iter_median
                : 0.0;
        std::ostringstream rate_os;
        rate_os.precision(3);
        rate_os << rate;
        table.row({c.name, result.label, std::to_string(rep.reps),
                   humanSeconds(per_iter_min),
                   humanSeconds(per_iter_median),
                   humanSeconds(result.stats.iqr() /
                                static_cast<double>(result.itersPerRep)),
                   rate_os.str()});
    }
    if (!ran) {
        std::cerr << "error: no benchmark matches filter '" << filter
                  << "'\n";
        return 1;
    }
    table.print(std::cout);
    return 0;
}
