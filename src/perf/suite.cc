#include "suite.hh"

#include <algorithm>
#include <array>
#include <filesystem>
#include <numeric>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "client/client.hh"
#include "common/json.hh"
#include "driver/dataset.hh"
#include "driver/driver.hh"
#include "graphr/engine/plan_cache.hh"
#include "graphr/node.hh"
#include "common/random.hh"
#include "net/event_loop.hh"
#include "net/listener.hh"
#include "perf/bench.hh"
#include "rram/crossbar.hh"
#include "service/server.hh"
#include "store/plan_store.hh"

namespace graphr::perf
{

namespace
{

/**
 * Emits metrics into one report under a fixed repetition policy.
 * timed() records the ungated wall-clock trajectory point (median +
 * full repetition detail + counter deltas); scalar() records the
 * derived deterministic metrics the CI gate keys on.
 */
class SuiteBuilder
{
  public:
    SuiteBuilder(const SuiteOptions &options, BenchReport &report)
        : options_(options), report_(report)
    {
    }

    /** Measure fn and emit "<name>" (unit s, ungated, median). */
    RepStats
    timed(const std::string &name, const std::function<void()> &fn)
    {
        const RepStats stats = measure(
            RepOptions{options_.warmups, options_.reps}, fn);
        BenchMetric m;
        m.name = name;
        m.unit = "s";
        m.value = stats.median();
        m.gated = false;
        m.better = "lower";
        m.warmups = options_.warmups;
        m.reps = static_cast<unsigned>(stats.seconds.size());
        m.min = stats.min();
        m.medianSeconds = stats.median();
        m.iqrSeconds = stats.iqr();
        m.samples = stats.seconds;
        m.counters = stats.counterDeltas;
        log(name, m.value, "s");
        report_.metrics.push_back(std::move(m));
        return stats;
    }

    /** Emit one derived scalar metric. */
    void
    scalar(const std::string &name, double value,
           const std::string &unit, bool gated,
           const std::string &better = "lower")
    {
        BenchMetric m;
        m.name = name;
        m.unit = unit;
        m.value = value;
        m.gated = gated;
        m.better = better;
        log(name, value, unit);
        report_.metrics.push_back(std::move(m));
    }

    unsigned reps() const { return options_.reps; }

  private:
    void
    log(const std::string &name, double value,
        const std::string &unit)
    {
        if (options_.progress == nullptr)
            return;
        *options_.progress << "  " << name << " = "
                           << JsonWriter::formatDouble(value) << " "
                           << unit << "\n"
                           << std::flush;
    }

    SuiteOptions options_;
    BenchReport &report_;
};

/**
 * Dataset resolution with the pinned-seed invariant: every suite
 * dataset spec carries an explicit seed=..., and re-resolving the
 * same spec must yield the identical graph. check() fingerprints
 * each resolution and throws PerfError on drift, so a suite can
 * never silently measure a different graph per repetition.
 */
class FingerprintCheck
{
  public:
    explicit FingerprintCheck(std::string spec)
        : spec_(std::move(spec))
    {
    }

    driver::ResolvedDataset
    resolve()
    {
        driver::ResolvedDataset dataset =
            driver::resolveDataset(spec_);
        check(dataset.graph);
        return dataset;
    }

    void
    check(const CooGraph &graph)
    {
        const std::uint64_t fp = graphFingerprint(graph);
        if (expected_ == 0)
            expected_ = fp;
        else if (fp != expected_)
            throw PerfError(
                "dataset '" + spec_ +
                "' resolved to a different graph across "
                "repetitions — generator seeds must be pinned");
    }

    bool stable() const { return expected_ != 0; }

  private:
    std::string spec_;
    std::uint64_t expected_ = 0;
};

/** Scratch plan-store directory, removed on scope exit. */
class ScratchStoreDir
{
  public:
    ScratchStoreDir()
        : path_((std::filesystem::temp_directory_path() /
                 "graphr_perf_suite_store")
                    .string())
    {
        std::filesystem::remove_all(path_);
    }

    ~ScratchStoreDir() { std::filesystem::remove_all(path_); }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/**
 * Drop every process-wide warm level (memory only, not the store).
 * Golden counts and symmetrised copies live on their graph, so they
 * go with the graphs a scenario drops; their counters keep counting
 * across the drop, which the per-rep deltas need.
 */
void
dropCaches()
{
    PlanCache::instance().clear();
}

/**
 * The driver-sweep scenario: the workload x backend cross product on
 * one pinned graph, warm (warmups fill the plan cache, so the timed
 * window measures steady-state execution). Gated metrics: total
 * simulated seconds (the model's deterministic output), run count,
 * the warm-path invariant that no edge sort happens, and the graph
 * memo's work: each sweep resolves a fresh graph, so it computes
 * each golden count, each frontier schedule and the symmetrised copy
 * exactly once.
 */
void
sweepScenario(SuiteBuilder &b, const std::string &prefix,
              driver::SweepSpec spec)
{
    FingerprintCheck fp(spec.datasets.at(0));
    std::vector<driver::RunResult> results;
    const RepStats stats =
        b.timed(prefix + ".wall_s", [&spec, &results] {
            results = driver::runSweep(spec, nullptr);
        });
    // Re-resolve the dataset after the timed window: the sweep must
    // have run the graph the spec pins.
    fp.resolve();

    double sim_total = 0.0;
    for (const driver::RunResult &r : results)
        sim_total += r.seconds;
    b.scalar(prefix + ".sim_seconds_total", sim_total, "s", true);
    b.scalar(prefix + ".runs", static_cast<double>(results.size()),
             "count", true, "higher");
    b.scalar(prefix + ".sorts_per_rep",
             stats.perRep("preprocess.sorts"), "count", true);
    b.scalar(prefix + ".plan_cache_misses_per_rep",
             stats.perRep("plan_cache.misses"), "count", true);
    b.scalar(prefix + ".golden_computes_per_rep",
             stats.perRep("golden_cache.misses"), "count", true);
    b.scalar(prefix + ".frontier_builds_per_rep",
             stats.perRep("frontier_cache.misses"), "count", true);
    b.scalar(prefix + ".symmetrizations_per_rep",
             stats.perRep("graph.symmetrizations"), "count", true);
}

/**
 * The PlanStore scenario: cold prepare (the edge sort a
 * storeless cold start pays) vs warm artifact load, plus the
 * artifact footprint. Gated metrics: sorts per repetition on both
 * paths and artifact bytes per edge.
 */
void
storeScenario(SuiteBuilder &b, const std::string &prefix,
              const std::string &dataset_spec)
{
    FingerprintCheck fp(dataset_spec);
    const driver::ResolvedDataset dataset = fp.resolve();
    const CooGraph &graph = dataset.graph;
    const TilingParams tiling;

    const RepStats cold =
        b.timed(prefix + ".cold_prepare_wall_s", [&graph, &tiling] {
            const TilePlan plan(graph, tiling);
            doNotOptimize(plan.meta.totalNnz());
        });
    b.scalar(prefix + ".cold_sorts_per_rep",
             cold.perRep("preprocess.sorts"), "count", true);

    const ScratchStoreDir dir;
    const PlanStore store(dir.path());
    const std::string artifact = store.save(TilePlan(graph, tiling),
                                            tiling);
    const double bytes = static_cast<double>(
        std::filesystem::file_size(artifact));
    b.scalar(prefix + ".artifact_bytes", bytes, "bytes", true);
    b.scalar(prefix + ".artifact_bytes_per_edge",
             bytes / static_cast<double>(graph.numEdges()), "bytes",
             true);

    const std::uint64_t fingerprint = graphFingerprint(graph);
    const RepStats warm = b.timed(
        prefix + ".warm_load_wall_s", [&store, fingerprint, &tiling] {
            doNotOptimize(store.load(fingerprint, tiling));
        });
    b.scalar(prefix + ".warm_sorts_per_rep",
             warm.perRep("preprocess.sorts"), "count", true);
    b.scalar(prefix + ".warm_load_hits_per_rep",
             warm.perRep("store.load_hits"), "count", true,
             "higher");
    fp.resolve();
}

/**
 * The compressed-artifact scenario: the footprint of one pinned
 * graph's artifact plus the streaming-decode work of a warm load. The
 * byte counts and decode counters are deterministic functions of the
 * dataset, so they gate; only the wall clocks are trajectory points.
 */
void
compressScenario(SuiteBuilder &b, const std::string &prefix,
                 const std::string &dataset_spec)
{
    FingerprintCheck fp(dataset_spec);
    const driver::ResolvedDataset dataset = fp.resolve();
    const CooGraph &graph = dataset.graph;
    const TilingParams tiling;
    const TilePlan plan(graph, tiling);

    const ScratchStoreDir dir;
    const PlanStore store(dir.path());
    const std::string artifact = store.save(plan, tiling);
    const double bytes = static_cast<double>(
        std::filesystem::file_size(artifact));
    b.scalar(prefix + ".bytes", bytes, "bytes", true);
    b.scalar(prefix + ".bytes_per_edge",
             bytes / static_cast<double>(graph.numEdges()), "bytes",
             true);

    const std::uint64_t fingerprint = graphFingerprint(graph);
    const RepStats warm = b.timed(
        prefix + ".warm_decode_wall_s",
        [&store, fingerprint, &tiling] {
            doNotOptimize(store.load(fingerprint, tiling));
        });
    b.scalar(prefix + ".decoded_edges_per_rep",
             warm.perRep("store.codec.decoded_edges"), "count", true,
             "higher");
    b.scalar(prefix + ".decoded_tiles_per_rep",
             warm.perRep("store.codec.decoded_tiles"), "count", true,
             "higher");
    b.scalar(prefix + ".warm_sorts_per_rep",
             warm.perRep("preprocess.sorts"), "count", true);
    fp.resolve();
}

/**
 * The graphr_serve scenario: per-request latency of the daemon, warm
 * (resident dataset and PlanCache answer — the paper's online-phase
 * steady state) vs cold (resident datasets and caches dropped before
 * every request — what a one-shot process pays). Wall p50/p99 are the
 * trajectory; the gate keys on the deterministic resolve/cache/sort
 * work per request, and on the golden PageRank count: computed once
 * per cold request, answered by the resident graph's memo when warm.
 */
void
serveScenario(SuiteBuilder &b, const std::string &prefix,
              const std::string &dataset_spec)
{
    service::Server server(service::ServeOptions{});
    const std::string request =
        "{\"id\":\"bench\",\"type\":\"run\",\"workload\":\"pagerank\","
        "\"backend\":\"outofcore\",\"dataset\":\"" +
        dataset_spec + "\"}";
    const auto one_request = [&server, &request] {
        std::string response;
        const service::Server::SessionPtr session =
            server.openSession([&response](std::string &&line) {
                response = std::move(line);
            });
        server.handleLine(session, request);
        server.drainSession(*session);
        server.closeSession(session);
        doNotOptimize(response.size());
    };

    const RepStats warm = b.timed(prefix + ".warm_wall_s",
                                  one_request);
    std::vector<double> sorted = warm.seconds;
    std::sort(sorted.begin(), sorted.end());
    b.scalar(prefix + ".warm_p50_s", quantileSorted(sorted, 0.5),
             "s", false);
    b.scalar(prefix + ".warm_p99_s", quantileSorted(sorted, 0.99),
             "s", false);
    b.scalar(prefix + ".warm_plan_cache_hits_per_rep",
             warm.perRep("plan_cache.hits"), "count", true,
             "higher");
    b.scalar(prefix + ".warm_sorts_per_rep",
             warm.perRep("preprocess.sorts"), "count", true);
    b.scalar(prefix + ".warm_resolves_per_rep",
             warm.perRep("dataset_cache.misses"), "count", true);
    b.scalar(prefix + ".warm_golden_computes_per_rep",
             warm.perRep("golden_cache.misses"), "count", true);

    const RepStats cold =
        b.timed(prefix + ".cold_wall_s", [&server, &one_request] {
            server.datasets().clear();
            dropCaches();
            one_request();
        });
    sorted = cold.seconds;
    std::sort(sorted.begin(), sorted.end());
    b.scalar(prefix + ".cold_p50_s", quantileSorted(sorted, 0.5),
             "s", false);
    b.scalar(prefix + ".cold_p99_s", quantileSorted(sorted, 0.99),
             "s", false);
    b.scalar(prefix + ".cold_sorts_per_rep",
             cold.perRep("preprocess.sorts"), "count", true);
    b.scalar(prefix + ".cold_resolves_per_rep",
             cold.perRep("dataset_cache.misses"), "count", true);
    b.scalar(prefix + ".cold_golden_computes_per_rep",
             cold.perRep("golden_cache.misses"), "count", true);
    // Cold state must not leak into whatever runs next.
    dropCaches();
}

/**
 * The concurrent-serving scenario: one daemon (Server + src/net/
 * event loop on an ephemeral loopback port), C closed-loop client
 * connections each sending R run requests through src/client/. The
 * timed window covers a whole burst — connect, C x R requests,
 * disconnect — so it exercises accept, round-robin dispatch and the
 * per-connection response ordering end to end. Wall p50/p99 are the
 * ungated trajectory; the gate keys on the deterministic work
 * metrics: ok responses per connection (every request must be
 * answered ok) and the per-connection fairness spread (zero under
 * identical closed-loop clients).
 */
void
concurrentServeScenario(SuiteBuilder &b, const std::string &prefix,
                        const std::string &dataset_spec,
                        unsigned connections, unsigned requests)
{
    service::ServeOptions options;
    options.jobs = 2;
    options.connQueueDepth = 8;
    service::Server server(options);
    std::ostringstream net_log; // accept/teardown noise stays out of
                                // the bench progress stream
    net::Listener listener(0, net_log);
    net::EventLoopOptions loop_opts;
    loop_opts.maxConnections = connections;
    net::EventLoop loop(server, &listener, loop_opts, net_log);
    std::thread loop_thread([&loop] { loop.run(); });

    const std::string request_tmpl =
        "{\"id\":\"%ID%\",\"type\":\"run\",\"workload\":\"pagerank\","
        "\"backend\":\"outofcore\",\"dataset\":\"" +
        dataset_spec + "\"}";
    std::vector<std::uint64_t> conn_ok(connections, 0);
    const int port = listener.port();
    const auto burst = [&] {
        std::fill(conn_ok.begin(), conn_ok.end(), 0);
        std::vector<std::thread> clients;
        clients.reserve(connections);
        for (unsigned c = 0; c < connections; ++c) {
            clients.emplace_back([&, c] {
                try {
                    client::Client cl(port);
                    for (unsigned r = 0; r < requests; ++r) {
                        std::string req = request_tmpl;
                        req.replace(req.find("%ID%"), 4,
                                    "c" + std::to_string(c) + "-r" +
                                        std::to_string(r));
                        const std::string resp = cl.request(req);
                        if (resp.find("\"ok\":true") !=
                            std::string::npos)
                            ++conn_ok[c];
                    }
                } catch (const client::ClientError &) {
                    // Leave this connection's ok count short: the
                    // gated requests-per-connection metric then
                    // fails the comparison loudly.
                }
            });
        }
        for (std::thread &t : clients)
            t.join();
    };

    const RepStats stats = b.timed(prefix + ".wall_s", burst);
    std::vector<double> sorted = stats.seconds;
    std::sort(sorted.begin(), sorted.end());
    b.scalar(prefix + ".p50_s", quantileSorted(sorted, 0.5), "s",
             false);
    b.scalar(prefix + ".p99_s", quantileSorted(sorted, 0.99), "s",
             false);

    const auto [lo, hi] =
        std::minmax_element(conn_ok.begin(), conn_ok.end());
    const std::uint64_t total = std::accumulate(
        conn_ok.begin(), conn_ok.end(), std::uint64_t{0});
    b.scalar(prefix + ".requests_per_conn",
             static_cast<double>(total) /
                 static_cast<double>(connections),
             "count", true, "higher");
    b.scalar(prefix + ".fairness_spread",
             static_cast<double>(*hi - *lo), "count", true);

    server.requestStop();
    loop.wake();
    loop_thread.join();
    dropCaches();
}

/**
 * The crossbar MVM scenario: the device model's slice-serial walk,
 * without variation, on a @p dim x @p dim crossbar with @p occupied
 * wordlines spread across it. Wall-clock is the ungated trajectory;
 * the gate keys on the machine-independent work metric — occupied
 * wordlines processed per repetition, which the occupancy mask alone
 * decides.
 */
void
crossbarScenario(SuiteBuilder &b, const std::string &prefix,
                 std::uint32_t dim, std::uint32_t occupied)
{
    constexpr std::uint64_t kIters = 512;

    DeviceParams params;
    Crossbar cb(dim, params);
    Rng rng(11);
    for (std::uint32_t r = 0; r < occupied; ++r) {
        const std::uint32_t row = r * dim / occupied;
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

    const RepStats stats = b.timed(prefix + ".mvm_wall_s", [&] {
        for (std::uint64_t i = 0; i < kIters; ++i)
            doNotOptimize(cb.mvmRaw(x));
    });
    b.scalar(prefix + ".mvm_rows_per_rep",
             stats.perRep("crossbar.mvm_rows_processed"), "count",
             true);
}

/**
 * The functional PageRank scenario: 10 sweeps of the analog datapath
 * on one small graph at the paper's tiling (the default TilingParams,
 * 2,048 crossbars per tile, as `--functional` runs), with the crossbar
 * weights resident across sweeps (ProgramCharging::kOnce) or
 * reprogrammed every sweep. Both do the same host work — each tile's
 * cells are derived on the first sweep and written back on the later
 * ones — and differ only in what they count as a program, so the two
 * wall clocks should agree. The gate keys on the wordlines the MVMs
 * process, which charging does not change.
 */
void
functionalPageRankScenario(SuiteBuilder &b, const std::string &prefix,
                           const std::string &dataset_spec,
                           ProgramCharging charging)
{
    FingerprintCheck fp(dataset_spec);
    const driver::ResolvedDataset dataset = fp.resolve();
    GraphRConfig cfg;
    cfg.functional = true;
    cfg.programCharging = charging;
    GraphRNode node(cfg);
    PageRankParams params;
    params.maxIterations = 10;
    params.tolerance = 0.0;

    const RepStats stats = b.timed(prefix + ".wall_s", [&] {
        doNotOptimize(node.runPageRank(dataset.graph, params).seconds);
    });
    b.scalar(prefix + ".mvm_rows_per_rep",
             stats.perRep("crossbar.mvm_rows_processed"), "count",
             true);
    fp.resolve();
}

/** The pinned-seed invariant as an explicit gated trajectory point. */
void
fingerprintScenario(SuiteBuilder &b, const std::string &prefix,
                    const std::string &dataset_spec)
{
    FingerprintCheck fp(dataset_spec);
    b.timed(prefix + ".resolve_wall_s", [&fp] { fp.resolve(); });
    b.scalar(prefix + ".fingerprint_stable",
             fp.stable() ? 1.0 : 0.0, "bool", true, "higher");
}

// ------------------------------------------------------------ suites

driver::SweepSpec
smallSweepSpec()
{
    driver::SweepSpec spec;
    spec.workloads = {"pagerank", "wcc"};
    spec.backends = {"graphr", "outofcore"};
    spec.datasets = {"rmat:vertices=256,edges=2048,seed=3"};
    spec.params = driver::ParamMap::parse("iterations=5");
    spec.jobs = 1;
    return spec;
}

/** CI-sized: tiny graphs, seconds even under TSan. */
void
suiteSmall(SuiteBuilder &b)
{
    fingerprintScenario(b, "dataset.rmat_small",
                        "rmat:vertices=256,edges=2048,seed=3");
    crossbarScenario(b, "crossbar.small", 64, 32);
    sweepScenario(b, "sweep.small", smallSweepSpec());
    storeScenario(b, "store.small",
                  "rmat:vertices=2048,edges=16384,seed=7");
    compressScenario(b, "store.compress",
                     "rmat:vertices=2048,edges=16384,seed=7");
    serveScenario(b, "serve.small",
                  "rmat:vertices=1024,edges=8192,seed=5");
    concurrentServeScenario(b, "serve.concurrent",
                            "rmat:vertices=1024,edges=8192,seed=5",
                            /*connections=*/4, /*requests=*/4);
}

/**
 * Kernel-level measurements no other suite takes: the crossbar MVM on
 * a dense and a sparse (8 of 64 rows occupied) crossbar, functional
 * PageRank at the paper's tiling with resident vs reprogrammed
 * weights, and the resolve (R-MAT draw and fingerprint) of the
 * 131k-edge graph a daemon request first touches.
 */
void
suiteMicro(SuiteBuilder &b)
{
    crossbarScenario(b, "micro.crossbar_mvm.dense", 64, 64);
    crossbarScenario(b, "micro.crossbar_mvm.sparse", 64, 8);
    const std::string dataset = "rmat:vertices=512,edges=4096,seed=6";
    functionalPageRankScenario(b, "micro.functional_pagerank.resident",
                               dataset, ProgramCharging::kOnce);
    functionalPageRankScenario(b,
                               "micro.functional_pagerank.reprogram",
                               dataset, ProgramCharging::kPerSweep);
    fingerprintScenario(b, "micro.resolve.rmat_131k",
                        "rmat:vertices=16384,edges=131072,seed=1");
}

struct SuiteEntry
{
    const char *name;
    void (*fn)(SuiteBuilder &);
};

constexpr SuiteEntry kSuites[] = {
    {"small", suiteSmall},
    {"micro", suiteMicro},
};

} // namespace

std::vector<std::string>
suiteNames()
{
    std::vector<std::string> names;
    for (const SuiteEntry &entry : kSuites)
        names.emplace_back(entry.name);
    return names;
}

bool
isSuiteName(const std::string &name)
{
    for (const SuiteEntry &entry : kSuites) {
        if (name == entry.name)
            return true;
    }
    return false;
}

BenchReport
runSuite(const std::string &name, const SuiteOptions &options)
{
    const SuiteEntry *found = nullptr;
    for (const SuiteEntry &entry : kSuites) {
        if (name == entry.name) {
            found = &entry;
            break;
        }
    }
    if (found == nullptr) {
        std::string msg = "unknown bench suite '" + name +
                          "' (known:";
        for (const SuiteEntry &entry : kSuites)
            msg += std::string(" ") + entry.name;
        throw PerfError(msg + ")");
    }
    if (options.reps == 0)
        throw PerfError("bench needs at least one repetition");

    BenchReport report;
    report.suite = name;
    report.environment = BenchEnvironment::current();
    if (options.progress != nullptr)
        *options.progress << "suite " << name << " (" << options.reps
                          << " reps, " << options.warmups
                          << " warmups)\n"
                          << std::flush;
    SuiteBuilder builder(options, report);
    found->fn(builder);
    return report;
}

} // namespace graphr::perf
