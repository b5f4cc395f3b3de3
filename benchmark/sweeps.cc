/**
 * @file
 * The sweep workloads: cold-sweep, warm-sweep and functional.
 *
 * One operation is one driver::runSweep at jobs=1 plus its JSON
 * report — what a `graphr_run` user waits for, from spec to report.
 * It runs on one thread, so its process CPU time is how long it takes
 * on a core of its own; that is the time the metrics report.
 * The workloads differ in the state a sweep starts from:
 *  - cold-sweep: an empty plan store and empty memory caches, so
 *    every plan is sorted, encoded and written;
 *  - warm-sweep: a prepared store and empty memory caches, so every
 *    plan is decoded from disk and none is sorted;
 *  - functional: plans resident in memory and the analog datapath on,
 *    so the crossbar MVM dominates.
 */

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "algorithms/spmv.hh"
#include "algorithms/traversal.hh"
#include "algorithms/wcc.hh"
#include "driver/driver.hh"
#include "driver/prepare.hh"
#include "graphr/engine/plan_cache.hh"
#include "graphr/node.hh"
#include "layers.hh"
#include "workloads.hh"

namespace graphr::bench
{

namespace
{

/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 3;
/**
 * Timed repetitions at least, however long they take; also the
 * untraced and the traced repetitions of a traced run.
 */
constexpr unsigned kMinReps = 2;

enum class Kind
{
    kCold,
    kWarm,
    kFunctional,
};

struct Sweep
{
    Kind kind;
    driver::SweepSpec spec;

    const TilingParams &
    tiling() const
    {
        return spec.backendOptions.config.tiling;
    }
};

Sweep
makeSweep(const Options &opts, Kind kind)
{
    Sweep sweep{kind, {}};
    driver::SweepSpec &spec = sweep.spec;
    spec.jobs = 1;
    if (kind == Kind::kFunctional) {
        spec.workloads = {"pagerank", "spmv", "bfs", "sssp", "wcc"};
        spec.backends = {"graphr"};
        const std::uint64_t seed = deriveSeed(opts.seed, 2);
        spec.datasets = {opts.smoke ? rmatSpec(512, 4096, seed)
                                    : rmatSpec(32768, 262144, seed)};
        spec.backendOptions.config.functional = true;
        // A fixed PageRank iteration count gives every seed the same
        // crossbar work: run to convergence, it took 14 or 15
        // iterations depending on the graph, a 7% swing in sweep time.
        spec.params = driver::ParamMap::parse("iterations=10,tolerance=0");
    } else {
        // cold-sweep and warm-sweep share their graph for a seed, so
        // their reports must be byte-identical.
        spec.workloads = {"spmv", "pagerank", "bfs", "sssp", "wcc", "cf"};
        spec.backends = {"graphr", "outofcore", "multinode"};
        const std::uint64_t seed = deriveSeed(opts.seed, 1);
        spec.datasets = {opts.smoke ? rmatSpec(2048, 16384, seed)
                                    : rmatSpec(131072, 1048576, seed)};
        spec.store.planDir = opts.workDir + "/plans";
    }
    return sweep;
}

/** One timed operation: the sweep and its JSON report. */
struct SweepRun
{
    /** CPU time of the sweep: the gated measure. */
    double cpuSeconds = 0.0;
    double wallSeconds = 0.0;
    std::string digest;
    std::string error;
    Counts before;
    Counts after;

    double
    delta(const std::string &counter) const
    {
        return countDelta(before, after, counter);
    }
};

SweepRun
runTimed(const driver::SweepSpec &spec)
{
    SweepRun run;
    run.before = counts();
    const Clock::time_point start = Clock::now();
    const double cpu_start = processCpuSeconds();
    try {
        std::ostringstream json;
        driver::writeResultsJson(json, driver::runSweep(spec));
        run.cpuSeconds = processCpuSeconds() - cpu_start;
        run.wallSeconds = secondsBetween(start, Clock::now());
        run.digest = digest(json.str());
    } catch (const std::exception &err) {
        run.error = err.what();
    }
    run.after = counts();
    return run;
}

/** Bring the process to the state every repetition starts from. */
void
resetForRep(const Sweep &sweep)
{
    if (sweep.kind == Kind::kFunctional)
        return;
    dropMemoryCaches();
    if (sweep.kind == Kind::kCold)
        freshDir(sweep.spec.store.planDir);
}

/** One set-up; returns its CPU seconds and the graph's fingerprint. */
double
setUp(const Sweep &sweep, std::uint64_t *fingerprint)
{
    const driver::SweepSpec &spec = sweep.spec;
    dropMemoryCaches();
    if (sweep.kind == Kind::kWarm)
        freshDir(spec.store.planDir);
    const double start = processCpuSeconds();
    if (sweep.kind == Kind::kWarm) {
        // The offline step a warm user runs once: `graphr_run prepare`.
        driver::PrepareSpec prepare;
        prepare.datasets = spec.datasets;
        prepare.store = spec.store;
        prepare.seed = spec.seed;
        prepare.tiling = sweep.tiling();
        *fingerprint = driver::runPrepare(prepare).front().fingerprint;
    } else {
        const driver::ResolvedDataset dataset =
            driver::resolveDataset(spec.datasets[0], spec.scale, spec.seed);
        *fingerprint = graphFingerprint(dataset.graph);
        if (sweep.kind == Kind::kFunctional) {
            PlanCache::instance().get(dataset.graph, sweep.tiling());
            PlanCache::instance().get(symmetrize(dataset.graph),
                                      sweep.tiling());
        }
    }
    return processCpuSeconds() - start;
}

/**
 * What every repetition of a run must reproduce, from the reference
 * rep (see referenceRep): its report digest and crossbar MVM row
 * count. It also measures the run's peak RSS.
 */
struct Reference
{
    std::string digest;
    double mvmRows = 0.0;
    double peakRssMb = 0.0;
};

/**
 * Check one repetition against the reference; true when it passed.
 * Only a sweep from an empty store (@p may_sort) may sort a plan.
 */
bool
checkRep(Report &report, const SweepRun &run, const Reference &reference,
         const std::string &label, bool may_sort)
{
    if (!report.check(run.error.empty(), label + " threw: " + run.error))
        return false;
    bool ok = report.check(run.digest == reference.digest,
                           label + " report digest " + run.digest +
                               " differs from " + reference.digest);
    ok &= report.check(run.delta("store.load_rejects") == 0,
                       label + " rejected a stored plan");
    ok &= report.check(run.delta("crossbar.mvm_rows_processed") ==
                           reference.mvmRows,
                       label + " processed a different MVM row count");
    if (!may_sort) {
        ok &= report.check(run.delta("preprocess.sorts") == 0,
                           label + " sorted a plan");
    }
    return ok;
}

/**
 * The functional datapath against the golden algorithms: SpMV (the
 * exact-validation path) within 1e-3 relative L1, BFS/SSSP distances
 * and WCC labels exactly equal. PageRank is not compared: at this
 * size most ranks lie below the 12-bit input LSB and vanish, so it
 * sits far from the golden ranks by construction (README.md).
 */
void
checkFunctionalOutputs(Report &report, const Sweep &sweep)
{
    const driver::ResolvedDataset dataset = driver::resolveDataset(
        sweep.spec.datasets[0], sweep.spec.scale, sweep.spec.seed);
    const CooGraph &graph = dataset.graph;
    GraphRNode node(sweep.spec.backendOptions.config);
    bool ok = true;

    const std::vector<Value> ones(graph.numVertices(), 1.0);
    std::vector<Value> y;
    node.runSpmv(graph, ones, &y);
    report.value("engine.tile_programs",
                 static_cast<double>(
                     node.lastEngineStats().functionalTilePrograms));
    report.value("engine.tile_loads",
                 static_cast<double>(
                     node.lastEngineStats().functionalTileLoads));
    const std::vector<Value> golden = spmv(graph, ones);
    double error = 0.0;
    double mass = 0.0;
    for (VertexId v = 0; v < graph.numVertices(); ++v) {
        error += std::abs(y[v] - golden[v]);
        mass += std::abs(golden[v]);
    }
    ok &= report.check(error <= 1e-3 * mass,
                       "functional SpMV is " + std::to_string(error / mass) +
                           " relative L1 from the golden SpMV");

    const auto same = [](const std::vector<Value> &a,
                         const std::vector<Value> &b) {
        return a.size() == b.size() &&
               std::equal(a.begin(), a.end(), b.begin(),
                          [](Value x, Value y) {
                              return x == y ||
                                     (std::isinf(x) && std::isinf(y));
                          });
    };
    std::vector<Value> dist;
    node.runBfs(graph, 0, &dist);
    ok &= report.check(same(dist, bfs(graph, 0).dist),
                       "functional BFS differs from the golden BFS");
    node.runSssp(graph, 0, &dist);
    ok &= report.check(same(dist, sssp(graph, 0).dist),
                       "functional SSSP differs from the golden SSSP");
    std::vector<VertexId> labels;
    node.runWcc(graph, &labels);
    ok &= report.check(labels == wcc(graph).labels,
                       "functional WCC differs from the golden WCC");
    report.attempt(ok);
}

/**
 * The reference rep: the first sweep of a run, in a fresh copy of this
 * process (in the same work directory, so warm-sweep reads this run's
 * store) with glibc's mmap threshold held at its 128 KiB default. Its
 * report is the one every timed rep must reproduce, from another
 * process and another allocator setting, and its peak RSS is the run's.
 *
 * Left adaptive, as it is for the timed reps, glibc raises the
 * threshold after the first large free. Whether later large blocks
 * then stay on the heap depends on the graph, and the peak of the same
 * work moved by up to 25% between seeds; freed heap that malloc_trim
 * would not return kept it high even in a rep of its own. Held fixed
 * from the start, large blocks are mapped and unmapped as they come
 * and go, so the peak follows the memory the sweep holds. Holding it
 * fixed for the timed reps as well would slow them by up to 10%.
 */
Reference
referenceRep(const Options &opts, Report &report)
{
    std::vector<std::string> args = {
        "--workload", opts.workload, "--seed", std::to_string(opts.seed),
        "--work-dir", opts.workDir,  "--memory-rep"};
    if (opts.smoke)
        args.push_back("--smoke");
    bool exit_ok = false;
    std::istringstream out(runSelf(
        args, "GLIBC_TUNABLES=glibc.malloc.mmap_threshold=131072",
        &exit_ok));
    Reference reference;
    std::string key, value;
    while (out >> key >> value) {
        if (key == "digest")
            reference.digest = value;
        else if (key == "mvm_rows")
            reference.mvmRows = std::stod(value);
        else if (key == "peak_rss_mb")
            reference.peakRssMb = std::stod(value);
    }
    report.attempt(report.check(exit_ok && !reference.digest.empty(),
                                "the reference rep failed"));
    return reference;
}

/** The body of the --memory-rep child (see referenceRep). */
void
runMemoryRep(const Sweep &sweep, Report &report)
{
    if (sweep.kind == Kind::kFunctional) {
        std::uint64_t fingerprint = 0;
        setUp(sweep, &fingerprint);
    }
    resetForRep(sweep);
    resetPeakRss();
    const SweepRun run = runTimed(sweep.spec);
    report.attempt(report.check(run.error.empty(),
                                "memory rep threw: " + run.error));
    std::cout << "digest " << run.digest << "\nmvm_rows "
              << static_cast<std::uint64_t>(
                     run.delta("crossbar.mvm_rows_processed"))
              << "\npeak_rss_mb " << std::setprecision(17) << peakRssMb()
              << "\n";
}

/**
 * One sweep broken into its public calls, each under a span: the
 * same results as driver::runSweep (the digest proves it). Returns
 * its CPU seconds.
 */
double
tracedSweep(Tracer &tracer, const Sweep &sweep, const std::string &op,
            std::string *report_digest, std::uint64_t *fingerprint)
{
    const driver::SweepSpec &spec = sweep.spec;
    const double start = processCpuSeconds();
    Tracer::Span root(tracer, "driver.sweep", op);
    const Counts before = counts();
    driver::installPlanStore(spec.store);

    driver::ResolvedDataset dataset;
    {
        Tracer::Span span(tracer, "driver.resolve");
        dataset = driver::resolveDataset(spec.datasets[0], spec.scale,
                                         spec.seed);
    }
    // Every graph the backends will ask PlanCache about: the dataset,
    // its symmetrised form (WCC), and for multinode their stripes.
    CooGraph symmetric;
    std::vector<CooGraph> stripes;
    {
        Tracer::Span span(tracer, "harness.plan_graphs");
        *fingerprint = graphFingerprint(dataset.graph);
        symmetric = symmetrize(dataset.graph);
        if (std::find(spec.backends.begin(), spec.backends.end(),
                      "multinode") != spec.backends.end()) {
            const std::uint32_t nodes = spec.backendOptions.numNodes;
            stripes = destinationStripes(dataset.graph, nodes);
            for (CooGraph &s : destinationStripes(symmetric, nodes))
                stripes.push_back(std::move(s));
        }
    }
    std::vector<const CooGraph *> graphs = {&dataset.graph, &symmetric};
    for (const CooGraph &g : stripes)
        graphs.push_back(&g);
    acquirePlans(tracer, graphs, sweep.tiling());

    std::vector<driver::RunResult> results;
    for (const std::string &name : spec.workloads) {
        const driver::Workload workload =
            driver::makeWorkload(name, spec.params);
        for (const std::string &backend_name : spec.backends) {
            const std::unique_ptr<driver::Backend> backend =
                driver::makeBackend(backend_name, spec.backendOptions);
            Tracer::Span span(tracer, "graphr." + backend_name + "_run");
            results.push_back(backend->run(workload, dataset));
        }
    }
    {
        Tracer::Span span(tracer, "driver.report_json");
        std::ostringstream json;
        driver::writeResultsJson(json, results);
        *report_digest = digest(json.str());
    }
    attachCounts(root, before);
    return processCpuSeconds() - start;
}

void
runSweepWorkload(const Options &opts, Report &report, Tracer *tracer,
                 Kind kind)
{
    const Sweep sweep = makeSweep(opts, kind);
    if (opts.memoryRep) {
        runMemoryRep(sweep, report);
        return;
    }

    std::vector<double> setups;
    std::uint64_t fingerprint = 0;
    for (int k = 0; k < kSetups; ++k) {
        std::uint64_t fp = 0;
        setups.push_back(setUp(sweep, &fp));
        if (k == 0)
            fingerprint = fp;
        report.check(fp == fingerprint,
                     "graph fingerprint changed between set-ups");
    }
    report.sampled("setup_s", setups);

    // The reference rep fixes the report every later sweep of this
    // run must reproduce byte for byte.
    const Reference reference = referenceRep(opts, report);
    if (kind == Kind::kFunctional) {
        // The first functional sweep of a process builds the datapath
        // and fills the golden cache, which took 15% longer than the
        // sweeps after it; it is not timed.
        const SweepRun warm_up = runTimed(sweep.spec);
        report.attempt(
            checkRep(report, warm_up, reference, "warm-up", false));
    }

    // CPU milliseconds of each sweep that ran to the end, its wall
    // milliseconds, and the CPU seconds of those that passed.
    std::vector<double> cpu_ms;
    std::vector<double> wall_ms;
    double ok_seconds = 0.0;
    unsigned reps = 0;
    unsigned ok_reps = 0;
    const Clock::time_point window = Clock::now();
    for (;;) {
        resetForRep(sweep);
        const SweepRun run = runTimed(sweep.spec);
        const bool ok = checkRep(report, run, reference,
                                 "rep " + std::to_string(reps + 1),
                                 kind == Kind::kCold);
        report.attempt(ok);
        ++reps;
        std::cerr << "rep " << reps << ": " << run.cpuSeconds << " s cpu, "
                  << run.wallSeconds << " s wall\n";
        if (run.error.empty()) {
            cpu_ms.push_back(run.cpuSeconds * 1e3);
            wall_ms.push_back(run.wallSeconds * 1e3);
        }
        if (ok) {
            ++ok_reps;
            ok_seconds += run.cpuSeconds;
        }
        const double elapsed = secondsBetween(window, Clock::now());
        if (reps >= kMinReps &&
            (tracer != nullptr ||
             elapsed + 0.5e-3 * median(wall_ms) >= opts.seconds))
            break;
    }

    if (kind == Kind::kCold) {
        // The store's byte-identity contract: the artifacts the last
        // cold sweep wrote must give the same report when read back.
        dropMemoryCaches();
        const SweepRun warm = runTimed(sweep.spec);
        bool ok = checkRep(report, warm, reference,
                           "warm re-read of the cold store", false);
        ok &= report.check(warm.delta("store.load_hits") > 0,
                           "warm re-read loaded no plan");
        report.attempt(ok);
    } else if (kind == Kind::kFunctional) {
        checkFunctionalOutputs(report, sweep);
    }
    std::cout << "digest " << reference.digest << "\n";

    report.sampled("p50_ms", cpu_ms);
    report.value("p95_ms", quantile(cpu_ms, 0.95), cpu_ms.size());
    report.value("goodput_per_s",
                 ok_seconds > 0.0 ? ok_reps / ok_seconds : 0.0, reps);
    report.info("wall_p50_ms", "ms", median(wall_ms), wall_ms.size());

    if (tracer == nullptr) {
        report.value("peak_rss_mb", reference.peakRssMb);
        return;
    }
    std::vector<std::string> ops;
    std::vector<double> traced;
    for (unsigned r = 1; r <= kMinReps; ++r) {
        resetForRep(sweep);
        ops.push_back("rep" + std::to_string(r));
        std::string traced_digest;
        std::uint64_t fp = 0;
        traced.push_back(1e3 * tracedSweep(*tracer, sweep, ops.back(),
                                           &traced_digest, &fp));
        report.attempt(report.check(
            traced_digest == reference.digest,
            "traced " + ops.back() + " report differs from runSweep's"));
        report.check(fp == fingerprint,
                     "graph fingerprint changed in traced " + ops.back());
    }
    const std::string probe_store = opts.workDir + "/probe-store";
    probeLayers(*tracer,
                driver::resolveDataset(sweep.spec.datasets[0],
                                       sweep.spec.scale, sweep.spec.seed),
                sweep.spec.backendOptions, sweep.spec.backends, probe_store);
    reportLayers(*tracer, ops, report);
    report.value("store.bytes_per_edge", storeBytesPerEdge(probe_store));
    report.value("trace.overhead_frac",
                 median(traced) / median(cpu_ms) - 1.0, traced.size());
    probeServeLayers(opts, report);
}

} // namespace

void
runColdSweep(const Options &opts, Report &report, Tracer *tracer)
{
    runSweepWorkload(opts, report, tracer, Kind::kCold);
}

void
runWarmSweep(const Options &opts, Report &report, Tracer *tracer)
{
    runSweepWorkload(opts, report, tracer, Kind::kWarm);
}

void
runFunctional(const Options &opts, Report &report, Tracer *tracer)
{
    runSweepWorkload(opts, report, tracer, Kind::kFunctional);
}

} // namespace graphr::bench
