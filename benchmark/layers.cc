#include "layers.hh"

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>

#include "algorithms/pagerank.hh"
#include "algorithms/spmv.hh"
#include "algorithms/traversal.hh"
#include "algorithms/wcc.hh"
#include "graphr/engine/plan_cache.hh"
#include "graphr/engine/tile_executor.hh"
#include "store/plan_store.hh"

namespace graphr::bench
{

std::vector<CooGraph>
destinationStripes(const CooGraph &graph, std::uint32_t nodes)
{
    const std::uint64_t stripe =
        (graph.numVertices() + nodes - 1) / nodes;
    std::vector<CooGraph> out;
    for (std::uint32_t k = 0; k < nodes; ++k) {
        const std::uint64_t lo = k * stripe;
        const std::uint64_t hi = lo + stripe;
        std::vector<Edge> edges;
        for (const Edge &e : graph.edges()) {
            if (e.dst >= lo && e.dst < hi)
                edges.push_back(e);
        }
        if (!edges.empty())
            out.emplace_back(graph.numVertices(), std::move(edges));
    }
    return out;
}

void
acquirePlans(Tracer &tracer, const std::vector<const CooGraph *> &graphs,
             const TilingParams &tiling)
{
    PlanCache &cache = PlanCache::instance();
    const std::shared_ptr<PlanStore> store = cache.store();
    for (const CooGraph *graph : graphs) {
        const double edges = static_cast<double>(graph->numEdges());
        std::uint64_t fingerprint = 0;
        {
            Tracer::Span span(tracer, "graph.fingerprint");
            fingerprint = graphFingerprint(*graph);
            span.arg("edges", edges);
        }
        const bool detach =
            store != nullptr && !store->contains(fingerprint, tiling);
        TilePlanPtr plan;
        bool sorted = false;
        {
            Tracer::Span span(tracer, "engine.plan_get");
            const Counts before = counts();
            if (detach)
                cache.setStore(nullptr);
            plan = cache.get(*graph, tiling);
            if (detach)
                cache.setStore(store);
            const Counts after = counts();
            sorted = countDelta(before, after, "preprocess.sorts") > 0;
            span.arg("edges", edges);
            span.arg("sorted", sorted);
            span.arg("loaded",
                     countDelta(before, after, "store.load_hits") > 0);
        }
        if (detach && sorted) {
            Tracer::Span span(tracer, "store.save");
            store->save(*plan, tiling);
            span.arg("edges", edges);
        }
    }
}

void
attachCounts(Tracer::Span &root, const Counts &before)
{
    const Counts after = counts();
    const std::pair<const char *, const char *> names[] = {
        {"sorts", "preprocess.sorts"},
        {"load_hits", "store.load_hits"},
        {"load_rejects", "store.load_rejects"},
        {"saves", "store.saves"},
        {"plan_hits", "plan_cache.hits"},
        {"plan_misses", "plan_cache.misses"},
        {"mvm_rows", "crossbar.mvm_rows_processed"},
    };
    for (const auto &[arg, counter] : names)
        root.arg(arg, countDelta(before, after, counter));
}

void
probeLayers(Tracer &tracer, const driver::ResolvedDataset &dataset,
            const driver::BackendOptions &options,
            const std::vector<std::string> &op_backends,
            const std::string &store_dir)
{
    const CooGraph &graph = dataset.graph;
    const TilingParams &tiling = options.config.tiling;
    const double edges = static_cast<double>(graph.numEdges());
    Tracer::Span root(tracer, "harness.probe", "probe");
    const PageRankParams params;
    PageRankResult golden;
    {
        Tracer::Span span(tracer, "algorithms.golden");
        golden = pagerank(graph, params);
    }
    {
        Tracer::Span span(tracer, "algorithms.golden");
        spmv(graph, std::vector<Value>(graph.numVertices(), 1.0));
    }
    {
        Tracer::Span span(tracer, "algorithms.golden");
        bfs(graph, 0);
    }
    {
        Tracer::Span span(tracer, "algorithms.golden");
        sssp(graph, 0);
    }
    {
        Tracer::Span span(tracer, "algorithms.golden");
        wcc(graph);
    }

    std::unique_ptr<TilePlan> fresh;
    {
        Tracer::Span span(tracer, "graph.prepare");
        fresh = std::make_unique<TilePlan>(graph, tiling);
        span.arg("edges", edges);
    }
    freshDir(store_dir);
    const PlanStore store(store_dir);
    {
        Tracer::Span span(tracer, "store.save");
        store.save(*fresh, tiling);
        span.arg("edges", edges);
    }
    {
        Tracer::Span span(tracer, "store.load");
        if (store.load(fresh->fingerprint, tiling) == nullptr)
            throw std::runtime_error(
                "the plan store did not load back the plan it saved");
        span.arg("edges", edges);
    }
    fresh.reset();

    const TilePlanPtr plan = PlanCache::instance().get(graph, tiling);
    GraphRConfig timing = options.config;
    timing.functional = false;
    {
        TileExecutor exec(timing, plan);
        MacSpec spec;
        spec.name = "pagerank";
        spec.sweeps = static_cast<std::uint64_t>(golden.iterations);
        Tracer::Span span(tracer, "engine.mac_walk");
        exec.macReport(spec);
    }
    {
        TileExecutor exec(timing, plan);
        AddOpSpec spec;
        spec.initLabels.assign(graph.numVertices(), kInfDistance);
        spec.initActive.assign(graph.numVertices(), false);
        spec.initLabels[0] = 0.0;
        spec.initActive[0] = true;
        spec.mode = WeightMode::kUnit;
        Tracer::Span span(tracer, "engine.addop_walk");
        exec.addOpRun(graph, spec, "bfs", nullptr);
    }
    {
        // One PageRank iteration through the crossbars. The first
        // sweep builds the datapath; the second is the one timed.
        GraphRConfig functional = options.config;
        functional.functional = true;
        const std::vector<EdgeId> out_deg = graph.outDegrees();
        MacSpec spec;
        spec.name = "pagerank";
        spec.edgeScale = [&out_deg, damping = params.damping](const Edge &e) {
            return damping / static_cast<double>(out_deg[e.src]);
        };
        const std::vector<Value> ranks(graph.numVertices(),
                                       1.0 / graph.numVertices());
        std::vector<Value> next(graph.numVertices(), 0.0);
        TileExecutor exec(functional, plan);
        exec.functionalMacSweep(spec, ranks, next);
        Tracer::Span span(tracer, "engine.functional_mac_sweep");
        const Counts before = counts();
        exec.functionalMacSweep(spec, ranks, next);
        span.arg("mvm_rows", countDelta(before, counts(),
                                        "crossbar.mvm_rows_processed"));
    }

    // The GraphR backends the operation does not run. The first call
    // prepares the plans it needs; the second is the one timed.
    const driver::Workload workload = driver::makeWorkload("spmv", {});
    for (const std::string name : {"graphr", "outofcore", "multinode"}) {
        if (std::find(op_backends.begin(), op_backends.end(), name) !=
            op_backends.end())
            continue;
        const std::unique_ptr<driver::Backend> backend =
            driver::makeBackend(name, options);
        backend->run(workload, dataset);
        Tracer::Span span(tracer, "graphr." + name + "_run");
        backend->run(workload, dataset);
    }
}

double
storeBytesPerEdge(const std::string &dir)
{
    double bytes = 0.0;
    double edges = 0.0;
    for (const PlanArtifactInfo &a :
         PlanStore(dir, PlanStore::Mode::kReadOnly).list()) {
        bytes += static_cast<double>(a.bytes);
        edges += static_cast<double>(a.edges);
    }
    return edges > 0.0 ? bytes / edges : 0.0;
}

void
reportLayers(const Tracer &tracer, const std::vector<std::string> &ops,
             Report &report)
{
    // Calls per layer function. A PlanCache::get that sorted is also a
    // plan prepare, and one that loaded is also a store load.
    struct Calls
    {
        std::size_t n = 0;
        double ms = 0.0;
        double edges = 0.0;
        double mvmRows = 0.0;
    };
    std::map<std::string, Calls> calls;
    for (const Tracer::Record &r : tracer.records()) {
        std::vector<std::string> names = {r.name};
        if (r.name == "engine.plan_get" && r.arg("sorted") > 0)
            names.push_back("graph.prepare");
        if (r.name == "engine.plan_get" && r.arg("loaded") > 0)
            names.push_back("store.load");
        for (const std::string &name : names) {
            Calls &c = calls[name];
            ++c.n;
            c.ms += r.cpuMs();
            c.edges += r.arg("edges");
            c.mvmRows += r.arg("mvm_rows");
        }
    }
    const auto per_call = [&](const char *metric, const char *name) {
        const Calls &c = calls[name];
        report.value(metric, c.n > 0 ? c.ms / static_cast<double>(c.n) : 0.0,
                     c.n);
    };
    per_call("driver.resolve_ms", "driver.resolve");
    per_call("driver.report_json_ms", "driver.report_json");
    per_call("graph.fingerprint_ms", "graph.fingerprint");
    per_call("graph.prepare_ms", "graph.prepare");
    per_call("store.load_ms", "store.load");
    per_call("store.save_ms", "store.save");
    per_call("engine.plan_get_ms", "engine.plan_get");
    per_call("engine.mac_walk_ms", "engine.mac_walk");
    per_call("engine.addop_walk_ms", "engine.addop_walk");
    per_call("engine.functional_mac_sweep_ms", "engine.functional_mac_sweep");
    per_call("graphr.node_run_ms", "graphr.graphr_run");
    per_call("graphr.outofcore_run_ms", "graphr.outofcore_run");
    per_call("graphr.multinode_run_ms", "graphr.multinode_run");
    per_call("algorithms.golden_ms", "algorithms.golden");

    const auto edge_rate = [&](const char *metric, const char *name) {
        const Calls &c = calls[name];
        report.value(metric, c.ms > 0.0 ? c.edges / (c.ms / 1e3) : 0.0, c.n);
    };
    edge_rate("graph.prepare_edges_per_s", "graph.prepare");
    edge_rate("store.decode_edges_per_s", "store.load");
    edge_rate("store.encode_edges_per_s", "store.save");
    const Calls &mvm = calls["engine.functional_mac_sweep"];
    report.value("rram.ns_per_mvm_row",
                 mvm.mvmRows > 0.0 ? mvm.ms * 1e6 / mvm.mvmRows : 0.0,
                 mvm.n);

    // Counts per operation, from the counter deltas on each root span
    // (see attachCounts).
    const std::pair<const char *, const char *> root_counts[] = {
        {"graph.sorts", "sorts"},
        {"store.load_hits", "load_hits"},
        {"store.load_rejects", "load_rejects"},
        {"store.saves", "saves"},
        {"engine.plan_hits", "plan_hits"},
        {"engine.plan_misses", "plan_misses"},
        {"rram.mvm_rows", "mvm_rows"},
    };
    std::map<std::string, double> totals;
    for (const Tracer::Record &r : tracer.records()) {
        if (std::find(ops.begin(), ops.end(), r.request) == ops.end())
            continue;
        if (r.name == "driver.resolve")
            totals["driver.resolve_calls"] += 1.0;
        if (r.parent != Tracer::kNoParent)
            continue;
        for (const auto &[metric, key] : root_counts)
            totals[metric] += r.arg(key);
    }
    const double n = ops.empty() ? 1.0 : static_cast<double>(ops.size());
    report.value("driver.resolve_calls", totals["driver.resolve_calls"] / n,
                 ops.size());
    for (const auto &[metric, key] : root_counts)
        report.value(metric, totals[metric] / n, ops.size());
    const double lookups =
        totals["engine.plan_hits"] + totals["engine.plan_misses"];
    report.value("engine.plan_hit_ratio",
                 lookups > 0.0 ? totals["engine.plan_hits"] / lookups : 0.0,
                 ops.size());
}

} // namespace graphr::bench
