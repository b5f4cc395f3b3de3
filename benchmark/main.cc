/**
 * @file
 * graphr_bench: the repository benchmark (see README.md).
 *
 *   graphr_bench --workload W --seed N [--seconds S] [--trace 0|1|DIR]
 *       runs one workload; prints `name workload value unit n=.. iqr=..`
 *       per metric, then the result object as the last stdout line.
 *   graphr_bench --seed N [--sets K] [--trace DIR]
 *       runs every workload in its own process, K sets in alternating
 *       order, then one traced run of each, and compares the sets
 *       against the bounds in BENCHMARK.json.
 *
 * Exit code 0 only when every correctness check passed.
 */

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/json_reader.hh"
#include "harness.hh"
#include "trace.hh"
#include "workloads.hh"

namespace
{

using namespace graphr;
using namespace graphr::bench;

using MetricNames = std::vector<std::pair<std::string, std::string>>;

/** End-to-end metrics: every workload reports each (untraced run). */
const MetricNames kEndToEnd = {
    {"setup_s", "s"},       {"p50_ms", "ms"},      {"p95_ms", "ms"},
    {"goodput_per_s", "1/s"}, {"peak_rss_mb", "MiB"},
};

/** Per-layer metrics of the traced run (README.md defines each). */
const MetricNames kPerLayer = {
    {"driver.resolve_ms", "ms"},
    {"driver.resolve_calls", "count"},
    {"driver.report_json_ms", "ms"},
    {"graph.fingerprint_ms", "ms"},
    {"graph.prepare_ms", "ms"},
    {"graph.prepare_edges_per_s", "edges/s"},
    {"graph.sorts", "count"},
    {"store.load_ms", "ms"},
    {"store.decode_edges_per_s", "edges/s"},
    {"store.save_ms", "ms"},
    {"store.encode_edges_per_s", "edges/s"},
    {"store.load_hits", "count"},
    {"store.load_rejects", "count"},
    {"store.saves", "count"},
    {"store.bytes_per_edge", "B/edge"},
    {"engine.plan_get_ms", "ms"},
    {"engine.plan_hits", "count"},
    {"engine.plan_misses", "count"},
    {"engine.plan_hit_ratio", "ratio"},
    {"engine.mac_walk_ms", "ms"},
    {"engine.addop_walk_ms", "ms"},
    {"engine.functional_mac_sweep_ms", "ms"},
    {"engine.tile_programs", "count"},
    {"engine.tile_loads", "count"},
    {"graphr.node_run_ms", "ms"},
    {"graphr.outofcore_run_ms", "ms"},
    {"graphr.multinode_run_ms", "ms"},
    {"rram.mvm_rows", "count"},
    {"rram.ns_per_mvm_row", "ns"},
    {"algorithms.golden_ms", "ms"},
    {"service.queue_wait_ms", "ms"},
    {"service.rejected", "count"},
    {"service.failed", "count"},
    {"service.timed_out", "count"},
    {"net.overhead_ms", "ms"},
    {"net.gen_late_p95_ms", "ms"},
    {"trace.overhead_frac", "ratio"},
};

struct WorkloadDef
{
    const char *name;
    void (*run)(const Options &, Report &, Tracer *);
};

const WorkloadDef kWorkloads[] = {
    {"cold-sweep", runColdSweep},
    {"warm-sweep", runWarmSweep},
    {"functional", runFunctional},
    {"serve-mix", runServeMix},
};

[[noreturn]] void
usage(const std::string &problem)
{
    std::cerr << "graphr_bench: " << problem << "\n"
              << "usage: graphr_bench [--workload W] --seed N "
                 "[--seconds S] [--trace 0|1|DIR] [--sets K] [--smoke]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    std::string trace = "0";
    bool seconds_set = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--smoke") {
            opts.smoke = true;
            continue;
        }
        if (flag == "--memory-rep") {
            opts.memoryRep = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("flag " + flag + " needs a value");
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                opts.workload = value;
            } else if (flag == "--seed") {
                opts.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                opts.seconds = std::stod(value);
                seconds_set = true;
            } else if (flag == "--trace") {
                trace = value;
            } else if (flag == "--sets") {
                opts.sets = static_cast<unsigned>(std::stoul(value));
            } else if (flag == "--work-dir") {
                opts.workDir = value;
            } else {
                usage("unknown flag " + flag);
            }
        } catch (const std::logic_error &) {
            usage("bad value '" + value + "' for " + flag);
        }
    }
    if (opts.smoke && !seconds_set)
        opts.seconds = 0.5;
    if (opts.seconds <= 0.0 || opts.sets == 0)
        usage("--seconds and --sets must be positive");
    if (opts.workDir.empty())
        opts.workDir = ".bench_build/work";
    // --trace 0: untraced; 1: traced, into the default directory;
    // anything else: traced, into that directory.
    opts.trace = trace != "0";
    opts.traceDir = trace == "0" || trace == "1" ? opts.workDir + "/traces"
                                                 : trace;
    return opts;
}

int
runWorkload(Options opts)
{
    const WorkloadDef *def = nullptr;
    for (const WorkloadDef &w : kWorkloads) {
        if (opts.workload == w.name)
            def = &w;
    }
    if (def == nullptr)
        usage("unknown workload '" + opts.workload + "'");

    // A memory-rep child works in its parent's directory.
    if (!opts.memoryRep) {
        opts.workDir += "/" + opts.workload + "-" + std::to_string(::getpid());
        freshDir(opts.workDir);
    }
    Report report;
    Tracer tracer;
    try {
        def->run(opts, report, opts.trace ? &tracer : nullptr);
    } catch (const std::exception &err) {
        report.check(false, std::string("run aborted: ") + err.what());
        report.attempt(false);
    }
    if (opts.memoryRep)
        return report.correct() ? 0 : 1;
    std::filesystem::remove_all(opts.workDir);
    for (const std::string &failure : report.failures())
        std::cerr << "CHECK FAILED [" << opts.workload << "] " << failure
                  << "\n";
    if (opts.trace) {
        std::filesystem::create_directories(opts.traceDir);
        const std::string path = opts.traceDir + "/" + opts.workload +
                                 "-seed" + std::to_string(opts.seed) +
                                 ".json";
        tracer.writeChromeJson(path);
        std::cerr << "trace: " << path << "\n";
        tracer.printSelfTimes(std::cerr);
    }
    report.print(std::cout, opts.workload, opts.trace ? kPerLayer : kEndToEnd);
    return report.correct() ? 0 : 1;
}

/** One child run's parsed output. */
struct ChildRun
{
    bool ok = false;
    std::string digest;
    /** metric name -> {value, iqr, n} from the metric lines. */
    std::map<std::string, Metric> metrics;
};

ChildRun
runChild(const Options &opts, const std::string &workload, bool trace,
         const std::string &prefix)
{
    std::vector<std::string> args = {
        "--workload", workload,
        "--seed", std::to_string(opts.seed),
        "--seconds", std::to_string(opts.seconds),
        "--trace", trace ? opts.traceDir : "0",
        "--work-dir", opts.workDir};
    if (opts.smoke)
        args.push_back("--smoke");
    ChildRun run;
    std::istringstream lines(runSelf(args, "", &run.ok));
    std::string line;
    while (std::getline(lines, line)) {
        if (line.empty() || line.front() == '{')
            continue;
        std::cout << prefix << line << "\n";
        std::istringstream fields(line);
        std::string name, wl, unit, n_field, iqr_field;
        double value = 0.0;
        if (line.rfind("digest ", 0) == 0) {
            run.digest = line.substr(7);
        } else if (fields >> name >> wl >> value >> unit >> n_field >>
                   iqr_field) {
            run.metrics[name] = Metric{name, value,
                                       std::stod(iqr_field.substr(4)),
                                       std::stoul(n_field.substr(2))};
        }
    }
    std::cout << std::flush;
    return run;
}

/** Bounds of the end-to-end metrics, from BENCHMARK.json. */
std::map<std::string, double>
readBounds()
{
    std::map<std::string, double> bounds;
    std::ifstream in("BENCHMARK.json");
    if (!in)
        return bounds;
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const JsonValue doc = JsonValue::parse(text);
    for (const JsonValue &m : doc.find("end_to_end")->items())
        bounds[m.find("name")->asString()] = m.find("bound")->asDouble();
    return bounds;
}

int
runAll(const Options &opts)
{
    bool ok = true;
    // sets[set][workload] -> that run's output.
    std::vector<std::map<std::string, ChildRun>> sets(opts.sets);
    for (unsigned s = 0; s < opts.sets; ++s) {
        std::vector<std::string> order;
        for (const WorkloadDef &w : kWorkloads)
            order.push_back(w.name);
        if (s % 2 == 1)
            std::reverse(order.begin(), order.end());
        for (const std::string &w : order) {
            sets[s][w] = runChild(opts, w, false,
                                  "set" + std::to_string(s + 1) + " ");
            ok &= sets[s][w].ok;
        }
        // Same seed, same graph: the cold and warm reports must match.
        if (sets[s]["cold-sweep"].digest != sets[s]["warm-sweep"].digest) {
            std::cout << "CHECK FAILED cold-sweep and warm-sweep reports "
                         "differ\n";
            ok = false;
        }
    }
    for (const WorkloadDef &w : kWorkloads)
        ok &= runChild(opts, w.name, true, "traced ").ok;

    if (opts.sets >= 2) {
        const std::map<std::string, double> bounds = readBounds();
        std::cout << "\nset comparison (median [iqr] per set; flagged "
                     "when sets 1 and 2 differ by more than the bound)\n";
        for (const WorkloadDef &w : kWorkloads) {
            for (const auto &[name, unit] : kEndToEnd) {
                std::ostringstream row;
                row << w.name << ' ' << name;
                for (unsigned s = 0; s < opts.sets; ++s) {
                    const Metric &m = sets[s][w.name].metrics[name];
                    row << "  set" << s + 1 << "=" << m.value << " ["
                        << m.iqr << "]";
                }
                const double a = sets[0][w.name].metrics[name].value;
                const double b = sets[1][w.name].metrics[name].value;
                const double diff = a != 0.0 ? std::abs(b - a) / a : 0.0;
                const auto bound = bounds.find(name);
                row << "  diff=" << diff;
                if (bound != bounds.end() && diff > bound->second)
                    row << "  FLAG (bound " << bound->second << ")";
                std::cout << row.str() << " " << unit << "\n";
            }
        }
    }
    std::cout << (ok ? "all checks passed\n" : "CHECKS FAILED\n");
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    try {
        return opts.workload.empty() ? runAll(opts) : runWorkload(opts);
    } catch (const std::exception &err) {
        std::cerr << "graphr_bench: " << err.what() << "\n";
        return 1;
    }
}
