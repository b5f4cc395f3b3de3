#include "cli.hh"

#include <sstream>

namespace graphr::driver
{

namespace
{

/** Reuse ParamMap's strict typed parsing for a single flag value
 *  (set(), not parse(), so commas in the value are not split). */
ParamMap
oneFlag(const std::string &flag, const std::string &value)
{
    ParamMap map;
    map.set(flag, value);
    return map;
}

/**
 * Parse `bench [...]` / `bench compare OLD NEW [...]` (args starts
 * at the "bench" word). The bench flag surface is disjoint from the
 * run/sweep one, so it gets its own loops; compare is the only
 * graphr_run command taking positional arguments.
 */
CliOptions
parseBenchCli(CliOptions opts, const std::vector<std::string> &args)
{
    const auto next = [&args](std::size_t &i,
                              const std::string &flag)
        -> const std::string & {
        if (i + 1 >= args.size())
            throw DriverError("flag " + flag + " needs a value");
        return args[++i];
    };

    if (args.size() > 1 && args[1] == "compare") {
        opts.command = CliCommand::kBenchCompare;
        std::vector<std::string> positional;
        for (std::size_t i = 2; i < args.size(); ++i) {
            const std::string &arg = args[i];
            if (arg == "--threshold") {
                opts.compareThresholdPct =
                    oneFlag(arg, next(i, arg)).getDouble(arg, 10.0);
                // Negated so NaN is rejected too.
                if (!(opts.compareThresholdPct >= 0.0))
                    throw DriverError("--threshold must be >= 0");
            } else if (arg == "--gate-all") {
                opts.compareGateAll = true;
            } else if (arg == "--help" || arg == "-h") {
                opts.help = true;
            } else if (!arg.empty() && arg[0] == '-') {
                throw DriverError("unknown bench compare flag '" +
                                  arg + "' (see --help)");
            } else {
                positional.push_back(arg);
            }
        }
        if (opts.help)
            return opts;
        if (positional.size() != 2)
            throw DriverError(
                "bench compare needs exactly two BENCH files: "
                "bench compare OLD NEW");
        opts.compareOldPath = positional[0];
        opts.compareNewPath = positional[1];
        return opts;
    }

    opts.command = CliCommand::kBench;
    for (std::size_t i = 1; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "--suite") {
            opts.benchSuite = next(i, arg);
            if (opts.benchSuite.empty())
                throw DriverError("--suite got an empty name");
        } else if (arg == "--reps") {
            opts.benchReps =
                oneFlag(arg, next(i, arg)).getU32(arg, 5);
            if (opts.benchReps == 0 || opts.benchReps > 1000)
                throw DriverError("--reps must be in [1, 1000]");
        } else if (arg == "--warmups") {
            opts.benchWarmups =
                oneFlag(arg, next(i, arg)).getU32(arg, 1);
            if (opts.benchWarmups > 1000)
                throw DriverError("--warmups must be in [0, 1000]");
        } else if (arg == "--out" || arg == "-o") {
            opts.outPath = next(i, arg);
        } else if (arg == "--help" || arg == "-h") {
            opts.help = true;
        } else {
            throw DriverError("unknown bench flag '" + arg +
                              "' (see --help)");
        }
    }
    return opts;
}

} // namespace

CliOptions
parseCli(const std::vector<std::string> &args)
{
    CliOptions opts;
    // The CLI defaults to a single cheap combination (the help text
    // documents this); "all" is an explicit opt-in to the 6x6 sweep.
    opts.sweep.workloads = {"pagerank"};
    opts.sweep.backends = {"graphr"};
    opts.sweep.datasets.clear();

    auto next = [&args](std::size_t &i,
                        const std::string &flag) -> const std::string & {
        if (i + 1 >= args.size())
            throw DriverError("flag " + flag + " needs a value");
        return args[++i];
    };

    // A leading non-flag word selects a subcommand.
    std::size_t first = 0;
    if (!args.empty() && !args[0].empty() && args[0][0] != '-') {
        if (args[0] == "prepare") {
            opts.command = CliCommand::kPrepare;
            first = 1;
        } else if (args[0] == "bench") {
            // The bench surface is disjoint from the run/sweep flag
            // set, so it parses in its own loop and returns early.
            return parseBenchCli(std::move(opts), args);
        } else if (args[0] == "store") {
            if (args.size() < 2 || args[1] != "stats") {
                throw DriverError(
                    "store needs an action: 'store stats' "
                    "(see --help)");
            }
            opts.command = CliCommand::kStoreStats;
            first = 2;
        } else {
            throw DriverError("unknown subcommand '" + args[0] +
                              "' (known: prepare, store stats; or "
                              "flags for a run — see --help)");
        }
    }

    for (std::size_t i = first; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "--algo" || arg == "-a") {
            opts.sweep.workloads = splitList(next(i, arg));
            if (opts.sweep.workloads.empty())
                throw DriverError("--algo got an empty list");
        } else if (arg == "--backend" || arg == "-b") {
            opts.sweep.backends = splitList(next(i, arg));
            if (opts.sweep.backends.empty())
                throw DriverError("--backend got an empty list");
        } else if (arg == "--dataset" || arg == "-d") {
            opts.sweep.datasets.push_back(next(i, arg));
        } else if (arg == "--param" || arg == "-p") {
            opts.sweep.params.merge(ParamMap::parse(next(i, arg)));
        } else if (arg == "--scale") {
            opts.sweep.scale =
                oneFlag(arg, next(i, arg)).getDouble(arg, 1.0);
            // Negated form so NaN is rejected too.
            if (!(opts.sweep.scale >= 1.0))
                throw DriverError("--scale must be >= 1");
        } else if (arg == "--seed") {
            opts.sweep.seed =
                oneFlag(arg, next(i, arg)).getU64(arg, 42);
        } else if (arg == "--jobs" || arg == "-j") {
            const std::uint32_t n =
                oneFlag(arg, next(i, arg)).getU32(arg, 1);
            if (n > 1024)
                throw DriverError("--jobs must be in [0, 1024]");
            opts.sweep.jobs = n;
        } else if (arg == "--nodes") {
            const std::uint32_t n =
                oneFlag(arg, next(i, arg)).getU32(arg, 4);
            if (n == 0 || n > 65536)
                throw DriverError("--nodes must be in [1, 65536]");
            opts.sweep.backendOptions.numNodes = n;
        } else if (arg == "--functional") {
            opts.sweep.backendOptions.config.functional = true;
        } else if (arg == "--plan-dir") {
            opts.sweep.store.planDir = next(i, arg);
            if (opts.sweep.store.planDir.empty())
                throw DriverError("--plan-dir got an empty path");
        } else if (arg == "--out" || arg == "-o") {
            opts.outPath = next(i, arg);
        } else if (arg == "--matrix") {
            opts.matrix = true;
        } else if (arg == "--list") {
            opts.list = true;
        } else if (arg == "--help" || arg == "-h") {
            opts.help = true;
        } else {
            throw DriverError("unknown flag '" + arg +
                              "' (see --help)");
        }
    }

    if (opts.sweep.datasets.empty() &&
        opts.command == CliCommand::kRun) {
        // A sensible default keeps `graphr_run --algo pagerank`
        // usable without memorising the spec grammar. The prepare
        // subcommand instead requires explicit datasets: writing
        // surprise artifacts for a default graph helps nobody.
        opts.sweep.datasets.push_back(
            "rmat:vertices=1024,edges=8192");
    }

    // The prepare subcommand shares the flag surface; project the
    // relevant fields onto its spec.
    opts.prepare.datasets = opts.sweep.datasets;
    opts.prepare.store = opts.sweep.store;
    opts.prepare.scale = opts.sweep.scale;
    opts.prepare.seed = opts.sweep.seed;
    opts.prepare.jobs = opts.sweep.jobs;
    opts.prepare.tiling = opts.sweep.backendOptions.config.tiling;
    return opts;
}

std::string
usageText()
{
    std::ostringstream os;
    os << "graphr_run — unified GraphR workload driver\n\n"
       << "usage: graphr_run [subcommand] [flags]\n\n"
       << "subcommands (default: execute a run/sweep):\n"
       << "  prepare             offline preprocessing: sort/tile every\n"
       << "                      --dataset and persist the plan\n"
       << "                      artifacts into --plan-dir\n"
       << "  store stats         list the artifacts in --plan-dir\n"
       << "  bench               run a perf suite and print/emit a\n"
       << "                      BENCH json trajectory point\n"
       << "                      (--suite NAME, --reps N, --warmups N,\n"
       << "                      --out FILE)\n"
       << "  bench compare OLD NEW  diff two BENCH files; exits non-zero\n"
       << "                      when a gated metric regresses by more\n"
       << "                      than --threshold PCT (default 10;\n"
       << "                      --gate-all gates wall-clock metrics "
          "too)\n\n"
       << "flags:\n"
       << "  --algo, -a a[,b...] workloads, or 'all' (default pagerank)\n"
       << "  --backend, -b ...   backends, or 'all' (default graphr)\n"
       << "  --dataset, -d spec  dataset; repeat the flag for several\n"
       << "                      (default rmat:vertices=1024,edges=8192)\n"
       << "  --param, -p k=v     workload parameter (repeatable)\n"
       << "  --scale f           Table-3 dataset scale divisor (>= 1)\n"
       << "  --seed n            generator seed (default 42)\n"
       << "  --jobs, -j n        parallel sweep workers (default 1;\n"
       << "                      0 = all hardware threads); output is\n"
       << "                      byte-identical at any job count\n"
       << "  --nodes n           multinode cluster size (default 4)\n"
       << "  --functional        compute results through the bit-exact\n"
       << "                      analog datapath\n"
       << "  --plan-dir path     durable preprocessing store: runs load\n"
       << "                      prepared plans from here (skipping the\n"
       << "                      edge sort) and write new ones through\n"
       << "  --out, -o path      write JSON report ('-' = stdout)\n"
       << "  --matrix            print workload x backend matrix\n"
       << "  --list              list workloads/backends/datasets\n"
       << "  --help, -h          this text\n\n"
       << "full reference (plus the graphr_serve daemon): docs/CLI.md\n\n"
       << "examples:\n"
       << "  graphr_run --algo pagerank --backend graphr "
          "--dataset wiki-vote --scale 4 --out report.json\n"
       << "  graphr_run --algo all --backend all "
          "--dataset rmat:vertices=4096,edges=32768 --matrix\n"
       << "  graphr_run --algo sssp --backend outofcore "
          "--dataset grid:width=64,height=64 --param source=0\n"
       << "  graphr_run prepare --dataset wiki-vote --scale 4 "
          "--plan-dir plans/\n"
       << "  graphr_run --algo all --backend outofcore "
          "--dataset wiki-vote --scale 4 --plan-dir plans/\n"
       << "  graphr_run store stats --plan-dir plans/\n";
    return os.str();
}

std::string
listText()
{
    std::ostringstream os;
    os << "workloads:\n";
    for (const WorkloadInfo &info : allWorkloads()) {
        os << "  " << info.name << " — " << info.description << " ["
           << info.pattern << "]";
        if (!info.paramKeys.empty()) {
            os << " params:";
            for (const std::string &k : info.paramKeys)
                os << " " << k;
        }
        os << "\n";
    }
    os << "\nbackends:\n";
    for (const std::string &name : allBackendNames())
        os << "  " << name << "\n";
    os << "\ndatasets (Table 3, generated at --scale):\n";
    for (const std::string &name : knownDatasetNames())
        os << "  " << name << "\n";
    os << "\nplus generator specs (rmat: er: grid: chain: star: "
          "complete: bipartite:) and file:<path> edge lists\n";
    return os.str();
}

} // namespace graphr::driver
