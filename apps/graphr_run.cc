/**
 * @file
 * graphr_run: the unified workload-driver CLI.
 *
 * Runs any algorithm x backend x dataset combination from the driver
 * registries and reports time/energy/work in text and JSON:
 *
 *   graphr_run --algo pagerank --backend graphr --dataset wiki-vote \
 *              --scale 4 --out report.json
 *   graphr_run --algo all --backend all \
 *              --dataset rmat:vertices=4096,edges=32768 --matrix
 *
 * The `prepare` subcommand runs the paper's offline preprocessing
 * ahead of time and persists the artifacts; `store stats` lists them:
 *
 *   graphr_run prepare --dataset wiki-vote --scale 4 --plan-dir plans/
 *   graphr_run store stats --plan-dir plans/
 *
 * The `bench` subcommand runs the perf suites (src/perf/) and emits a
 * BENCH_*.json trajectory point; `bench compare` is the regression
 * gate CI runs against the checked-in baseline:
 *
 *   graphr_run bench --suite small --out BENCH_1.json
 *   graphr_run bench compare BENCH_0.json BENCH_1.json --threshold 10
 */

#include <cstdlib>
#include <fstream>
#include <iostream>

#include "common/table.hh"
#include "driver/cli.hh"
#include "driver/run_result.hh"
#include "graph/partition.hh"
#include "graphr/config.hh"
#include "perf/compare.hh"
#include "perf/counters.hh"
#include "perf/suite.hh"

namespace
{

/**
 * With GRAPHR_PERF_DUMP set (non-empty, not "0"), print every
 * process-wide perf counter to stderr on exit, one
 * "perf-counter <name>=<value>" line each. Scripts (CI's warm-store
 * smoke) grep these to assert work invariants like zero sorts on a
 * warm load without parsing the JSON report.
 */
class PerfDumpGuard
{
  public:
    ~PerfDumpGuard()
    {
        const char *env = std::getenv("GRAPHR_PERF_DUMP");
        if (env == nullptr || env[0] == '\0' || env[0] == '0')
            return;
        for (const auto &[name, value] :
             graphr::perf::Registry::instance().counterValues()) {
            std::cerr << "perf-counter " << name << "=" << value
                      << "\n";
        }
    }
};

/** Run a suite, print the table, optionally write BENCH json. */
int
runBench(const graphr::driver::CliOptions &opts)
{
    using namespace graphr::perf;

    SuiteOptions suite_opts;
    suite_opts.reps = opts.benchReps;
    suite_opts.warmups = opts.benchWarmups;
    suite_opts.progress = &std::cerr;
    const BenchReport report = runSuite(opts.benchSuite, suite_opts);

    // Like run/sweep: with JSON going to stdout, the human-readable
    // table moves to stderr so stdout stays machine-readable.
    std::ostream &text = opts.outPath == "-" ? std::cerr : std::cout;
    text << "\n";
    printBenchTable(text, report);

    if (!opts.outPath.empty()) {
        if (opts.outPath == "-") {
            writeBenchJson(std::cout, report);
        } else {
            std::ofstream out(opts.outPath);
            if (out)
                writeBenchJson(out, report);
            out.close();
            if (!out) {
                std::cerr << "error: cannot write '" << opts.outPath
                          << "'\n";
                return 1;
            }
            std::cerr << "wrote " << opts.outPath << "\n";
        }
    }
    return 0;
}

/** Diff two BENCH files; non-zero exit when the gate fails. */
int
runBenchCompare(const graphr::driver::CliOptions &opts)
{
    using namespace graphr::perf;

    CompareOptions compare_opts;
    compare_opts.thresholdPct = opts.compareThresholdPct;
    compare_opts.gateAll = opts.compareGateAll;
    const BenchReport baseline = loadBenchFile(opts.compareOldPath);
    const BenchReport candidate = loadBenchFile(opts.compareNewPath);
    const CompareReport report =
        compareBench(baseline, candidate, compare_opts);
    printCompareReport(std::cout, report, compare_opts);
    return report.ok() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace graphr::driver;

    const PerfDumpGuard perf_dump;
    try {
        const CliOptions opts =
            parseCli(std::vector<std::string>(argv + 1, argv + argc));

        if (opts.help) {
            std::cout << usageText();
            return 0;
        }
        if (opts.list) {
            std::cout << listText();
            return 0;
        }

        if (opts.command == CliCommand::kPrepare) {
            const std::vector<PrepareResult> prepared =
                runPrepare(opts.prepare, &std::cerr);
            graphr::TextTable table;
            table.header({"dataset", "variant", "edges", "tiles",
                          "artifact", "status"});
            for (const PrepareResult &p : prepared) {
                table.row({p.dataset, p.variant,
                           std::to_string(p.edges),
                           std::to_string(p.tiles), p.file,
                           p.reused ? "reused" : "written"});
            }
            table.print(std::cout);
            return 0;
        }
        if (opts.command == CliCommand::kStoreStats) {
            std::cout << storeStatsText(opts.prepare.store);
            return 0;
        }
        if (opts.command == CliCommand::kBench)
            return runBench(opts);
        if (opts.command == CliCommand::kBenchCompare)
            return runBenchCompare(opts);

        const std::vector<RunResult> results =
            runSweep(opts.sweep, &std::cerr);

        // With JSON going to stdout, keep stdout machine-readable and
        // move the human-readable tables to stderr.
        std::ostream &text =
            opts.outPath == "-" ? std::cerr : std::cout;
        text << "\n";
        printResultsTable(text, results);
        if (opts.matrix) {
            text << "\n";
            printMatrix(text, results);
        }

        if (!opts.outPath.empty()) {
            if (opts.outPath == "-") {
                writeResultsJson(std::cout, results);
            } else {
                std::ofstream out(opts.outPath);
                if (out)
                    writeResultsJson(out, results);
                out.close();
                if (!out) {
                    std::cerr << "error: cannot write '"
                              << opts.outPath << "'\n";
                    return 1;
                }
                std::cerr << "wrote " << opts.outPath << "\n";
            }
        }
        return 0;
    } catch (const DriverError &err) {
        std::cerr << "error: " << err.what() << "\n\n"
                  << "run 'graphr_run --help' for usage\n";
        return 1;
    } catch (const graphr::ConfigError &err) {
        // Backend construction validates GraphRConfig (config.hh).
        std::cerr << "error: " << err.what() << "\n";
        return 1;
    } catch (const graphr::PartitionError &err) {
        // A graph too wide for the tiling's order IDs.
        std::cerr << "error: " << err.what() << "\n";
        return 1;
    } catch (const graphr::StoreError &err) {
        // Plan-store I/O failure during prepare (artifact writes).
        std::cerr << "error: " << err.what() << "\n";
        return 1;
    } catch (const graphr::perf::PerfError &err) {
        // Bench subcommands: unknown suite, unreadable or malformed
        // BENCH file, failed suite invariant.
        std::cerr << "error: " << err.what() << "\n";
        return 1;
    }
}
