/**
 * @file
 * Unit tests for the perf telemetry subsystem (src/perf/): counter
 * registry semantics and thread-safety, the log-linear latency
 * histogram, the repetition controller's order statistics, the
 * BENCH_*.json round-trip through common/json_reader, and the
 * regression comparator the CI gate runs on.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json_reader.hh"
#include "common/thread_pool.hh"
#include "perf/bench.hh"
#include "perf/compare.hh"
#include "perf/counters.hh"
#include "perf/report.hh"
#include "perf/suite.hh"

namespace
{

using namespace graphr;
using namespace graphr::perf;

// ---------------------------------------------------------- counters

TEST(PerfCounter, AddAndReset)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(PerfCounter, RecordMaxIsAPeakGauge)
{
    Counter c;
    c.recordMax(7);
    c.recordMax(3); // below the peak: no effect
    EXPECT_EQ(c.value(), 7u);
    c.recordMax(9);
    EXPECT_EQ(c.value(), 9u);
}

TEST(PerfRegistry, SameNameSameCounter)
{
    Registry &reg = Registry::instance();
    Counter &a = reg.counter("test_perf.same_name");
    Counter &b = reg.counter("test_perf.same_name");
    EXPECT_EQ(&a, &b);
    a.reset();
    b.add(3);
    EXPECT_EQ(a.value(), 3u);
    const std::map<std::string, std::uint64_t> values =
        reg.counterValues();
    const auto it = values.find("test_perf.same_name");
    ASSERT_NE(it, values.end());
    EXPECT_EQ(it->second, 3u);
}

TEST(PerfRegistry, ConcurrentPublishAndRegisterIsExact)
{
    // The hot-path contract: concurrent add()s on shared counters and
    // concurrent first-use registrations of distinct names must lose
    // nothing. Run under TSan in CI.
    Registry &reg = Registry::instance();
    reg.counter("test_perf.shared").reset();
    constexpr unsigned kThreads = 8;
    constexpr unsigned kAdds = 10000;
    ThreadPool pool(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
        pool.submit([&reg, t] {
            // Each task also registers its own fresh name, racing the
            // others' map insertions.
            Counter &own = reg.counter("test_perf.own." +
                                       std::to_string(t));
            own.reset();
            Counter &shared = reg.counter("test_perf.shared");
            LatencyHistogram &lat =
                reg.latency("test_perf.latency");
            for (unsigned i = 0; i < kAdds; ++i) {
                shared.add();
                own.add();
                lat.record(i + 1);
            }
        });
    }
    pool.wait();
    EXPECT_EQ(reg.counter("test_perf.shared").value(),
              std::uint64_t{kThreads} * kAdds);
    for (unsigned t = 0; t < kThreads; ++t)
        EXPECT_EQ(reg.counter("test_perf.own." + std::to_string(t))
                      .value(),
                  std::uint64_t{kAdds});
    EXPECT_EQ(reg.latency("test_perf.latency").count(),
              std::uint64_t{kThreads} * kAdds);
}

// --------------------------------------------------------- histogram

TEST(PerfHistogram, EmptyIsAllZero)
{
    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_EQ(h.quantile(0.5), 0u);
}

TEST(PerfHistogram, ExactStatsAndSmallValues)
{
    LatencyHistogram h;
    for (const std::uint64_t v : {3u, 1u, 4u, 1u, 5u})
        h.record(v);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.min(), 1u);
    EXPECT_EQ(h.max(), 5u);
    EXPECT_EQ(h.sum(), 14u);
    // Values below 16 land in exact buckets: the median of
    // {1,1,3,4,5} is 3 exactly.
    EXPECT_EQ(h.quantile(0.5), 3u);
    EXPECT_EQ(h.quantile(1.0), 5u);
}

TEST(PerfHistogram, QuantileWithinBucketResolution)
{
    // A uniform spread over [1, 1e6] ns: every quantile must come
    // back within one log-linear sub-bucket (~2^-4 ≈ 6.25% worst
    // case, plus clamping to [min, max]).
    LatencyHistogram h;
    constexpr std::uint64_t kN = 100000;
    for (std::uint64_t i = 1; i <= kN; ++i)
        h.record(i * 10);
    EXPECT_EQ(h.count(), kN);
    EXPECT_EQ(h.min(), 10u);
    EXPECT_EQ(h.max(), kN * 10);
    for (const double q : {0.25, 0.5, 0.9, 0.99}) {
        const double exact = q * static_cast<double>(kN) * 10.0;
        const double got = static_cast<double>(h.quantile(q));
        EXPECT_NEAR(got, exact, exact * 0.07)
            << "q=" << q;
    }
    EXPECT_EQ(h.quantile(1.0), kN * 10);
}

// ------------------------------------------------- order statistics

TEST(PerfStats, MedianAndIqr)
{
    EXPECT_DOUBLE_EQ(median({}), 0.0);
    EXPECT_DOUBLE_EQ(median({3.0}), 3.0);
    EXPECT_DOUBLE_EQ(median({1.0, 2.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(iqr({}), 0.0);
    EXPECT_DOUBLE_EQ(iqr({5.0}), 0.0);
    // 1..8: type-7 quartiles q25 = 2.75, q75 = 6.25.
    EXPECT_NEAR(iqr({1, 2, 3, 4, 5, 6, 7, 8}), 3.5, 1e-12);
}

TEST(PerfStats, QuantileSortedInterpolates)
{
    const std::vector<double> v{10.0, 20.0, 30.0, 40.0};
    EXPECT_DOUBLE_EQ(quantileSorted(v, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(quantileSorted(v, 1.0), 40.0);
    EXPECT_DOUBLE_EQ(quantileSorted(v, 0.5), 25.0);
}

// ------------------------------------------------------- measure()

TEST(PerfMeasure, RunsWarmupsUntimedAndCapturesCounterDeltas)
{
    Registry::instance().counter("test_perf.measure").reset();
    unsigned calls = 0;
    RepOptions options;
    options.warmups = 2;
    options.reps = 3;
    const RepStats stats = measure(options, [&calls] {
        ++calls;
        Registry::instance().counter("test_perf.measure").add();
    });
    // Warmups run the body but are neither timed nor counted in the
    // counter window.
    EXPECT_EQ(calls, 5u);
    ASSERT_EQ(stats.seconds.size(), 3u);
    for (const double s : stats.seconds)
        EXPECT_GE(s, 0.0);
    const auto it = stats.counterDeltas.find("test_perf.measure");
    ASSERT_NE(it, stats.counterDeltas.end());
    EXPECT_EQ(it->second, 3u);
    EXPECT_DOUBLE_EQ(stats.perRep("test_perf.measure"), 1.0);
    EXPECT_DOUBLE_EQ(stats.perRep("test_perf.no_such"), 0.0);
}

TEST(PerfMeasure, ZeroRepsThrows)
{
    RepOptions options;
    options.reps = 0;
    EXPECT_THROW(measure(options, [] {}), PerfError);
}

// ------------------------------------------------ BENCH round-trip

BenchReport
sampleReport()
{
    BenchReport report;
    report.suite = "unit";
    report.environment.compiler = "testc 1.0";
    report.environment.buildType = "release";
    report.environment.hardwareThreads = 4;

    BenchMetric wall;
    wall.name = "unit.wall_s";
    wall.unit = "s";
    wall.value = 0.125;
    wall.gated = false;
    wall.better = "lower";
    wall.warmups = 1;
    wall.reps = 3;
    wall.min = 0.12;
    wall.medianSeconds = 0.125;
    wall.iqrSeconds = 0.01;
    wall.samples = {0.12, 0.125, 0.13};
    wall.counters["unit.sorts"] = 6;
    report.metrics.push_back(wall);

    BenchMetric runs;
    runs.name = "unit.runs";
    runs.unit = "count";
    runs.value = 36;
    runs.gated = true;
    runs.better = "higher";
    report.metrics.push_back(runs);
    return report;
}

TEST(PerfReport, JsonRoundTripThroughJsonReader)
{
    const BenchReport report = sampleReport();
    std::ostringstream os;
    writeBenchJson(os, report);

    const JsonValue root = JsonValue::parse(os.str());
    EXPECT_EQ(root.find("schema")->asString(), "graphr-bench");
    EXPECT_EQ(root.find("schema_version")->asU64(),
              static_cast<std::uint64_t>(BenchReport::kSchemaVersion));

    const BenchReport back = parseBenchReport(root);
    EXPECT_EQ(back.suite, "unit");
    EXPECT_EQ(back.environment.compiler, "testc 1.0");
    EXPECT_EQ(back.environment.buildType, "release");
    EXPECT_EQ(back.environment.hardwareThreads, 4u);
    ASSERT_EQ(back.metrics.size(), 2u);

    const BenchMetric *wall = back.find("unit.wall_s");
    ASSERT_NE(wall, nullptr);
    EXPECT_EQ(wall->unit, "s");
    EXPECT_DOUBLE_EQ(wall->value, 0.125);
    EXPECT_FALSE(wall->gated);
    EXPECT_EQ(wall->better, "lower");
    EXPECT_EQ(wall->warmups, 1u);
    EXPECT_EQ(wall->reps, 3u);
    EXPECT_DOUBLE_EQ(wall->min, 0.12);
    EXPECT_DOUBLE_EQ(wall->medianSeconds, 0.125);
    EXPECT_DOUBLE_EQ(wall->iqrSeconds, 0.01);
    ASSERT_EQ(wall->samples.size(), 3u);
    EXPECT_DOUBLE_EQ(wall->samples[1], 0.125);
    ASSERT_EQ(wall->counters.size(), 1u);
    EXPECT_EQ(wall->counters.at("unit.sorts"), 6u);

    const BenchMetric *runs = back.find("unit.runs");
    ASSERT_NE(runs, nullptr);
    EXPECT_TRUE(runs->gated);
    EXPECT_EQ(runs->better, "higher");
    EXPECT_DOUBLE_EQ(runs->value, 36.0);
    EXPECT_EQ(runs->reps, 0u);
    EXPECT_EQ(back.find("unit.no_such"), nullptr);
}

TEST(PerfReport, RejectsWrongSchemaAndVersion)
{
    EXPECT_THROW(parseBenchReport(JsonValue::parse(
                     R"({"schema":"not-bench","schema_version":1,)"
                     R"("suite":"s","environment":{"compiler":"c",)"
                     R"("build_type":"release","hardware_threads":1},)"
                     R"("metrics":[]})")),
                 PerfError);
    EXPECT_THROW(parseBenchReport(JsonValue::parse(
                     R"({"schema":"graphr-bench","schema_version":99,)"
                     R"("suite":"s","environment":{"compiler":"c",)"
                     R"("build_type":"release","hardware_threads":1},)"
                     R"("metrics":[]})")),
                 PerfError);
    // Missing required field (no suite).
    EXPECT_THROW(parseBenchReport(JsonValue::parse(
                     R"({"schema":"graphr-bench","schema_version":1,)"
                     R"("environment":{"compiler":"c",)"
                     R"("build_type":"release","hardware_threads":1},)"
                     R"("metrics":[]})")),
                 PerfError);
    // Bad improvement direction.
    EXPECT_THROW(
        parseBenchReport(JsonValue::parse(
            R"({"schema":"graphr-bench","schema_version":1,)"
            R"("suite":"s","environment":{"compiler":"c",)"
            R"("build_type":"release","hardware_threads":1},)"
            R"("metrics":[{"name":"m","unit":"s","value":1,)"
            R"("gated":true,"better":"sideways"}]})")),
        PerfError);
}

TEST(PerfReport, LoadBenchFileMissingPathThrows)
{
    EXPECT_THROW(loadBenchFile("/no/such/dir/BENCH_none.json"),
                 PerfError);
}

// ------------------------------------------------------ comparator

BenchReport
gatedOnly(double value, const std::string &better = "lower")
{
    BenchReport report;
    report.suite = "unit";
    BenchMetric m;
    m.name = "unit.metric";
    m.unit = "s";
    m.value = value;
    m.gated = true;
    m.better = better;
    report.metrics.push_back(m);
    return report;
}

TEST(PerfCompare, RegressionBeyondThresholdFailsGate)
{
    const CompareReport cmp =
        compareBench(gatedOnly(1.0), gatedOnly(1.5));
    ASSERT_EQ(cmp.metrics.size(), 1u);
    EXPECT_EQ(cmp.metrics[0].outcome, MetricOutcome::kRegressed);
    EXPECT_NEAR(cmp.metrics[0].deltaPct, 50.0, 1e-9);
    EXPECT_EQ(cmp.regressed, 1u);
    EXPECT_FALSE(cmp.ok());
}

TEST(PerfCompare, WithinThresholdPasses)
{
    CompareOptions options;
    options.thresholdPct = 10.0;
    const CompareReport cmp =
        compareBench(gatedOnly(1.0), gatedOnly(1.05), options);
    EXPECT_EQ(cmp.metrics[0].outcome, MetricOutcome::kOk);
    EXPECT_TRUE(cmp.ok());
    // The same 5% move fails a tighter gate.
    options.thresholdPct = 1.0;
    EXPECT_FALSE(
        compareBench(gatedOnly(1.0), gatedOnly(1.05), options).ok());
}

TEST(PerfCompare, ImprovementPasses)
{
    const CompareReport cmp =
        compareBench(gatedOnly(1.0), gatedOnly(0.5));
    EXPECT_EQ(cmp.metrics[0].outcome, MetricOutcome::kImproved);
    EXPECT_EQ(cmp.improved, 1u);
    EXPECT_TRUE(cmp.ok());
}

TEST(PerfCompare, HigherIsBetterFlipsDirection)
{
    // runs 4 -> 2 is a 50% regression of a higher-is-better metric.
    const CompareReport down = compareBench(
        gatedOnly(4.0, "higher"), gatedOnly(2.0, "higher"));
    EXPECT_EQ(down.metrics[0].outcome, MetricOutcome::kRegressed);
    EXPECT_NEAR(down.metrics[0].deltaPct, 50.0, 1e-9);
    EXPECT_FALSE(down.ok());
    const CompareReport up = compareBench(
        gatedOnly(4.0, "higher"), gatedOnly(8.0, "higher"));
    EXPECT_EQ(up.metrics[0].outcome, MetricOutcome::kImproved);
    EXPECT_TRUE(up.ok());
}

TEST(PerfCompare, ZeroBaselineJumpTripsGate)
{
    // 0 -> 1 sorts cannot be expressed as a percentage; it must still
    // gate (counted as +100%).
    const CompareReport cmp =
        compareBench(gatedOnly(0.0), gatedOnly(1.0));
    EXPECT_EQ(cmp.metrics[0].outcome, MetricOutcome::kRegressed);
    EXPECT_FALSE(cmp.ok());
    EXPECT_TRUE(compareBench(gatedOnly(0.0), gatedOnly(0.0)).ok());
}

TEST(PerfCompare, MissingGatedMetricFailsGate)
{
    BenchReport empty;
    empty.suite = "unit";
    const CompareReport cmp = compareBench(gatedOnly(1.0), empty);
    ASSERT_EQ(cmp.metrics.size(), 1u);
    EXPECT_EQ(cmp.metrics[0].outcome, MetricOutcome::kMissing);
    EXPECT_EQ(cmp.missing, 1u);
    EXPECT_FALSE(cmp.ok());
}

TEST(PerfCompare, UngatedMetricNeverFailsUnlessGateAll)
{
    BenchReport base = gatedOnly(1.0);
    base.metrics[0].gated = false;
    BenchReport bad = gatedOnly(9.0);
    bad.metrics[0].gated = false;
    EXPECT_TRUE(compareBench(base, bad).ok());
    // An ungated metric going missing is fine too.
    BenchReport empty;
    EXPECT_TRUE(compareBench(base, empty).ok());
    // --gate-all widens the gate to everything.
    CompareOptions options;
    options.gateAll = true;
    EXPECT_FALSE(compareBench(base, bad, options).ok());
    EXPECT_FALSE(compareBench(base, empty, options).ok());
}

TEST(PerfCompare, CandidateOnlyMetricIsNewAndInformational)
{
    BenchReport empty;
    const CompareReport cmp = compareBench(empty, gatedOnly(1.0));
    ASSERT_EQ(cmp.metrics.size(), 1u);
    EXPECT_EQ(cmp.metrics[0].outcome, MetricOutcome::kNew);
    EXPECT_TRUE(cmp.ok());
}

TEST(PerfCompare, ReportNamesTheRegressedMetric)
{
    const CompareReport cmp =
        compareBench(gatedOnly(1.0), gatedOnly(1.5));
    std::ostringstream os;
    printCompareReport(os, cmp, CompareOptions{});
    EXPECT_NE(os.str().find("unit.metric"), std::string::npos);
    EXPECT_NE(os.str().find("REGRESSED"), std::string::npos);
    EXPECT_NE(os.str().find("gate FAILED"), std::string::npos);
}

// ----------------------------------------------------------- suites

TEST(PerfSuite, RegistryListsSmallAndRejectsUnknown)
{
    EXPECT_EQ(suiteNames(),
              (std::vector<std::string>{"small", "micro"}));
    EXPECT_TRUE(isSuiteName("small"));
    EXPECT_TRUE(isSuiteName("micro"));
    EXPECT_FALSE(isSuiteName("sweep"));
    EXPECT_FALSE(isSuiteName("no_such_suite"));
    EXPECT_THROW(runSuite("no_such_suite"), PerfError);
}

TEST(PerfSuite, SmallSuiteGatedMetricsAreDeterministic)
{
    // The CI gate's premise: gated metrics of the small suite must be
    // bit-identical run to run (same process, same machine — the
    // cross-machine half of the premise is that they are work/model
    // metrics, which tests/golden already pins for the simulator).
    SuiteOptions options;
    options.reps = 1;
    options.warmups = 1;
    const BenchReport a = runSuite("small", options);
    const BenchReport b = runSuite("small", options);
    ASSERT_EQ(a.metrics.size(), b.metrics.size());
    for (std::size_t i = 0; i < a.metrics.size(); ++i) {
        if (!a.metrics[i].gated)
            continue;
        EXPECT_EQ(a.metrics[i].name, b.metrics[i].name);
        EXPECT_DOUBLE_EQ(a.metrics[i].value, b.metrics[i].value)
            << a.metrics[i].name;
    }
    // The pinned-seed fingerprint invariant ran and passed.
    const BenchMetric *stable =
        a.find("dataset.rmat_small.fingerprint_stable");
    ASSERT_NE(stable, nullptr);
    EXPECT_DOUBLE_EQ(stable->value, 1.0);
    EXPECT_TRUE(stable->gated);
}

TEST(PerfSuite, MicroSuiteProcessesEachShapesOccupiedRows)
{
    // 512 MVMs per rep read exactly the occupied wordlines: all 64 of
    // the dense crossbar's rows, 8 of the sparse one's. The occupancy
    // mask alone decides the gated work metric.
    SuiteOptions options;
    options.reps = 1;
    options.warmups = 0;
    const BenchReport report = runSuite("micro", options);
    for (const auto &[shape, rows] :
         {std::pair<std::string, double>{"dense", 512.0 * 64},
          std::pair<std::string, double>{"sparse", 512.0 * 8}}) {
        const std::string name =
            "micro.crossbar_mvm." + shape + ".mvm_rows_per_rep";
        const BenchMetric *metric = report.find(name);
        ASSERT_NE(metric, nullptr) << name;
        EXPECT_TRUE(metric->gated) << name;
        EXPECT_DOUBLE_EQ(metric->value, rows) << name;
    }
    // Functional PageRank reads the same wordlines under either
    // charging policy: the GE array counts, per MVM, the rows a
    // crossbar walk would read.
    for (const std::string charging : {"resident", "reprogram"}) {
        const std::string prefix = "micro.functional_pagerank." + charging;
        EXPECT_NE(report.find(prefix + ".wall_s"), nullptr) << charging;
        const BenchMetric *rows = report.find(prefix + ".mvm_rows_per_rep");
        ASSERT_NE(rows, nullptr) << charging;
        EXPECT_TRUE(rows->gated) << charging;
        EXPECT_DOUBLE_EQ(rows->value, 22720.0) << charging;
    }
    // The first-touch resolve is timed, and every repetition draws
    // the same graph.
    EXPECT_NE(report.find("micro.resolve.rmat_131k.resolve_wall_s"),
              nullptr);
    const BenchMetric *stable =
        report.find("micro.resolve.rmat_131k.fingerprint_stable");
    ASSERT_NE(stable, nullptr);
    EXPECT_DOUBLE_EQ(stable->value, 1.0);
}

} // namespace
