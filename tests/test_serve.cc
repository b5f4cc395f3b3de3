/**
 * @file
 * Tests for the graphr_serve serving core, driven through the
 * daemon's stdin path: the request parser's error paths (malformed
 * JSON, unknown type/workload/backend/dataset, degenerate generator
 * specs, unreadable dataset files, queue overflow — all structured
 * responses, never a crash), stdin framing at EOF and at stop, the
 * warm-state guarantees (a repeated request is plan-cache-hot and
 * edge-sort-free, and finds its dataset resident with its golden
 * counts and symmetrised copy memoised), response/one-shot-driver
 * equivalence, and serial-vs-concurrent byte-identical response
 * streams.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/json_reader.hh"
#include "driver/driver.hh"
#include "driver/golden_cache.hh"
#include "graph/generator.hh"
#include "graph/io.hh"
#include "graph/preprocess.hh"
#include "graphr/engine/plan_cache.hh"
#include "net/event_loop.hh"
#include "perf/counters.hh"
#include "service/request.hh"
#include "service/server.hh"
#include "tests/serve_text.hh"

namespace graphr
{
namespace
{

namespace fs = std::filesystem;

/** Isolates the process-wide caches around every test. */
class ServeTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        resetCaches();
    }

    void
    TearDown() override
    {
        resetCaches();
    }

    static void
    resetCaches()
    {
        PlanCache::instance().setStore(nullptr);
        PlanCache::instance().clear();
        driver::clearGoldenCache();
        // The status latency summary reads the process-wide perf
        // registry; reset it so each test sees only its own requests.
        perf::Registry::instance().resetAll();
    }
};

/** Every response must parse back as one JSON object per line. */
JsonValue
parsedResponse(const std::string &line)
{
    const JsonValue v = JsonValue::parse(line);
    EXPECT_TRUE(v.isObject()) << line;
    return v;
}

void
expectError(const std::string &line, const std::string &id,
            const std::string &fragment)
{
    const JsonValue v = parsedResponse(line);
    EXPECT_FALSE(v.find("ok")->asBool()) << line;
    if (id.empty())
        EXPECT_TRUE(v.find("id")->isNull()) << line;
    else
        EXPECT_EQ(v.find("id")->asString(), id) << line;
    EXPECT_NE(v.find("error")->asString().find(fragment),
              std::string::npos)
        << "expected '" << fragment << "' in: " << line;
}

const char *const kRunRequest =
    R"({"id":"r1","type":"run","workload":"pagerank",)"
    R"("backend":"outofcore","dataset":"rmat:vertices=128,edges=1024,seed=9"})";

TEST_F(ServeTest, MalformedJsonIsAStructuredErrorResponse)
{
    const auto out = lines(serveText("{\"id\": \"x\", nope\n"));
    ASSERT_EQ(out.size(), 1u);
    expectError(out[0], "", "JSON error");
}

TEST_F(ServeTest, MissingOrBadIdIsAnError)
{
    const auto out = lines(serveText(
        "{\"type\":\"status\"}\n{\"id\":\"\",\"type\":\"status\"}\n"
        "{\"id\":7,\"type\":\"status\"}\n"));
    ASSERT_EQ(out.size(), 3u);
    expectError(out[0], "", "needs a string 'id'");
    expectError(out[1], "", "non-empty");
    expectError(out[2], "", "non-empty");
}

TEST_F(ServeTest, UnknownTypeIsAnError)
{
    const auto out =
        lines(serveText("{\"id\":\"x\",\"type\":\"frobnicate\"}\n"));
    ASSERT_EQ(out.size(), 1u);
    expectError(out[0], "x", "unknown request type 'frobnicate'");
}

TEST_F(ServeTest, UnknownNamesAndMembersAreErrors)
{
    const auto out = lines(serveText(
        R"({"id":"a","type":"run","workload":"nope","dataset":"chain:n=8"})"
        "\n"
        R"({"id":"b","type":"run","backend":"nope","dataset":"chain:n=8"})"
        "\n"
        R"({"id":"c","type":"run","dataset":"chain:n=8","plan_dir":"x"})"
        "\n"
        R"({"id":"d","type":"run","workload":"pagerank"})"
        "\n"));
    ASSERT_EQ(out.size(), 4u);
    expectError(out[0], "a", "unknown workload 'nope'");
    expectError(out[1], "b", "unknown backend 'nope'");
    expectError(out[2], "c", "unknown member 'plan_dir'");
    expectError(out[3], "d", "needs 'dataset'");
}

TEST_F(ServeTest, UnknownDatasetFailsAtExecutionWithAnErrorResponse)
{
    const auto out = lines(serveText(
        R"({"id":"a","type":"run","dataset":"no-such-graph"})" "\n"));
    ASSERT_EQ(out.size(), 1u);
    expectError(out[0], "a", "no-such-graph");
}

TEST_F(ServeTest, UnreadableDatasetFilesAreErrorsAndServingContinues)
{
    // A served file: dataset is outside input. Each way it can be bad
    // answers its own request with an error; none ends the daemon.
    const fs::path dir = fs::path(::testing::TempDir()) / "serve_files";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const fs::path malformed = dir / "malformed.txt";
    std::ofstream(malformed) << "0 1\nnot an edge\n";
    // A chain over 8 vertices whose header (bytes 8..11) claims 4.
    const fs::path out_of_range = dir / "out_of_range.bin";
    {
        std::stringstream buffer;
        saveBinary(makeChain(8), buffer);
        std::string bytes = buffer.str();
        const std::uint32_t vertices = 4;
        std::memcpy(bytes.data() + 8, &vertices, sizeof(vertices));
        std::ofstream(out_of_range, std::ios::binary) << bytes;
    }
    const auto request = [](const std::string &id,
                            const std::string &dataset) {
        return "{\"id\":\"" + id + "\",\"type\":\"run\",\"dataset\":\"" +
               dataset + "\"}\n";
    };
    const auto out = lines(serveText(
        request("missing", "file:" + (dir / "missing.txt").string()) +
        request("malformed", "file:" + malformed.string()) +
        request("range", "file:" + out_of_range.string()) +
        request("good", "chain:n=16")));
    ASSERT_EQ(out.size(), 4u);
    expectError(out[0], "missing", "cannot open");
    expectError(out[1], "malformed", "malformed edge at line 2");
    expectError(out[2], "range", "out of range");
    EXPECT_TRUE(parsedResponse(out[3]).find("ok")->asBool()) << out[3];
    fs::remove_all(dir);
}

TEST_F(ServeTest, ANegativeWeightIsAnErrorAndServingContinues)
{
    // Crossbar cells are unsigned: a functional SpMV on this file
    // used to abort the daemon in weight quantisation. The loader now
    // refuses the weight, and the next request is served.
    const fs::path dir = fs::path(::testing::TempDir()) / "serve_neg";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const fs::path negative = dir / "negative.txt";
    std::ofstream(negative) << "0 1 -2.5\n1 2 1\n2 0 1\n";
    const auto out = lines(serveText(
        R"({"id":"neg","type":"run","workload":"spmv",)"
        R"("backend":"graphr","functional":true,"dataset":"file:)" +
        negative.string() + "\"}\n" +
        R"({"id":"good","type":"run","workload":"spmv",)"
        R"("backend":"graphr","functional":true,"dataset":"chain:n=16"})"
        "\n"));
    ASSERT_EQ(out.size(), 2u);
    expectError(out[0], "neg", "negative or NaN weight at line 1");
    EXPECT_TRUE(parsedResponse(out[1]).find("ok")->asBool()) << out[1];
    fs::remove_all(dir);
}

TEST_F(ServeTest, ALastLineWithoutANewlineIsAnsweredAtEof)
{
    const auto out = lines(serveText(R"({"id":"q","type":"status"})"));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(parsedResponse(out[0]).find("id")->asString(), "q");
}

TEST_F(ServeTest, OversizedLinesGetAStructuredErrorAndServingContinues)
{
    // One oversized line mid-stream and one cut off by EOF: each is
    // answered with the structured error, and the line between them
    // is served.
    service::ServeOptions options;
    options.maxLineBytes = 64;
    const std::string big =
        R"({"id":"big","type":"run","junk":")" + std::string(200, 'x') +
        "\"}";
    const auto out = lines(serveText(
        big + "\n" + R"({"id":"q","type":"status"})" + "\n" + big,
        options));
    ASSERT_EQ(out.size(), 3u);
    expectError(out[0], "", "64-byte limit");
    EXPECT_TRUE(parsedResponse(out[1]).find("ok")->asBool()) << out[1];
    expectError(out[2], "", "64-byte limit");
}

TEST_F(ServeTest, AFragmentCutOffByStopIsDropped)
{
    // Over a pipe the loop frames the complete line and then waits
    // for the rest of the fragment; a stop must drop the fragment,
    // not answer half a request.
    int in[2] = {-1, -1};
    int out[2] = {-1, -1};
    ASSERT_EQ(::pipe(in), 0);
    ASSERT_EQ(::pipe(out), 0);
    const std::string text =
        R"({"id":"q","type":"status"})" "\n" R"({"id":"half","ty)";
    ASSERT_EQ(::write(in[1], text.data(), text.size()),
              static_cast<ssize_t>(text.size()));

    service::Server server({});
    std::ostringstream log;
    net::EventLoop loop(server, nullptr, {}, log);
    loop.adopt(in[0], out[1]);
    std::thread thread([&loop] { loop.run(); });
    // The status answer proves the loop has read the fragment too.
    std::string answer;
    char c = 0;
    while (::read(out[0], &c, 1) == 1 && c != '\n')
        answer.push_back(c);
    server.requestStop();
    loop.wake();
    thread.join();
    ::close(in[1]);
    ::close(out[1]);

    EXPECT_EQ(parsedResponse(answer).find("id")->asString(), "q");
    char rest[64];
    EXPECT_EQ(::read(out[0], rest, sizeof(rest)), 0)
        << "the fragment was answered";
    ::close(in[0]);
    ::close(out[0]);
}

TEST_F(ServeTest, RunRequestRejectsListValuedSpecs)
{
    const auto out = lines(serveText(
        R"({"id":"a","type":"run","workloads":["all"],"dataset":"chain:n=8"})"
        "\n"));
    ASSERT_EQ(out.size(), 1u);
    expectError(out[0], "a", "exactly one");
}

TEST_F(ServeTest, QueueDepthBoundsAdmission)
{
    service::ServeOptions options;
    options.queueDepth = 0; // reject every work request
    const auto out = lines(serveText(
        std::string(kRunRequest) + "\n" +
            R"({"id":"q","type":"status"})" + "\n",
        options));
    ASSERT_EQ(out.size(), 2u);
    expectError(out[0], "r1", "queue full");
    const JsonValue status = parsedResponse(out[1]);
    EXPECT_TRUE(status.find("ok")->asBool());
    EXPECT_EQ(status.find("served")->find("rejected")->asU64(), 1u);
    EXPECT_EQ(status.find("served")->find("admitted")->asU64(), 0u);
}

TEST_F(ServeTest, ResponseMatchesOneShotDriverExecution)
{
    // The serve pipeline (JSON -> spec -> batch -> pool) must produce
    // byte-identical results to calling the driver directly with the
    // same spec — the one-shot graphr_run path.
    driver::SweepSpec spec;
    spec.workloads = {"pagerank"};
    spec.backends = {"outofcore"};
    spec.datasets = {"rmat:vertices=128,edges=1024,seed=9"};
    const std::vector<driver::RunResult> direct =
        driver::runSweep(spec, nullptr);
    const std::string expected =
        service::resultsResponse("r1", "run", direct);

    resetCaches();
    const auto out = lines(serveText(std::string(kRunRequest) + "\n"));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], expected);
}

TEST_F(ServeTest, WarmRepeatRequestHitsThePlanCacheAndSkipsTheSort)
{
    service::Server server({});

    const std::uint64_t sorts_before =
        OrderedEdgeList::sortsPerformed();
    const std::string first =
        serveText(server, std::string(kRunRequest) + "\n");
    const std::uint64_t sorts_cold =
        OrderedEdgeList::sortsPerformed() - sorts_before;
    EXPECT_GT(sorts_cold, 0u);

    // Second session on the same server: resident plan, zero sorts.
    const std::string second =
        serveText(server, std::string(kRunRequest) + "\n");
    EXPECT_EQ(OrderedEdgeList::sortsPerformed() - sorts_before,
              sorts_cold)
        << "warm request re-sorted the edge list";
    EXPECT_EQ(first, second);

    // And the status barrier reports the hit.
    const auto status = lines(
        serveText(server, "{\"id\":\"q\",\"type\":\"status\"}\n"));
    ASSERT_EQ(status.size(), 1u);
    const JsonValue v = parsedResponse(status[0]);
    EXPECT_GE(v.find("plan_cache")->find("hits")->asU64(), 1u);
    EXPECT_EQ(v.find("served")->find("completed")->asU64(), 2u);
}

/** Three requests naming kRunRequest's dataset, then a status. */
const std::string kRepeatedRuns =
    std::string(kRunRequest) + "\n" +
    std::regex_replace(kRunRequest, std::regex("\"r1\""), "\"r2\"") +
    "\n" +
    std::regex_replace(kRunRequest, std::regex("\"r1\""), "\"r3\"") +
    "\n" + R"({"id":"q","type":"status"})" + "\n";

TEST_F(ServeTest, RepeatedRequestsResolveTheirDatasetOnce)
{
    const auto out = lines(serveText(kRepeatedRuns));
    ASSERT_EQ(out.size(), 4u);
    const auto strip_id = [](const std::string &text) {
        return std::regex_replace(text, std::regex("\"id\":\"[^\"]*\""),
                                  "\"id\":\"X\"");
    };
    EXPECT_EQ(strip_id(out[1]), strip_id(out[0]));
    EXPECT_EQ(strip_id(out[2]), strip_id(out[0]));

    // The first request resolves the dataset and leaves it resident;
    // the others find it there.
    const JsonValue v = parsedResponse(out[3]);
    const JsonValue *datasets = v.find("datasets");
    ASSERT_NE(datasets, nullptr) << out[3];
    EXPECT_EQ(datasets->find("resident")->asU64(), 1u);
    EXPECT_EQ(datasets->find("misses")->asU64(), 1u);
    EXPECT_EQ(datasets->find("hits")->asU64(), 2u);

    // The resident graph's memo answers the golden PageRank iteration
    // count for the later requests.
    const JsonValue *golden = v.find("golden_cache");
    ASSERT_NE(golden, nullptr) << out[3];
    EXPECT_EQ(golden->find("misses")->asU64(), 1u);
    EXPECT_EQ(golden->find("hits")->asU64(), 2u);

    // A wcc request builds no symmetrised copy: it reads the resident
    // graph's edges both ways. A repeat reuses the symmetrised plan
    // the first one sorted.
    const perf::Counter &symmetrizations =
        perf::Registry::instance().counter("graph.symmetrizations");
    service::Server server({});
    const std::string wcc =
        R"({"id":"w","type":"run","workload":"wcc",)"
        R"("dataset":"rmat:vertices=128,edges=1024,seed=9"})" "\n";
    std::uint64_t sorts = 0;
    for (int i = 0; i < 2; ++i) {
        const auto response = lines(serveText(server, wcc));
        ASSERT_EQ(response.size(), 1u);
        EXPECT_TRUE(parsedResponse(response[0]).find("ok")->asBool())
            << response[0];
        EXPECT_EQ(symmetrizations.value(), 0u) << "request " << i;
        if (i == 1) {
            EXPECT_EQ(OrderedEdgeList::sortsPerformed(), sorts);
        }
        sorts = OrderedEdgeList::sortsPerformed();
    }
}

TEST_F(ServeTest, RepeatedBfsRequestsReplayOneFrontierSchedule)
{
    const std::string bfs =
        std::regex_replace(kRunRequest, std::regex("pagerank"), "bfs");
    const std::string text =
        bfs + "\n" +
        std::regex_replace(bfs, std::regex("\"r1\""), "\"r2\"") + "\n" +
        std::regex_replace(bfs, std::regex("\"r1\""), "\"r3\"") + "\n" +
        R"({"id":"q","type":"status"})" + "\n";
    const auto out = lines(serveText(text));
    ASSERT_EQ(out.size(), 4u);
    const auto strip_id = [](const std::string &line) {
        return std::regex_replace(line, std::regex("\"id\":\"[^\"]*\""),
                                  "\"id\":\"X\"");
    };
    EXPECT_TRUE(parsedResponse(out[0]).find("ok")->asBool()) << out[0];
    EXPECT_EQ(strip_id(out[1]), strip_id(out[0]));
    EXPECT_EQ(strip_id(out[2]), strip_id(out[0]));

    // The resident graph's memo records the BFS frontier on the first
    // request and replays it for the other two.
    const JsonValue v = parsedResponse(out[3]);
    const JsonValue *frontier = v.find("frontier_cache");
    ASSERT_NE(frontier, nullptr) << out[3];
    EXPECT_EQ(frontier->find("misses")->asU64(), 1u);
    EXPECT_EQ(frontier->find("hits")->asU64(), 2u);
}

TEST_F(ServeTest, DegenerateGeneratorSpecIsAnErrorBetweenGoodRequests)
{
    // Each spec used to abort or hang the daemon, losing the response
    // to the request before it.
    for (const char *spec :
         {"chain:n=0", "star:n=1", "grid:width=70000,height=70000",
          "rmat:vertices=4,edges=8,a=1,b=0,c=0,d=0"}) {
        const std::string input =
            R"({"id":"a","type":"run","dataset":"chain:n=8"})" "\n"
            R"({"id":"bad","type":"run","dataset":")" +
            std::string(spec) + "\"}\n" +
            R"({"id":"b","type":"run","dataset":"star:n=8"})" "\n";
        const auto out = lines(serveText(input));
        ASSERT_EQ(out.size(), 3u) << spec;
        EXPECT_TRUE(parsedResponse(out[0]).find("ok")->asBool()) << spec;
        expectError(out[1], "bad", "dataset spec");
        EXPECT_TRUE(parsedResponse(out[2]).find("ok")->asBool()) << spec;
    }
}

TEST_F(ServeTest, StatusReportsCumulativeRequestLatencySummary)
{
    // Three work requests then a status barrier: the latency summary
    // must count exactly the answered work requests (the registry was
    // reset in SetUp) with a consistent min <= median <= max.
    service::Server server({});
    serveText(server,
              R"({"id":"a","type":"run","dataset":"chain:n=64"})" "\n"
              R"({"id":"b","type":"run","dataset":"star:n=64"})" "\n"
              R"({"id":"bad","type":"run","dataset":"no-such"})" "\n");
    const auto status = lines(
        serveText(server, "{\"id\":\"q\",\"type\":\"status\"}\n"));
    ASSERT_EQ(status.size(), 1u);
    const JsonValue v = parsedResponse(status[0]);
    const JsonValue *latency = v.find("latency");
    ASSERT_NE(latency, nullptr);
    // Failed requests are answered (and timed) too.
    EXPECT_EQ(latency->find("count")->asU64(), 3u);
    const double min_ms = latency->find("min_ms")->asDouble();
    const double median_ms = latency->find("median_ms")->asDouble();
    const double max_ms = latency->find("max_ms")->asDouble();
    EXPECT_GE(min_ms, 0.0);
    EXPECT_LE(min_ms, median_ms);
    EXPECT_LE(median_ms, max_ms);
}

TEST_F(ServeTest, ConcurrentExecutionMatchesSerialByteForByte)
{
    // Distinct datasets (deterministic cache misses), a sweep, and a
    // trailing status barrier. Only the status "jobs" and "latency"
    // fields may differ between worker counts.
    const std::string input =
        R"({"id":"r1","type":"run","dataset":"chain:n=64"})" "\n"
        R"({"id":"r2","type":"run","dataset":"star:n=64"})" "\n"
        R"({"id":"r3","type":"run","dataset":"grid:width=8,height=8"})" "\n"
        R"({"id":"s1","type":"sweep","workloads":["pagerank","wcc"],)"
        R"("datasets":["chain:n=64"]})" "\n"
        R"({"id":"q","type":"status"})" "\n";

    service::ServeOptions serial;
    serial.jobs = 1;
    const std::string serial_out = serveText(input, serial);

    resetCaches();
    service::ServeOptions concurrent;
    concurrent.jobs = 4;
    const std::string concurrent_out = serveText(input, concurrent);

    const auto strip_variable = [](const std::string &text) {
        // The status "jobs" field reports the actual worker count,
        // and the "latency" summary is wall-clock; both are the only
        // jobs-dependent bytes.
        const std::string no_jobs = std::regex_replace(
            text, std::regex("\"jobs\":\\d+"), "\"jobs\":N");
        return std::regex_replace(no_jobs,
                                  std::regex("\"latency\":\\{[^}]*\\}"),
                                  "\"latency\":{}");
    };
    EXPECT_EQ(strip_variable(serial_out),
              strip_variable(concurrent_out));

    // Sanity: every id answered, in admission order.
    const auto out = lines(serial_out);
    ASSERT_EQ(out.size(), 5u);
    const char *expected_ids[] = {"r1", "r2", "r3", "s1", "q"};
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(parsedResponse(out[i]).find("id")->asString(),
                  expected_ids[i]);
    }
}

TEST_F(ServeTest, AFailingRequestCannotPoisonConcurrentRequests)
{
    // Each request executes as its own pool task; the bad dataset
    // must answer alone with an error while the good requests around
    // it answer normally.
    service::ServeOptions options;
    options.jobs = 4;
    const auto out = lines(serveText(
        R"({"id":"g1","type":"run","dataset":"chain:n=64"})" "\n"
        R"({"id":"bad","type":"run","dataset":"no-such-graph"})" "\n"
        R"({"id":"g2","type":"run","dataset":"star:n=64"})" "\n",
        options));
    ASSERT_EQ(out.size(), 3u);
    EXPECT_TRUE(parsedResponse(out[0]).find("ok")->asBool()) << out[0];
    expectError(out[1], "bad", "no-such-graph");
    EXPECT_TRUE(parsedResponse(out[2]).find("ok")->asBool()) << out[2];

    // The good responses match what the requests yield on their own.
    resetCaches();
    const auto solo_g1 = lines(serveText(
        R"({"id":"g1","type":"run","dataset":"chain:n=64"})" "\n"));
    const auto solo_g2 = lines(serveText(
        R"({"id":"g2","type":"run","dataset":"star:n=64"})" "\n"));
    EXPECT_EQ(out[0], solo_g1.at(0));
    EXPECT_EQ(out[2], solo_g2.at(0));
}

TEST_F(ServeTest, PrepareWritesArtifactsTheNextRunLoadsSortFree)
{
    const fs::path dir =
        fs::path(::testing::TempDir()) / "serve_plans";
    fs::remove_all(dir);

    service::ServeOptions options;
    options.store.planDir = dir.string();
    service::Server server(options);

    const auto prepared = lines(serveText(
        server,
        R"({"id":"p","type":"prepare",)"
        R"("datasets":["rmat:vertices=128,edges=1024,seed=9"]})"
        "\n"));
    ASSERT_EQ(prepared.size(), 1u);
    const JsonValue p = parsedResponse(prepared[0]);
    ASSERT_TRUE(p.find("ok")->asBool()) << prepared[0];
    EXPECT_EQ(p.find("prepared")->items().size(), 2u)
        << "plain + symmetrized variants";
    // The symmetrised plan is stored, sorted from the resident graph
    // itself: no symmetrised copy is built.
    const perf::Counter &symmetrizations =
        perf::Registry::instance().counter("graph.symmetrizations");
    EXPECT_EQ(symmetrizations.value(), 0u);

    // Drop the in-memory cache: the run must warm-load from disk
    // without a single edge sort.
    PlanCache::instance().clear();
    const std::uint64_t sorts_before =
        OrderedEdgeList::sortsPerformed();
    const auto run =
        lines(serveText(server, std::string(kRunRequest) + "\n"));
    ASSERT_EQ(run.size(), 1u);
    EXPECT_TRUE(parsedResponse(run[0]).find("ok")->asBool()) << run[0];
    EXPECT_EQ(OrderedEdgeList::sortsPerformed(), sorts_before);

    // The first WCC request builds no copy either: the view's
    // fingerprint finds the symmetrised plan the prepare stored, and
    // the run is again sort-free.
    const auto wcc = lines(serveText(
        server, std::regex_replace(kRunRequest, std::regex("pagerank"),
                                   "wcc") +
                    "\n"));
    ASSERT_EQ(wcc.size(), 1u);
    EXPECT_TRUE(parsedResponse(wcc[0]).find("ok")->asBool()) << wcc[0];
    EXPECT_EQ(symmetrizations.value(), 0u);
    EXPECT_EQ(OrderedEdgeList::sortsPerformed(), sorts_before);

    const auto status = lines(
        serveText(server, "{\"id\":\"q\",\"type\":\"status\"}\n"));
    const JsonValue v = parsedResponse(status[0]);
    EXPECT_GE(v.find("store")->find("load_hits")->asU64(), 2u);
    EXPECT_GE(v.find("store")->find("saves")->asU64(), 2u);
    // The prepare left its dataset resident; the runs found it there.
    EXPECT_EQ(v.find("datasets")->find("resident")->asU64(), 1u);
    EXPECT_EQ(v.find("datasets")->find("hits")->asU64(), 2u);
    EXPECT_EQ(v.find("datasets")->find("misses")->asU64(), 1u);

    fs::remove_all(dir);
}

TEST_F(ServeTest, TenantNameIsValidated)
{
    // The tenant names a <plan-dir> subdirectory, so the charset is
    // traversal-proof by construction; status is not tenant-scoped.
    const auto out = lines(serveText(
        R"({"id":"a","type":"run","dataset":"chain:n=8","tenant":"../evil"})"
        "\n"
        R"({"id":"b","type":"run","dataset":"chain:n=8","tenant":""})"
        "\n"
        R"({"id":"c","type":"run","dataset":"chain:n=8","tenant":7})"
        "\n"
        R"({"id":"d","type":"status","tenant":"acme"})" "\n"));
    ASSERT_EQ(out.size(), 4u);
    expectError(out[0], "a", "'tenant' must be");
    expectError(out[1], "b", "'tenant' must be");
    expectError(out[2], "c", "'tenant' must be");
    expectError(out[3], "d", "not tenant-scoped");
}

TEST_F(ServeTest, RequestsTheDaemonCannotHonourAreAdmittedThenFailed)
{
    // A tenant namespace needs a usable plan store, and so does a
    // prepare. The daemon answers such a request at once without
    // running it: admitted then failed, never rejected, in its served
    // counters and in the connection's.
    const fs::path dir = fs::path(::testing::TempDir()) / "file_tenant";
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::ofstream(dir / "acme") << "not a directory\n";
    service::ServeOptions file_tenant;
    file_tenant.store.planDir = dir.string();

    struct Case
    {
        const char *request;
        service::ServeOptions options;
        const char *error;
    };
    const Case cases[] = {
        {R"({"id":"x","type":"run","dataset":"chain:n=8","tenant":"acme"})",
         {}, "tenant namespaces need a plan store: start graphr_serve "
             "with --plan-dir"},
        {R"({"id":"x","type":"prepare","datasets":["chain:n=16"]})", {},
         "prepare needs a plan store: start graphr_serve with "
         "--plan-dir"},
        {R"({"id":"x","type":"run","dataset":"chain:n=8","tenant":"acme"})",
         file_tenant, "cannot use tenant namespace 'acme'"},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.request);
        const auto out = lines(serveText(
            std::string(c.request) + "\n" +
                R"({"id":"q","type":"status"})" "\n",
            c.options));
        ASSERT_EQ(out.size(), 2u);
        expectError(out[0], "x", c.error);
        const JsonValue status = parsedResponse(out[1]);
        const JsonValue *served = status.find("served");
        EXPECT_EQ(served->find("admitted")->asU64(), 1u) << out[1];
        EXPECT_EQ(served->find("failed")->asU64(), 1u) << out[1];
        EXPECT_EQ(served->find("rejected")->asU64(), 0u) << out[1];
        EXPECT_EQ(served->find("completed")->asU64(), 0u) << out[1];
        const JsonValue &conn =
            status.find("connections")->find("per_connection")->items().at(0);
        EXPECT_EQ(conn.find("admitted")->asU64(), 1u) << out[1];
        EXPECT_EQ(conn.find("failed")->asU64(), 1u) << out[1];
        EXPECT_EQ(conn.find("rejected")->asU64(), 0u) << out[1];
        // Only work that ran counts as served for a tenant.
        EXPECT_TRUE(status.find("tenants")->members().empty()) << out[1];
    }
    fs::remove_all(dir);
}

TEST_F(ServeTest, TenantNamespacesIsolatePlansOnDiskAndInMemory)
{
    const fs::path dir = fs::path(::testing::TempDir()) / "tenant_plans";
    fs::remove_all(dir);

    service::ServeOptions options;
    options.store.planDir = dir.string();
    service::Server server(options);

    const std::string dataset = "rmat:vertices=128,edges=1024,seed=9";
    const auto runAs = [&](const std::string &id,
                           const std::string &tenant) {
        const auto out = lines(serveText(
            server, "{\"id\":\"" + id + "\",\"type\":\"run\","
                    "\"workload\":\"pagerank\","
                    "\"backend\":\"outofcore\","
                    "\"dataset\":\"" + dataset + "\","
                    "\"tenant\":\"" + tenant + "\"}\n"));
        EXPECT_EQ(out.size(), 1u);
        EXPECT_TRUE(parsedResponse(out.at(0)).find("ok")->asBool())
            << out.at(0);
        return out.at(0);
    };
    const auto artifactCount = [](const fs::path &tenant_dir) {
        std::size_t n = 0;
        if (fs::is_directory(tenant_dir))
            for (const auto &entry :
                 fs::directory_iterator(tenant_dir))
                n += entry.is_regular_file() ? 1 : 0;
        return n;
    };

    // Cold run as acme: plan built (sorted) and saved under acme/.
    const std::string acme_report = runAs("a1", "acme");
    EXPECT_GT(artifactCount(dir / "acme"), 0u);

    // Same plan as beta: the in-memory plan cache is namespaced per
    // tenant store, so this must rebuild (sort again), never reuse
    // acme's resident plan or load acme's artifact — and it saves
    // its own copy under beta/.
    const std::uint64_t sorts_after_acme =
        OrderedEdgeList::sortsPerformed();
    const std::string beta_report = runAs("b1", "beta");
    EXPECT_GT(OrderedEdgeList::sortsPerformed(), sorts_after_acme)
        << "beta reused acme's plan across the tenant boundary";
    EXPECT_EQ(artifactCount(dir / "beta"),
              artifactCount(dir / "acme"));

    // The reports themselves are byte-identical apart from the id:
    // isolation must not change results.
    const auto strip_id = [](const std::string &text) {
        return std::regex_replace(text, std::regex("\"id\":\"[^\"]*\""),
                                  "\"id\":\"X\"");
    };
    EXPECT_EQ(strip_id(acme_report), strip_id(beta_report));

    // Warm same-tenant restart: with the memory cache dropped, the
    // acme run loads its own artifact sort-free.
    PlanCache::instance().clear();
    const std::uint64_t sorts_before_warm =
        OrderedEdgeList::sortsPerformed();
    runAs("a2", "acme");
    EXPECT_EQ(OrderedEdgeList::sortsPerformed(), sorts_before_warm)
        << "acme's warm run did not load from its own namespace";

    // Status reports per-tenant served counters, name-sorted.
    const auto status = lines(
        serveText(server, "{\"id\":\"q\",\"type\":\"status\"}\n"));
    ASSERT_EQ(status.size(), 1u);
    const JsonValue v = parsedResponse(status[0]);
    const JsonValue *tenants = v.find("tenants");
    ASSERT_NE(tenants, nullptr);
    ASSERT_EQ(tenants->members().size(), 2u);
    EXPECT_EQ(tenants->members()[0].first, "acme");
    EXPECT_EQ(tenants->members()[0].second.find("served")->asU64(),
              2u);
    EXPECT_EQ(tenants->members()[1].first, "beta");
    EXPECT_EQ(tenants->members()[1].second.find("served")->asU64(),
              1u);

    fs::remove_all(dir);
}

TEST_F(ServeTest, StatusReportsTheStdinSessionInItsConnectionsBlock)
{
    // A lone stdin session is connection 1 of 1; every fault-free
    // counter that can be zero must be zero.
    service::Server server({});
    const auto out = lines(serveText(
        server, std::string(kRunRequest) + "\n" +
                    "{\"id\":\"q\",\"type\":\"status\"}\n"));
    ASSERT_EQ(out.size(), 2u);
    const JsonValue v = parsedResponse(out[1]);
    const JsonValue *conns = v.find("connections");
    ASSERT_NE(conns, nullptr) << out[1];
    EXPECT_EQ(conns->find("active")->asU64(), 1u);
    EXPECT_EQ(conns->find("total_accepted")->asU64(), 1u);
    const auto &per = conns->find("per_connection")->items();
    ASSERT_EQ(per.size(), 1u);
    EXPECT_EQ(per[0].find("conn")->asU64(), 1u);
    EXPECT_EQ(per[0].find("admitted")->asU64(), 1u);
    EXPECT_EQ(per[0].find("rejected")->asU64(), 0u);
    EXPECT_EQ(per[0].find("completed")->asU64(), 1u);
    EXPECT_EQ(per[0].find("failed")->asU64(), 0u);
    EXPECT_TRUE(v.find("tenants")->members().empty());
}

} // namespace
} // namespace graphr
