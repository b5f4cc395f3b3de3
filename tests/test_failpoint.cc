/**
 * @file
 * Tests for the deterministic fault-injection registry and the
 * hardened paths behind it: the GRAPHR_FAILPOINTS grammar (count,
 * @nth, =arg, rejection of typos), exact fire-on-Nth-hit counting,
 * the PlanStore durability contract under injected fsync/rename/write
 * failures (loud error, no torn or stray files), transparent retry of
 * transient store I/O faults, short-read degradation to a cache miss,
 * the LruCache failed-build retry contract via cache.build.fail, and
 * the server's per-request deadline, short-write and oversized-line
 * hardening.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/failpoint.hh"
#include "common/json_reader.hh"
#include "graph/generator.hh"
#include "graphr/engine/plan_cache.hh"
#include "perf/counters.hh"
#include "service/server.hh"
#include "store/plan_store.hh"
#include "tests/serve_text.hh"

namespace graphr
{
namespace
{

namespace fs = std::filesystem;

/** Isolates failpoints, caches and perf counters around each test. */
class FailpointTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        reset();
    }

    void
    TearDown() override
    {
        reset();
    }

    static void
    reset()
    {
        failpoint::disarmAll();
        PlanCache::instance().setStore(nullptr);
        PlanCache::instance().clear();
        perf::Registry::instance().resetAll();
    }
};

std::uint64_t
counterValue(std::string_view name)
{
    return perf::Registry::instance().counter(name).value();
}

/** Small fixed-seed graph reused across the suite. */
CooGraph
testGraph()
{
    return makeRmat({.numVertices = 128, .numEdges = 1024, .seed = 9});
}

/** Fresh, empty store directory under the gtest temp root. */
std::string
freshDir(const std::string &name)
{
    const fs::path dir =
        fs::path(::testing::TempDir()) / ("failpoint_" + name);
    fs::remove_all(dir);
    return dir.string();
}

std::size_t
filesIn(const std::string &dir)
{
    std::size_t n = 0;
    for (const auto &entry : fs::directory_iterator(dir)) {
        (void)entry;
        ++n;
    }
    return n;
}

// ---------------------------------------------------------------------
// Registry and spec grammar
// ---------------------------------------------------------------------

TEST_F(FailpointTest, UnarmedRegistryIsDisabledAndSitesNeverFire)
{
    EXPECT_FALSE(failpoint::enabled());
    EXPECT_FALSE(GRAPHR_FAILPOINT("store.open.fail"));
    EXPECT_TRUE(failpoint::stats().empty());
}

TEST_F(FailpointTest, DefaultEntryFiresExactlyOnceOnTheFirstHit)
{
    failpoint::configure("store.open.fail");
    EXPECT_TRUE(failpoint::enabled());
    EXPECT_TRUE(GRAPHR_FAILPOINT("store.open.fail"));
    EXPECT_FALSE(GRAPHR_FAILPOINT("store.open.fail"));
    EXPECT_FALSE(GRAPHR_FAILPOINT("store.open.fail"));

    const auto stats = failpoint::stats();
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_EQ(stats[0].site, "store.open.fail");
    EXPECT_EQ(stats[0].hits, 3u);
    EXPECT_EQ(stats[0].fires, 1u);
}

TEST_F(FailpointTest, CountAndNthSelectAnExactHitWindow)
{
    // Fire twice, starting at the third hit: hits 3 and 4 only.
    failpoint::configure("store.open.fail:2@3");
    std::vector<bool> fired;
    for (int i = 0; i < 6; ++i)
        fired.push_back(GRAPHR_FAILPOINT("store.open.fail"));
    const std::vector<bool> expected = {false, false, true,
                                        true,  false, false};
    EXPECT_EQ(fired, expected);
    EXPECT_EQ(counterValue("failpoint.fires"), 2u);
}

TEST_F(FailpointTest, WildcardsFireOnEveryHit)
{
    failpoint::configure("store.open.fail:1@*,store.decode.fail:*");
    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(GRAPHR_FAILPOINT("store.open.fail")) << i;
    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(GRAPHR_FAILPOINT("store.decode.fail")) << i;
    EXPECT_EQ(counterValue("failpoint.fires"), 10u);
}

TEST_F(FailpointTest, ArgPayloadReachesTheSiteOnlyWhenGiven)
{
    failpoint::configure("pool.task.slow=7");
    std::uint64_t arg = 999;
    EXPECT_TRUE(GRAPHR_FAILPOINT_ARG("pool.task.slow", &arg));
    EXPECT_EQ(arg, 7u);

    failpoint::configure("pool.task.slow"); // no payload this time
    arg = 999;
    EXPECT_TRUE(GRAPHR_FAILPOINT_ARG("pool.task.slow", &arg));
    EXPECT_EQ(arg, 999u) << "site default must be left untouched";
}

TEST_F(FailpointTest, MalformedSpecsAndUnknownSitesAreRejected)
{
    EXPECT_THROW(failpoint::configure("no.such.site"),
                 failpoint::FailpointError);
    EXPECT_THROW(failpoint::configure("store.open.fail:x"),
                 failpoint::FailpointError);
    EXPECT_THROW(failpoint::configure("store.open.fail:0"),
                 failpoint::FailpointError);
    EXPECT_THROW(failpoint::configure("store.open.fail@0"),
                 failpoint::FailpointError);
    EXPECT_THROW(failpoint::configure("store.open.fail:"),
                 failpoint::FailpointError);
    EXPECT_THROW(failpoint::configure(":3"),
                 failpoint::FailpointError);
    // A failed configure must not leave the registry half-armed.
    EXPECT_FALSE(failpoint::enabled());
}

TEST_F(FailpointTest, EmptySpecDisarmsEverything)
{
    failpoint::configure("store.open.fail:*");
    EXPECT_TRUE(failpoint::enabled());
    failpoint::configure("");
    EXPECT_FALSE(failpoint::enabled());
    EXPECT_FALSE(GRAPHR_FAILPOINT("store.open.fail"));
}

TEST_F(FailpointTest, KnownSitesAreSortedAndNonEmpty)
{
    const auto sites = failpoint::knownSites();
    ASSERT_GE(sites.size(), 10u);
    for (std::size_t i = 1; i < sites.size(); ++i)
        EXPECT_LT(sites[i - 1], sites[i]) << "worklist must be sorted";
}

// ---------------------------------------------------------------------
// PlanStore durability and degradation under injected faults
// ---------------------------------------------------------------------

TEST_F(FailpointTest, FsyncFailureFailsTheSaveLoudlyWithNoStrayFiles)
{
    const std::string dir = freshDir("fsync");
    const CooGraph g = testGraph();
    const TilingParams tiling;
    const TilePlan plan(g, tiling);
    PlanStore store(dir);

    failpoint::configure("store.fsync.fail");
    EXPECT_THROW(store.save(plan, tiling), StoreError);
    EXPECT_FALSE(store.contains(plan.fingerprint, tiling));
    EXPECT_EQ(filesIn(dir), 0u)
        << "failed save left a stray temp file";

    // The store recovers the moment the fault clears.
    failpoint::disarmAll();
    store.save(plan, tiling);
    EXPECT_NE(store.load(plan.fingerprint, tiling), nullptr);
    fs::remove_all(dir);
}

TEST_F(FailpointTest, RenameFailureLeavesTheOldArtifactIntact)
{
    const std::string dir = freshDir("rename");
    const CooGraph g = testGraph();
    const TilingParams tiling;
    const TilePlan plan(g, tiling);
    PlanStore store(dir);
    store.save(plan, tiling); // the survivor

    failpoint::configure("store.rename.fail");
    EXPECT_THROW(store.save(plan, tiling), StoreError);
    EXPECT_EQ(filesIn(dir), 1u) << "temp not cleaned after failure";
    const TilePlanPtr survivor = store.load(plan.fingerprint, tiling);
    ASSERT_NE(survivor, nullptr);
    EXPECT_EQ(survivor->fingerprint, plan.fingerprint);
    fs::remove_all(dir);
}

TEST_F(FailpointTest, ShortWriteIsResumedAndRoundTripsByteExact)
{
    const std::string dir = freshDir("shortwrite");
    const CooGraph g = testGraph();
    const TilingParams tiling;
    const TilePlan plan(g, tiling);
    PlanStore store(dir);

    failpoint::configure("store.write.short:3@1");
    store.save(plan, tiling); // must succeed despite the short writes
    EXPECT_GE(counterValue("store.retries"), 3u);

    failpoint::disarmAll();
    const TilePlanPtr loaded = store.load(plan.fingerprint, tiling);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->fingerprint, plan.fingerprint);
    ASSERT_EQ(loaded->ordered.numEdges(), plan.ordered.numEdges());
    EXPECT_EQ(loaded->meta.totalNnz(), plan.meta.totalNnz());
    fs::remove_all(dir);
}

TEST_F(FailpointTest, TransientReadFaultIsRetriedInvisibly)
{
    const std::string dir = freshDir("eintr");
    const CooGraph g = testGraph();
    const TilingParams tiling;
    const TilePlan plan(g, tiling);
    PlanStore store(dir);
    store.save(plan, tiling);

    failpoint::configure("store.read.eintr:1@1");
    const TilePlanPtr loaded = store.load(plan.fingerprint, tiling);
    ASSERT_NE(loaded, nullptr) << "EINTR must be invisible";
    EXPECT_EQ(loaded->fingerprint, plan.fingerprint);
    EXPECT_GE(counterValue("store.retries"), 1u);
    EXPECT_EQ(counterValue("store.degraded_loads"), 0u);
    fs::remove_all(dir);
}

TEST_F(FailpointTest, ShortReadDegradesToAMissAndTheNextLoadRecovers)
{
    const std::string dir = freshDir("shortread");
    const CooGraph g = testGraph();
    const TilingParams tiling;
    const TilePlan plan(g, tiling);
    PlanStore store(dir);
    store.save(plan, tiling);

    failpoint::configure("store.read.short:1@1");
    EXPECT_EQ(store.load(plan.fingerprint, tiling), nullptr)
        << "a truncated read must degrade to a miss, not crash";
    EXPECT_EQ(store.stats().loadRejects, 1u);
    EXPECT_EQ(counterValue("store.degraded_loads"), 1u);

    // The file on disk was never damaged: the next load succeeds.
    failpoint::disarmAll();
    EXPECT_NE(store.load(plan.fingerprint, tiling), nullptr);
    fs::remove_all(dir);
}

TEST_F(FailpointTest, UnreadableArtifactDegradesToAMiss)
{
    const std::string dir = freshDir("openfail");
    const CooGraph g = testGraph();
    const TilingParams tiling;
    const TilePlan plan(g, tiling);
    PlanStore store(dir);
    store.save(plan, tiling);

    failpoint::configure("store.open.fail:1@1");
    EXPECT_EQ(store.load(plan.fingerprint, tiling), nullptr);
    failpoint::disarmAll();
    EXPECT_NE(store.load(plan.fingerprint, tiling), nullptr);
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// PlanCache build failure: the LruCache retry contract
// ---------------------------------------------------------------------

TEST_F(FailpointTest, FailedPlanBuildReachesTheCallerAndIsRetried)
{
    const CooGraph g = testGraph();
    const TilingParams tiling;

    failpoint::configure("cache.build.fail");
    EXPECT_THROW(PlanCache::instance().get(g, tiling, nullptr),
                 std::runtime_error);
    EXPECT_EQ(PlanCache::instance().size(), 0u)
        << "a failed build must not leave a cached slot behind";

    // The failpoint is spent: the very next get() rebuilds cleanly
    // (as a miss — nothing was cached by the failure).
    bool hit = true;
    const TilePlanPtr plan =
        PlanCache::instance().get(g, tiling, &hit);
    ASSERT_NE(plan, nullptr);
    EXPECT_FALSE(hit);
    EXPECT_EQ(PlanCache::instance().size(), 1u);
}

// ---------------------------------------------------------------------
// Server hardening: deadlines, short writes and oversized lines
// ---------------------------------------------------------------------

TEST_F(FailpointTest, SlowRequestMissesItsDeadlineWithAStructuredError)
{
    service::ServeOptions options;
    options.requestTimeoutMs = 30;
    service::Server server(options);

    // Stall the worker far past the deadline, then check the request
    // is answered (in its slot, structured) rather than hung/dropped.
    failpoint::configure("pool.task.slow:1@1=300");
    const auto out = lines(serveText(
        server,
        R"({"id":"slow","type":"run","dataset":"chain:n=16"})" "\n"
        R"({"id":"q","type":"status"})" "\n"));
    ASSERT_EQ(out.size(), 2u);
    const JsonValue slow = JsonValue::parse(out[0]);
    EXPECT_EQ(slow.find("id")->asString(), "slow");
    EXPECT_FALSE(slow.find("ok")->asBool());
    EXPECT_NE(slow.find("error")->asString().find("timeout"),
              std::string::npos)
        << out[0];

    const JsonValue status = JsonValue::parse(out[1]);
    EXPECT_EQ(status.find("served")->find("timed_out")->asU64(), 1u);
    EXPECT_EQ(status.find("served")->find("failed")->asU64(), 0u)
        << "timeouts are counted separately from failures";
    EXPECT_EQ(counterValue("serve.timeouts"), 1u);
}

TEST_F(FailpointTest, FastRequestsAreUntouchedByTheDeadline)
{
    service::ServeOptions options;
    options.requestTimeoutMs = 60000;
    service::Server server(options);
    const auto out = lines(serveText(
        server,
        R"({"id":"r","type":"run","dataset":"chain:n=16"})" "\n"));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(JsonValue::parse(out[0]).find("ok")->asBool())
        << out[0];
    EXPECT_EQ(counterValue("serve.timeouts"), 0u);
}

TEST_F(FailpointTest, ShortConnectionWritesAreResumedAndCountedAsRetries)
{
    const std::string input =
        R"({"id":"r","type":"run","dataset":"chain:n=16"})" "\n";
    service::Server server({});
    const std::string clean = serveText(server, input);

    failpoint::configure("net.conn.write.short:3@1");
    EXPECT_EQ(serveText(server, input), clean);
    EXPECT_EQ(counterValue("serve.retries"), 3u);
}

TEST_F(FailpointTest, OversizedLineGetsAStructuredErrorNotSilence)
{
    service::ServeOptions options;
    options.maxLineBytes = 64;
    service::Server server(options);

    const std::string big =
        R"({"id":"big","type":"run","junk":")" +
        std::string(200, 'x') + "\"}";
    ASSERT_GT(big.size(), options.maxLineBytes);
    const auto out = lines(serveText(
        server,
        big + "\n" +
            R"({"id":"ok","type":"run","dataset":"chain:n=16"})" "\n"
            R"({"id":"q","type":"status"})" "\n"));
    ASSERT_EQ(out.size(), 3u) << "every line answered, none dropped";

    const JsonValue refused = JsonValue::parse(out[0]);
    EXPECT_TRUE(refused.find("id")->isNull())
        << "the id is inside the discarded bytes";
    EXPECT_FALSE(refused.find("ok")->asBool());
    EXPECT_NE(refused.find("error")->asString().find("64-byte limit"),
              std::string::npos)
        << out[0];

    // The session continues: the next (valid) request is served.
    EXPECT_TRUE(JsonValue::parse(out[1]).find("ok")->asBool())
        << out[1];
    const JsonValue status = JsonValue::parse(out[2]);
    EXPECT_EQ(status.find("served")->find("invalid")->asU64(), 1u);
    EXPECT_EQ(status.find("served")->find("completed")->asU64(), 1u);
}

} // namespace
} // namespace graphr
