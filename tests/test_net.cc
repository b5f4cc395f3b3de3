/**
 * @file
 * Tests for the connection layer (src/net/) and the blocking client
 * library (src/client/): LineBuffer's bounded-memory JSONL framing,
 * the listener's port handling and SO_REUSEADDR rebinding, and the
 * event loop end to end — per-connection response streams
 * byte-identical to a stdin session at any worker count, the
 * per-connection admission quota keeping a greedy client from
 * starving its siblings, a slow request capping its session's
 * reorder buffer, and a stop that a non-reading client cannot hold.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "client/client.hh"
#include "common/failpoint.hh"
#include "common/json_reader.hh"
#include "driver/golden_cache.hh"
#include "graphr/engine/plan_cache.hh"
#include "net/event_loop.hh"
#include "net/line_buffer.hh"
#include "net/listener.hh"
#include "perf/counters.hh"
#include "service/server.hh"
#include "tests/serve_text.hh"

namespace graphr
{
namespace
{

using net::LineBuffer;

// ------------------------------------------------------- LineBuffer

TEST(LineBufferTest, FramesLinesAcrossArbitraryChunkBoundaries)
{
    LineBuffer buf(1024);
    const std::string text = "alpha\nbeta\ngamma\n";
    for (const char c : text)
        buf.append(&c, 1); // worst-case fragmentation
    EXPECT_EQ(buf.pendingLines(), 3u);

    std::string line;
    ASSERT_EQ(buf.pop(line), LineBuffer::Next::kLine);
    EXPECT_EQ(line, "alpha");
    ASSERT_EQ(buf.pop(line), LineBuffer::Next::kLine);
    EXPECT_EQ(line, "beta");
    ASSERT_EQ(buf.pop(line), LineBuffer::Next::kLine);
    EXPECT_EQ(line, "gamma");
    EXPECT_EQ(buf.pop(line), LineBuffer::Next::kNone);
}

TEST(LineBufferTest, OversizedLineIsDiscardedAndReportedOnce)
{
    // Exactly cap bytes is still a line; one byte more is
    // consumed-and-discarded and surfaces as a single kOversized
    // event.
    LineBuffer buf(4);
    const std::string text = "abcd\nabcde\nok\n";
    buf.append(text.data(), text.size());

    std::string line;
    ASSERT_EQ(buf.pop(line), LineBuffer::Next::kLine);
    EXPECT_EQ(line, "abcd");
    EXPECT_EQ(buf.pop(line), LineBuffer::Next::kOversized);
    ASSERT_EQ(buf.pop(line), LineBuffer::Next::kLine);
    EXPECT_EQ(line, "ok");
    EXPECT_EQ(buf.pop(line), LineBuffer::Next::kNone);
}

TEST(LineBufferTest, ZeroCapMeansUnlimited)
{
    LineBuffer buf(0);
    const std::string big(64 * 1024, 'x');
    buf.append(big.data(), big.size());
    buf.append("\n", 1);
    std::string line;
    ASSERT_EQ(buf.pop(line), LineBuffer::Next::kLine);
    EXPECT_EQ(line, big);
}

TEST(LineBufferTest, FinishPromotesTheTrailingFragment)
{
    LineBuffer buf(1024);
    buf.append("tail", 4);
    std::string line;
    EXPECT_EQ(buf.pop(line), LineBuffer::Next::kNone);
    buf.finish();
    ASSERT_EQ(buf.pop(line), LineBuffer::Next::kLine);
    EXPECT_EQ(line, "tail");
    // A clean EOF with nothing pending promotes nothing.
    buf.finish();
    EXPECT_EQ(buf.pop(line), LineBuffer::Next::kNone);
}

// --------------------------------------------------------- Listener

TEST(ListenerTest, PicksAndLogsAFreePortForPortZero)
{
    std::ostringstream log;
    net::Listener listener(0, log);
    EXPECT_GT(listener.port(), 0);
    EXPECT_NE(log.str().find("listening on 127.0.0.1:" +
                             std::to_string(listener.port())),
              std::string::npos)
        << log.str();
    EXPECT_FALSE(listener.closed());
    listener.close();
    EXPECT_TRUE(listener.closed());
    listener.close(); // idempotent (the SIGTERM path may race EOF)
}

TEST(ListenerTest, RebindsAPortWithAConnectionInTimeWait)
{
    // Accept a connection and close it server-side first: that parks
    // the server's end in TIME_WAIT on this port. Without
    // SO_REUSEADDR the rebind below fails with EADDRINUSE.
    std::ostringstream log;
    int port = 0;
    {
        net::Listener first(0, log);
        port = first.port();
        client::Client client(port);
        int conn_fd = -1;
        for (int i = 0; i < 500 && conn_fd < 0; ++i) {
            conn_fd = first.acceptClient(log);
            if (conn_fd < 0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
        }
        ASSERT_GE(conn_fd, 0) << "accept never completed";
        ::close(conn_fd);
    }
    net::Listener second(port, log);
    EXPECT_EQ(second.port(), port);
}

// -------------------------------------------------------- EventLoop

/** Isolates the process-wide caches around every test. */
class NetServeTest : public ::testing::Test
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
        failpoint::disarmAll();
        resetCaches();
    }

    static void
    resetCaches()
    {
        PlanCache::instance().setStore(nullptr);
        PlanCache::instance().clear();
        driver::clearGoldenCache();
        perf::Registry::instance().resetAll();
    }
};

/** One in-process daemon: Server + Listener + EventLoop thread. */
struct LoopHarness
{
    std::ostringstream log; // declared first: listener/loop borrow it
    service::Server server;
    net::Listener listener;
    net::EventLoop loop;
    std::thread thread;

    explicit LoopHarness(const service::ServeOptions &options,
                         const net::EventLoopOptions &loop_options = {})
        : server(options), listener(0, log),
          loop(server, &listener, loop_options, log)
    {
        thread = std::thread([this] { loop.run(); });
    }

    /** Stop the loop and wait for run() to return. */
    void
    stop()
    {
        server.requestStop();
        loop.wake();
        if (thread.joinable())
            thread.join();
    }

    ~LoopHarness() { stop(); }
};

const std::vector<std::string> kStreamRequests = {
    R"({"id":"r1","type":"run","dataset":"chain:n=64"})",
    R"({"id":"s1","type":"sweep","workloads":["pagerank","wcc"],)"
    R"("datasets":["star:n=64"]})",
    R"({"id":"r2","type":"run","dataset":"grid:width=8,height=8"})",
};

/** The same requests through a stdin session. */
std::string
stdinStream()
{
    std::string input;
    for (const std::string &line : kStreamRequests)
        input += line + "\n";
    service::ServeOptions options;
    options.jobs = 1;
    return serveText(input, options);
}

void
expectConnectionsMatchStdin(std::uint32_t jobs)
{
    const std::string expected = stdinStream();
    ASSERT_FALSE(expected.empty());

    PlanCache::instance().clear();
    driver::clearGoldenCache();
    perf::Registry::instance().resetAll();

    service::ServeOptions options;
    options.jobs = jobs;
    LoopHarness harness(options);

    // Every connection pipelines the whole request stream at once,
    // concurrently with its siblings; each must read back exactly
    // the stdin session's bytes, in admission order.
    constexpr int kConnections = 3;
    std::vector<std::string> streams(kConnections);
    std::vector<std::string> errors(kConnections);
    std::vector<std::thread> clients;
    clients.reserve(kConnections);
    for (int c = 0; c < kConnections; ++c) {
        clients.emplace_back([&, c] {
            try {
                client::Client client(harness.listener.port());
                client.setRecvTimeoutMs(120000);
                for (const std::string &line : kStreamRequests)
                    client.sendLine(line);
                for (std::size_t i = 0; i < kStreamRequests.size();
                     ++i)
                    streams[c] += client.recvLine() + "\n";
            } catch (const client::ClientError &err) {
                errors[c] = err.what();
            }
        });
    }
    for (std::thread &t : clients)
        t.join();

    for (int c = 0; c < kConnections; ++c) {
        EXPECT_EQ(errors[c], "") << "connection " << c;
        EXPECT_EQ(streams[c], expected) << "connection " << c;
    }
}

TEST_F(NetServeTest, ConnectionStreamsMatchTheStdinSessionSerial)
{
    expectConnectionsMatchStdin(1);
}

TEST_F(NetServeTest, ConnectionStreamsMatchTheStdinSessionJobs4)
{
    expectConnectionsMatchStdin(4);
}

TEST_F(NetServeTest, GreedyClientIsBoundedAndCannotStarveASibling)
{
    // Stall every worker task: the greedy burst's head occupies the
    // lone worker while the rest of the burst is dispatched, so the
    // per-connection quota (2) must reject the excess — and the
    // polite sibling's request must still be admitted and served.
    failpoint::configure("pool.task.slow@*=300");
    service::ServeOptions options;
    options.jobs = 1;
    options.connQueueDepth = 2;
    LoopHarness harness(options);

    client::Client greedy(harness.listener.port());
    greedy.setRecvTimeoutMs(120000);
    constexpr int kBurst = 8;
    for (int i = 0; i < kBurst; ++i)
        greedy.sendLine(R"({"id":"g)" + std::to_string(i) +
                        R"(","type":"run","dataset":"chain:n=64"})");

    client::Client polite(harness.listener.port());
    polite.setRecvTimeoutMs(120000);
    const std::string answer = polite.request(
        R"({"id":"p","type":"run","dataset":"star:n=64"})");
    EXPECT_NE(answer.find("\"ok\":true"), std::string::npos)
        << answer;

    int ok = 0;
    int rejected = 0;
    for (int i = 0; i < kBurst; ++i) {
        const std::string response = greedy.recvLine();
        if (response.find("queue full") != std::string::npos)
            ++rejected;
        else if (response.find("\"ok\":true") != std::string::npos)
            ++ok;
    }
    EXPECT_EQ(ok, static_cast<int>(options.connQueueDepth));
    EXPECT_EQ(ok + rejected, kBurst);
    failpoint::disarmAll();
}

TEST_F(NetServeTest, AStalledRequestCapsItsSessionsReorderBuffer)
{
    // Every response waits behind the stalled head request, so the
    // session's reorder buffer grows with each answered line. The
    // loop must stop feeding the session once that buffer holds more
    // than --queue-depth responses: queueDepth + 1 lines at most.
    failpoint::configure("pool.task.slow:1@1=1500");
    service::ServeOptions options;
    options.jobs = 1;
    options.queueDepth = 8;
    LoopHarness harness(options);

    client::Client client(harness.listener.port());
    client.setRecvTimeoutMs(120000);
    constexpr int kMalformed = 1000;
    client.sendLine(R"({"id":"head","type":"run","dataset":"chain:n=16"})");
    for (int i = 0; i < kMalformed; ++i)
        client.sendLine(R"({"id":"m)" + std::to_string(i) +
                        R"(","type":"nope"})");
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    const std::uint64_t answered = harness.server.counters().invalid;
    EXPECT_GT(answered, 0u);
    EXPECT_LE(answered, options.queueDepth + 1u);

    // Once the head answers, every line is served, in order.
    EXPECT_NE(client.recvLine().find(R"("id":"head","ok":true)"),
              std::string::npos);
    for (int i = 0; i < kMalformed; ++i) {
        const std::string response = client.recvLine();
        EXPECT_NE(response.find(R"("id":"m)" + std::to_string(i) +
                                R"(","ok":false)"),
                  std::string::npos)
            << response;
    }
    EXPECT_EQ(harness.server.counters().invalid,
              static_cast<std::uint64_t>(kMalformed));
}

TEST_F(NetServeTest, StopTearsDownAClientThatStoppedReading)
{
    LoopHarness harness({});

    // A raw client with a small receive window, so the daemon's
    // responses back up into its send buffer quickly.
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    const int window = 4096;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &window, sizeof(window));
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(
        harness.listener.port()));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                        sizeof(addr)),
              0);

    // Pipeline far more status answers (650 bytes each, 26 MB in
    // all) than the socket buffers hold, and never read one. The
    // sender blocks once the daemon stops reading; the teardown
    // releases it.
    std::thread sender([fd] {
        std::string burst;
        for (int i = 0; i < 40000; ++i)
            burst += R"({"id":"q","type":"status"})" "\n";
        std::size_t off = 0;
        while (off < burst.size()) {
            const ssize_t n = ::send(fd, burst.data() + off,
                                     burst.size() - off, MSG_NOSIGNAL);
            if (n <= 0)
                return;
            off += static_cast<std::size_t>(n);
        }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(500));

    const auto start = std::chrono::steady_clock::now();
    harness.stop();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_LT(elapsed, std::chrono::seconds(2));
    EXPECT_NE(harness.log.str().find("not draining"), std::string::npos)
        << harness.log.str();
    sender.join();
    ::close(fd);
}

TEST_F(NetServeTest, StatusReportsTheConnectionLayer)
{
    LoopHarness harness({});

    client::Client first(harness.listener.port());
    first.setRecvTimeoutMs(120000);
    client::Client second(harness.listener.port());
    second.setRecvTimeoutMs(120000);

    // Order the observations: the second connection completes a work
    // request (so it is accepted and counted) before the first asks.
    const std::string work = second.request(
        R"({"id":"w","type":"run","dataset":"chain:n=64"})");
    ASSERT_NE(work.find("\"ok\":true"), std::string::npos) << work;

    const std::string status =
        first.request(R"({"id":"q","type":"status"})");
    const JsonValue v = JsonValue::parse(status);
    const JsonValue *conns = v.find("connections");
    ASSERT_NE(conns, nullptr) << status;
    EXPECT_EQ(conns->find("active")->asU64(), 2u);
    EXPECT_EQ(conns->find("total_accepted")->asU64(), 2u);
    const auto &per = conns->find("per_connection")->items();
    ASSERT_EQ(per.size(), 2u);
    std::uint64_t admitted = 0;
    for (const JsonValue &entry : per) {
        admitted += entry.find("admitted")->asU64();
        // Fault-free zero-stability: nothing rejected, nothing failed.
        EXPECT_EQ(entry.find("rejected")->asU64(), 0u);
        EXPECT_EQ(entry.find("failed")->asU64(), 0u);
    }
    EXPECT_EQ(admitted, 1u) << "exactly the one work request";
    // No request carried a tenant: the tenants block stays empty.
    EXPECT_TRUE(v.find("tenants")->members().empty());
}

} // namespace
} // namespace graphr
