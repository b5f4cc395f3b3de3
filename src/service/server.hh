/**
 * @file
 * The long-lived batch-serving core of graphr_serve.
 *
 * A Server owns a worker pool and process-resident warm state (its
 * resident datasets with their memoised golden counts and symmetrised
 * copies, the PlanCache with an optionally attached PlanStore) and
 * answers JSONL request streams. Since the connection
 * layer (src/net/) arrived, a Server serves many streams at once:
 * each client connection opens a Session — the per-connection unit of
 * response ordering, admission quota and counters — and feeds it
 * request lines; the Server fans the work across one shared pool and
 * hands each Session its responses back in that session's admission
 * order. The paper's offline/online split is what makes this shape
 * pay: the first request for a (graph x tiling) resolves the dataset
 * and prepares (or store-loads) the plan; every later one — from any
 * connection — finds the graph resolved and fingerprinted and the
 * plan resident, so it pays for the tile walk alone.
 *
 * Scheduling model:
 *  - Admission is bounded twice: globally (at most `queueDepth`
 *    requests outstanding across all sessions) and per session (at
 *    most `connQueueDepth` outstanding per connection, when set).
 *    The per-session quota is the fairness mechanism: one greedy
 *    connection can fill its own quota and collect structured
 *    "connection queue full" rejections, but it cannot occupy the
 *    global depth and starve its siblings.
 *  - Every run/sweep/prepare request is one task on the worker
 *    pool (a run is the single-combination SweepSpec case), so a
 *    burst of requests fans across all --jobs workers; plan reuse
 *    across requests and connections comes from the process-wide
 *    PlanCache, and a failing request answers alone.
 *  - Responses are written in per-session admission order
 *    (completion order may differ), so a fixed request stream yields
 *    byte-identical run/sweep/prepare responses at any --jobs and
 *    regardless of what sibling connections are doing.
 *  - That order makes a slow request hold every later (even
 *    immediate) response in its session's reorder buffer.
 *    acceptsLine() caps that buffer: a session holding more
 *    answered-but-unflushed responses than `queueDepth` is fed no
 *    further line until the head answers, so a flood of malformed or
 *    rejected lines waits in the client's socket or pipe instead of
 *    in daemon memory.
 *  - A request may carry a "tenant" name: its plan artifacts then
 *    live in `<plan-dir>/<tenant>/` (a per-tenant PlanStore namespace
 *    with its own memory-cache namespace), so independent users
 *    cannot poison each other's artifact store. Tenant names are
 *    validated against path traversal at parse time.
 *  - "status" is a barrier: it drains everything admitted before it
 *    on every session, then reports cache occupancy, served-request
 *    counters, the connections block and per-tenant counters —
 *    deterministic numbers, which the CI smoke relies on.
 *
 * Thread-safety: handleLine()/handleOversizedLine() for one Session
 *  must be called from one thread at a time (the event loop);
 *  different Sessions may be fed from different threads. Sinks are
 *  invoked with the server mutex held, from whatever thread completes
 *  the request — keep them cheap (buffer-append).
 *  requestStop() may be called from any thread or from a signal
 *  handler (it only stores a lock-free atomic).
 */

#ifndef GRAPHR_SERVICE_SERVER_HH
#define GRAPHR_SERVICE_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_pool.hh"
#include "driver/dataset.hh"
#include "service/request.hh"

namespace graphr
{
class PlanStore;
}

namespace graphr::service
{

/** Daemon configuration (the graphr_serve flag surface). */
struct ServeOptions
{
    /** Worker threads executing requests (0 = hardware threads). */
    std::uint32_t jobs = 1;
    /**
     * Max outstanding requests (admitted, not yet answered) across
     * every session; further work requests get a structured "queue
     * full" rejection. 0 means reject everything — useful only for
     * tests.
     */
    std::uint32_t queueDepth = 256;
    /**
     * Max outstanding requests per session/connection (0 = no
     * per-session quota, only the global bound applies — the
     * single-client stdin default). The daemon's TCP mode sets this
     * so one greedy connection saturates its own quota, not the
     * global depth.
     */
    std::uint32_t connQueueDepth = 0;
    /**
     * Per-request wall-clock deadline in milliseconds (admission to
     * response; 0 = none). A request that misses it is answered with
     * a structured `"error":"timeout..."` line in its admission slot
     * — ordering, backpressure and drain semantics are unchanged, the
     * caller just learns the result was abandoned. Work already
     * running is never killed mid-flight (results may still warm the
     * caches); work that is still queued when its deadline passes is
     * skipped entirely.
     */
    std::uint32_t requestTimeoutMs = 0;
    /**
     * Longest accepted request line in bytes (0 = unlimited). Longer
     * lines are consumed with bounded memory and answered with a
     * structured error instead of growing daemon memory without
     * limit — the session then continues at the next line.
     */
    std::size_t maxLineBytes = 1 << 20;
    /**
     * Daemon-wide plan store root. Per-request plan directories are
     * deliberately not part of the request grammar; the one sanctioned
     * form of per-request redirection is the validated "tenant" name,
     * which selects the `<plan-dir>/<tenant>/` namespace.
     */
    StoreSpec store;
};

/** Served-request counters (monotonic over the server's lifetime). */
struct ServeCounters
{
    std::uint64_t admitted = 0;  ///< work requests accepted
    std::uint64_t completed = 0; ///< answered with ok == true
    std::uint64_t failed = 0;    ///< admitted but answered with error
    std::uint64_t rejected = 0;  ///< bounced by an admission bound
    std::uint64_t invalid = 0;   ///< malformed/oversized lines
    std::uint64_t timedOut = 0;  ///< missed the per-request deadline
};

/** One serving daemon instance. */
class Server
{
  public:
    class Session;
    using SessionPtr = std::shared_ptr<Session>;
    /**
     * Receives one finished response line (no trailing newline) per
     * call, in the session's admission order. Invoked with the server
     * mutex held, possibly from a worker thread — must not call back
     * into the Server.
     */
    using ResponseSink = std::function<void(std::string &&)>;

    /**
     * Resolved datasets kept resident between requests, least
     * recently used evicted first. Each costs its edge list, 16 bytes
     * an edge, and saves every later request that names it the
     * resolve and the fingerprint.
     */
    static constexpr std::size_t kResidentDatasets = 8;

    /**
     * Construct the daemon: spins up the worker pool and attaches
     * options.store to the process-wide PlanCache (throws
     * driver::DriverError when the directory is unusable — fail at
     * startup, not on the first request).
     */
    explicit Server(const ServeOptions &options);

    /** Drains outstanding work, then detaches the plan store. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    // ------------------------------------------------ connection seam
    // The surface src/net/EventLoop drives: one Session per client
    // connection, stdin included. The caller owns line framing (see
    // net/line_buffer.hh) and feeds complete lines in.

    /** Open a session: responses flow to @p sink in admission order.
     *  Counted in the status "connections" block. */
    SessionPtr openSession(ResponseSink sink);

    /**
     * Close a session: its sink is dropped immediately (responses of
     * still-running requests are computed, counted, then discarded)
     * and it leaves the active set. Idempotent.
     */
    void closeSession(const SessionPtr &session);

    /** Parse, validate, admit and dispatch one request line for a
     *  session. Never blocks on I/O; may block on the status
     *  barrier. */
    void handleLine(const SessionPtr &session, const std::string &line);

    /** Answer a line the framer refused (longer than maxLineBytes())
     *  with a structured error in the session's admission slot. */
    void handleOversizedLine(const SessionPtr &session);

    /** Whether @p session may be fed another line: false while it
     *  holds more answered-but-unflushed responses than the queue
     *  depth. The event loop checks it before every dispatch. */
    bool acceptsLine(const Session &session) const;

    /** Admitted-but-unanswered requests plus unflushed responses on
     *  this session; zero once it has nothing left to send. */
    std::size_t sessionBacklog(const Session &session) const;

    /** The longest request line a connection may frame. */
    std::size_t maxLineBytes() const { return options_.maxLineBytes; }

    /** Block until every request this session admitted is answered
     *  (its sink has seen every line). */
    void drainSession(const Session &session);

    /** Block until every admitted request on every session is
     *  answered — the shutdown barrier. */
    void drainAll();

    /**
     * Ask every serving loop to stop after the line it is processing
     * and drain. Async-signal-safe (lock-free store).
     */
    void requestStop() { stop_.store(true); }

    bool stopRequested() const { return stop_.load(); }

    ServeCounters counters() const;

    /** The resident datasets every request resolves through. */
    driver::DatasetCache &datasets() { return datasets_; }

  private:
    /** Whether @p admitted 's deadline has already passed (always
     *  false with requestTimeoutMs == 0). */
    bool deadlineExpired(
        std::chrono::steady_clock::time_point admitted) const;

    /**
     * Record a response and flush the session's in-order prefix.
     * @p admitted is the request's admission time: the admission ->
     * response latency is published into the perf counter registry
     * ("serve.request_ns"), which status reports as the cumulative
     * per-request latency summary. When the request missed its
     * deadline, @p text is replaced by the structured timeout error
     * (@p id is needed for exactly that rewrite). @p tenant, when
     * non-empty, bumps that tenant's served counter.
     */
    void finishJob(const SessionPtr &session, std::uint64_t seq,
                   const std::string &id, std::string text, bool ok,
                   std::chrono::steady_clock::time_point admitted,
                   const std::string &tenant);
    void respondImmediate(Session &session, std::uint64_t seq,
                          std::string text);
    /** Push the session's ready in-order prefix into its sink.
     *  Caller holds mutex_. */
    void flushSessionLocked(Session &session);

    /**
     * The `<plan-dir>/<tenant>/` store namespace, created lazily and
     * kept for the server's lifetime (stats stay cumulative). Caller
     * holds mutex_. Throws StoreError when the directory is unusable
     * and DriverError when the daemon has no store at all.
     */
    std::shared_ptr<PlanStore>
    tenantStoreLocked(const std::string &tenant);

    /** Status payload; caller holds mutex_ and has drained. */
    std::string statusTextLocked(const std::string &id) const;

    ServeOptions options_;
    /** Declared before the pool so it outlives every worker task. */
    driver::DatasetCache datasets_;
    ThreadPool pool_;
    std::atomic<bool> stop_{false};

    mutable std::mutex mutex_;
    std::condition_variable idle_; ///< outstanding work / buffers moved
    /** Admitted-but-unanswered work requests across all sessions
     *  (the global admission bound). */
    std::uint64_t outstanding_ = 0;
    ServeCounters counters_;

    /** Sessions still open, in open order (the status
     *  "connections.per_connection" listing). */
    std::vector<SessionPtr> sessions_;
    std::uint64_t nextSessionId_ = 1;
    std::uint64_t totalSessions_ = 0;

    /** Tenant namespaces: `<plan-dir>/<tenant>/` stores (lazily
     *  opened, kept attached) and per-tenant answered-request
     *  counters, both keyed by the validated tenant name. */
    std::map<std::string, std::shared_ptr<PlanStore>> tenantStores_;
    std::map<std::string, std::uint64_t> tenantServed_;
};

/**
 * One client connection's serving state: the per-connection request
 * sequence, the admission-ordered response reorder buffer, the sink,
 * and the per-connection counters the status "connections" block
 * reports. Create via Server::openSession; all mutation goes through
 * the Server (the Session itself is passive data).
 */
class Server::Session
{
  public:
    /** Stable 1-based id, echoed as "conn" in status. */
    std::uint64_t id() const { return id_; }

  private:
    friend class Server;

    Session(std::uint64_t id, ResponseSink sink)
        : id_(id), sink_(std::move(sink))
    {
    }

    std::uint64_t id_;
    ResponseSink sink_;      ///< dropped (nullptr) once closed
    bool open_ = true;

    std::uint64_t outstanding_ = 0; ///< admitted, not yet answered
    std::uint64_t nextSeq_ = 0;     ///< next admission slot
    std::uint64_t nextFlush_ = 0;   ///< next slot the sink gets
    std::map<std::uint64_t, std::string> ready_;
    ServeCounters counters_;
};

} // namespace graphr::service

#endif // GRAPHR_SERVICE_SERVER_HH
