#include "server.hh"

#include <algorithm>
#include <exception>
#include <functional>
#include <optional>
#include <sstream>

#include "common/json.hh"
#include "driver/golden_cache.hh"
#include "graphr/engine/plan_cache.hh"
#include "perf/counters.hh"
#include "store/plan_store.hh"

namespace graphr::service
{

namespace
{

/** Cumulative admission->response latency of work requests. */
perf::LatencyHistogram &
requestLatency()
{
    static perf::LatencyHistogram &histogram =
        perf::Registry::instance().latency("serve.request_ns");
    return histogram;
}

/** Publish one served-request event into the perf registry. */
void
bump(std::string_view name)
{
    perf::Registry::instance().counter(name).add();
}

} // namespace

Server::Server(const ServeOptions &options)
    : options_(options), datasets_(kResidentDatasets),
      pool_(ThreadPool::effectiveJobs(options.jobs))
{
    // Attach (or detach) the daemon-wide store up front: an unusable
    // --plan-dir must fail at startup, not on the first request.
    driver::installPlanStore(options_.store);
}

Server::~Server()
{
    drainAll();
    PlanCache::instance().setStore(nullptr);
}

ServeCounters
Server::counters() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
}

Server::SessionPtr
Server::openSession(ResponseSink sink)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    SessionPtr session(new Session(nextSessionId_++, std::move(sink)));
    sessions_.push_back(session);
    ++totalSessions_;
    return session;
}

void
Server::closeSession(const SessionPtr &session)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!session->open_)
        return;
    session->open_ = false;
    session->sink_ = nullptr;
    sessions_.erase(
        std::remove(sessions_.begin(), sessions_.end(), session),
        sessions_.end());
}

void
Server::handleLine(const SessionPtr &session, const std::string &line)
{
    const ParsedLine parsed = parseRequestLine(line);
    const std::chrono::steady_clock::time_point admitted_at =
        std::chrono::steady_clock::now();

    std::unique_lock<std::mutex> lock(mutex_);
    Session &sess = *session;
    const std::uint64_t seq = sess.nextSeq_++;

    if (!parsed.ok) {
        ++counters_.invalid;
        ++sess.counters_.invalid;
        bump("serve.invalid");
        respondImmediate(sess, seq,
                         errorResponse(parsed.request.id,
                                       parsed.error));
        return;
    }
    const Request &request = parsed.request;

    if (request.type == RequestType::kStatus) {
        // Status is a barrier: drain everything admitted before it
        // (on every session) so its counters and cache statistics are
        // deterministic.
        idle_.wait(lock, [this] { return outstanding_ == 0; });
        sess.ready_.emplace(seq, statusTextLocked(request.id));
        flushSessionLocked(sess);
        return;
    }

    // Bounded admission, twice: beyond queueDepth outstanding
    // requests across all sessions — or connQueueDepth on this one —
    // the caller gets a structured rejection, never a silent drop.
    // The per-connection quota is checked second so a greedy
    // connection's rejections name its own bound, not the global one.
    if (outstanding_ >= options_.queueDepth) {
        ++counters_.rejected;
        ++sess.counters_.rejected;
        bump("serve.rejected");
        respondImmediate(
            sess, seq,
            errorResponse(
                request.id,
                "queue full (" + std::to_string(outstanding_) +
                    " outstanding, depth " +
                    std::to_string(options_.queueDepth) +
                    "); retry after a response drains"));
        return;
    }
    if (options_.connQueueDepth != 0 &&
        sess.outstanding_ >= options_.connQueueDepth) {
        ++counters_.rejected;
        ++sess.counters_.rejected;
        bump("serve.rejected");
        respondImmediate(
            sess, seq,
            errorResponse(
                request.id,
                "connection queue full (" +
                    std::to_string(sess.outstanding_) +
                    " outstanding on this connection, depth " +
                    std::to_string(options_.connQueueDepth) +
                    "); retry after a response drains"));
        return;
    }

    // A request this daemon cannot honour — a tenant namespace without
    // a usable store, or a prepare without a plan store — is answered
    // at once: admitted then failed, not an admission rejection, since
    // the caller asked something well-formed.
    std::shared_ptr<PlanStore> tenantStore;
    std::optional<std::string> refusal;
    if (!request.tenant.empty()) {
        try {
            tenantStore = tenantStoreLocked(request.tenant);
        } catch (const std::exception &err) {
            refusal = err.what();
        }
    }
    if (!refusal && request.type == RequestType::kPrepare &&
        options_.store.planDir.empty()) {
        refusal = "prepare needs a plan store: start graphr_serve with "
                  "--plan-dir";
    }
    ++counters_.admitted;
    ++sess.counters_.admitted;
    bump("serve.admitted");
    if (refusal) {
        ++counters_.failed;
        ++sess.counters_.failed;
        bump("serve.failed");
        respondImmediate(sess, seq, errorResponse(request.id, *refusal));
        return;
    }
    ++outstanding_;
    ++sess.outstanding_;
    perf::Registry::instance()
        .counter("serve.queue_depth_peak")
        .recordMax(outstanding_);

    // The request's work: its response text, or an exception that
    // becomes its error response. Every request is one task on the
    // pool (a run is the single-combination sweep, which
    // parseRequestLine already enforced), with jobs = 1 inside it:
    // request-level concurrency comes from the pool. Responses still
    // come back in admission order via the seq-ordered flush, and a
    // failing request answers alone without touching its neighbours.
    std::function<std::string()> work;
    if (request.type == RequestType::kPrepare) {
        driver::PrepareSpec spec = request.prepare;
        spec.store = options_.store;
        if (tenantStore)
            spec.store.planDir = tenantStore->directory();
        spec.jobs = 1;
        work = [this, spec, id = request.id] {
            return prepareResponse(
                id, driver::runPrepare(spec, nullptr, &datasets_));
        };
    } else {
        driver::SweepSpec spec = request.sweep;
        spec.store = options_.store;
        spec.jobs = 1;
        const char *type =
            request.type == RequestType::kRun ? "run" : "sweep";
        work = [this, spec, type, id = request.id] {
            return resultsResponse(
                id, type, driver::runSweep(spec, nullptr, &datasets_));
        };
    }
    pool_.submit([this, session, seq, id = request.id,
                  work = std::move(work), admitted_at,
                  tenant = request.tenant, tenantStore] {
        // Bind this worker thread to the tenant's store for the whole
        // request: PlanCache::get and installPlanStore both honour the
        // override, so nothing the request does can touch another
        // tenant's artifacts.
        std::optional<PlanCache::ScopedStoreOverride> scope;
        if (tenantStore)
            scope.emplace(tenantStore);
        if (deadlineExpired(admitted_at)) {
            // Expired while queued: skip the work entirely (the
            // finishJob override writes the timeout response).
            finishJob(session, seq, id, std::string(), false,
                      admitted_at, tenant);
            return;
        }
        try {
            finishJob(session, seq, id, work(), true, admitted_at,
                      tenant);
        } catch (const std::exception &err) {
            finishJob(session, seq, id, errorResponse(id, err.what()),
                      false, admitted_at, tenant);
        }
    });
}

void
Server::handleOversizedLine(const SessionPtr &session)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    Session &sess = *session;
    const std::uint64_t seq = sess.nextSeq_++;
    ++counters_.invalid;
    ++sess.counters_.invalid;
    bump("serve.invalid");
    bump("serve.oversized");
    // The id would be somewhere in the discarded bytes; a null id is
    // the honest answer (request.hh renders empty as null).
    respondImmediate(
        sess, seq,
        errorResponse("",
                      "request line exceeds the " +
                          std::to_string(options_.maxLineBytes) +
                          "-byte limit; split the request or raise "
                          "--max-line-bytes"));
}

bool
Server::acceptsLine(const Session &session) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return session.ready_.size() <= options_.queueDepth;
}

std::size_t
Server::sessionBacklog(const Session &session) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<std::size_t>(session.outstanding_) +
           session.ready_.size();
}

void
Server::drainSession(const Session &session)
{
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock,
               [&session] { return session.outstanding_ == 0; });
}

void
Server::drainAll()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return outstanding_ == 0; });
}

bool
Server::deadlineExpired(
    std::chrono::steady_clock::time_point admitted) const
{
    if (options_.requestTimeoutMs == 0)
        return false;
    return std::chrono::steady_clock::now() - admitted >
           std::chrono::milliseconds(options_.requestTimeoutMs);
}

std::shared_ptr<PlanStore>
Server::tenantStoreLocked(const std::string &tenant)
{
    if (options_.store.planDir.empty()) {
        throw driver::DriverError(
            "tenant namespaces need a plan store: start graphr_serve "
            "with --plan-dir");
    }
    const auto it = tenantStores_.find(tenant);
    if (it != tenantStores_.end())
        return it->second;
    // The name was validated at parse time ([A-Za-z0-9_-] only), so
    // this path cannot escape the daemon's plan directory. The store
    // stays attached for the server's lifetime — its statistics are
    // cumulative, like the daemon-wide store's.
    std::shared_ptr<PlanStore> store;
    try {
        store = std::make_shared<PlanStore>(options_.store.planDir +
                                            "/" + tenant);
    } catch (const StoreError &err) {
        throw driver::DriverError(
            std::string("cannot use tenant namespace '") + tenant +
            "': " + err.what());
    }
    tenantStores_.emplace(tenant, store);
    return store;
}

void
Server::finishJob(const SessionPtr &session, std::uint64_t seq,
                  const std::string &id, std::string text, bool ok,
                  std::chrono::steady_clock::time_point admitted,
                  const std::string &tenant)
{
    // Latency is recorded outside the lock (the histogram is atomic):
    // admission to response-ready, per answered work request.
    const auto elapsed =
        std::chrono::steady_clock::now() - admitted;
    requestLatency().record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count()));
    // Deadline check at completion: whether the work was skipped
    // while queued or merely finished late, the caller sees the same
    // structured timeout in the request's admission slot. Any result
    // computed on the way is abandoned — but the warm state it built
    // (plan cache, store artifacts) is not.
    const bool timed_out = deadlineExpired(admitted);
    if (timed_out) {
        ok = false;
        text = errorResponse(
            id, "timeout: request exceeded --request-timeout-ms=" +
                    std::to_string(options_.requestTimeoutMs) +
                    " and was abandoned");
        bump("serve.timeouts");
    } else {
        bump(ok ? "serve.completed" : "serve.failed");
    }

    const std::lock_guard<std::mutex> lock(mutex_);
    Session &sess = *session;
    if (timed_out) {
        ++counters_.timedOut;
        ++sess.counters_.timedOut;
    } else if (ok) {
        ++counters_.completed;
        ++sess.counters_.completed;
    } else {
        ++counters_.failed;
        ++sess.counters_.failed;
    }
    // Every answered work request counts as served for its tenant
    // (completed, failed or timed out — the tenant's namespace did
    // the work either way).
    if (!tenant.empty())
        ++tenantServed_[tenant];
    sess.ready_.emplace(seq, std::move(text));
    --outstanding_;
    --sess.outstanding_;
    flushSessionLocked(sess);
    // Wakes the status barrier (outstanding_ may have hit zero) and
    // the drain waits.
    idle_.notify_all();
}

void
Server::respondImmediate(Session &session, std::uint64_t seq,
                         std::string text)
{
    session.ready_.emplace(seq, std::move(text));
    flushSessionLocked(session);
}

void
Server::flushSessionLocked(Session &session)
{
    for (auto it = session.ready_.find(session.nextFlush_);
         it != session.ready_.end();
         it = session.ready_.find(session.nextFlush_)) {
        // A closed session's responses are computed and counted, then
        // discarded — the flush cursor still advances so drains
        // terminate.
        if (session.sink_)
            session.sink_(std::move(it->second));
        session.ready_.erase(it);
        ++session.nextFlush_;
    }
}

std::string
Server::statusTextLocked(const std::string &id) const
{
    std::ostringstream os;
    {
        JsonWriter w(os, /*indent=*/0);
        w.beginObject();
        w.field("id", id);
        w.field("ok", true);
        w.field("type", "status");
        w.key("served");
        w.beginObject();
        w.field("admitted", counters_.admitted);
        w.field("completed", counters_.completed);
        w.field("failed", counters_.failed);
        w.field("rejected", counters_.rejected);
        w.field("invalid", counters_.invalid);
        w.field("timed_out", counters_.timedOut);
        w.endObject();

        // The connection layer: sessions currently open, in open
        // order (ids are monotonic, so this is also conn-id order).
        // Deterministic fault-free: a lone stdin client always reads
        // active=1, total_accepted=1 and its own counters.
        w.key("connections");
        w.beginObject();
        w.field("active",
                static_cast<std::uint64_t>(sessions_.size()));
        w.field("total_accepted", totalSessions_);
        w.key("per_connection");
        w.beginArray();
        for (const SessionPtr &s : sessions_) {
            w.beginObject();
            w.field("conn", s->id_);
            w.field("admitted", s->counters_.admitted);
            w.field("rejected", s->counters_.rejected);
            w.field("completed", s->counters_.completed);
            w.field("failed", s->counters_.failed);
            w.endObject();
        }
        w.endArray();
        w.endObject();

        // Per-tenant answered-request counters, name-sorted (the
        // backing map is ordered). Empty until a request carries a
        // "tenant", so fault-free single-tenant runs stay byte-stable.
        w.key("tenants");
        w.beginObject();
        for (const auto &[name, served] : tenantServed_) {
            w.key(name);
            w.beginObject();
            w.field("served", served);
            w.endObject();
        }
        w.endObject();

        w.field("jobs",
                static_cast<std::uint64_t>(pool_.numThreads()));
        w.field("queue_depth",
                static_cast<std::uint64_t>(options_.queueDepth));
        w.field("conn_queue_depth",
                static_cast<std::uint64_t>(options_.connQueueDepth));
        w.field("request_timeout_ms",
                static_cast<std::uint64_t>(options_.requestTimeoutMs));

        // Cumulative per-request latency (work requests only; the
        // registry is process-wide, so a process hosting several
        // Server instances reports their union). The status barrier
        // has drained every prior request, so count is deterministic
        // for a single-server process; the times are
        // wall-clock and inherently not. Median is histogram-derived
        // (~3% bucket resolution); min/max/count are exact.
        const perf::LatencyHistogram &latency = requestLatency();
        w.key("latency");
        w.beginObject();
        w.field("count", latency.count());
        w.field("min_ms",
                static_cast<double>(latency.min()) / 1e6);
        w.field("median_ms",
                static_cast<double>(latency.quantile(0.5)) / 1e6);
        w.field("max_ms",
                static_cast<double>(latency.max()) / 1e6);
        w.endObject();

        const PlanCache::Stats plan = PlanCache::instance().stats();
        w.key("plan_cache");
        w.beginObject();
        w.field("size", static_cast<std::uint64_t>(
                            PlanCache::instance().size()));
        w.field("hits", plan.hits);
        w.field("misses", plan.misses);
        w.endObject();

        const driver::DatasetCache::Stats datasets = datasets_.stats();
        w.key("datasets");
        w.beginObject();
        w.field("resident",
                static_cast<std::uint64_t>(datasets_.size()));
        w.field("hits", datasets.hits);
        w.field("misses", datasets.misses);
        w.endObject();

        const driver::GoldenCacheStats golden =
            driver::goldenCacheStats();
        w.key("golden_cache");
        w.beginObject();
        w.field("hits", golden.hits);
        w.field("misses", golden.misses);
        w.endObject();

        const driver::GoldenCacheStats frontier =
            driver::frontierCacheStats();
        w.key("frontier_cache");
        w.beginObject();
        w.field("hits", frontier.hits);
        w.field("misses", frontier.misses);
        w.endObject();

        w.key("store");
        if (const std::shared_ptr<PlanStore> store =
                PlanCache::instance().store()) {
            const PlanStore::Stats stats = store->stats();
            w.beginObject();
            w.field("dir", store->directory());
            w.field("load_hits", stats.loadHits);
            w.field("load_misses", stats.loadMisses);
            w.field("load_rejects", stats.loadRejects);
            w.field("saves", stats.saves);
            w.endObject();
        } else {
            w.null();
        }

        // Degradation telemetry: every transparently absorbed fault
        // (retries, store loads degraded to re-prepare, abandoned
        // requests, fired failpoints). All zero on a healthy
        // fault-free run, so these bytes stay deterministic for the
        // smoke/chaos greps; a nonzero value is the daemon saying "I
        // survived something".
        w.key("robustness");
        w.beginObject();
        for (const char *name :
             {"store.degraded_loads", "store.retries", "serve.retries",
              "serve.timeouts", "failpoint.fires"}) {
            w.field(name,
                    perf::Registry::instance().counter(name).value());
        }
        w.endObject();
        w.endObject();
    }
    return os.str();
}

} // namespace graphr::service
