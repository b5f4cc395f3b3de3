/**
 * @file
 * The serve-mix workload: a real graphr_serve daemon under seeded
 * open-loop and closed-loop request traffic.
 *
 * The daemon runs with --jobs 2 on a prepared store holding four warm
 * datasets. Nine requests in ten are warm `run`s on them; the tenth
 * (at a seeded slot of every ten) is a first-touch `run` on a graph
 * no request has named before, which pays resolve, sort, encode and
 * write-through and pushes warm plans towards eviction. Three phases:
 *  A. open loop, Poisson arrivals at 20 rps over 2 pipelined
 *     connections (about a third of the daemon's capacity): wall-clock
 *     latency from each request's due time, so a stall also charges
 *     the requests queued behind it;
 *  B. closed loop over 1 connection, one request in flight: the
 *     daemon's CPU time per request;
 *  C. closed loop over 4 connections: ok responses per daemon
 *     CPU-second, and per wall second.
 * The gated metrics come from B and C in CPU time; A's wall-clock
 * latencies are printed beside them (README.md, "Why CPU time").
 *
 * The load generator is this process: at most 4 threads (the main
 * thread included) and 4 connections.
 */

#include <algorithm>
#include <cmath>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "client/client.hh"
#include "common/json.hh"
#include "common/json_reader.hh"
#include "driver/driver.hh"
#include "driver/prepare.hh"
#include "graphr/engine/plan_cache.hh"
#include "layers.hh"
#include "service/request.hh"
#include "workloads.hh"

namespace graphr::bench
{

namespace
{

constexpr int kSetups = 3;
constexpr int kRecvTimeoutMs = 30000;
/** About a third of what the daemon serves in a closed loop. */
constexpr double kRate = 20.0;
/**
 * Shares of the window: phase A (open loop) and phase B (cost loop);
 * phase C (closed loop) has the rest. At 12 s, B answers about 200
 * requests, so 10 lie beyond its p95.
 */
constexpr double kShareA = 0.25;
constexpr double kShareB = 0.55;
const char *const kAlgorithms[] = {"pagerank", "bfs", "sssp", "spmv"};
const char *const kBackends[] = {"graphr", "outofcore"};

/** The graphr_serve process, stopped and reaped on destruction. */
class Daemon
{
  public:
    Daemon(const Options &opts, const std::string &plan_dir)
    {
        const std::string log = opts.workDir + "/serve.log";
        std::vector<std::string> args = {
            GRAPHR_SERVE_BIN, "--port", "0", "--jobs", "2", "--plan-dir",
            plan_dir};
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);

        // A previous daemon's line must not be mistaken for this one's.
        std::filesystem::remove(log);
        pid_ = ::fork();
        if (pid_ < 0)
            throw std::runtime_error("cannot fork the daemon");
        if (pid_ == 0) {
            // The daemon dies with the benchmark, however that ends.
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            const int out = ::open(log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
            const int null = ::open("/dev/null", O_RDWR);
            ::dup2(null, 0);
            ::dup2(null, 1);
            ::dup2(out, 2);
            ::execv(argv[0], argv.data());
            ::_exit(127);
        }
        const std::string marker = "listening on 127.0.0.1:";
        const Clock::time_point deadline =
            Clock::now() + std::chrono::seconds(30);
        while (port_ == 0) {
            std::ifstream in(log);
            const std::string text((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
            const std::size_t at = text.find(marker);
            if (at != std::string::npos &&
                text.find('\n', at) != std::string::npos) {
                port_ = std::stoi(text.substr(at + marker.size()));
                break;
            }
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                throw std::runtime_error("graphr_serve exited at start: " +
                                         text);
            }
            if (Clock::now() > deadline) {
                stop();
                throw std::runtime_error("graphr_serve did not listen");
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
    }

    ~Daemon() { stop(); }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    int port() const { return port_; }
    int pid() const { return pid_; }

    /** CPU seconds the daemon has used since it started. */
    double cpuSeconds() const { return processCpuSeconds(pid_); }

    /**
     * SIGTERM, then wait (SIGKILL after 10 s); true on exit code 0.
     * While it waits it connects now and then: the event loop checks
     * for the signal when poll() returns, which otherwise takes up to
     * its 500 ms tick.
     */
    bool
    stop()
    {
        if (pid_ <= 0)
            return true;
        ::kill(pid_, SIGTERM);
        int status = 0;
        const Clock::time_point deadline =
            Clock::now() + std::chrono::seconds(10);
        while (::waitpid(pid_, &status, WNOHANG) == 0) {
            if (Clock::now() > deadline) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, &status, 0);
                break;
            }
            try {
                client::Client wake(port_);
            } catch (const client::ClientError &) {
                // The listener is already closed.
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }

  private:
    int pid_ = -1;
    int port_ = 0;
};

struct Request
{
    std::string id;
    driver::RunSpec spec;
    bool firstTouch = false;
    /** Open loop: seconds after the phase starts it is due. */
    double due = 0.0;

    std::string
    line() const
    {
        std::ostringstream os;
        JsonWriter w(os, 0);
        w.beginObject();
        w.field("id", id);
        w.field("type", "run");
        w.field("workload", spec.workload);
        w.field("backend", spec.backend);
        w.field("dataset", spec.dataset);
        w.endObject();
        return os.str();
    }
};

std::string
serveSpec(const Options &opts, std::uint64_t seed)
{
    return opts.smoke ? rmatSpec(1024, 8192, seed)
                      : rmatSpec(16384, 131072, seed);
}

std::vector<std::string>
warmDatasets(const Options &opts)
{
    std::vector<std::string> out;
    for (std::uint64_t i = 0; i < 4; ++i)
        out.push_back(serveSpec(opts, deriveSeed(opts.seed, 100 + i)));
    return out;
}

/**
 * The request mix of one stream: exactly one first-touch request per
 * ten, at a seeded slot, so every seed has the same first-touch share.
 */
class Mix
{
  public:
    Mix(const Options &opts, std::uint64_t stream)
        : opts_(opts), warm_(warmDatasets(opts)),
          rng_(deriveSeed(opts.seed, stream)),
          firstTouchSeed_(deriveSeed(opts.seed, 1000 + stream))
    {
    }

    Request
    next(std::string id)
    {
        if (slot_ % 10 == 0)
            firstTouchSlot_ = slot_ + rng_.below(10);
        Request r;
        r.id = std::move(id);
        r.firstTouch = slot_++ == firstTouchSlot_;
        r.spec.workload = kAlgorithms[rng_.below(4)];
        r.spec.backend = kBackends[rng_.below(2)];
        r.spec.dataset =
            r.firstTouch
                ? serveSpec(opts_, deriveSeed(firstTouchSeed_, slot_))
                : warm_[rng_.below(warm_.size())];
        return r;
    }

  private:
    const Options &opts_;
    std::vector<std::string> warm_;
    Rng rng_;
    std::uint64_t firstTouchSeed_;
    std::uint64_t slot_ = 0;
    std::uint64_t firstTouchSlot_ = 0;
};

/**
 * @p n requests with Poisson arrivals at @p rate per second. The gaps
 * are rescaled so the last arrival lands at exactly n / rate: every
 * seed then offers the same load, and only the burst pattern varies.
 */
std::vector<Request>
openLoopPhase(const Options &opts, const std::string &prefix,
              std::uint64_t stream, std::size_t n, double rate)
{
    Mix mix(opts, stream);
    Rng arrivals(deriveSeed(opts.seed, 50 + stream));
    std::vector<Request> out;
    double due = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        due += -std::log(1.0 - arrivals.uniform());
        out.push_back(mix.next(prefix + std::to_string(i)));
        out.back().due = due;
    }
    const double scale = static_cast<double>(n) / rate / due;
    for (Request &r : out)
        r.due *= scale;
    return out;
}

/** Whether @p line is an ok response echoing @p id. */
bool
okResponse(const std::string &line, const std::string &id)
{
    try {
        const JsonValue v = JsonValue::parse(line);
        const JsonValue *got_id = v.find("id");
        const JsonValue *ok = v.find("ok");
        return got_id != nullptr && got_id->isString() &&
               got_id->asString() == id && ok != nullptr &&
               ok->isBool() && ok->asBool();
    } catch (const JsonParseError &) {
        return false;
    }
}

/** The counters of one `status` response. */
struct Status
{
    double admitted = 0, failed = 0, rejected = 0, timedOut = 0;
    double latencyMedianMs = 0;
    double planHits = 0, planMisses = 0;
    double loadHits = 0, loadRejects = 0, saves = 0;
};

Status
readStatus(int port)
{
    client::Client conn(port);
    conn.setRecvTimeoutMs(kRecvTimeoutMs);
    const JsonValue v = JsonValue::parse(
        conn.request(R"({"id":"status","type":"status"})"));
    const auto num = [&v](const char *object, const char *member) {
        const JsonValue *o = v.find(object);
        const JsonValue *m = o != nullptr ? o->find(member) : nullptr;
        return m != nullptr && m->isNumber() ? m->asDouble() : 0.0;
    };
    Status s;
    s.admitted = num("served", "admitted");
    s.failed = num("served", "failed");
    s.rejected = num("served", "rejected");
    s.timedOut = num("served", "timed_out");
    s.latencyMedianMs = num("latency", "median_ms");
    s.planHits = num("plan_cache", "hits");
    s.planMisses = num("plan_cache", "misses");
    s.loadHits = num("store", "load_hits");
    s.loadRejects = num("store", "load_rejects");
    s.saves = num("store", "saves");
    return s;
}

/** What came back for one open-loop request. */
struct Outcome
{
    bool ok = false;
    Clock::time_point sent;
    Clock::time_point received;
    std::string response;
};

/**
 * Replay @p requests on schedule over two pipelined connections: the
 * main thread sends each at its due time, one thread per connection
 * reads the responses, which arrive in that connection's send order.
 */
std::vector<Outcome>
runOpenLoop(int port, const std::vector<Request> &requests,
            Clock::time_point *start)
{
    constexpr std::size_t kConns = 2;
    std::vector<Outcome> out(requests.size());
    std::vector<client::Client> conns;
    for (std::size_t c = 0; c < kConns; ++c) {
        conns.emplace_back(port);
        conns.back().setRecvTimeoutMs(kRecvTimeoutMs);
    }
    std::vector<std::thread> readers;
    for (std::size_t c = 0; c < kConns; ++c) {
        readers.emplace_back([&, c] {
            for (std::size_t i = c; i < requests.size(); i += kConns) {
                try {
                    out[i].response = conns[c].recvLine();
                } catch (const std::exception &) {
                    // Left not ok: counts as a failed request.
                    return;
                }
                out[i].received = Clock::now();
                out[i].ok = okResponse(out[i].response, requests[i].id);
            }
        });
    }
    *start = Clock::now() + std::chrono::milliseconds(20);
    for (std::size_t i = 0; i < requests.size(); ++i) {
        std::this_thread::sleep_until(
            *start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(requests[i].due)));
        out[i].sent = Clock::now();
        try {
            conns[i % kConns].sendLine(requests[i].line());
        } catch (const client::ClientError &) {
            // The reader of this connection sees it fail too.
        }
    }
    for (std::thread &t : readers)
        t.join();
    return out;
}

/** @p seconds from now on the benchmark's clock. */
Clock::time_point
fromNow(double seconds)
{
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
}

/**
 * Phase B, a closed loop over one connection with one request in
 * flight: the daemon's CPU time between sending each request and
 * reading its response is what that request cost it.
 */
struct CostLoop
{
    std::uint64_t attempted = 0;
    /** CPU milliseconds of each request answered ok. */
    std::vector<double> cpuMs;
};

CostLoop
runCostLoop(const Options &opts, const Daemon &daemon, double duration)
{
    CostLoop out;
    Mix mix(opts, 30);
    const Clock::time_point deadline = fromNow(duration);
    try {
        client::Client conn(daemon.port());
        conn.setRecvTimeoutMs(kRecvTimeoutMs);
        while (Clock::now() < deadline) {
            std::string id = "b";
            id += std::to_string(out.attempted);
            const Request r = mix.next(std::move(id));
            ++out.attempted;
            const double before = daemon.cpuSeconds();
            const bool ok = okResponse(conn.request(r.line()), r.id);
            const double cpu = daemon.cpuSeconds() - before;
            if (ok)
                out.cpuMs.push_back(cpu * 1e3);
        }
    } catch (const client::ClientError &) {
        // A failed connect or request is one more failed attempt.
        out.attempted = std::max<std::uint64_t>(out.attempted,
                                                out.cpuMs.size() + 1);
    }
    return out;
}

/** Phase C: each connection sends its next request on a reply. */
struct ClosedLoop
{
    std::uint64_t attempted = 0;
    std::uint64_t ok = 0;
    double seconds = 0.0;
    /** CPU seconds the daemon used during the loop. */
    double daemonCpuSeconds = 0.0;
};

ClosedLoop
runClosedLoop(const Options &opts, const Daemon &daemon, double duration)
{
    constexpr std::size_t kConns = 4;
    std::vector<ClosedLoop> per(kConns);
    std::vector<Clock::time_point> ends(kConns);
    const double cpu_start = daemon.cpuSeconds();
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline = fromNow(duration);
    const auto loop = [&](std::size_t c) {
        Mix mix(opts, 20 + c);
        ends[c] = start;
        ClosedLoop &mine = per[c];
        try {
            client::Client conn(daemon.port());
            conn.setRecvTimeoutMs(kRecvTimeoutMs);
            while (Clock::now() < deadline) {
                std::string id = "c";
                id += std::to_string(c);
                id += '-';
                id += std::to_string(mine.attempted);
                const Request r = mix.next(std::move(id));
                ++mine.attempted;
                mine.ok += okResponse(conn.request(r.line()), r.id);
                ends[c] = Clock::now();
            }
        } catch (const std::exception &) {
            // A failed connect or request is one more failed attempt.
            // Nothing escapes: this is a thread's entry function.
            mine.attempted = std::max(mine.attempted, mine.ok + 1);
        }
    };
    std::vector<std::thread> threads;
    for (std::size_t c = 1; c < kConns; ++c)
        threads.emplace_back(loop, c);
    loop(0);
    for (std::thread &t : threads)
        t.join();
    ClosedLoop total;
    total.daemonCpuSeconds = daemon.cpuSeconds() - cpu_start;
    Clock::time_point end = start;
    for (std::size_t c = 0; c < kConns; ++c) {
        total.attempted += per[c].attempted;
        total.ok += per[c].ok;
        end = std::max(end, ends[c]);
    }
    total.seconds = secondsBetween(start, end);
    return total;
}

/**
 * One set-up: a fresh store, the daemon, prepare and warm requests.
 * Returns the CPU seconds the daemon used from its start to the end.
 */
double
setUp(const Options &opts, const std::string &plan_dir,
      std::unique_ptr<Daemon> &daemon, Report &report)
{
    daemon.reset();
    freshDir(plan_dir);
    const std::vector<std::string> warm = warmDatasets(opts);
    daemon = std::make_unique<Daemon>(opts, plan_dir);
    client::Client conn(daemon->port());
    conn.setRecvTimeoutMs(kRecvTimeoutMs);
    std::ostringstream prepare;
    {
        JsonWriter w(prepare, 0);
        w.beginObject();
        w.field("id", "setup-prepare");
        w.field("type", "prepare");
        w.key("datasets");
        w.beginArray();
        for (const std::string &spec : warm)
            w.value(spec);
        w.endArray();
        w.endObject();
    }
    bool ok = okResponse(conn.request(prepare.str()), "setup-prepare");
    for (std::size_t i = 0; i < warm.size(); ++i) {
        Request r;
        r.id = "setup-warm-" + std::to_string(i);
        r.spec.dataset = warm[i];
        ok &= okResponse(conn.request(r.line()), r.id);
    }
    report.check(ok, "a set-up request failed");
    return daemon->cpuSeconds();
}

/** What the daemon answers for @p r, computed in this process. */
std::string
expectedResponse(const Request &r)
{
    return service::resultsResponse(r.id, "run", {driver::runOne(r.spec)});
}

/** In-process state equal to the daemon's after set-up. */
void
prepareReplay(const Options &opts, const std::string &dir)
{
    dropMemoryCaches();
    freshDir(dir);
    driver::PrepareSpec prepare;
    prepare.datasets = warmDatasets(opts);
    prepare.store.planDir = dir;
    driver::runPrepare(prepare);
    for (const std::string &spec : prepare.datasets) {
        driver::RunSpec warm;
        warm.dataset = spec;
        warm.store = prepare.store;
        driver::runOne(warm);
    }
}

/** One request broken into its public calls, each under a span. */
std::string
tracedRequest(Tracer &tracer, const Request &r, const std::string &dir)
{
    Tracer::Span root(tracer, "driver.run", r.id);
    const Counts before = counts();
    StoreSpec store;
    store.planDir = dir;
    driver::installPlanStore(store);
    driver::ResolvedDataset dataset;
    {
        Tracer::Span span(tracer, "driver.resolve");
        dataset = driver::resolveDataset(r.spec.dataset, r.spec.scale,
                                         r.spec.seed);
    }
    const driver::BackendOptions &options = r.spec.backendOptions;
    acquirePlans(tracer, {&dataset.graph}, options.config.tiling);
    const driver::Workload workload =
        driver::makeWorkload(r.spec.workload, r.spec.params);
    const std::unique_ptr<driver::Backend> backend =
        driver::makeBackend(r.spec.backend, options);
    driver::RunResult result;
    {
        Tracer::Span span(tracer, "graphr." + r.spec.backend + "_run");
        result = backend->run(workload, dataset);
    }
    std::string response;
    {
        Tracer::Span span(tracer, "driver.report_json");
        response = service::resultsResponse(r.id, "run", {result});
    }
    attachCounts(root, before);
    return response;
}

std::vector<double>
msSince(const std::vector<Outcome> &out,
        const std::vector<Clock::time_point> &from)
{
    std::vector<double> ms;
    for (std::size_t i = 0; i < out.size(); ++i) {
        if (out[i].ok)
            ms.push_back(secondsBetween(from[i], out[i].received) * 1e3);
    }
    return ms;
}

/** Due times of a phase as clock points. */
std::vector<Clock::time_point>
dueTimes(const std::vector<Request> &requests, Clock::time_point start)
{
    std::vector<Clock::time_point> due;
    for (const Request &r : requests)
        due.push_back(start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(r.due)));
    return due;
}

} // namespace

void
runServeMix(const Options &opts, Report &report, Tracer *tracer)
{
    const std::string plan_dir = opts.workDir + "/serve-plans";
    std::unique_ptr<Daemon> daemon;
    std::vector<double> setups;
    for (int k = 0; k < kSetups; ++k)
        setups.push_back(setUp(opts, plan_dir, daemon, report));
    report.sampled("setup_s", setups);
    const int port = daemon->port();

    const std::vector<Request> phase_a = openLoopPhase(
        opts, "a", 10,
        std::max<std::size_t>(
            1, static_cast<std::size_t>(
                   std::lround(kShareA * opts.seconds * kRate))),
        kRate);

    const Status before = readStatus(port);
    resetPeakRss(daemon->pid());
    Clock::time_point start_a;
    const std::vector<Outcome> out_a = runOpenLoop(port, phase_a, &start_a);
    const Status after_a = readStatus(port);
    const CostLoop cost = runCostLoop(opts, *daemon, kShareB * opts.seconds);
    const ClosedLoop closed = runClosedLoop(
        opts, *daemon, (1.0 - kShareA - kShareB) * opts.seconds);
    const Status after = readStatus(port);
    report.value("peak_rss_mb", peakRssMb(daemon->pid()));
    report.check(daemon->stop(), "graphr_serve did not exit cleanly");

    for (const Outcome &o : out_a)
        report.attempt(o.ok);
    for (std::uint64_t i = 0; i < cost.attempted; ++i)
        report.attempt(i < cost.cpuMs.size());
    for (std::uint64_t i = 0; i < closed.attempted; ++i)
        report.attempt(i < closed.ok);
    report.check(report.failed() == 0,
                 std::to_string(report.failed()) +
                     " requests were not answered ok with their id");
    report.check(after.rejected == 0 && after.failed == 0 &&
                     after.timedOut == 0,
                 "the daemon rejected, failed or timed out requests");

    // A warm and a first-touch response must be byte-identical to the
    // same run made in this process.
    for (const bool first_touch : {false, true}) {
        for (std::size_t i = 0; i < phase_a.size(); ++i) {
            if (phase_a[i].firstTouch != first_touch || !out_a[i].ok)
                continue;
            report.check(out_a[i].response == expectedResponse(phase_a[i]),
                         "response " + phase_a[i].id +
                             " differs from driver::runOne");
            break;
        }
    }

    report.sampled("p50_ms", cost.cpuMs);
    report.value("p95_ms", quantile(cost.cpuMs, 0.95), cost.cpuMs.size());
    report.value("goodput_per_s",
                 closed.daemonCpuSeconds > 0.0
                     ? closed.ok / closed.daemonCpuSeconds
                     : 0.0,
                 closed.ok);
    const std::vector<Clock::time_point> due_a = dueTimes(phase_a, start_a);
    const std::vector<double> from_due = msSince(out_a, due_a);
    report.info("open_p50_ms", "ms", median(from_due), from_due.size());
    report.info("open_p95_ms", "ms", quantile(from_due, 0.95),
                from_due.size());
    report.info("wall_goodput_per_s", "1/s",
                closed.seconds > 0.0 ? closed.ok / closed.seconds : 0.0,
                closed.ok);

    if (tracer == nullptr)
        return;

    // Execution time of the same requests without the daemon: first
    // through driver::runOne (wall time, to set against the daemon's
    // wall-clock latency), then broken into spans.
    const std::string replay_dir = opts.workDir + "/replay-plans";
    prepareReplay(opts, replay_dir);
    std::vector<std::string> expected;
    std::vector<double> exec_ms;
    const double exec_cpu_start = processCpuSeconds();
    for (const Request &r : phase_a) {
        driver::RunSpec spec = r.spec;
        spec.store.planDir = replay_dir;
        const Clock::time_point t0 = Clock::now();
        expected.push_back(service::resultsResponse(
            r.id, "run", {driver::runOne(spec)}));
        exec_ms.push_back(secondsBetween(t0, Clock::now()) * 1e3);
    }
    const double exec_cpu = processCpuSeconds() - exec_cpu_start;
    prepareReplay(opts, replay_dir);
    std::vector<std::string> ops;
    const double traced_cpu_start = processCpuSeconds();
    for (std::size_t i = 0; i < phase_a.size(); ++i) {
        const std::string response =
            tracedRequest(*tracer, phase_a[i], replay_dir);
        report.check(response == expected[i],
                     "traced " + phase_a[i].id + " differs from runOne");
        ops.push_back(phase_a[i].id);
    }
    const double traced_cpu = processCpuSeconds() - traced_cpu_start;
    const std::string probe_store = opts.workDir + "/probe-store";
    probeLayers(*tracer, driver::resolveDataset(warmDatasets(opts)[0]),
                driver::BackendOptions{},
                {std::begin(kBackends), std::end(kBackends)}, probe_store);
    reportLayers(*tracer, ops, report);
    report.value("store.bytes_per_edge", storeBytesPerEdge(probe_store));
    report.value("trace.overhead_frac", traced_cpu / exec_cpu - 1.0,
                 ops.size());

    // The daemon's own counts, per request of the measured phases.
    const double requests = after.admitted - before.admitted;
    const auto per_request = [&](const char *name, double delta) {
        report.value(name, requests > 0.0 ? delta / requests : 0.0,
                     static_cast<std::size_t>(requests));
    };
    per_request("engine.plan_hits", after.planHits - before.planHits);
    per_request("engine.plan_misses", after.planMisses - before.planMisses);
    const double lookups = after.planHits - before.planHits +
                           after.planMisses - before.planMisses;
    report.value("engine.plan_hit_ratio",
                 lookups > 0.0 ? (after.planHits - before.planHits) / lookups
                               : 0.0);
    per_request("store.load_hits", after.loadHits - before.loadHits);
    per_request("store.load_rejects",
                after.loadRejects - before.loadRejects);
    per_request("store.saves", after.saves - before.saves);
    report.value("service.rejected", after.rejected);
    report.value("service.failed", after.failed);
    report.value("service.timed_out", after.timedOut);

    // Phase A: admission-to-response at the daemon, the client's view
    // of the same requests from their send, and execution alone.
    std::vector<Clock::time_point> sent_a;
    std::vector<double> late;
    for (std::size_t i = 0; i < out_a.size(); ++i) {
        sent_a.push_back(out_a[i].sent);
        late.push_back(secondsBetween(due_a[i], out_a[i].sent) * 1e3);
    }
    // The daemon's median is read from its histogram (about 3% wide
    // buckets), so it is reported only through these differences,
    // whose other term the harness measures exactly.
    const double server_p50 = after_a.latencyMedianMs;
    report.value("service.queue_wait_ms", server_p50 - median(exec_ms));
    report.value("net.overhead_ms",
                 median(msSince(out_a, sent_a)) - server_p50);
    report.value("net.gen_late_p95_ms", quantile(late, 0.95), late.size());
}

void
probeServeLayers(const Options &opts, Report &report)
{
    Options probe = opts;
    probe.smoke = true;
    probe.seconds = opts.smoke ? 0.5 : 2.0;
    probe.workDir = opts.workDir + "/serve-probe";
    freshDir(probe.workDir);
    Report serve;
    Tracer tracer;
    runServeMix(probe, serve, &tracer);
    for (const std::string &failure : serve.failures())
        report.check(false, "serve probe: " + failure);
    for (const char *name :
         {"service.queue_wait_ms",
          "service.rejected", "service.failed", "service.timed_out",
          "net.overhead_ms", "net.gen_late_p95_ms"}) {
        const Metric m = serve.metric(name);
        report.value(name, m.value, m.n);
    }
}

} // namespace graphr::bench
