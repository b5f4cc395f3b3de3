/**
 * @file
 * graphr_serve: the long-lived batch-serving daemon.
 *
 * Where graphr_run pays process start-up, dataset resolution and plan
 * preparation per invocation, graphr_serve keeps that state resident
 * (resolved datasets, plans) and answers a stream of JSONL requests
 * against it — the online half of GraphR's offline/online split,
 * amortised across requests:
 *
 *   printf '%s\n' \
 *     '{"id":"r1","type":"run","dataset":"wiki-vote","scale":4}' \
 *     '{"id":"q1","type":"status"}' | graphr_serve --stdin
 *
 *   graphr_serve --port 7447 --jobs 4 --plan-dir plans/
 *
 * One response line per request, ids echoed, per-connection admission
 * order. Both modes run one event loop (src/net/event_loop.hh):
 * --stdin serves fds 0/1 as its single connection, and TCP mode
 * serves up to --max-connections loopback clients simultaneously over
 * one shared warm state. Requests interleave round-robin across
 * connections, each connection gets its own --conn-queue-depth
 * admission quota, and every stream's responses come back in that
 * stream's admission order.
 * SIGTERM/SIGINT and EOF both drain gracefully: the listener closes
 * at signal receipt (stop accepting), in-flight requests finish,
 * every pending response is flushed, then the process exits.
 * See docs/CLI.md for the full request grammar.
 */

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include <malloc.h>
#include <unistd.h>

#include "common/failpoint.hh"
#include "driver/params.hh"
#include "net/event_loop.hh"
#include "net/listener.hh"
#include "service/server.hh"

namespace
{

using namespace graphr;

std::atomic<service::Server *> g_server{nullptr};

/** SIGTERM/SIGINT: ask the server to drain (lock-free store only). */
void
onSignal(int)
{
    if (service::Server *server = g_server.load())
        server->requestStop();
}

/** No SA_RESTART: a signal must interrupt the event loop's poll(). */
void
installSignalHandlers()
{
    struct sigaction action = {};
    action.sa_handler = onSignal;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;
    sigaction(SIGTERM, &action, nullptr);
    sigaction(SIGINT, &action, nullptr);
    // A TCP client that disconnects before reading its responses must
    // surface as a write error (EPIPE -> clean session end), not kill
    // the daemon and its warm caches with the default SIGPIPE action.
    ::signal(SIGPIPE, SIG_IGN);
}

/**
 * One malloc arena for the whole daemon, unless MALLOC_ARENA_MAX says
 * otherwise. glibc gives each worker thread an arena of its own, and
 * each kept the high-water mark of the large transient buffers its
 * requests allocated (resolver output, sort scratch, decode buffers)
 * around the long-lived resident datasets and plans: resident memory
 * grew with the worker count and the request mix, not with the
 * resident state. Those buffers are few and large, so one arena's
 * lock is not contended: with --jobs 4 on a 4-vCPU Xeon VM, the
 * benchmark's serve-mix traffic read the same closed-loop goodput
 * with and without the cap (medians 119 and 117 ok responses per
 * daemon CPU-second over 6 seeds) and a peak RSS of 108 MiB
 * against 148 MiB.
 */
void
capMallocArenas()
{
#ifdef M_ARENA_MAX
    if (std::getenv("MALLOC_ARENA_MAX") == nullptr)
        ::mallopt(M_ARENA_MAX, 1);
#endif
}

/** Detaches the signal handlers' server pointer before the Server is
 *  destroyed (including during exception unwinding), so a late
 *  signal cannot touch a dead object. */
struct ServerRegistration
{
    explicit ServerRegistration(service::Server &server)
    {
        g_server.store(&server);
    }
    ~ServerRegistration() { g_server.store(nullptr); }
};

struct ServeCliOptions
{
    service::ServeOptions server;
    /** TCP port to listen on (loopback); negative = stdin mode. */
    int port = -1;
    /** Simultaneous TCP connections the event loop serves. */
    std::uint32_t maxConnections = 64;
    /** Whether --conn-queue-depth was given (TCP mode otherwise
     *  defaults the per-connection quota to 32). */
    bool connDepthSet = false;
    bool help = false;
    bool listFailpoints = false;
};

std::string
usageText()
{
    return "graphr_serve — long-lived GraphR batch-serving daemon\n"
           "\n"
           "usage: graphr_serve [--stdin | --port N] [flags]\n"
           "\n"
           "flags:\n"
           "  --stdin             serve JSONL requests from stdin,\n"
           "                      responses to stdout (the default)\n"
           "  --port n            listen on 127.0.0.1:n instead,\n"
           "                      serving many connections at once\n"
           "                      (0 = pick a free port, printed to\n"
           "                      stderr)\n"
           "  --jobs n            worker threads executing requests\n"
           "                      (default 1; 0 = hardware threads)\n"
           "  --queue-depth n     max outstanding requests across all\n"
           "                      connections before admission\n"
           "                      rejects (default 256)\n"
           "  --conn-queue-depth n\n"
           "                      max outstanding requests per\n"
           "                      connection — the fairness quota\n"
           "                      (default 32 in TCP mode, 0 = only\n"
           "                      the global bound; stdin default 0)\n"
           "  --max-connections n simultaneous TCP connections; more\n"
           "                      wait in the accept backlog\n"
           "                      (default 64)\n"
           "  --request-timeout-ms n\n"
           "                      per-request deadline; a request\n"
           "                      that misses it is answered with a\n"
           "                      structured timeout error (default\n"
           "                      0 = none)\n"
           "  --max-line-bytes n  longest accepted request line;\n"
           "                      longer lines get a structured\n"
           "                      error (default 1048576; 0 = no\n"
           "                      limit)\n"
           "  --plan-dir path     durable plan store shared by every\n"
           "                      request (see docs/CLI.md)\n"
           "  --list-failpoints   print the registered fault-\n"
           "                      injection site names (one per\n"
           "                      line, for GRAPHR_FAILPOINTS) and\n"
           "                      exit\n"
           "  --help              this text\n"
           "\n"
           "requests (one JSON object per line; full grammar in\n"
           "docs/CLI.md):\n"
           "  {\"id\":\"r1\",\"type\":\"run\",\"workload\":\"pagerank\","
           "\"backend\":\"graphr\",\"dataset\":\"wiki-vote\","
           "\"scale\":4}\n"
           "  {\"id\":\"s1\",\"type\":\"sweep\",\"workloads\":[\"all\"],"
           "\"datasets\":[\"wiki-vote\"],\"scale\":4}\n"
           "  {\"id\":\"p1\",\"type\":\"prepare\",\"datasets\":"
           "[\"wiki-vote\"],\"scale\":4}\n"
           "  {\"id\":\"q1\",\"type\":\"status\"}\n";
}

ServeCliOptions
parseServeCli(const std::vector<std::string> &args)
{
    using driver::DriverError;
    ServeCliOptions opts;
    auto next = [&args](std::size_t &i,
                        const std::string &flag) -> const std::string & {
        if (i + 1 >= args.size())
            throw DriverError("flag " + flag + " needs a value");
        return args[++i];
    };
    auto parseU32 = [](const std::string &flag, const std::string &value,
                       std::uint32_t max) {
        driver::ParamMap map;
        map.set(flag, value);
        const std::uint32_t n = map.getU32(flag, 0);
        if (n > max)
            throw DriverError(flag + " must be in [0, " +
                              std::to_string(max) + "]");
        return n;
    };

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "--stdin") {
            opts.port = -1;
        } else if (arg == "--port") {
            opts.port = static_cast<int>(
                parseU32(arg, next(i, arg), 65535));
        } else if (arg == "--jobs" || arg == "-j") {
            opts.server.jobs = parseU32(arg, next(i, arg), 1024);
        } else if (arg == "--queue-depth") {
            opts.server.queueDepth =
                parseU32(arg, next(i, arg), 1u << 20);
        } else if (arg == "--conn-queue-depth") {
            opts.server.connQueueDepth =
                parseU32(arg, next(i, arg), 1u << 20);
            opts.connDepthSet = true;
        } else if (arg == "--max-connections") {
            opts.maxConnections = parseU32(arg, next(i, arg), 4096);
            if (opts.maxConnections == 0)
                throw DriverError(
                    "--max-connections must be at least 1");
        } else if (arg == "--request-timeout-ms") {
            opts.server.requestTimeoutMs =
                parseU32(arg, next(i, arg), 86400000u);
        } else if (arg == "--max-line-bytes") {
            opts.server.maxLineBytes =
                parseU32(arg, next(i, arg), 1u << 30);
        } else if (arg == "--list-failpoints") {
            opts.listFailpoints = true;
        } else if (arg == "--plan-dir") {
            opts.server.store.planDir = next(i, arg);
            if (opts.server.store.planDir.empty())
                throw DriverError("--plan-dir got an empty path");
        } else if (arg == "--help" || arg == "-h") {
            opts.help = true;
        } else {
            throw DriverError("unknown flag '" + arg +
                              "' (see --help)");
        }
    }
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    capMallocArenas(); // before the worker pool starts any thread
    try {
        ServeCliOptions opts = parseServeCli(
            std::vector<std::string>(argv + 1, argv + argc));
        // TCP mode defaults the per-connection quota on: that is the
        // fairness mechanism between simultaneous clients. The lone
        // stdin stream keeps the historical global-only bound.
        if (opts.port >= 0 && !opts.connDepthSet)
            opts.server.connQueueDepth = 32;
        if (opts.help) {
            std::cout << usageText();
            return 0;
        }
        if (opts.listFailpoints) {
            // Machine-readable worklist for tests/chaos.sh: the
            // sweep enumerates sites from the binary under test, so
            // a new site cannot be forgotten by the suite.
            for (const std::string_view site :
                 failpoint::knownSites())
                std::cout << site << "\n";
            return 0;
        }

        service::Server server(opts.server);
        const ServerRegistration registration(server);
        installSignalHandlers();

        std::optional<net::Listener> listener;
        if (opts.port >= 0)
            listener.emplace(opts.port, std::cerr);
        net::EventLoopOptions loop_opts;
        loop_opts.maxConnections = opts.maxConnections;
        net::EventLoop loop(server, listener ? &*listener : nullptr,
                            loop_opts, std::cerr);
        if (!listener)
            loop.adopt(STDIN_FILENO, STDOUT_FILENO);
        loop.run();
        return 0;
    } catch (const driver::DriverError &err) {
        std::cerr << "error: " << err.what() << "\n\n"
                  << "run 'graphr_serve --help' for usage\n";
        return 1;
    }
}
