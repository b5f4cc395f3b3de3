/**
 * @file
 * The multi-client connection layer of graphr_serve.
 *
 * One EventLoop thread multiplexes the listening socket and up to
 * maxConnections established client connections with poll(2);
 * graphr_serve --stdin runs the same loop with no listener and one
 * adopted connection over fds 0/1. Each connection owns a LineBuffer
 * (bounded-memory JSONL framing, capped at the server's
 * maxLineBytes()) and one service::Server Session; the loop frames
 * lines, dispatches them round-robin — one line per connection per
 * pass, so a connection that arrived with a hundred buffered requests
 * cannot get them all admitted before its siblings get one — and
 * ships the Session's admission-ordered responses back out through a
 * per-connection outbound buffer.
 *
 * Threading: run() owns all connection state and is the only caller
 * of connection I/O syscalls. Worker threads deliver responses
 * through each session's sink, which appends to the connection's
 * inbox under the loop mutex and wakes the loop via a self-pipe — the
 * loop thread never blocks on a connection and workers never touch
 * one.
 *
 * Backpressure is applied at the socket: a connection whose client
 * stops draining responses (outbound bytes beyond the cap) or whose
 * framed-line backlog is full stops being polled for reads; bytes
 * queue in the kernel and eventually in the client, not in the
 * daemon. A connection is dispatched no line while
 * Server::acceptsLine() refuses it (its reorder buffer holds more
 * than --queue-depth responses behind a slow request), so its framed
 * backlog fills and its reads stop too. Admission-level overload
 * (queue depths) is the Server's job and arrives as structured
 * rejections, not as blocking.
 *
 * Shutdown (SIGTERM/SIGINT -> Server::requestStop): the listener
 * closes at receipt — stop accepting — established connections
 * dispatch the complete lines they have already framed, in-flight
 * requests finish and flush, then each connection closes and run()
 * returns. An unterminated trailing fragment is dropped. A connection
 * whose pending output cannot be written at once is torn down
 * instead of waited on: a client that stopped reading cannot hold
 * the daemon past its stop.
 *
 * Fault injection: net.accept.fail (transient, listener),
 * net.conn.write.short (transient: one write transfers a single
 * byte and the loop resumes it, counted in serve.retries), and
 * net.conn.read.fail / net.conn.write.fail (fatal for that one
 * connection: it is closed cleanly, its in-flight work completes and
 * is discarded, and sibling connections are untouched — the chaos
 * suite asserts their streams stay byte-identical).
 */

#ifndef GRAPHR_NET_EVENT_LOOP_HH
#define GRAPHR_NET_EVENT_LOOP_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

#include "net/line_buffer.hh"
#include "net/listener.hh"
#include "service/server.hh"

namespace graphr::net
{

struct EventLoopOptions
{
    /** Simultaneous established connections; beyond this the
     *  listener is simply not polled, so extra clients wait in the
     *  kernel backlog instead of being turned away. */
    std::size_t maxConnections = 64;
    /** Stop reading a connection whose un-sent response bytes exceed
     *  this — the client is not draining. */
    std::size_t maxOutboundBytes = 1 << 20;
    /** Stop reading a connection holding this many framed,
     *  not-yet-dispatched lines. */
    std::size_t maxPendingLines = 256;
};

/** Counters the loop keeps about its own lifetime (fault-free runs
 *  leave the fault counters at zero). */
struct EventLoopStats
{
    std::uint64_t accepted = 0;    ///< connections accepted
    std::uint64_t readFaults = 0;  ///< connections torn down on read
    std::uint64_t writeFaults = 0; ///< connections torn down on write
};

/** One poll(2) loop serving many connections over one Server. */
class EventLoop
{
  public:
    /** @p listener may be null: the loop then serves only adopted
     *  connections. @p log receives accept/teardown diagnostics
     *  (stderr in the daemon). Throws driver::DriverError if the
     *  self-pipe cannot be created. */
    EventLoop(service::Server &server, Listener *listener,
              const EventLoopOptions &options, std::ostream &log);

    ~EventLoop();

    EventLoop(const EventLoop &) = delete;
    EventLoop &operator=(const EventLoop &) = delete;

    /**
     * Serve one more connection that reads requests from @p readFd
     * and writes responses to @p writeFd (graphr_serve --stdin adopts
     * 0 and 1). The caller keeps ownership: the fds are non-blocking
     * while served and get their original flags back when the
     * connection closes, but are never closed. Call before run().
     * Throws driver::DriverError for an fd that is not open.
     */
    void adopt(int readFd, int writeFd);

    /**
     * Serve until every connection has drained and closed — after the
     * server's stop flag is set or, with no listener, once the
     * adopted connections reach EOF. Call from exactly one thread;
     * wake() is the only other entry point that is safe concurrently.
     */
    void run();

    /** Nudge a run() blocked in poll() (self-pipe write; safe from
     *  any thread, including under the server mutex). */
    void wake();

    EventLoopStats stats() const;

  private:
    struct Connection;

    void acceptPending();
    /** Open a session for a new connection and start serving it. */
    void addConnection(std::unique_ptr<Connection> conn);
    /** Read every readable connection (one recv per connection per
     *  pass — fairness starts at the socket). */
    void readConnection(Connection &conn);
    /** Round-robin dispatch: one framed line per live connection per
     *  pass until every backlog is empty. */
    void dispatchLines();
    /** Move sink-delivered bytes into the send buffer and write what
     *  the socket accepts. */
    void flushConnection(Connection &conn);
    void teardown(Connection &conn, const char *why);
    /** Close an accepted socket, or hand adopted fds back with their
     *  original flags. */
    void release(Connection &conn);
    void reapFinished();

    service::Server &server_;
    Listener *listener_; ///< null: adopted connections only
    EventLoopOptions options_;
    std::ostream &log_;

    int wakeRead_ = -1;  ///< self-pipe read end (polled)
    int wakeWrite_ = -1; ///< self-pipe write end (wake() target)

    std::vector<std::unique_ptr<Connection>> conns_;
    std::size_t cursor_ = 0; ///< round-robin dispatch start
    bool stopping_ = false;

    mutable std::mutex mutex_; ///< guards inbox bytes and stats_
    EventLoopStats stats_;
};

} // namespace graphr::net

#endif // GRAPHR_NET_EVENT_LOOP_HH
