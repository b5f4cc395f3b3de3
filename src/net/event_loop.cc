#include "event_loop.hh"

#include <cerrno>
#include <cstring>
#include <string>

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include "common/failpoint.hh"
#include "driver/driver.hh"
#include "perf/counters.hh"

namespace graphr::net
{

namespace
{

/** One transparently retried transient write or read fault (EINTR,
 *  an injected short write). */
void
noteServeRetry()
{
    static perf::Counter &retries =
        perf::Registry::instance().counter("serve.retries");
    retries.add();
}

/** Strip surrounding whitespace (JSONL lines may end in \r). */
std::string
trimmed(const std::string &line)
{
    std::size_t first = 0;
    std::size_t last = line.size();
    while (first < last &&
           (line[first] == ' ' || line[first] == '\t'))
        ++first;
    while (last > first &&
           (line[last - 1] == ' ' || line[last - 1] == '\t' ||
            line[last - 1] == '\r' || line[last - 1] == '\n'))
        --last;
    return line.substr(first, last - first);
}

} // namespace

/**
 * One established client connection. The loop thread owns everything
 * except `inbox`, which worker threads append responses to under the
 * loop mutex (the session sink); flushConnection() splices it into
 * the loop-owned send buffer before writing.
 */
struct EventLoop::Connection
{
    int readFd = -1;
    int writeFd = -1; ///< == readFd for a socket (polled twice)
    /** Adopted fds' flags before adopt(), restored by release();
     *  -1 for an accepted socket, which the loop owns and closes. */
    int readFlags = -1;
    int writeFlags = -1;
    service::Server::SessionPtr session;
    LineBuffer lines;
    /** Sink-delivered response bytes (guarded by EventLoop::mutex_). */
    std::string inbox;
    /** Bytes being written to the socket (loop thread only). */
    std::string sendBuf;
    std::size_t sendOff = 0;
    /** No more reads (EOF, stop, or fault); close once drained. */
    bool closing = false;
    /** Torn down (fault or fully drained); reap will erase it. */
    bool dead = false;

    explicit Connection(std::size_t maxLineBytes)
        : lines(maxLineBytes)
    {
    }
};

EventLoop::EventLoop(service::Server &server, Listener *listener,
                     const EventLoopOptions &options,
                     std::ostream &log)
    : server_(server), listener_(listener), options_(options),
      log_(log)
{
    int fds[2] = {-1, -1};
    if (::pipe(fds) != 0) {
        throw driver::DriverError(
            "cannot create event-loop wake pipe: " +
            std::string(std::strerror(errno)));
    }
    for (const int fd : fds) {
        const int flags = ::fcntl(fd, F_GETFL, 0);
        if (flags >= 0)
            ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    }
    wakeRead_ = fds[0];
    wakeWrite_ = fds[1];
}

EventLoop::~EventLoop()
{
    for (const std::unique_ptr<Connection> &conn : conns_) {
        if (conn->readFd >= 0)
            release(*conn);
    }
    ::close(wakeRead_);
    ::close(wakeWrite_);
}

void
EventLoop::adopt(int readFd, int writeFd)
{
    auto conn = std::make_unique<Connection>(server_.maxLineBytes());
    conn->readFlags = ::fcntl(readFd, F_GETFL, 0);
    conn->writeFlags = ::fcntl(writeFd, F_GETFL, 0);
    if (conn->readFlags < 0 || conn->writeFlags < 0) {
        throw driver::DriverError(
            "cannot serve fds " + std::to_string(readFd) + "/" +
            std::to_string(writeFd) + ": " + std::strerror(errno));
    }
    conn->readFd = readFd;
    conn->writeFd = writeFd;
    ::fcntl(readFd, F_SETFL, conn->readFlags | O_NONBLOCK);
    ::fcntl(writeFd, F_SETFL, conn->writeFlags | O_NONBLOCK);
    addConnection(std::move(conn));
}

void
EventLoop::wake()
{
    const char byte = 'w';
    // A full pipe already guarantees a pending wake-up; EAGAIN (and
    // any other failure) is therefore ignorable.
    [[maybe_unused]] const ssize_t n =
        ::write(wakeWrite_, &byte, 1);
}

EventLoopStats
EventLoop::stats() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void
EventLoop::run()
{
    std::vector<pollfd> fds;
    std::vector<Connection *> owner; // fds[i] -> its connection
    while (true) {
        if (!stopping_ && server_.stopRequested()) {
            stopping_ = true;
            // The SIGTERM contract: stop accepting the moment the
            // signal lands, finish what is in flight. Closing the
            // listen fd here is the "stop accepting" half; connected
            // clients keep their already-framed lines.
            if (listener_ != nullptr)
                listener_->close();
            for (const std::unique_ptr<Connection> &conn : conns_)
                conn->closing = true;
        }

        reapFinished();
        if ((stopping_ || listener_ == nullptr) && conns_.empty())
            return;

        fds.clear();
        owner.clear();
        fds.push_back(pollfd{wakeRead_, POLLIN, 0});
        owner.push_back(nullptr);
        const bool acceptable = !stopping_ && listener_ != nullptr &&
                                !listener_->closed() &&
                                conns_.size() <
                                    options_.maxConnections;
        if (acceptable) {
            fds.push_back(pollfd{listener_->fd(), POLLIN, 0});
            owner.push_back(nullptr);
        }
        for (const std::unique_ptr<Connection> &conn : conns_) {
            bool wantRead = !conn->closing;
            std::size_t queued = 0;
            {
                const std::lock_guard<std::mutex> lock(mutex_);
                queued = conn->inbox.size();
            }
            queued += conn->sendBuf.size() - conn->sendOff;
            // Socket-level backpressure: a client that floods
            // requests or stops draining responses accumulates bytes
            // in its kernel buffers, not in the daemon.
            if (conn->lines.pendingLines() >=
                    options_.maxPendingLines ||
                queued >= options_.maxOutboundBytes)
                wantRead = false;
            // The read end is polled only while reads are wanted: a
            // hung-up pipe reports POLLHUP whatever events are
            // requested, so an adopted stdin at EOF would spin the
            // loop. The write end is always polled — with no events
            // it still reports POLLERR, which is how a client that
            // went away while backpressured is noticed.
            if (wantRead) {
                fds.push_back(pollfd{conn->readFd, POLLIN, 0});
                owner.push_back(conn.get());
            }
            fds.push_back(pollfd{
                conn->writeFd, static_cast<short>(queued > 0 ? POLLOUT : 0),
                0});
            owner.push_back(conn.get());
        }

        // A signal that lands outside poll() still stops the loop
        // within one 500 ms tick.
        const int ready =
            ::poll(fds.data(),
                   static_cast<nfds_t>(fds.size()), 500);
        if (ready < 0 && errno != EINTR) {
            log_ << "event loop poll failed: "
                 << std::strerror(errno) << "\n"
                 << std::flush;
            return;
        }

        if (ready > 0 && (fds[0].revents & POLLIN) != 0) {
            char buf[256];
            while (::read(wakeRead_, buf, sizeof(buf)) > 0) {
            }
        }
        if (acceptable && (fds[1].revents & POLLIN) != 0)
            acceptPending();

        for (std::size_t i = 0; i < fds.size(); ++i) {
            Connection *conn = owner[i];
            if (conn == nullptr || conn->dead)
                continue;
            if ((fds[i].revents & (POLLERR | POLLNVAL)) != 0) {
                teardown(*conn, "socket error");
                continue;
            }
            if ((fds[i].events & POLLIN) != 0 &&
                (fds[i].revents & (POLLIN | POLLHUP)) != 0)
                readConnection(*conn);
        }

        dispatchLines();

        for (const std::unique_ptr<Connection> &conn : conns_) {
            if (!conn->dead)
                flushConnection(*conn);
        }
    }
}

void
EventLoop::acceptPending()
{
    while (conns_.size() < options_.maxConnections) {
        const int fd = listener_->acceptClient(log_);
        if (fd < 0)
            return;
        auto conn =
            std::make_unique<Connection>(server_.maxLineBytes());
        conn->readFd = fd;
        conn->writeFd = fd;
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.accepted;
        }
        addConnection(std::move(conn));
    }
}

void
EventLoop::addConnection(std::unique_ptr<Connection> conn)
{
    Connection *raw = conn.get();
    // The sink runs on worker threads under the server mutex: append
    // the response bytes under the loop mutex and nudge poll().
    // Server::closeSession() drops the sink before the Connection is
    // ever destroyed, so `raw` cannot dangle.
    conn->session =
        server_.openSession([this, raw](std::string &&line) {
            {
                const std::lock_guard<std::mutex> lock(mutex_);
                raw->inbox.append(line);
                raw->inbox.push_back('\n');
            }
            wake();
        });
    conns_.push_back(std::move(conn));
}

void
EventLoop::readConnection(Connection &conn)
{
    // One recv per connection per poll pass: fairness starts at the
    // socket — a fast talker cannot monopolise the loop, it gets one
    // buffer's worth per pass like everyone else.
    char buf[64 * 1024];
    if (GRAPHR_FAILPOINT("net.conn.read.fail")) {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.readFaults;
        }
        teardown(conn, "read failed (injected fault)");
        return;
    }
    const ssize_t n = ::read(conn.readFd, buf, sizeof(buf));
    if (n > 0) {
        conn.lines.append(buf, static_cast<std::size_t>(n));
        return;
    }
    if (n == 0) {
        // Clean EOF: a trailing newline-less request still gets an
        // answer; the connection closes once everything drains.
        conn.lines.finish();
        conn.closing = true;
        return;
    }
    if (errno == EINTR) {
        noteServeRetry();
        return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK)
        return;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.readFaults;
    }
    teardown(conn, std::strerror(errno));
}

void
EventLoop::dispatchLines()
{
    if (conns_.empty())
        return;
    // Round-robin, one line per connection per pass: admission order
    // interleaves across connections no matter how many requests one
    // of them has buffered up. The cursor rotates the starting
    // connection between cycles so ties do not always break the same
    // way.
    cursor_ = (cursor_ + 1) % conns_.size();
    bool dispatched = true;
    while (dispatched) {
        dispatched = false;
        const std::size_t count = conns_.size();
        for (std::size_t k = 0; k < count; ++k) {
            Connection &conn = *conns_[(cursor_ + k) % count];
            if (conn.dead || conn.lines.pendingLines() == 0 ||
                !server_.acceptsLine(*conn.session))
                continue;
            std::string line;
            switch (conn.lines.pop(line)) {
            case LineBuffer::Next::kNone:
                continue;
            case LineBuffer::Next::kOversized:
                server_.handleOversizedLine(conn.session);
                break;
            case LineBuffer::Next::kLine: {
                const std::string request = trimmed(line);
                if (!request.empty())
                    server_.handleLine(conn.session, request);
                break;
            }
            }
            dispatched = true;
        }
    }
}

void
EventLoop::flushConnection(Connection &conn)
{
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (!conn.inbox.empty()) {
            conn.sendBuf.append(conn.inbox);
            conn.inbox.clear();
        }
    }
    while (conn.sendOff < conn.sendBuf.size()) {
        if (GRAPHR_FAILPOINT("net.conn.write.fail")) {
            {
                const std::lock_guard<std::mutex> lock(mutex_);
                ++stats_.writeFaults;
            }
            teardown(conn, "write failed (injected fault)");
            return;
        }
        std::size_t len = conn.sendBuf.size() - conn.sendOff;
        if (len > 1 && GRAPHR_FAILPOINT("net.conn.write.short")) {
            len = 1; // deterministic short write; the loop resumes
            noteServeRetry();
        }
        const ssize_t n =
            ::write(conn.writeFd, conn.sendBuf.data() + conn.sendOff,
                    len);
        if (n > 0) {
            conn.sendOff += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            // After stop, a client that is not draining is not
            // waited on; until then POLLOUT resumes the write. The
            // flag is read directly: this pass may have been woken by
            // the stop itself, before run() has seen it.
            if (server_.stopRequested())
                teardown(conn, "not draining at shutdown");
            return;
        }
        if (n < 0 && errno == EINTR) {
            noteServeRetry();
            continue;
        }
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.writeFaults;
        }
        teardown(conn, std::strerror(errno));
        return;
    }
    conn.sendBuf.clear();
    conn.sendOff = 0;
}

void
EventLoop::teardown(Connection &conn, const char *why)
{
    log_ << "connection " << conn.session->id() << " closed: " << why
         << "\n"
         << std::flush;
    // closeSession drops the sink under the server mutex: after it
    // returns no worker can touch this connection's inbox again, so
    // marking it dead (reaped next cycle) is safe. In-flight requests
    // still finish — their responses are counted and discarded.
    server_.closeSession(conn.session);
    release(conn);
    conn.closing = true;
    conn.dead = true;
}

void
EventLoop::release(Connection &conn)
{
    if (conn.readFlags < 0) {
        ::close(conn.readFd);
    } else {
        ::fcntl(conn.readFd, F_SETFL, conn.readFlags);
        ::fcntl(conn.writeFd, F_SETFL, conn.writeFlags);
    }
    conn.readFd = -1;
    conn.writeFd = -1;
}

void
EventLoop::reapFinished()
{
    for (std::size_t i = 0; i < conns_.size();) {
        Connection &conn = *conns_[i];
        if (!conn.dead && conn.closing &&
            conn.lines.pendingLines() == 0 &&
            server_.sessionBacklog(*conn.session) == 0) {
            bool drained = false;
            {
                const std::lock_guard<std::mutex> lock(mutex_);
                drained = conn.inbox.empty();
            }
            if (drained && conn.sendOff == conn.sendBuf.size()) {
                server_.closeSession(conn.session);
                release(conn);
                conn.dead = true;
            }
        }
        if (conn.dead) {
            conns_.erase(conns_.begin() +
                         static_cast<std::ptrdiff_t>(i));
        } else {
            ++i;
        }
    }
    if (cursor_ >= conns_.size())
        cursor_ = 0;
}

} // namespace graphr::net
