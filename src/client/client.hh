/**
 * @file
 * Blocking JSONL client for graphr_serve's TCP mode.
 *
 * A Client is one connection: connect in the constructor, sendLine()
 * requests, recvLine() the admission-ordered responses. The read side
 * is buffered (a recv can return several responses, or half of one),
 * and an optional receive timeout turns a wedged daemon into a
 * ClientError instead of a hang. Deliberately dependency-light — it
 * links only libc — so anything in the tree (tests, the perf suite,
 * the benchmark) can drive a daemon without pulling the service
 * layer in.
 *
 * Pipelining is the caller's choice: sendLine() N times then
 * recvLine() N times works, because the daemon answers each
 * connection in that connection's admission order.
 */

#ifndef GRAPHR_CLIENT_CLIENT_HH
#define GRAPHR_CLIENT_CLIENT_HH

#include <cstddef>
#include <stdexcept>
#include <string>

namespace graphr::client
{

/** Connection, send or receive failure (message says which). */
class ClientError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** One blocking JSONL connection to a graphr_serve daemon. */
class Client
{
  public:
    /** Connect to 127.0.0.1:@p port; throws ClientError on refusal. */
    explicit Client(int port);

    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;
    Client(Client &&other) noexcept;
    Client &operator=(Client &&other) noexcept;

    /**
     * Bound every subsequent recvLine() to @p ms milliseconds
     * (0 = wait forever, the default). Expiry throws ClientError.
     */
    void setRecvTimeoutMs(int ms);

    /** Send one request line (the trailing newline is added). */
    void sendLine(const std::string &line);

    /**
     * The next response line (newline stripped). Throws ClientError
     * on EOF with no buffered line, on a receive timeout, or on a
     * socket error.
     */
    std::string recvLine();

    /** sendLine + recvLine — the one-shot convenience. */
    std::string request(const std::string &line);

  private:
    int fd_ = -1;
    std::string buffer_;   ///< received, not yet returned
    std::size_t start_ = 0; ///< first unconsumed byte in buffer_
};

} // namespace graphr::client

#endif // GRAPHR_CLIENT_CLIENT_HH
