#include "client.hh"

#include <cerrno>
#include <cstring>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

namespace graphr::client
{

Client::Client(int port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throw ClientError("cannot create socket: " +
                          std::string(std::strerror(errno)));
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        const std::string what = std::strerror(errno);
        ::close(fd);
        throw ClientError("cannot connect to 127.0.0.1:" +
                          std::to_string(port) + ": " + what);
    }
    fd_ = fd;
}

Client::~Client()
{
    if (fd_ >= 0)
        ::close(fd_);
}

Client::Client(Client &&other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      buffer_(std::move(other.buffer_)),
      start_(std::exchange(other.start_, 0))
{
}

Client &
Client::operator=(Client &&other) noexcept
{
    if (this != &other) {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = std::exchange(other.fd_, -1);
        buffer_ = std::move(other.buffer_);
        start_ = std::exchange(other.start_, 0);
    }
    return *this;
}

void
Client::setRecvTimeoutMs(int ms)
{
    timeval tv = {};
    tv.tv_sec = ms / 1000;
    tv.tv_usec = (ms % 1000) * 1000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

void
Client::sendLine(const std::string &line)
{
    std::string framed = line;
    framed.push_back('\n');
    std::size_t off = 0;
    while (off < framed.size()) {
        const ssize_t n =
            ::send(fd_, framed.data() + off, framed.size() - off,
                   MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw ClientError("send failed: " +
                              std::string(std::strerror(errno)));
        }
        off += static_cast<std::size_t>(n);
    }
}

std::string
Client::recvLine()
{
    for (;;) {
        const std::size_t nl = buffer_.find('\n', start_);
        if (nl != std::string::npos) {
            std::string line = buffer_.substr(start_, nl - start_);
            start_ = nl + 1;
            // Compact once the consumed prefix dominates, so a
            // long-lived connection does not accrete every response
            // it ever read.
            if (start_ > 4096 && start_ * 2 > buffer_.size()) {
                buffer_.erase(0, start_);
                start_ = 0;
            }
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            return line;
        }
        char chunk[16 * 1024];
        const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n > 0) {
            buffer_.append(chunk, static_cast<std::size_t>(n));
            continue;
        }
        if (n == 0) {
            throw ClientError(
                "connection closed by daemon before a full "
                "response line");
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            throw ClientError("receive timed out");
        throw ClientError("recv failed: " +
                          std::string(std::strerror(errno)));
    }
}

std::string
Client::request(const std::string &line)
{
    sendLine(line);
    return recvLine();
}

} // namespace graphr::client
