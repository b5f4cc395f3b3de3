/**
 * @file
 * The test driver for graphr_serve's stdin path: request text in,
 * response text out, through the same EventLoop connection the daemon
 * serves fds 0/1 with.
 */

#ifndef GRAPHR_TESTS_SERVE_TEXT_HH
#define GRAPHR_TESTS_SERVE_TEXT_HH

#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "net/event_loop.hh"
#include "service/server.hh"

namespace graphr
{

/**
 * Serve @p input as one `graphr_serve --stdin` session of @p server and
 * return everything it wrote back. The loop adopts two tmpfile() fds,
 * so it runs on the calling thread: a file read never blocks and a
 * file write never fills.
 */
inline std::string
serveText(service::Server &server, const std::string &input)
{
    using File = std::unique_ptr<std::FILE, int (*)(std::FILE *)>;
    const File in(std::tmpfile(), &std::fclose);
    const File out(std::tmpfile(), &std::fclose);
    if (!in || !out)
        throw std::runtime_error("serveText: tmpfile() failed");
    if (std::fwrite(input.data(), 1, input.size(), in.get()) !=
            input.size() ||
        std::fflush(in.get()) != 0 ||
        ::lseek(::fileno(in.get()), 0, SEEK_SET) != 0)
        throw std::runtime_error("serveText: cannot stage the input");

    std::ostringstream log;
    net::EventLoop loop(server, nullptr, {}, log);
    loop.adopt(::fileno(in.get()), ::fileno(out.get()));
    loop.run();

    std::string text;
    char buf[4096];
    ssize_t n = 0;
    while ((n = ::pread(::fileno(out.get()), buf, sizeof(buf),
                        static_cast<off_t>(text.size()))) > 0)
        text.append(buf, static_cast<std::size_t>(n));
    return text;
}

/** serveText() on a fresh Server built from @p options. */
inline std::string
serveText(const std::string &input,
          const service::ServeOptions &options = {})
{
    service::Server server(options);
    return serveText(server, input);
}

/** Split response text into lines (each one JSON object). */
inline std::vector<std::string>
lines(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line))
        out.push_back(line);
    return out;
}

} // namespace graphr

#endif // GRAPHR_TESTS_SERVE_TEXT_HH
