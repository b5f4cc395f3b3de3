/**
 * @file
 * Incremental JSONL framing with bounded memory.
 *
 * The event loop reads whatever bytes a connection has and feeds
 * them in here; LineBuffer cuts them into complete lines. A line
 * longer than the cap is consumed and discarded — memory stays
 * bounded at the cap — and surfaces as one kOversized event so the
 * server can answer it with a structured error instead of buffering
 * a hostile request without limit.
 */

#ifndef GRAPHR_NET_LINE_BUFFER_HH
#define GRAPHR_NET_LINE_BUFFER_HH

#include <cstddef>
#include <deque>
#include <string>

namespace graphr::net
{

/** Byte stream -> line stream, one instance per connection. */
class LineBuffer
{
  public:
    /** @param maxLineBytes longest accepted line (0 = unlimited). */
    explicit LineBuffer(std::size_t maxLineBytes)
        : cap_(maxLineBytes)
    {
    }

    /** Feed @p n raw bytes from the connection. */
    void append(const char *data, std::size_t n);

    /**
     * Input hit clean EOF: promote a trailing newline-less fragment
     * to a line (a client that wrote its last request without a final
     * newline and closed still gets an answer). Do not call on the
     * stop-flag path — an unterminated fragment there is half a
     * request the client never finished.
     */
    void finish();

    enum class Next
    {
        kNone,      ///< no complete line buffered
        kLine,      ///< @p line holds the next complete line
        kOversized, ///< next line exceeded the cap (bytes discarded)
    };

    /** Pop the next framed line in arrival order. */
    Next pop(std::string &line);

    /** Complete lines framed and not yet popped. */
    std::size_t pendingLines() const { return complete_.size(); }

  private:
    struct Pending
    {
        bool oversized = false;
        std::string text;
    };

    std::size_t cap_;
    std::string partial_;     ///< bytes of the line in progress
    bool discarding_ = false; ///< line in progress exceeded cap_
    std::deque<Pending> complete_;
};

} // namespace graphr::net

#endif // GRAPHR_NET_LINE_BUFFER_HH
