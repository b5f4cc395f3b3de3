#include "line_buffer.hh"

#include <cstring>

namespace graphr::net
{

void
LineBuffer::append(const char *data, std::size_t n)
{
    std::size_t i = 0;
    while (i < n) {
        const void *nl = std::memchr(data + i, '\n', n - i);
        const std::size_t end =
            nl != nullptr
                ? static_cast<std::size_t>(
                      static_cast<const char *>(nl) - data)
                : n;
        const std::size_t len = end - i;
        if (discarding_) {
            // Oversized line in progress: keep consuming, keep
            // nothing.
        } else if (cap_ != 0 && partial_.size() + len > cap_) {
            discarding_ = true;
            partial_.clear();
            partial_.shrink_to_fit();
        } else {
            partial_.append(data + i, len);
        }
        if (nl == nullptr)
            break;
        if (discarding_) {
            complete_.push_back(Pending{true, {}});
            discarding_ = false;
        } else {
            complete_.push_back(Pending{false, std::move(partial_)});
            partial_.clear();
        }
        i = end + 1;
    }
}

void
LineBuffer::finish()
{
    if (discarding_) {
        complete_.push_back(Pending{true, {}});
        discarding_ = false;
    } else if (!partial_.empty()) {
        complete_.push_back(Pending{false, std::move(partial_)});
        partial_.clear();
    }
}

LineBuffer::Next
LineBuffer::pop(std::string &line)
{
    if (complete_.empty())
        return Next::kNone;
    Pending pending = std::move(complete_.front());
    complete_.pop_front();
    if (pending.oversized)
        return Next::kOversized;
    line = std::move(pending.text);
    return Next::kLine;
}

} // namespace graphr::net
