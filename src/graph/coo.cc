#include "coo.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/checksum.hh"
#include "common/logging.hh"
#include "graph/graph_memo.hh"

namespace graphr
{

CooGraph::CooGraph(VertexId num_vertices, std::vector<Edge> edges)
    : numVertices_(num_vertices), edges_(std::move(edges))
{
    for (const Edge &e : edges_) {
        GRAPHR_ASSERT(e.src < numVertices_ && e.dst < numVertices_,
                      "edge (", e.src, ",", e.dst, ") out of range for |V|=",
                      numVertices_);
    }
}

void
CooGraph::addEdge(VertexId src, VertexId dst, Value weight)
{
    GRAPHR_ASSERT(src < numVertices_ && dst < numVertices_,
                  "edge (", src, ",", dst, ") out of range for |V|=",
                  numVertices_);
    edges_.push_back(Edge{src, dst, weight});
    memo_.reset();
}

void
CooGraph::sortBySource()
{
    std::sort(edges_.begin(), edges_.end(),
              [](const Edge &a, const Edge &b) {
                  return a.src != b.src ? a.src < b.src : a.dst < b.dst;
              });
    memo_.reset();
}

void
CooGraph::dedupe()
{
    sortBySource();
    auto last = std::unique(edges_.begin(), edges_.end(),
                            [](const Edge &a, const Edge &b) {
                                return a.src == b.src && a.dst == b.dst;
                            });
    edges_.erase(last, edges_.end());
    memo_.reset();
}

void
CooGraph::removeSelfLoops()
{
    auto last = std::remove_if(edges_.begin(), edges_.end(),
                               [](const Edge &e) { return e.src == e.dst; });
    edges_.erase(last, edges_.end());
    memo_.reset();
}

std::vector<EdgeId>
CooGraph::outDegrees() const
{
    std::vector<EdgeId> deg(numVertices_, 0);
    for (const Edge &e : edges_)
        ++deg[e.src];
    return deg;
}

std::vector<EdgeId>
CooGraph::inDegrees() const
{
    std::vector<EdgeId> deg(numVertices_, 0);
    for (const Edge &e : edges_)
        ++deg[e.dst];
    return deg;
}

double
CooGraph::density() const
{
    if (numVertices_ == 0)
        return 0.0;
    const double nv = static_cast<double>(numVertices_);
    return static_cast<double>(numEdges()) / (nv * nv);
}

std::uint64_t
CooGraph::fingerprint() const
{
    // The edge records are hashed as they lie in memory: src and dst
    // as 32-bit words, then the weight's bits, with no padding.
    static_assert(sizeof(Edge) == 2 * sizeof(VertexId) + sizeof(Value) &&
                      std::endian::native == std::endian::little,
                  "the fingerprint hashes edges as little-endian records");
    return memo()->fingerprint([this] {
        Xxh64 h;
        h.updateWord(numVertices_);
        h.updateWord(numEdges());
        h.update(edges_.data(), edges_.size() * sizeof(Edge));
        return h.digest();
    });
}

CooGraph::MemoSlot &
CooGraph::MemoSlot::operator=(const MemoSlot &other)
{
    std::shared_ptr<GraphMemo> memo = other.peek();
    const std::lock_guard<std::mutex> lock(mutex_);
    memo_ = std::move(memo);
    return *this;
}

CooGraph::MemoSlot &
CooGraph::MemoSlot::operator=(MemoSlot &&other) noexcept
{
    std::shared_ptr<GraphMemo> memo = other.take();
    const std::lock_guard<std::mutex> lock(mutex_);
    memo_ = std::move(memo);
    return *this;
}

std::shared_ptr<GraphMemo>
CooGraph::MemoSlot::get() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!memo_)
        memo_ = std::make_shared<GraphMemo>();
    return memo_;
}

std::shared_ptr<GraphMemo>
CooGraph::MemoSlot::peek() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return memo_;
}

std::shared_ptr<GraphMemo>
CooGraph::MemoSlot::take()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(memo_, nullptr);
}

} // namespace graphr
