/**
 * @file
 * Compressed sparse rows built from a COO edge list.
 *
 * CompressedRows holds one row of entries per vertex and is built in
 * one counting pass and one stable scatter over the edges, so each
 * row keeps the edge-list order of its edges. The entry is what the
 * reader needs and nothing more: the relaxations of BFS and WCC read
 * neighbour ids only (4 B per edge), SSSP an id and a weight
 * together, golden PageRank the sources of each vertex's in-edges.
 * CsrGraph is the id-and-weight form by direction, for the golden
 * traversals and the examples. GraphR itself streams the ordered COO
 * list (paper Fig. 4 shows all three formats).
 */

#ifndef GRAPHR_GRAPH_CSR_HH
#define GRAPHR_GRAPH_CSR_HH

#include <span>
#include <vector>

#include "common/types.hh"
#include "graph/coo.hh"

namespace graphr
{

/** One adjacency entry: neighbour id plus edge weight. */
struct Adjacency
{
    VertexId neighbor = 0;
    Value weight = 1.0;
};

/**
 * One row of Entry per vertex: row v holds an entry for every edge
 * whose row key is v, in edge-list order.
 */
template <typename Entry>
class CompressedRows
{
  public:
    CompressedRows() = default;

    /**
     * Rows over @p num_vertices vertices: edge e becomes entry
     * @p entry(e) of row @p key(e). O(|V| + |E|): one pass counts the
     * rows, one scatters the entries.
     */
    template <typename Key, typename MakeEntry>
    CompressedRows(VertexId num_vertices, std::span<const Edge> edges,
                   Key key, MakeEntry entry)
        : numRows_(num_vertices)
    {
        build(
            [edges](const auto &visit) {
                for (const Edge &e : edges)
                    visit(e, 0);
            },
            key, entry);
    }

    /** The rows of the symmetrised graph, from the graph itself: the
     *  same rows, entry for entry, as over symmetrize(view.graph()). */
    template <typename Key, typename MakeEntry>
    CompressedRows(const SymmetrizedView &view, Key key, MakeEntry entry)
        : numRows_(view.numVertices())
    {
        build([&view](const auto &visit) { view.forEachEdge(visit); },
              key, entry);
    }

    VertexId numRows() const { return numRows_; }

    /** Entries in all rows. */
    EdgeId numEntries() const { return entries_.size(); }

    /** Row @p v's entries, in edge-list order. */
    std::span<const Entry>
    row(VertexId v) const
    {
        return std::span<const Entry>(entries_.data() + offsets_[v],
                                      entries_.data() + offsets_[v + 1]);
    }

    /** Entries in row @p v. */
    EdgeId
    degree(VertexId v) const
    {
        return offsets_[v + 1] - offsets_[v];
    }

    /** Row offsets (|V|+1 entries): row v is entries
     *  [offsets()[v], offsets()[v + 1]). */
    std::span<const EdgeId> offsets() const { return offsets_; }

    /** Entry @p i of all rows in row order. */
    const Entry &entry(EdgeId i) const { return entries_[i]; }

  private:
    /** Count and scatter the edges @p for_each_edge visits as
     *  (edge, origin), in order. */
    template <typename ForEachEdge, typename Key, typename MakeEntry>
    void
    build(ForEachEdge for_each_edge, Key key, MakeEntry entry)
    {
        // Row v counts into offsets_[v + 2], so after the prefix sum
        // offsets_[v + 1] is where row v starts; the scatter advances
        // it to where row v ends, which is offsets_[v + 1]'s final
        // value. No separate cursor array is needed.
        offsets_.assign(static_cast<std::size_t>(numRows_) + 2, 0);
        for_each_edge([this, &key](const Edge &e, std::uint64_t) {
            ++offsets_[static_cast<std::size_t>(key(e)) + 2];
        });
        for (std::size_t i = 2; i < offsets_.size(); ++i)
            offsets_[i] += offsets_[i - 1];
        entries_.resize(offsets_.back());
        for_each_edge([this, &key, &entry](const Edge &e, std::uint64_t) {
            entries_[offsets_[static_cast<std::size_t>(key(e)) + 1]++] =
                entry(e);
        });
        offsets_.pop_back();
    }

    VertexId numRows_ = 0;
    std::vector<EdgeId> offsets_;
    std::vector<Entry> entries_;
};

/**
 * Compressed sparse adjacency. Direction determines whether rows are
 * sources (CSR, out-edges) or destinations (CSC, in-edges).
 */
class CsrGraph
{
  public:
    enum class Direction { kOut, kIn };

    CsrGraph() = default;

    /** Build from a COO graph in O(|V| + |E|). */
    CsrGraph(const CooGraph &coo, Direction dir);

    VertexId numVertices() const { return rows_.numRows(); }
    EdgeId numEdges() const { return rows_.numEntries(); }
    Direction direction() const { return dir_; }

    /** Neighbours of vertex v (out- or in-neighbours per direction). */
    std::span<const Adjacency>
    neighbors(VertexId v) const
    {
        return rows_.row(v);
    }

    /** Degree of vertex v in this direction. */
    EdgeId degree(VertexId v) const { return rows_.degree(v); }

    /** Row offset array (|V|+1 entries). */
    std::span<const EdgeId> offsets() const { return rows_.offsets(); }

  private:
    Direction dir_ = Direction::kOut;
    CompressedRows<Adjacency> rows_;
};

} // namespace graphr

#endif // GRAPHR_GRAPH_CSR_HH
