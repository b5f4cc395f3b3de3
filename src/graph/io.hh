/**
 * @file
 * Graph serialisation: text edge lists (SNAP-compatible) and a
 * compact binary format.
 *
 * The paper's out-of-core workflow (Fig. 9) stores the preprocessed
 * edge list on disk and streams it block by block; these loaders are
 * the software side of that workflow and let users bring their own
 * graphs (e.g. real SNAP downloads) instead of the synthetic
 * stand-ins.
 */

#ifndef GRAPHR_GRAPH_IO_HH
#define GRAPHR_GRAPH_IO_HH

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "graph/coo.hh"

namespace graphr
{

/** A graph file that cannot be opened, is malformed, or names an
 *  edge outside its vertex range. */
class GraphIoError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Write "src dst weight" lines. Lines starting with '#' are comments
 * (SNAP convention); a header comment records the vertex count.
 */
void saveEdgeListText(const CooGraph &graph, std::ostream &os);
void saveEdgeListText(const CooGraph &graph, const std::string &path);

/**
 * Parse a text edge list. Accepts 2-column (unweighted, weight = 1)
 * and 3-column lines; skips blank lines and '#' comments. The vertex
 * count is max id + 1 unless a "# vertices: N" header is present.
 * Throws GraphIoError for an unopenable file, a malformed line or
 * weight, a negative or NaN weight, or an id that does not fit a
 * VertexId.
 */
CooGraph loadEdgeListText(std::istream &is);
CooGraph loadEdgeListText(const std::string &path);

/**
 * Binary format: magic "GRPH" + u32 version + u32 vertex count +
 * u64 edge count, then packed records of (u32 src, u32 dst,
 * f64 weight). Round-trips exactly. Loading throws GraphIoError for
 * a bad header, a truncated file, an endpoint >= the vertex count or
 * a negative or NaN weight.
 */
void saveBinary(const CooGraph &graph, std::ostream &os);
void saveBinary(const CooGraph &graph, const std::string &path);
CooGraph loadBinary(std::istream &is);
CooGraph loadBinary(const std::string &path);

} // namespace graphr

#endif // GRAPHR_GRAPH_IO_HH
