#include "io.hh"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

namespace graphr
{

namespace
{

constexpr std::array<char, 4> kMagic = {'G', 'R', 'P', 'H'};
constexpr std::uint32_t kVersion = 1;

std::ofstream
openOut(const std::string &path)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        throw GraphIoError("cannot open " + path + " for writing");
    return os;
}

std::ifstream
openIn(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw GraphIoError("cannot open " + path + " for reading");
    return is;
}

template <typename T>
void
writeRaw(std::ostream &os, const T &value)
{
    os.write(reinterpret_cast<const char *>(&value), sizeof(T));
}

/**
 * Crossbar cells are unsigned and no workload defines a result for a
 * negative or NaN weight (golden SSSP would relax a negative cycle
 * forever), so the loaders refuse them.
 */
bool
validWeight(double weight)
{
    return weight >= 0.0; // false for NaN
}

template <typename T>
T
readRaw(std::istream &is)
{
    T value{};
    is.read(reinterpret_cast<char *>(&value), sizeof(T));
    if (!is)
        throw GraphIoError("truncated binary graph file");
    return value;
}

} // namespace

void
saveEdgeListText(const CooGraph &graph, std::ostream &os)
{
    os << "# vertices: " << graph.numVertices() << "\n";
    os << "# edges: " << graph.numEdges() << "\n";
    for (const Edge &e : graph.edges())
        os << e.src << " " << e.dst << " " << e.weight << "\n";
}

void
saveEdgeListText(const CooGraph &graph, const std::string &path)
{
    std::ofstream os = openOut(path);
    saveEdgeListText(graph, os);
}

CooGraph
loadEdgeListText(std::istream &is)
{
    std::vector<Edge> edges;
    VertexId declared_vertices = 0;
    VertexId max_id = 0;
    std::string line;
    std::uint64_t line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        if (line.empty())
            continue;
        if (line[0] == '#') {
            // Optional "# vertices: N" header.
            const auto pos = line.find("vertices:");
            if (pos != std::string::npos) {
                declared_vertices = static_cast<VertexId>(
                    std::strtoull(line.c_str() + pos + 9, nullptr, 10));
            }
            continue;
        }
        std::istringstream ls(line);
        std::uint64_t src = 0;
        std::uint64_t dst = 0;
        double weight = 1.0;
        if (!(ls >> src >> dst)) {
            throw GraphIoError("malformed edge at line " +
                               std::to_string(line_no) + ": '" + line +
                               "'");
        }
        // The largest id is reserved so the vertex count (max id + 1)
        // still fits a VertexId.
        if (std::max(src, dst) >= std::numeric_limits<VertexId>::max()) {
            throw GraphIoError("vertex id out of range at line " +
                               std::to_string(line_no) + ": '" + line +
                               "'");
        }
        // Optional third column: when present, all of it must be a
        // number (strtod, so "nan" is read as NaN and refused below).
        std::string weight_text;
        if (ls >> weight_text) {
            char *end = nullptr;
            weight = std::strtod(weight_text.c_str(), &end);
            if (end == weight_text.c_str() || *end != '\0') {
                throw GraphIoError("malformed weight at line " +
                                   std::to_string(line_no) + ": '" +
                                   line + "'");
            }
        }
        if (!validWeight(weight)) {
            throw GraphIoError("negative or NaN weight at line " +
                               std::to_string(line_no) + ": '" + line +
                               "'");
        }
        edges.push_back(Edge{static_cast<VertexId>(src),
                             static_cast<VertexId>(dst), weight});
        max_id = std::max(
            {max_id, static_cast<VertexId>(src),
             static_cast<VertexId>(dst)});
    }
    const VertexId nv =
        std::max<VertexId>(declared_vertices,
                           edges.empty() ? 1 : max_id + 1);
    return CooGraph(nv, std::move(edges));
}

CooGraph
loadEdgeListText(const std::string &path)
{
    std::ifstream is = openIn(path);
    return loadEdgeListText(is);
}

void
saveBinary(const CooGraph &graph, std::ostream &os)
{
    os.write(kMagic.data(), kMagic.size());
    writeRaw(os, kVersion);
    writeRaw(os, graph.numVertices());
    writeRaw(os, graph.numEdges());
    for (const Edge &e : graph.edges()) {
        writeRaw(os, e.src);
        writeRaw(os, e.dst);
        writeRaw(os, e.weight);
    }
}

void
saveBinary(const CooGraph &graph, const std::string &path)
{
    std::ofstream os = openOut(path);
    saveBinary(graph, os);
}

CooGraph
loadBinary(std::istream &is)
{
    std::array<char, 4> magic{};
    is.read(magic.data(), magic.size());
    if (!is || magic != kMagic)
        throw GraphIoError("not a GraphR binary graph file");
    const auto version = readRaw<std::uint32_t>(is);
    if (version != kVersion) {
        throw GraphIoError("unsupported binary graph version " +
                           std::to_string(version));
    }
    const auto nv = readRaw<VertexId>(is);
    const auto ne = readRaw<EdgeId>(is);
    std::vector<Edge> edges;
    edges.reserve(ne);
    for (EdgeId i = 0; i < ne; ++i) {
        Edge e;
        e.src = readRaw<VertexId>(is);
        e.dst = readRaw<VertexId>(is);
        e.weight = readRaw<double>(is);
        if (e.src >= nv || e.dst >= nv) {
            throw GraphIoError(
                "edge " + std::to_string(i) + " (" +
                std::to_string(e.src) + "," + std::to_string(e.dst) +
                ") out of range for " + std::to_string(nv) +
                " vertices");
        }
        if (!validWeight(e.weight)) {
            throw GraphIoError("edge " + std::to_string(i) + " (" +
                               std::to_string(e.src) + "," +
                               std::to_string(e.dst) +
                               ") has a negative or NaN weight " +
                               std::to_string(e.weight));
        }
        edges.push_back(e);
    }
    return CooGraph(nv, std::move(edges));
}

CooGraph
loadBinary(const std::string &path)
{
    std::ifstream is = openIn(path);
    return loadBinary(is);
}

} // namespace graphr
