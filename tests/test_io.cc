/**
 * @file
 * Tests for graph serialisation (text and binary round trips).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>
#include <string>

#include "graph/generator.hh"
#include "graph/io.hh"

namespace graphr
{
namespace
{

TEST(TextIoTest, RoundTripPreservesGraph)
{
    const CooGraph g = makeRmat({.numVertices = 100,
                                 .numEdges = 800,
                                 .maxWeight = 9.0,
                                 .seed = 71});
    std::stringstream buffer;
    saveEdgeListText(g, buffer);
    const CooGraph back = loadEdgeListText(buffer);
    ASSERT_EQ(back.numVertices(), g.numVertices());
    ASSERT_EQ(back.numEdges(), g.numEdges());
    for (std::size_t i = 0; i < g.numEdges(); ++i)
        EXPECT_EQ(back.edges()[i], g.edges()[i]);
}

TEST(TextIoTest, ParsesTwoColumnUnweighted)
{
    std::stringstream in("0 1\n1 2\n2 0\n");
    const CooGraph g = loadEdgeListText(in);
    EXPECT_EQ(g.numVertices(), 3u);
    EXPECT_EQ(g.numEdges(), 3u);
    for (const Edge &e : g.edges())
        EXPECT_DOUBLE_EQ(e.weight, 1.0);
}

TEST(TextIoTest, SkipsCommentsAndBlankLines)
{
    std::stringstream in("# SNAP style header\n\n0 1 2.5\n# mid\n1 0\n");
    const CooGraph g = loadEdgeListText(in);
    EXPECT_EQ(g.numEdges(), 2u);
    EXPECT_DOUBLE_EQ(g.edges()[0].weight, 2.5);
}

TEST(TextIoTest, HonorsVertexCountHeader)
{
    std::stringstream in("# vertices: 50\n0 1\n");
    const CooGraph g = loadEdgeListText(in);
    EXPECT_EQ(g.numVertices(), 50u);
}

TEST(TextIoTest, VertexCountFromMaxIdWithoutHeader)
{
    std::stringstream in("3 9\n9 3\n");
    const CooGraph g = loadEdgeListText(in);
    EXPECT_EQ(g.numVertices(), 10u);
}

TEST(TextIoTest, MalformedLineThrows)
{
    std::stringstream in("0 1\nnot an edge\n");
    EXPECT_THROW(loadEdgeListText(in), GraphIoError);
}

TEST(TextIoTest, VertexIdBeyondTheVertexIdRangeThrows)
{
    // 4294967295 would wrap the vertex count (max id + 1) to zero.
    std::stringstream in("0 4294967295\n");
    EXPECT_THROW(loadEdgeListText(in), GraphIoError);
}

/** The GraphIoError message @p fn throws, or "" if it returns. */
template <typename Fn>
std::string
ioError(Fn &&fn)
{
    try {
        fn();
    } catch (const GraphIoError &e) {
        return e.what();
    }
    return "";
}

TEST(TextIoTest, NegativeOrNanWeightThrowsNamingTheLine)
{
    for (const char *text : {"0 1 1\n0 1 -2.5\n", "0 1 1\n1 2 nan\n"}) {
        std::stringstream in(text);
        const std::string msg =
            ioError([&in] { loadEdgeListText(in); });
        EXPECT_NE(msg.find("negative or NaN weight at line 2"),
                  std::string::npos)
            << msg;
    }
    // A negative cycle would keep SSSP relaxing forever.
    std::stringstream cycle("0 1 -2.5\n1 2 1\n2 0 1\n");
    EXPECT_THROW(loadEdgeListText(cycle), GraphIoError);
    // Zero (either sign) is a weight; junk in the column is not.
    std::stringstream zero("0 1 0\n1 0 -0\n");
    EXPECT_EQ(loadEdgeListText(zero).numEdges(), 2u);
    std::stringstream junk("0 1 3abc\n");
    EXPECT_NE(ioError([&junk] { loadEdgeListText(junk); })
                  .find("malformed weight at line 1"),
              std::string::npos);
}

TEST(TextIoTest, MissingFileThrows)
{
    EXPECT_THROW(loadEdgeListText("/nonexistent/graph.txt"),
                 GraphIoError);
}

TEST(BinaryIoTest, RoundTripExact)
{
    const CooGraph g = makeRmat({.numVertices = 200,
                                 .numEdges = 1500,
                                 .maxWeight = 15.0,
                                 .seed = 72});
    std::stringstream buffer;
    saveBinary(g, buffer);
    const CooGraph back = loadBinary(buffer);
    ASSERT_EQ(back.numVertices(), g.numVertices());
    ASSERT_EQ(back.numEdges(), g.numEdges());
    for (std::size_t i = 0; i < g.numEdges(); ++i)
        EXPECT_EQ(back.edges()[i], g.edges()[i]);
}

TEST(BinaryIoTest, RejectsWrongMagic)
{
    std::stringstream in("NOPE....");
    EXPECT_THROW(loadBinary(in), GraphIoError);
}

TEST(BinaryIoTest, RejectsTruncatedFile)
{
    const CooGraph g = makeChain(8);
    std::stringstream buffer;
    saveBinary(g, buffer);
    std::string bytes = buffer.str();
    bytes.resize(bytes.size() / 2);
    std::stringstream cut(bytes);
    EXPECT_THROW(loadBinary(cut), GraphIoError);
}

TEST(BinaryIoTest, RejectsAnEndpointBeyondTheVertexCount)
{
    // A chain over 8 vertices, then the vertex count in the header
    // (bytes 8..11) cut to 4: its later edges name vertices 4..7.
    std::stringstream buffer;
    saveBinary(makeChain(8), buffer);
    std::string bytes = buffer.str();
    const std::uint32_t vertices = 4;
    std::memcpy(bytes.data() + 8, &vertices, sizeof(vertices));
    std::stringstream bad(bytes);
    EXPECT_THROW(loadBinary(bad), GraphIoError);
}

TEST(BinaryIoTest, RejectsANegativeOrNanWeightNamingTheEdge)
{
    for (const double bad : {-2.5, std::nan("")}) {
        const CooGraph g(3, {{0, 1, 1.0}, {1, 2, bad}});
        std::stringstream buffer;
        saveBinary(g, buffer);
        const std::string msg =
            ioError([&buffer] { loadBinary(buffer); });
        EXPECT_NE(msg.find("edge 1 (1,2) has a negative or NaN weight"),
                  std::string::npos)
            << msg;
    }
}

TEST(BinaryIoTest, EmptyGraphRoundTrips)
{
    const CooGraph g(5, {});
    std::stringstream buffer;
    saveBinary(g, buffer);
    const CooGraph back = loadBinary(buffer);
    EXPECT_EQ(back.numVertices(), 5u);
    EXPECT_EQ(back.numEdges(), 0u);
}

TEST(FileIoTest, TextAndBinaryFilesWork)
{
    const CooGraph g = makeStar(16);
    const std::string text_path = "/tmp/graphr_io_test.txt";
    const std::string bin_path = "/tmp/graphr_io_test.bin";
    saveEdgeListText(g, text_path);
    saveBinary(g, bin_path);
    const CooGraph t = loadEdgeListText(text_path);
    const CooGraph b = loadBinary(bin_path);
    EXPECT_EQ(t.numEdges(), g.numEdges());
    EXPECT_EQ(b.numEdges(), g.numEdges());
}

} // namespace
} // namespace graphr
