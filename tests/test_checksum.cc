/**
 * @file
 * Unit tests for the shared hashes: XXH64 known-answer vectors and
 * streaming equivalence, the guarantee that graphFingerprint is an
 * XXH64 of the edge records (so the fingerprint and the plan store's
 * checksums cannot drift apart), and FNV-1a's reference vectors and
 * word layout, which the pinned legacy digests rely on.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <string>
#include <vector>

#include "common/checksum.hh"
#include "graph/generator.hh"
#include "graphr/engine/tile_plan.hh"

namespace graphr
{
namespace
{

std::uint64_t
fnvOfString(const std::string &s)
{
    return fnv1a64(s.data(), s.size());
}

std::uint64_t
xxhOfString(const std::string &s)
{
    return xxh64(s.data(), s.size());
}

/** 1,000 bytes that cover every residue of the 32-byte stripe. */
std::string
patternBytes()
{
    std::string bytes;
    for (int i = 0; i < 1000; ++i)
        bytes.push_back(static_cast<char>((i * 131 + 7) & 0xff));
    return bytes;
}

TEST(Xxh64Test, KnownAnswerVectors)
{
    // XXH64 with seed 0, checked against the reference xxHash
    // library: lengths below 4, 8 and 32 bytes take the short tail
    // paths, the longer ones the four-lane stripes plus a tail.
    EXPECT_EQ(xxhOfString(""), 0xef46db3751d8e999ull);
    EXPECT_EQ(xxhOfString("a"), 0xd24ec4f1a98c6e5bull);
    EXPECT_EQ(xxhOfString("abc"), 0x44bc2cf5ad770999ull);
    EXPECT_EQ(xxhOfString("message digest"), 0x066ed728fceeb3beull);
    EXPECT_EQ(xxhOfString("abcdefghijklmnopqrstuvwxyz012345"),
              0xbf2cd639b4143b80ull);
    EXPECT_EQ(xxhOfString("abcdefghijklmnopqrstuvwxyz0123456789"),
              0x64f23ecf1609b766ull);
    EXPECT_EQ(xxhOfString("The quick brown fox jumps over the lazy dog"),
              0x0b242d361fda71bcull);
    EXPECT_EQ(xxhOfString(patternBytes()), 0x0bf0bdbcc82eb373ull);
}

TEST(Xxh64Test, EveryStreamingSplitGivesTheOneShotDigest)
{
    const std::string data = patternBytes().substr(0, 100);
    const std::uint64_t whole = xxhOfString(data);
    for (std::size_t a = 0; a <= data.size(); ++a) {
        for (std::size_t b = a; b <= data.size(); ++b) {
            Xxh64 h;
            h.update(data.data(), a);
            h.update(data.data() + a, b - a);
            h.update(data.data() + b, data.size() - b);
            ASSERT_EQ(h.digest(), whole) << "cuts at " << a << ", " << b;
        }
    }
    // Byte by byte, and in uneven chunks across many stripes.
    const std::string big = patternBytes();
    Xxh64 bytewise;
    for (const char c : big)
        bytewise.update(&c, 1);
    EXPECT_EQ(bytewise.digest(), xxhOfString(big));
    for (const std::size_t chunk : {3u, 31u, 32u, 33u, 100u}) {
        Xxh64 h;
        for (std::size_t at = 0; at < big.size(); at += chunk)
            h.update(big.data() + at, std::min(chunk, big.size() - at));
        EXPECT_EQ(h.digest(), xxhOfString(big)) << "chunk " << chunk;
    }
}

TEST(Xxh64Test, UpdateWordMatchesLittleEndianBytes)
{
    const std::uint64_t word = 0x0123456789abcdefull;
    Xxh64 via_word;
    via_word.updateWord(word);
    const unsigned char bytes[8] = {0xef, 0xcd, 0xab, 0x89,
                                    0x67, 0x45, 0x23, 0x01};
    EXPECT_EQ(via_word.digest(), xxh64(bytes, sizeof(bytes)));
}

TEST(ChecksumTest, ReferenceVectors)
{
    // Standard FNV-1a 64 test vectors.
    EXPECT_EQ(fnvOfString(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnvOfString("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(fnvOfString("foobar"), 0x85944171f73967e8ull);
    EXPECT_EQ(fnvOfString("hello"), 0xa430d84680aabd0bull);
}

TEST(ChecksumTest, StreamingSplitsAreEquivalent)
{
    const std::string data = "the quick brown fox jumps over";
    const std::uint64_t whole = fnvOfString(data);
    for (std::size_t cut = 0; cut <= data.size(); ++cut) {
        Fnv1a64 h;
        h.update(data.data(), cut);
        h.update(data.data() + cut, data.size() - cut);
        EXPECT_EQ(h.digest(), whole) << "cut at " << cut;
    }
}

TEST(ChecksumTest, UpdateWordMatchesLittleEndianBytes)
{
    const std::uint64_t word = 0x0123456789abcdefull;
    Fnv1a64 via_word;
    via_word.updateWord(word);

    unsigned char bytes[8];
    for (int i = 0; i < 8; ++i)
        bytes[i] = static_cast<unsigned char>((word >> (8 * i)) & 0xff);
    Fnv1a64 via_bytes;
    via_bytes.update(bytes, sizeof(bytes));

    EXPECT_EQ(via_word.digest(), via_bytes.digest());
}

TEST(ChecksumTest, DifferentInputsDiffer)
{
    EXPECT_NE(fnvOfString("plan-a"), fnvOfString("plan-b"));
    Fnv1a64 a;
    a.updateWord(1);
    Fnv1a64 b;
    b.updateWord(2);
    EXPECT_NE(a.digest(), b.digest());
}

TEST(ChecksumTest, GraphFingerprintIsXxh64OfTheEdgeRecords)
{
    // Recompute graphFingerprint by hand: XXH64 of the vertex and
    // edge counts as little-endian words, then per edge src and dst
    // as little-endian 32-bit words and the weight's bits. If the
    // fingerprint ever switches hash or layout, this breaks loudly
    // (and the plan store format version must bump with it).
    const CooGraph g = makeRmat(
        {.numVertices = 64, .numEdges = 256, .maxWeight = 9.0, .seed = 11});
    std::vector<unsigned char> bytes;
    const auto put = [&bytes](std::uint64_t word, int width) {
        for (int i = 0; i < width; ++i)
            bytes.push_back(static_cast<unsigned char>(word >> (8 * i)));
    };
    put(g.numVertices(), 8);
    put(g.numEdges(), 8);
    for (const Edge &e : g.edges()) {
        put(e.src, 4);
        put(e.dst, 4);
        put(std::bit_cast<std::uint64_t>(static_cast<double>(e.weight)),
            8);
    }
    EXPECT_EQ(graphFingerprint(g), xxh64(bytes.data(), bytes.size()));
}

TEST(ChecksumTest, FingerprintIsOrderAndValueSensitive)
{
    CooGraph a(4, {});
    a.addEdge(0, 1);
    a.addEdge(2, 3);
    CooGraph b(4, {});
    b.addEdge(2, 3);
    b.addEdge(0, 1);
    EXPECT_NE(graphFingerprint(a), graphFingerprint(b));

    CooGraph c(4, {});
    c.addEdge(0, 1);
    c.addEdge(2, 3, 2.0);
    EXPECT_NE(graphFingerprint(a), graphFingerprint(c));
}

} // namespace
} // namespace graphr
