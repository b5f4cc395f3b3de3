/**
 * @file
 * Tests for the on-disk preprocessing store: artifact round-trips,
 * every corruption/mismatch path degrading to a fresh prepare (never
 * a crash, identical results), write-through from PlanCache, the
 * zero-sort warm-start guarantee for out-of-core sweeps, and
 * cold-vs-warm-vs-no-store byte-identical golden JSON at --jobs 1
 * and 4.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/checksum.hh"
#include "common/failpoint.hh"
#include "driver/driver.hh"
#include "driver/prepare.hh"
#include "driver/run_result.hh"
#include "graph/generator.hh"
#include "graph/preprocess.hh"
#include "graphr/engine/plan_cache.hh"
#include "perf/counters.hh"
#include "store/plan_store.hh"
#include "tests/plan_eq.hh"

namespace graphr
{
namespace
{

namespace fs = std::filesystem;

/** Small fixed-seed graph reused across the suite. */
CooGraph
testGraph()
{
    return makeRmat({.numVertices = 128, .numEdges = 1024, .seed = 9});
}

/** Fresh, empty store directory under the gtest temp root. */
std::string
freshDir(const std::string &name)
{
    const fs::path dir = fs::path(::testing::TempDir()) /
                         ("plan_store_" + name);
    fs::remove_all(dir);
    return dir.string();
}

/** Isolates the process-wide PlanCache (store detached, entries
 *  dropped) around every test in the suite. */
class PlanStoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        PlanCache::instance().setStore(nullptr);
        PlanCache::instance().clear();
    }

    void
    TearDown() override
    {
        PlanCache::instance().setStore(nullptr);
        PlanCache::instance().clear();
    }
};

TEST_F(PlanStoreTest, RoundTripPreservesEveryArtifactField)
{
    const std::string dir = freshDir("roundtrip");
    const CooGraph g = testGraph();
    const TilingParams tiling;
    const TilePlan direct(g, tiling);

    PlanStore store(dir);
    store.save(direct, tiling);
    EXPECT_TRUE(store.contains(direct.fingerprint, tiling));

    const TilePlanPtr loaded = store.load(direct.fingerprint, tiling);
    ASSERT_NE(loaded, nullptr);
    expectSamePlan(direct, *loaded);
    EXPECT_EQ(store.stats().loadHits, 1u);
    EXPECT_EQ(store.stats().saves, 1u);
}

TEST_F(PlanStoreTest, DuplicateHeavyGraphIsStoredCompressed)
{
    // 100k edges on 4 vertices fill at most 16 cells, so nearly every
    // delta in the stream is zero: the artifact must still be a
    // compressed one, and load back to the same plan.
    const std::string dir = freshDir("duplicates");
    const CooGraph g =
        makeRmat({.numVertices = 4, .numEdges = 100000, .seed = 1});
    const TilingParams tiling;
    const TilePlan direct(g, tiling);

    PlanStore store(dir);
    EXPECT_LT(fs::file_size(store.save(direct, tiling)), g.numEdges())
        << "artifact takes a byte or more per edge";
    const TilePlanPtr loaded = store.load(direct.fingerprint, tiling);
    ASSERT_NE(loaded, nullptr);
    expectSamePlan(direct, *loaded);
}

TEST_F(PlanStoreTest, SaveIsAtomicNoTemporariesSurvive)
{
    const std::string dir = freshDir("atomic");
    const CooGraph g = testGraph();
    const TilingParams tiling;
    PlanStore store(dir);
    store.save(TilePlan(g, tiling), tiling);

    std::size_t files = 0;
    for (const fs::directory_entry &e : fs::directory_iterator(dir)) {
        ++files;
        EXPECT_EQ(e.path().extension(), ".gplan") << e.path();
    }
    EXPECT_EQ(files, 1u);
}

TEST_F(PlanStoreTest, MissingArtifactIsAMiss)
{
    PlanStore store(freshDir("miss"));
    EXPECT_EQ(store.load(0x1234u, TilingParams{}), nullptr);
    EXPECT_EQ(store.stats().loadMisses, 1u);
    EXPECT_EQ(store.stats().loadRejects, 0u);
}

TEST_F(PlanStoreTest, UnusableDirectoriesThrowActionableErrors)
{
    // A path that exists but is a file.
    const std::string file_path =
        freshDir("not_a_dir_parent") + "_file";
    {
        fs::create_directories(fs::path(file_path).parent_path());
        std::ofstream os(file_path);
        os << "x";
    }
    try {
        PlanStore store(file_path);
        FAIL() << "expected StoreError";
    } catch (const StoreError &err) {
        EXPECT_NE(std::string(err.what()).find("not a directory"),
                  std::string::npos);
    }
    // Read-only mode on a missing directory names the path.
    try {
        PlanStore store(freshDir("absent"), PlanStore::Mode::kReadOnly);
        FAIL() << "expected StoreError";
    } catch (const StoreError &err) {
        EXPECT_NE(std::string(err.what()).find("does not exist"),
                  std::string::npos);
    }
}

// ------------------------------------------------ corruption paths
//
// Every corrupted or mismatched artifact must degrade to a fresh
// prepare through PlanCache — same results, one more sort, no crash.

/** Path of the single artifact saved for (g, tiling) in dir. */
std::string
artifactPath(const std::string &dir, const TilePlan &plan,
             const TilingParams &tiling)
{
    return (fs::path(dir) /
            PlanStore::fileName(plan.fingerprint, tiling))
        .string();
}

/** Assert a store whose artifact was damaged falls back cleanly. */
void
expectFreshPrepareFallback(const std::string &dir, const CooGraph &g,
                           const TilingParams &tiling,
                           const TilePlan &direct)
{
    PlanStore store(dir);
    EXPECT_EQ(store.load(direct.fingerprint, tiling), nullptr);
    EXPECT_GE(store.stats().loadRejects, 1u);

    // End to end: PlanCache with this store attached re-prepares and
    // produces an identical plan.
    PlanCache cache;
    cache.setStore(std::make_shared<PlanStore>(dir));
    const std::uint64_t sorts_before =
        OrderedEdgeList::sortsPerformed();
    const TilePlanPtr plan = cache.get(g, tiling);
    EXPECT_EQ(OrderedEdgeList::sortsPerformed(), sorts_before + 1)
        << "fallback must re-run the preprocessing sort";
    expectSamePlan(direct, *plan);
}

TEST_F(PlanStoreTest, TruncatedFileFallsBackToFreshPrepare)
{
    const std::string dir = freshDir("truncated");
    const CooGraph g = testGraph();
    const TilingParams tiling;
    const TilePlan direct(g, tiling);
    PlanStore(dir).save(direct, tiling);

    const std::string file = artifactPath(dir, direct, tiling);
    fs::resize_file(file, fs::file_size(file) - 7);
    expectFreshPrepareFallback(dir, g, tiling, direct);

    // Truncated into the header too.
    fs::resize_file(file, 10);
    expectFreshPrepareFallback(dir, g, tiling, direct);
}

TEST_F(PlanStoreTest, FlippedPayloadByteFallsBackToFreshPrepare)
{
    const std::string dir = freshDir("bitflip");
    const CooGraph g = testGraph();
    const TilingParams tiling;
    const TilePlan direct(g, tiling);
    PlanStore(dir).save(direct, tiling);

    const std::string file = artifactPath(dir, direct, tiling);
    std::fstream io(file,
                    std::ios::in | std::ios::out | std::ios::binary);
    io.seekp(100); // inside the edge records
    char byte = 0;
    io.seekg(100);
    io.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    io.seekp(100);
    io.write(&byte, 1);
    io.close();

    expectFreshPrepareFallback(dir, g, tiling, direct);
}

TEST_F(PlanStoreTest, WrongFormatVersionFallsBackToFreshPrepare)
{
    const std::string dir = freshDir("version");
    const CooGraph g = testGraph();
    const TilingParams tiling;
    const TilePlan direct(g, tiling);
    PlanStore(dir).save(direct, tiling);

    // The version field lives at byte offset 4 (after the magic).
    const std::string file = artifactPath(dir, direct, tiling);
    std::fstream io(file,
                    std::ios::in | std::ios::out | std::ios::binary);
    const std::uint32_t bogus = PlanStore::kFormatVersion + 1;
    io.seekp(4);
    io.write(reinterpret_cast<const char *>(&bogus), sizeof(bogus));
    io.close();

    expectFreshPrepareFallback(dir, g, tiling, direct);
}

TEST_F(PlanStoreTest, FingerprintMismatchFallsBackToFreshPrepare)
{
    // An artifact of a *different* graph copied over this graph's
    // file name: header checksum passes, but the fingerprint is
    // stale and must be rejected.
    const std::string dir = freshDir("stale");
    const TilingParams tiling;
    const CooGraph g = testGraph();
    const TilePlan direct(g, tiling);
    const CooGraph other =
        makeRmat({.numVertices = 128, .numEdges = 1024, .seed = 10});
    const TilePlan other_plan(other, tiling);
    ASSERT_NE(direct.fingerprint, other_plan.fingerprint);

    PlanStore store(dir);
    store.save(other_plan, tiling);
    fs::copy_file(artifactPath(dir, other_plan, tiling),
                  artifactPath(dir, direct, tiling));

    expectFreshPrepareFallback(dir, g, tiling, direct);
}

TEST_F(PlanStoreTest, TilingMismatchIsRejected)
{
    // Same trick for tiling: copy an artifact onto a file name that
    // claims a different block size.
    const std::string dir = freshDir("tiling");
    const CooGraph g = testGraph();
    TilingParams tiling;
    const TilePlan direct(g, tiling);
    PlanStore store(dir);
    store.save(direct, tiling);

    TilingParams blocked = tiling;
    blocked.blockSize = 64;
    fs::copy_file(
        artifactPath(dir, direct, tiling),
        (fs::path(dir) /
         PlanStore::fileName(direct.fingerprint, blocked))
            .string());
    EXPECT_EQ(store.load(direct.fingerprint, blocked), nullptr);
    EXPECT_GE(store.stats().loadRejects, 1u);
}

// --------------------------------------------- PlanCache integration

TEST_F(PlanStoreTest, PlanCacheWritesThroughOnMiss)
{
    const std::string dir = freshDir("writethrough");
    const CooGraph g = testGraph();
    const TilingParams tiling;

    PlanCache cache;
    const auto store = std::make_shared<PlanStore>(dir);
    cache.setStore(store);
    const TilePlanPtr built = cache.get(g, tiling);
    EXPECT_EQ(store->stats().saves, 1u);
    EXPECT_TRUE(store->contains(built->fingerprint, tiling));

    // A second cache (fresh memory level) loads instead of sorting.
    PlanCache cold;
    cold.setStore(std::make_shared<PlanStore>(dir));
    const std::uint64_t sorts_before =
        OrderedEdgeList::sortsPerformed();
    const TilePlanPtr loaded = cold.get(g, tiling);
    EXPECT_EQ(OrderedEdgeList::sortsPerformed(), sorts_before);
    expectSamePlan(*built, *loaded);
}

TEST_F(PlanStoreTest, StoreStatsTextListsArtifacts)
{
    const std::string dir = freshDir("statstext");
    const CooGraph g = testGraph();
    const TilingParams tiling;
    const TilePlan direct(g, tiling);
    PlanStore(dir).save(direct, tiling);

    const std::string text = driver::storeStatsText(StoreSpec{dir});
    EXPECT_NE(text.find("1 artifact"), std::string::npos);
    EXPECT_NE(text.find(PlanStore::fileName(direct.fingerprint,
                                            tiling)),
              std::string::npos);
    EXPECT_NE(text.find("ok"), std::string::npos);

    // Corrupt it: the listing flags the artifact instead of hiding it.
    fs::resize_file(artifactPath(dir, direct, tiling), 40);
    const std::string corrupt =
        driver::storeStatsText(StoreSpec{dir});
    EXPECT_NE(corrupt.find("corrupt"), std::string::npos);
}

// -------------------------------------------------- driver-level

constexpr const char *kDataset = "rmat:vertices=128,edges=512,seed=3";

driver::SweepSpec
sweepSpec(const std::string &plan_dir, std::uint32_t jobs)
{
    driver::SweepSpec spec;
    spec.workloads = {"all"};
    spec.backends = {"outofcore"};
    spec.datasets = {kDataset};
    spec.params =
        driver::ParamMap::parse("epochs=1,features=4,iterations=5");
    spec.jobs = jobs;
    spec.store.planDir = plan_dir;
    return spec;
}

std::string
sweepJson(const driver::SweepSpec &spec)
{
    PlanCache::instance().clear();
    std::ostringstream oss;
    driver::writeResultsJson(oss, driver::runSweep(spec));
    return oss.str();
}

TEST_F(PlanStoreTest, WarmStoreOutOfCoreSweepDoesZeroSorts)
{
    const std::string dir = freshDir("warm_sweep");

    // Offline step: prepare the dataset (plain + symmetrised).
    driver::PrepareSpec prep;
    prep.datasets = {kDataset};
    prep.store.planDir = dir;
    const std::vector<driver::PrepareResult> prepared =
        driver::runPrepare(prep);
    ASSERT_EQ(prepared.size(), 2u);
    EXPECT_FALSE(prepared[0].reused);
    EXPECT_EQ(prepared[0].variant, "plain");
    EXPECT_EQ(prepared[1].variant, "symmetrized");

    // Online step, cold process simulated by clearing the in-memory
    // level: the whole out-of-core sweep must not sort a single edge
    // list.
    PlanCache::instance().clear();
    const std::uint64_t sorts_before =
        OrderedEdgeList::sortsPerformed();
    const std::string warm = sweepJson(sweepSpec(dir, 1));
    EXPECT_EQ(OrderedEdgeList::sortsPerformed(), sorts_before)
        << "warm-store sweep performed an edge sort";

    // And the report is byte-identical to the storeless path.
    const std::string none = sweepJson(sweepSpec("", 1));
    EXPECT_EQ(warm, none);

    // Preparing again reuses the artifacts.
    const std::vector<driver::PrepareResult> again =
        driver::runPrepare(prep);
    EXPECT_TRUE(again[0].reused);
    EXPECT_TRUE(again[1].reused);
}

TEST_F(PlanStoreTest, ColdWarmAndStorelessSweepsAreByteIdentical)
{
    for (const std::uint32_t jobs : {1u, 4u}) {
        const std::string dir =
            freshDir("determinism_j" + std::to_string(jobs));
        const std::string none = sweepJson(sweepSpec("", jobs));
        const std::string cold = sweepJson(sweepSpec(dir, jobs));
        const std::string warm = sweepJson(sweepSpec(dir, jobs));
        EXPECT_EQ(none, cold) << "jobs=" << jobs;
        EXPECT_EQ(cold, warm) << "jobs=" << jobs;
    }
}

TEST_F(PlanStoreTest, RunSweepRejectsUnusablePlanDir)
{
    const std::string file_path = freshDir("plan_dir_file") + "_f";
    {
        std::ofstream os(file_path);
        os << "x";
    }
    driver::SweepSpec spec = sweepSpec(file_path, 1);
    try {
        driver::runSweep(spec);
        FAIL() << "expected DriverError";
    } catch (const driver::DriverError &err) {
        EXPECT_NE(std::string(err.what()).find("--plan-dir"),
                  std::string::npos);
    }
}

TEST_F(PlanStoreTest, PrepareValidatesItsSpec)
{
    driver::PrepareSpec no_dir;
    no_dir.datasets = {kDataset};
    EXPECT_THROW(driver::runPrepare(no_dir), driver::DriverError);

    driver::PrepareSpec no_data;
    no_data.store.planDir = freshDir("prep_nodata");
    EXPECT_THROW(driver::runPrepare(no_data), driver::DriverError);

    driver::PrepareSpec bad_dataset;
    bad_dataset.datasets = {"no-such-dataset"};
    bad_dataset.store.planDir = freshDir("prep_baddata");
    EXPECT_THROW(driver::runPrepare(bad_dataset),
                 driver::DriverError);
}

TEST_F(PlanStoreTest, ParallelPrepareMatchesSerial)
{
    const std::string serial_dir = freshDir("prep_serial");
    const std::string parallel_dir = freshDir("prep_parallel");
    driver::PrepareSpec spec;
    spec.datasets = {kDataset, "chain:n=64", "grid:width=8,height=8"};

    spec.store.planDir = serial_dir;
    spec.jobs = 1;
    const std::vector<driver::PrepareResult> serial =
        driver::runPrepare(spec);
    spec.store.planDir = parallel_dir;
    spec.jobs = 4;
    const std::vector<driver::PrepareResult> parallel =
        driver::runPrepare(spec);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].dataset, parallel[i].dataset);
        EXPECT_EQ(serial[i].variant, parallel[i].variant);
        EXPECT_EQ(serial[i].fingerprint, parallel[i].fingerprint);
        EXPECT_EQ(serial[i].file, parallel[i].file);
        // Same artifacts, byte for byte.
        const std::string a =
            (fs::path(serial_dir) / serial[i].file).string();
        const std::string b =
            (fs::path(parallel_dir) / parallel[i].file).string();
        std::ifstream fa(a, std::ios::binary);
        std::ifstream fb(b, std::ios::binary);
        std::stringstream sa, sb;
        sa << fa.rdbuf();
        sb << fb.rdbuf();
        EXPECT_EQ(sa.str(), sb.str()) << serial[i].file;
    }
}

// ------------------------------------- compressed-format corruption
//
// The payload is a codec-tagged compressed stream; this matrix
// drives corruption through every layer that could catch it: the
// payload checksum (plain flips), the stream decoder (re-checksummed
// garbage), version gating (old artifacts), and the mid-decode
// failpoint. Every row degrades to a fresh prepare — never a crash —
// and bumps store.degraded_loads.

std::vector<unsigned char>
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string s = ss.str();
    return std::vector<unsigned char>(s.begin(), s.end());
}

void
writeFileBytes(const std::string &path,
               const std::vector<unsigned char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/**
 * Recompute the payload checksum (offset 72) and header checksum
 * (offset 80, over the first 80 bytes) after mutating an artifact, so
 * the mutation reaches the stream decoder instead of being caught by
 * the checksum layer.
 */
void
resealChecksums(std::vector<unsigned char> &bytes)
{
    ASSERT_GE(bytes.size(), 88u);
    const std::uint64_t payload_sum =
        xxh64(bytes.data() + 88, bytes.size() - 88);
    std::memcpy(bytes.data() + 72, &payload_sum, 8);
    const std::uint64_t header_sum = xxh64(bytes.data(), 80);
    std::memcpy(bytes.data() + 80, &header_sum, 8);
}

TEST_F(PlanStoreTest, CompressedPayloadBitFlipSweepDegrades)
{
    // Plain single-byte flips across the compressed payload: every
    // one is caught by the payload checksum before the decoder runs.
    const std::string dir = freshDir("cflip");
    const CooGraph g = testGraph();
    const TilingParams tiling;
    const TilePlan direct(g, tiling);
    PlanStore(dir).save(direct, tiling);
    const std::string file = artifactPath(dir, direct, tiling);
    const std::vector<unsigned char> pristine = readFileBytes(file);
    ASSERT_GT(pristine.size(), 96u);

    for (std::size_t at = 88; at < pristine.size();
         at += 17) { // sample across the whole stream
        SCOPED_TRACE("flip at byte " + std::to_string(at));
        std::vector<unsigned char> mutated = pristine;
        mutated[at] ^= 0x20;
        writeFileBytes(file, mutated);
        PlanStore store(dir);
        EXPECT_EQ(store.load(direct.fingerprint, tiling), nullptr);
        EXPECT_EQ(store.stats().loadRejects, 1u);
    }
    writeFileBytes(file, pristine);
    EXPECT_NE(PlanStore(dir).load(direct.fingerprint, tiling),
              nullptr);
}

TEST_F(PlanStoreTest, ValidHeaderGarbageStreamDegrades)
{
    // A hostile writer can make checksums match arbitrary bytes, so
    // reseal after replacing the stream with garbage: the decoder
    // itself must reject, and the end-to-end path must re-prepare.
    const std::string dir = freshDir("garbage");
    const CooGraph g = testGraph();
    const TilingParams tiling;
    const TilePlan direct(g, tiling);
    PlanStore(dir).save(direct, tiling);
    const std::string file = artifactPath(dir, direct, tiling);

    std::vector<unsigned char> bytes = readFileBytes(file);
    // Keep the codec tag, trash the stream body (0xff runs decode as
    // overlong varints and are rejected deterministically).
    for (std::size_t i = 92; i < bytes.size(); ++i)
        bytes[i] = 0xff;
    resealChecksums(bytes);
    writeFileBytes(file, bytes);
    expectFreshPrepareFallback(dir, g, tiling, direct);

    // An unknown codec tag is rejected the same way. The retired
    // uncompressed payload's tag is the one old stores still hold.
    bytes = readFileBytes(file);
    std::memcpy(bytes.data() + 88, "RAW0", 4);
    resealChecksums(bytes);
    writeFileBytes(file, bytes);
    expectFreshPrepareFallback(dir, g, tiling, direct);
}

TEST_F(PlanStoreTest, SemanticallyInvalidArtifactIsRejected)
{
    // Checksums guard against corruption, not buggy writers: an
    // artifact whose checksums match but whose stream is nonsense for
    // the graph its header declares (edges outside the vertex range)
    // must be rejected before it can reach downstream index
    // arithmetic.
    const std::string dir = freshDir("semantic");
    const CooGraph g = testGraph();
    const TilingParams tiling;
    const TilePlan direct(g, tiling);
    PlanStore(dir).save(direct, tiling);
    const std::string file = artifactPath(dir, direct, tiling);

    // The vertex count lives at byte offset 16.
    std::vector<unsigned char> bytes = readFileBytes(file);
    const std::uint64_t two = 2;
    std::memcpy(bytes.data() + 16, &two, 8);
    resealChecksums(bytes);
    writeFileBytes(file, bytes);

    PlanStore store(dir);
    EXPECT_EQ(store.load(direct.fingerprint, tiling), nullptr);
    EXPECT_GE(store.stats().loadRejects, 1u);

    // The listing flags it rather than crashing on it.
    const std::string text = driver::storeStatsText(StoreSpec{dir});
    EXPECT_NE(text.find("corrupt"), std::string::npos);
}

TEST_F(PlanStoreTest, GridPast2To32InTheHeaderIsRejected)
{
    // A header whose vertex count pads past 2^32 under its tiling
    // names cells no 64-bit order ID can number: the partition refuses
    // it, and the load degrades instead of panicking.
    const std::string dir = freshDir("widegrid");
    const CooGraph g = testGraph();
    const TilingParams tiling{.crossbarDim = 6, .crossbarsPerGe = 3,
                              .numGe = 2};
    const TilePlan direct(g, tiling);
    PlanStore(dir).save(direct, tiling);
    const std::string file = artifactPath(dir, direct, tiling);
    std::vector<unsigned char> bytes = readFileBytes(file);
    const std::uint64_t vertices = 4294967295u;
    std::memcpy(bytes.data() + 16, &vertices, 8);
    resealChecksums(bytes);
    writeFileBytes(file, bytes);

    PlanStore store(dir);
    EXPECT_EQ(store.load(direct.fingerprint, tiling), nullptr);
    EXPECT_EQ(store.stats().loadRejects, 1u);
    const std::string text = driver::storeStatsText(StoreSpec{dir});
    EXPECT_NE(text.find("corrupt"), std::string::npos);
}

TEST_F(PlanStoreTest, LoadKeepsTheBytesAndCountsTheirDecodeOnce)
{
    // The loaded plan's stream is the artifact's payload after the
    // codec tag, and the one validating pass counts its edges and
    // tiles once.
    const std::string dir = freshDir("keepbytes");
    const CooGraph g = testGraph();
    const TilingParams tiling;
    const TilePlan direct(g, tiling);
    PlanStore(dir).save(direct, tiling);
    const std::vector<unsigned char> file =
        readFileBytes(artifactPath(dir, direct, tiling));

    perf::Counter &edges =
        perf::Registry::instance().counter("store.codec.decoded_edges");
    perf::Counter &tiles =
        perf::Registry::instance().counter("store.codec.decoded_tiles");
    const std::uint64_t edges_before = edges.value();
    const std::uint64_t tiles_before = tiles.value();
    const TilePlanPtr loaded = PlanStore(dir).load(direct.fingerprint, tiling);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(edges.value() - edges_before, g.numEdges());
    EXPECT_EQ(tiles.value() - tiles_before,
              direct.ordered.numNonEmptyTiles());
    EXPECT_TRUE(std::ranges::equal(
        loaded->ordered.stream(),
        std::span<const unsigned char>(file).subspan(92)));
    expectSamePlan(*loaded, direct);
}

TEST_F(PlanStoreTest, TruncatedCompressedStreamDegrades)
{
    // Truncation *with* a reseal: the header's payload-size field
    // catches it first; truncation of just the stream body (size
    // field patched too) reaches the decoder's totals check.
    const std::string dir = freshDir("ctrunc");
    const CooGraph g = testGraph();
    const TilingParams tiling;
    const TilePlan direct(g, tiling);
    PlanStore(dir).save(direct, tiling);
    const std::string file = artifactPath(dir, direct, tiling);

    std::vector<unsigned char> bytes = readFileBytes(file);
    bytes.resize(bytes.size() - 9);
    const std::uint64_t new_payload = bytes.size() - 88;
    std::memcpy(bytes.data() + 64, &new_payload, 8);
    resealChecksums(bytes);
    writeFileBytes(file, bytes);
    expectFreshPrepareFallback(dir, g, tiling, direct);
}

TEST_F(PlanStoreTest, OldFormatVersionArtifactIsRepreparedAndUpgraded)
{
    // The PR-4 versioning contract: an artifact written under an
    // older kFormatVersion is rejected by version gating, the caller
    // re-prepares transparently, and the write-through save leaves an
    // upgraded artifact behind.
    const std::string dir = freshDir("oldversion");
    const CooGraph g = testGraph();
    const TilingParams tiling;
    const TilePlan direct(g, tiling);
    PlanStore(dir).save(direct, tiling);
    const std::string file = artifactPath(dir, direct, tiling);

    std::vector<unsigned char> bytes = readFileBytes(file);
    const std::uint32_t v1 = 1;
    std::memcpy(bytes.data() + 4, &v1, 4);
    resealChecksums(bytes);
    writeFileBytes(file, bytes);

    expectFreshPrepareFallback(dir, g, tiling, direct);

    // expectFreshPrepareFallback's PlanCache had the store attached,
    // so the re-prepare wrote through: the file is current again.
    const std::vector<PlanArtifactInfo> infos = PlanStore(dir).list();
    ASSERT_EQ(infos.size(), 1u);
    EXPECT_TRUE(infos[0].valid) << infos[0].issue;
    EXPECT_EQ(infos[0].version, PlanStore::kFormatVersion);
}

TEST_F(PlanStoreTest, FormatV2ArtifactIsRejectedByItsVersionAndReprepared)
{
    // A format-2 artifact has this layout, but FNV-1a payload and
    // header checksums (and an FNV-1a fingerprint in its header and
    // name, so a real v2 store is simply never looked up: every plan
    // misses once). Found under a current name, it is rejected by its
    // version before either checksum is read, and the run re-prepares
    // and leaves a current artifact behind.
    const std::string dir = freshDir("v2");
    const CooGraph g = testGraph();
    const TilingParams tiling;
    const TilePlan direct(g, tiling);
    PlanStore(dir).save(direct, tiling);
    const std::string file = artifactPath(dir, direct, tiling);

    std::vector<unsigned char> bytes = readFileBytes(file);
    const std::uint32_t v2 = 2;
    std::memcpy(bytes.data() + 4, &v2, 4);
    const std::uint64_t payload_sum =
        fnv1a64(bytes.data() + 88, bytes.size() - 88);
    std::memcpy(bytes.data() + 72, &payload_sum, 8);
    const std::uint64_t header_sum = fnv1a64(bytes.data(), 80);
    std::memcpy(bytes.data() + 80, &header_sum, 8);
    writeFileBytes(file, bytes);

    {
        const PlanStore store(dir);
        const std::vector<PlanArtifactInfo> infos = store.list();
        ASSERT_EQ(infos.size(), 1u);
        EXPECT_FALSE(infos[0].valid);
        EXPECT_EQ(infos[0].version, 2u);
        EXPECT_EQ(infos[0].issue,
                  "unsupported format version 2 (expected 3)");
    }
    expectFreshPrepareFallback(dir, g, tiling, direct);

    const std::vector<PlanArtifactInfo> infos = PlanStore(dir).list();
    ASSERT_EQ(infos.size(), 1u);
    EXPECT_TRUE(infos[0].valid) << infos[0].issue;
    EXPECT_EQ(infos[0].version, PlanStore::kFormatVersion);
}

TEST_F(PlanStoreTest, DegradedLoadCounterTracksEveryReject)
{
    const std::string dir = freshDir("degraded");
    const CooGraph g = testGraph();
    const TilingParams tiling;
    const TilePlan direct(g, tiling);
    PlanStore(dir).save(direct, tiling);
    const std::string file = artifactPath(dir, direct, tiling);
    fs::resize_file(file, 50);

    perf::Counter &degraded =
        perf::Registry::instance().counter("store.degraded_loads");
    const std::uint64_t before = degraded.value();
    EXPECT_EQ(PlanStore(dir).load(direct.fingerprint, tiling),
              nullptr);
    EXPECT_EQ(degraded.value(), before + 1);
}

TEST_F(PlanStoreTest, ReadFailpointsMidDecodeDegradeOrRecover)
{
    // store.read.* fire inside the store's read loop while the
    // compressed artifact streams in: EINTR is transient (absorbed by
    // the retry loop, load still succeeds), a short read truncates
    // (degrade to fresh prepare).
    const std::string dir = freshDir("readfp");
    const CooGraph g = testGraph();
    const TilingParams tiling;
    const TilePlan direct(g, tiling);
    PlanStore(dir).save(direct, tiling);

    failpoint::configure("store.read.eintr:1@1");
    const TilePlanPtr recovered =
        PlanStore(dir).load(direct.fingerprint, tiling);
    ASSERT_NE(recovered, nullptr);
    expectSamePlan(direct, *recovered);

    failpoint::configure("store.read.short:1@1");
    {
        PlanStore store(dir);
        EXPECT_EQ(store.load(direct.fingerprint, tiling), nullptr);
        EXPECT_EQ(store.stats().loadRejects, 1u);
    }

    // End to end while the fault is armed: PlanCache degrades to a
    // fresh prepare and still produces an identical plan. (The
    // artifact itself is undamaged — once the failpoint is disarmed
    // it loads normally again.)
    failpoint::configure("store.read.short:1@1");
    PlanCache cache;
    cache.setStore(std::make_shared<PlanStore>(dir));
    const std::uint64_t sorts_before =
        OrderedEdgeList::sortsPerformed();
    const TilePlanPtr reprepared = cache.get(g, tiling);
    EXPECT_EQ(OrderedEdgeList::sortsPerformed(), sorts_before + 1)
        << "fallback must re-run the preprocessing sort";
    expectSamePlan(direct, *reprepared);

    failpoint::disarmAll();
    const TilePlanPtr healthy =
        PlanStore(dir).load(direct.fingerprint, tiling);
    ASSERT_NE(healthy, nullptr);
    expectSamePlan(direct, *healthy);
}

TEST_F(PlanStoreTest, DecodeFailpointFallsBackToFreshPrepare)
{
    // store.decode.fail faults the stream decoder itself mid-load —
    // the CodecError is contained by the store's reject path.
    const std::string dir = freshDir("decodefp");
    const CooGraph g = testGraph();
    const TilingParams tiling;
    const TilePlan direct(g, tiling);
    PlanStore(dir).save(direct, tiling);

    failpoint::configure("store.decode.fail:1@1");
    {
        PlanStore store(dir);
        EXPECT_EQ(store.load(direct.fingerprint, tiling), nullptr);
        EXPECT_EQ(store.stats().loadRejects, 1u);
    }
    failpoint::disarmAll();

    // Disarmed, the same artifact loads fine — nothing was damaged.
    const TilePlanPtr loaded =
        PlanStore(dir).load(direct.fingerprint, tiling);
    ASSERT_NE(loaded, nullptr);
    expectSamePlan(direct, *loaded);
}

// --------------------------------------------- golden artifact

/** The golden run: must mirror test_driver's pagerankReport(). */
std::string
goldenRunJson(const std::string &plan_dir)
{
    driver::RunSpec spec;
    spec.workload = "pagerank";
    spec.backend = "graphr";
    spec.dataset = "rmat:vertices=256,edges=2048,seed=7";
    spec.params = driver::ParamMap::parse("iterations=10,tolerance=0");
    spec.store.planDir = plan_dir;
    PlanCache::instance().clear();
    const driver::RunResult result = driver::runOne(spec);
    std::ostringstream oss;
    driver::writeResultsJson(oss, {result});
    return oss.str();
}

TEST_F(PlanStoreTest, GoldenCompressedArtifactDecodesToGoldenReport)
{
    // Format-drift tripwire: a checked-in compressed artifact must
    // keep decoding — sort-free — to the exact golden sweep JSON. If
    // the codec or the artifact layout changes incompatibly, this
    // fails at review time instead of corrupting user stores.
    const fs::path golden(GRAPHR_GOLDEN_DIR);
    const std::string dir = freshDir("golden_artifact");
    fs::create_directories(dir);
    std::size_t copied = 0;
    for (const fs::directory_entry &e : fs::directory_iterator(golden)) {
        if (e.path().extension() == ".gplan") {
            fs::copy_file(e.path(),
                          fs::path(dir) / e.path().filename());
            ++copied;
        }
    }
    ASSERT_GE(copied, 1u)
        << "no golden .gplan artifact — regenerate with "
           "GRAPHR_UPDATE_GOLDEN=1 ./test_store";

    // Every checked-in artifact validates as a current-version
    // compressed artifact.
    for (const PlanArtifactInfo &info : PlanStore(dir).list()) {
        EXPECT_TRUE(info.valid) << info.file << ": " << info.issue;
        EXPECT_EQ(info.version, PlanStore::kFormatVersion)
            << info.file;
    }

    const std::uint64_t sorts_before =
        OrderedEdgeList::sortsPerformed();
    const std::string report = goldenRunJson(dir);
    EXPECT_EQ(OrderedEdgeList::sortsPerformed(), sorts_before)
        << "golden artifact did not satisfy the prepare";

    std::ifstream in((golden / "pagerank_rmat.json").string());
    ASSERT_TRUE(in) << "missing golden JSON report";
    std::stringstream want;
    want << in.rdbuf();
    EXPECT_EQ(report, want.str())
        << "compressed-artifact run drifted from the golden report";
}

TEST_F(PlanStoreTest, FreshPrepareReproducesGoldenArtifactBytes)
{
    // The checked-in artifacts pin the canonical plan: a fresh prepare
    // of the golden spec (stable edge order included) must write them
    // byte for byte, not merely decode to the same report.
    const fs::path golden(GRAPHR_GOLDEN_DIR);
    const std::string dir = freshDir("golden_bytes");
    driver::PrepareSpec prep;
    prep.datasets = {"rmat:vertices=256,edges=2048,seed=7"};
    prep.store.planDir = dir;
    ASSERT_EQ(driver::runPrepare(prep).size(), 2u);

    std::size_t compared = 0;
    for (const fs::directory_entry &e : fs::directory_iterator(golden)) {
        if (e.path().extension() != ".gplan")
            continue;
        const fs::path fresh = fs::path(dir) / e.path().filename();
        ASSERT_TRUE(fs::exists(fresh))
            << "fresh prepare wrote no " << e.path().filename();
        EXPECT_TRUE(readFileBytes(fresh.string()) ==
                    readFileBytes(e.path().string()))
            << e.path().filename() << " differs from a fresh prepare";
        ++compared;
    }
    EXPECT_EQ(compared, 2u);
}

/** Regeneration helper: GRAPHR_UPDATE_GOLDEN=1 rewrites the golden
 *  compressed artifact (the JSON report belongs to test_driver). */
TEST_F(PlanStoreTest, UpdateGoldenArtifactWhenRequested)
{
    if (!std::getenv("GRAPHR_UPDATE_GOLDEN"))
        GTEST_SKIP() << "set GRAPHR_UPDATE_GOLDEN=1 to rewrite";
    const fs::path golden(GRAPHR_GOLDEN_DIR);
    for (const fs::directory_entry &e :
         fs::directory_iterator(golden)) {
        if (e.path().extension() == ".gplan")
            fs::remove(e.path());
    }
    driver::PrepareSpec prep;
    prep.datasets = {"rmat:vertices=256,edges=2048,seed=7"};
    prep.store.planDir = golden.string();
    const std::vector<driver::PrepareResult> out =
        driver::runPrepare(prep);
    ASSERT_EQ(out.size(), 2u);
}

} // namespace
} // namespace graphr
