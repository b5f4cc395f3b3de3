#include "plan_store.hh"

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <thread>
#include <type_traits>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/checksum.hh"
#include "common/failpoint.hh"
#include "common/logging.hh"
#include "perf/counters.hh"

namespace graphr
{

namespace fs = std::filesystem;

namespace
{

constexpr std::uint32_t kMagic = 'G' | ('P' << 8) | ('L' << 16) |
                                 ('N' << 24);
/** Payload codec tag (first four payload bytes). */
constexpr std::uint32_t kCodecDelta = 'D' | ('L' << 8) | ('T' << 16) |
                                      ('1' << 24);
constexpr std::size_t kHeaderBytes = 88;
/** Bytes of the header covered by the header checksum. */
constexpr std::size_t kHeaderChecksummedBytes = kHeaderBytes - 8;

/** Append-only little buffer builder for headers. */
class ByteWriter
{
  public:
    template <typename T>
    void
    raw(const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        const std::size_t at = bytes_.size();
        bytes_.resize(at + sizeof(T));
        std::memcpy(bytes_.data() + at, &value, sizeof(T));
    }

    const std::vector<unsigned char> &bytes() const { return bytes_; }

  private:
    std::vector<unsigned char> bytes_;
};

/** Bounds-checked sequential reader over a validated byte range. */
class ByteReader
{
  public:
    ByteReader(const unsigned char *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    template <typename T>
    bool
    raw(T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        if (size_ - pos_ < sizeof(T))
            return false;
        std::memcpy(&value, data_ + pos_, sizeof(T));
        pos_ += sizeof(T);
        return true;
    }

  private:
    const unsigned char *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

/**
 * Bounded retry policy for transient I/O errors (EINTR/EAGAIN and
 * short transfers): an operation is retried at most this many times,
 * with a small exponential backoff, before the error is treated as
 * permanent. Every retry is published as `store.retries`.
 */
constexpr int kMaxIoAttempts = 4;

void
noteRetry()
{
    static perf::Counter &retries =
        perf::Registry::instance().counter("store.retries");
    retries.add();
}

void
backoff(int attempt)
{
    std::this_thread::sleep_for(
        std::chrono::milliseconds(1 << (attempt > 0 ? attempt - 1 : 0)));
}

/**
 * write() all @p n bytes, resuming short writes (injectable via
 * store.write.short) and retrying bounded transient errors. On a
 * permanent failure fills @p why and returns false.
 */
bool
writeFull(int fd, const unsigned char *data, std::size_t n,
          std::string &why)
{
    int transient = 0;
    while (n > 0) {
        std::size_t len = n;
        if (len > 1 && GRAPHR_FAILPOINT("store.write.short"))
            len = 1; // deterministic short write; the loop resumes
        const ssize_t written = ::write(fd, data, len);
        if (written < 0) {
            if ((errno == EINTR || errno == EAGAIN) &&
                ++transient < kMaxIoAttempts) {
                noteRetry();
                backoff(transient);
                continue;
            }
            why = std::strerror(errno);
            return false;
        }
        if (static_cast<std::size_t>(written) < n)
            noteRetry(); // short transfer: resumed, counted, no sleep
        data += written;
        n -= static_cast<std::size_t>(written);
    }
    return true;
}

/** Decoded artifact header. */
struct Header
{
    std::uint32_t version = 0;
    std::uint64_t fingerprint = 0;
    std::uint64_t vertices = 0;
    TilingParams tiling;
    std::uint64_t edges = 0;
    std::uint64_t tiles = 0;
    std::uint64_t totalNnz = 0;
    std::uint64_t payloadBytes = 0;
    std::uint64_t payloadChecksum = 0;
};

/**
 * Read a whole artifact into @p bytes with chunked POSIX reads into a
 * buffer of the size fstat reports; false if the file cannot be
 * opened or a read fails for good. Past that size a read lands in a
 * small spill buffer first, so the read that finds an unchanged
 * file's end grows nothing, and a file that grew since the fstat is
 * appended from it. Transient errors (EINTR/EAGAIN, injectable via
 * store.read.eintr) are retried with bounded backoff; a premature EOF
 * (store.read.short) simply yields a truncated buffer, which
 * header/payload validation then rejects — the degrade-to-fresh-
 * prepare path, never a crash.
 */
bool
readFile(const std::string &path, std::vector<unsigned char> &bytes)
{
    if (GRAPHR_FAILPOINT("store.open.fail"))
        return false;
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return false;
    struct stat st = {};
    bytes.resize(::fstat(fd, &st) == 0 && st.st_size > 0
                     ? static_cast<std::size_t>(st.st_size)
                     : 0);
    constexpr std::size_t kChunk = 1 << 20;
    std::array<unsigned char, 4096> spill;
    std::size_t at = 0;
    int transient = 0;
    for (;;) {
        const bool past = at >= bytes.size();
        unsigned char *to = past ? spill.data() : bytes.data() + at;
        const std::size_t want =
            past ? spill.size() : std::min(kChunk, bytes.size() - at);
        ssize_t n;
        if (GRAPHR_FAILPOINT("store.read.eintr")) {
            n = -1;
            errno = EINTR;
        } else if (GRAPHR_FAILPOINT("store.read.short")) {
            n = 0; // the file "ends" mid-read: truncated artifact
        } else {
            n = ::read(fd, to, want);
        }
        if (n < 0) {
            if ((errno == EINTR || errno == EAGAIN) &&
                ++transient < kMaxIoAttempts) {
                noteRetry();
                backoff(transient);
                continue;
            }
            ::close(fd);
            return false;
        }
        if (n == 0)
            break;
        if (past)
            bytes.insert(bytes.end(), to, to + n);
        at += static_cast<std::size_t>(n);
    }
    ::close(fd);
    bytes.resize(at);
    return true;
}

void
encodeHeader(ByteWriter &w, const Header &h)
{
    w.raw(kMagic);
    w.raw(h.version);
    w.raw(h.fingerprint);
    w.raw(h.vertices);
    w.raw(h.tiling.crossbarDim);
    w.raw(h.tiling.crossbarsPerGe);
    w.raw(h.tiling.numGe);
    w.raw(h.tiling.blockSize);
    w.raw(h.edges);
    w.raw(h.tiles);
    w.raw(h.totalNnz);
    w.raw(h.payloadBytes);
    w.raw(h.payloadChecksum);
    w.raw(xxh64(w.bytes().data(), kHeaderChecksummedBytes));
}

/**
 * Decode and structurally validate a header. On failure fills
 * @p issue and returns false. Validation order matters: the magic
 * identifies the file type, the version gates the layout (an unknown
 * version cannot be checksum-verified against this layout), and only
 * then are checksums meaningful.
 */
bool
decodeHeader(const unsigned char *data, std::size_t size, Header &h,
             std::string &issue)
{
    if (size < kHeaderBytes) {
        issue = "truncated header (" + std::to_string(size) +
                " bytes, need " + std::to_string(kHeaderBytes) + ")";
        return false;
    }
    ByteReader r(data, kHeaderBytes);
    std::uint32_t magic = 0;
    r.raw(magic);
    if (magic != kMagic) {
        issue = "not a plan artifact (bad magic)";
        return false;
    }
    r.raw(h.version);
    if (h.version != PlanStore::kFormatVersion) {
        issue = "unsupported format version " +
                std::to_string(h.version) + " (expected " +
                std::to_string(PlanStore::kFormatVersion) + ")";
        return false;
    }
    r.raw(h.fingerprint);
    r.raw(h.vertices);
    r.raw(h.tiling.crossbarDim);
    r.raw(h.tiling.crossbarsPerGe);
    r.raw(h.tiling.numGe);
    r.raw(h.tiling.blockSize);
    r.raw(h.edges);
    r.raw(h.tiles);
    r.raw(h.totalNnz);
    r.raw(h.payloadBytes);
    r.raw(h.payloadChecksum);
    std::uint64_t header_checksum = 0;
    r.raw(header_checksum);
    if (xxh64(data, kHeaderChecksummedBytes) != header_checksum) {
        issue = "header checksum mismatch";
        return false;
    }
    if (size - kHeaderBytes != h.payloadBytes) {
        issue = "payload size mismatch (header says " +
                std::to_string(h.payloadBytes) + ", file has " +
                std::to_string(size - kHeaderBytes) + ")";
        return false;
    }
    // Field sanity, mirroring GraphRConfig::validate and
    // GridPartition's preconditions: an accepted header must be safe
    // to build a partition from and to size allocations by (a
    // checksummed file can still come from a buggy writer).
    if (h.vertices == 0 ||
        h.vertices > std::numeric_limits<VertexId>::max()) {
        issue = "vertex count out of range";
        return false;
    }
    if (h.tiling.crossbarDim == 0 || h.tiling.crossbarDim > 64 ||
        h.tiling.crossbarsPerGe == 0 || h.tiling.numGe == 0) {
        issue = "tiling parameters out of range";
        return false;
    }
    const std::uint64_t cxn =
        static_cast<std::uint64_t>(h.tiling.crossbarDim) *
        h.tiling.crossbarsPerGe;
    if (cxn > std::numeric_limits<std::uint64_t>::max() /
                  h.tiling.numGe) {
        issue = "tile width overflows";
        return false;
    }
    return true;
}

/** Bytes of the payload before the stream: the codec tag. */
constexpr std::size_t kCodecTagBytes = sizeof(kCodecDelta);

/**
 * The payload checks load() and list() share before the stream is
 * indexed: checksum, codec tag, and an nnz total equal to the edge
 * count (the stream carries no metadata table, so every tile's nnz is
 * its edge count). Throws CodecError on the first failed check.
 */
void
checkPayload(const Header &h, const unsigned char *payload,
             std::size_t size)
{
    if (xxh64(payload, size) != h.payloadChecksum)
        throw CodecError("payload checksum mismatch");
    std::uint32_t codec = 0;
    if (size < kCodecTagBytes)
        throw CodecError("payload too small for a codec tag");
    std::memcpy(&codec, payload, kCodecTagBytes);
    if (codec != kCodecDelta)
        throw CodecError("unknown payload codec tag");
    if (h.totalNnz != h.edges)
        throw CodecError("total nnz disagrees with the edge count");
}

/** The indexed stream's totals against the header's. */
void
checkTotals(const Header &h, std::uint64_t edges, std::uint64_t tiles)
{
    if (edges != h.edges || tiles != h.tiles)
        throw CodecError("stream totals disagree with header");
}

/** Unique temporary suffix so concurrent saves never collide. */
std::string
tempSuffix()
{
    const unsigned long uniq = static_cast<unsigned long>(::getpid());
    static std::atomic<std::uint64_t> counter{0};
    return ".tmp-" + std::to_string(uniq) + "-" +
           std::to_string(
               counter.fetch_add(1, std::memory_order_relaxed));
}

} // namespace

PlanStore::PlanStore(const std::string &directory, Mode mode)
    : directory_(directory)
{
    if (directory_.empty())
        throw StoreError("plan store directory must not be empty");

    std::error_code ec;
    if (fs::exists(directory_, ec) && !fs::is_directory(directory_, ec)) {
        throw StoreError("plan store path '" + directory_ +
                         "' exists but is not a directory");
    }
    if (mode == Mode::kReadOnly) {
        if (!fs::is_directory(directory_, ec)) {
            throw StoreError("plan store directory '" + directory_ +
                             "' does not exist");
        }
        return;
    }
    fs::create_directories(directory_, ec);
    if (ec) {
        throw StoreError("cannot create plan store directory '" +
                         directory_ + "': " + ec.message());
    }
    // Probe writability now so an unwritable --plan-dir fails with an
    // actionable message up front, not mid-sweep at the first save.
    const std::string probe =
        (fs::path(directory_) / (".probe" + tempSuffix())).string();
    {
        std::ofstream os(probe, std::ios::binary);
        if (!os) {
            throw StoreError("plan store directory '" + directory_ +
                             "' is not writable");
        }
    }
    fs::remove(probe, ec);
}

std::string
PlanStore::fileName(std::uint64_t fingerprint,
                    const TilingParams &tiling)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "plan-%016llx-c%u-n%u-g%u-b%u.gplan",
                  static_cast<unsigned long long>(fingerprint),
                  tiling.crossbarDim, tiling.crossbarsPerGe,
                  tiling.numGe, tiling.blockSize);
    return buf;
}

std::string
PlanStore::path(std::uint64_t fingerprint,
                const TilingParams &tiling) const
{
    return (fs::path(directory_) / fileName(fingerprint, tiling))
        .string();
}

bool
PlanStore::contains(std::uint64_t fingerprint,
                    const TilingParams &tiling) const
{
    std::error_code ec;
    return fs::exists(path(fingerprint, tiling), ec);
}

TilePlanPtr
PlanStore::load(std::uint64_t fingerprint,
                const TilingParams &tiling) const
{
    const std::string file = path(fingerprint, tiling);
    std::error_code ec;
    if (!fs::exists(file, ec)) {
        loadMisses_.fetch_add(1, std::memory_order_relaxed);
        perf::Registry::instance()
            .counter("store.load_misses")
            .add();
        return nullptr;
    }

    const auto reject = [this, &file](const std::string &why) {
        loadRejects_.fetch_add(1, std::memory_order_relaxed);
        perf::Registry::instance()
            .counter("store.load_rejects")
            .add();
        // An artifact existed but could not be used: the caller falls
        // back to a fresh prepare. This is the degradation contract
        // ("corruption degrades, never crashes") made observable.
        perf::Registry::instance()
            .counter("store.degraded_loads")
            .add();
        GRAPHR_WARN("plan store: ignoring ", file, ": ", why,
                    " — preparing afresh");
        return nullptr;
    };

    std::vector<unsigned char> bytes;
    if (!readFile(file, bytes))
        return reject("unreadable");

    Header h;
    std::string issue;
    if (!decodeHeader(bytes.data(), bytes.size(), h, issue))
        return reject(issue);
    if (h.fingerprint != fingerprint)
        return reject("stale graph fingerprint");
    if (h.tiling.crossbarDim != tiling.crossbarDim ||
        h.tiling.crossbarsPerGe != tiling.crossbarsPerGe ||
        h.tiling.numGe != tiling.numGe ||
        h.tiling.blockSize != tiling.blockSize)
        return reject("tiling mismatch");

    TilePlanPtr plan;
    try {
        // The plan keeps the bytes it read: its stream is the payload
        // after the codec tag, indexed by one validating pass.
        checkPayload(h, bytes.data() + kHeaderBytes,
                     bytes.size() - kHeaderBytes);
        plan = std::make_shared<const TilePlan>(
            static_cast<VertexId>(h.vertices), h.tiling, std::move(bytes),
            kHeaderBytes + kCodecTagBytes, h.fingerprint);
        checkTotals(h, plan->ordered.numEdges(),
                    plan->ordered.numNonEmptyTiles());
    } catch (const CodecError &e) {
        return reject(e.what());
    } catch (const PartitionError &e) {
        return reject(e.what());
    }

    loadHits_.fetch_add(1, std::memory_order_relaxed);
    perf::Registry::instance().counter("store.load_hits").add();
    return plan;
}

std::string
PlanStore::save(const TilePlan &plan, const TilingParams &tiling) const
{
    // The payload is the codec tag and the plan's stream, unchanged.
    const std::span<const unsigned char> stream = plan.ordered.stream();
    Xxh64 payload_hash;
    payload_hash.update(&kCodecDelta, kCodecTagBytes);
    payload_hash.update(stream.data(), stream.size());

    Header h;
    h.version = kFormatVersion;
    h.fingerprint = plan.fingerprint;
    h.vertices = plan.partition.numVertices();
    h.tiling = tiling;
    h.edges = plan.ordered.numEdges();
    h.tiles = plan.ordered.numNonEmptyTiles();
    h.totalNnz = plan.meta.totalNnz();
    h.payloadBytes = kCodecTagBytes + stream.size();
    h.payloadChecksum = payload_hash.digest();

    ByteWriter header;
    encodeHeader(header, h);
    GRAPHR_ASSERT(header.bytes().size() == kHeaderBytes,
                  "header layout drifted");
    header.raw(kCodecDelta);

    const std::string final_path = path(plan.fingerprint, tiling);
    const std::string tmp_path = final_path + tempSuffix();
    {
        const int fd =
            GRAPHR_FAILPOINT("store.write.fail")
                ? -1
                : ::open(tmp_path.c_str(),
                         O_WRONLY | O_CREAT | O_TRUNC, 0666);
        if (fd < 0) {
            throw StoreError("cannot write plan artifact '" +
                             tmp_path + "'");
        }
        std::string why;
        bool ok = writeFull(fd, header.bytes().data(),
                            header.bytes().size(), why) &&
                  writeFull(fd, stream.data(), stream.size(), why);
        // Crash durability: the artifact bytes must be on stable
        // storage *before* the rename publishes the name. Without
        // this fsync a crash shortly after save() could leave the
        // final name pointing at torn data — rename orders the
        // metadata, not the file contents.
        if (ok && (GRAPHR_FAILPOINT("store.fsync.fail") ||
                   ::fsync(fd) != 0)) {
            why = "fsync failed";
            ok = false;
        }
        if (::close(fd) != 0 && ok) {
            why = std::strerror(errno);
            ok = false;
        }
        if (!ok) {
            std::error_code ec;
            fs::remove(tmp_path, ec);
            throw StoreError("failed writing plan artifact '" +
                             tmp_path + "': " + why);
        }
    }
    std::error_code ec;
    if (GRAPHR_FAILPOINT("store.rename.fail"))
        ec = std::make_error_code(std::errc::io_error);
    else
        fs::rename(tmp_path, final_path, ec);
    if (ec) {
        const std::string reason = ec.message();
        fs::remove(tmp_path, ec);
        throw StoreError("cannot move plan artifact into place at '" +
                         final_path + "': " + reason);
    }
    // Make the publishing rename itself durable. A failure here only
    // weakens durability of an already-valid, already-visible
    // artifact, so it warns instead of throwing.
    const int dirfd =
        ::open(directory_.c_str(), O_RDONLY | O_DIRECTORY);
    if (dirfd < 0 || ::fsync(dirfd) != 0) {
        GRAPHR_WARN("plan store: cannot fsync directory '",
                    directory_, "': ", std::strerror(errno),
                    " — artifact saved but the rename may not "
                    "survive a crash");
    }
    if (dirfd >= 0)
        ::close(dirfd);
    saves_.fetch_add(1, std::memory_order_relaxed);
    perf::Registry::instance().counter("store.saves").add();
    return final_path;
}

std::vector<PlanArtifactInfo>
PlanStore::list() const
{
    std::vector<PlanArtifactInfo> out;
    std::error_code ec;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(directory_, ec)) {
        if (!entry.is_regular_file(ec))
            continue;
        const fs::path &p = entry.path();
        if (p.extension() != ".gplan")
            continue;

        PlanArtifactInfo info;
        info.file = p.filename().string();
        info.bytes = entry.file_size(ec);

        std::vector<unsigned char> bytes;
        if (!readFile(p.string(), bytes)) {
            info.issue = "unreadable";
            out.push_back(std::move(info));
            continue;
        }
        Header h;
        std::string issue;
        if (decodeHeader(bytes.data(), bytes.size(), h, issue)) {
            info.fingerprint = h.fingerprint;
            info.tiling = h.tiling;
            info.vertices = h.vertices;
            info.edges = h.edges;
            info.tiles = h.tiles;
            info.payloadBytes = h.payloadBytes;
            // The load's validating pass: listing promises the same
            // validation depth a load performs.
            try {
                const GridPartition part(
                    static_cast<VertexId>(h.vertices), h.tiling);
                const unsigned char *payload = bytes.data() + kHeaderBytes;
                const std::size_t size = bytes.size() - kHeaderBytes;
                checkPayload(h, payload, size);
                const std::vector<TileSpan> tiles = indexEdgeStream(
                    part, std::span<const unsigned char>(
                              payload + kCodecTagBytes,
                              size - kCodecTagBytes));
                checkTotals(h,
                            tiles.empty() ? 0
                                          : tiles.back().firstEdge +
                                                tiles.back().numEdges,
                            tiles.size());
                info.valid = true;
            } catch (const CodecError &e) {
                issue = e.what();
            } catch (const PartitionError &e) {
                issue = e.what();
            }
        }
        info.version = h.version;
        info.issue = info.valid ? "" : issue;
        out.push_back(std::move(info));
    }
    std::sort(out.begin(), out.end(),
              [](const PlanArtifactInfo &a, const PlanArtifactInfo &b) {
                  return a.file < b.file;
              });
    return out;
}

} // namespace graphr
