/**
 * @file
 * On-disk preprocessing store: persistent TilePlan artifacts.
 *
 * GraphR's workflow is split into an offline preprocessing step (edge
 * sort into streaming-apply order, tiling, sparsity analysis — paper
 * section 3.4) and an online execution step. The in-process PlanCache
 * already memoises plans within one process; this store makes them
 * durable across processes, so a cold start loads the prepared
 * artifact with sequential I/O instead of re-paying the edge sort
 * and the metadata pass.
 *
 * File format (one file per (graph fingerprint, tiling), all fields
 * native-endian — these are local cache artifacts, not interchange):
 *
 *   header (88 bytes):
 *     u32  magic "GPLN"
 *     u32  format version (currently 3)
 *     u64  graph fingerprint (graphFingerprint, XXH64)
 *     u64  vertex count
 *     u32  crossbarDim, u32 crossbarsPerGe, u32 numGe, u32 blockSize
 *     u64  edge count
 *     u64  non-empty tile count
 *     u64  total nnz (TileMetaTable invariant)
 *     u64  payload byte count
 *     u64  payload checksum (XXH64 over the payload bytes)
 *     u64  header checksum (XXH64 over the 80 bytes above)
 *   payload:
 *     u32  codec tag "DLT1"
 *     the bit-packed delta-coded edge stream of graph/edge_codec.hh:
 *     per-tile local-cell-ID delta streams (fixed-width low-bits plane
 *     + zero-run/varint exception stream) with per-tile weight modes.
 *     The stream is the plan's own: save() writes the plan's bytes
 *     unchanged, and load() keeps the bytes it read, indexed by one
 *     validating pass that records each tile's byte offset. The
 *     per-tile metadata is described on load from the stream's cell
 *     IDs — warm results stay byte-identical because it is the same
 *     deterministic code a fresh prepare runs.
 *
 * Older layouts are not migrated: a format v1 artifact (uncompressed
 * edge records, tile spans and metadata table, no codec tag) and a
 * v2 artifact (this layout, but named and checksummed with FNV-1a)
 * both fail version gating. The load is rejected and the caller
 * transparently re-prepares and re-saves, per the store's versioning
 * contract, so a v2 store is cold once. A payload with an unknown
 * codec tag (such as the retired uncompressed "RAW0") is rejected
 * the same way.
 *
 * Loads validate magic -> version -> header checksum -> fingerprint &
 * tiling -> payload size & checksum before any payload is trusted;
 * every failure degrades to a miss (fresh prepare), never a crash —
 * each such degradation is published as `store.degraded_loads`.
 * Saves write to a unique temporary in the same directory, fsync it,
 * atomically rename over the final name, then fsync the directory:
 * readers only ever see complete files, and a crash at any point
 * leaves either the old artifact or the new one, never torn bytes
 * under the final name. Loads read the whole artifact once, with one
 * chunked POSIX read loop, into the buffer the plan keeps; transient
 * I/O errors (EINTR/EAGAIN, short transfers) are retried with bounded
 * backoff (`store.retries`) on both the read and the write path. Both paths carry fault-injection
 * sites (common/failpoint.hh, the `store.*` names) so the degradation
 * and durability contracts are exercised by tests/chaos.sh rather
 * than merely asserted here.
 */

#ifndef GRAPHR_STORE_PLAN_STORE_HH
#define GRAPHR_STORE_PLAN_STORE_HH

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "graphr/engine/tile_plan.hh"

namespace graphr
{

/** Unusable store directory or failed artifact write. */
class StoreError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Driver-facing description of an artifact store. Plumbed through
 * RunSpec/SweepSpec and the graphr_run --plan-dir flag; an empty
 * planDir means "no store".
 */
struct StoreSpec
{
    /** Directory holding .gplan artifacts (created on first use). */
    std::string planDir;
};

/** One artifact as seen by listing (the `store stats` subcommand). */
struct PlanArtifactInfo
{
    std::string file; ///< file name within the store directory
    std::uint64_t bytes = 0;
    bool valid = false;  ///< full header + payload validation passed
    std::string issue;   ///< why invalid ("" when valid)
    // Header fields (meaningful when the header was readable):
    std::uint32_t version = 0; ///< on-disk format version (0: unread)
    std::uint64_t fingerprint = 0;
    TilingParams tiling;
    std::uint64_t vertices = 0;
    std::uint64_t edges = 0;
    std::uint64_t tiles = 0;
    std::uint64_t payloadBytes = 0; ///< payload size per the header
};

/**
 * Directory of persistent TilePlan artifacts. Thread-safe: loads are
 * read-only, saves are write-then-rename with unique temporaries, so
 * concurrent writers of the same key race benignly (last rename
 * wins, every version is complete and valid) and readers never see a
 * partial file. Failure split: load() treats every defect as a miss
 * (nullptr — the caller re-prepares), while save() throws StoreError
 * on I/O failure, because losing an artifact the user asked to
 * persist must be loud.
 */
class PlanStore
{
  public:
    static constexpr std::uint32_t kFormatVersion = 3;

    /** Load/save/reject counters since construction. */
    struct Stats
    {
        std::uint64_t loadHits = 0;    ///< valid artifact deserialised
        std::uint64_t loadMisses = 0;  ///< no file for the key
        std::uint64_t loadRejects = 0; ///< file present but invalid
        std::uint64_t saves = 0;
    };

    /** How a store directory is opened. */
    enum class Mode
    {
        /** Create the directory if needed and require writability. */
        kReadWrite,
        /** Require an existing directory; never write (listing). */
        kReadOnly,
    };

    /**
     * Open the store directory. Throws StoreError with an actionable
     * message when the path is unusable for the requested mode
     * (missing and uncreatable, not a directory, or — for kReadWrite
     * — not writable).
     */
    explicit PlanStore(const std::string &directory,
                       Mode mode = Mode::kReadWrite);

    const std::string &directory() const { return directory_; }

    /**
     * Load the artifact for (fingerprint, tiling). Returns nullptr on
     * any miss: absent file, wrong magic/version, checksum mismatch,
     * stale fingerprint, tiling mismatch, or truncation — the caller
     * falls back to a fresh prepare.
     */
    TilePlanPtr load(std::uint64_t fingerprint,
                     const TilingParams &tiling) const;

    /**
     * Persist a plan (atomic write-then-rename). Throws StoreError on
     * I/O failure; returns the final file path.
     */
    std::string save(const TilePlan &plan,
                     const TilingParams &tiling) const;

    /** Whether an artifact file exists for the key (no validation). */
    bool contains(std::uint64_t fingerprint,
                  const TilingParams &tiling) const;

    /** Scan the directory, fully validating each .gplan artifact. */
    std::vector<PlanArtifactInfo> list() const;

    Stats
    stats() const
    {
        return Stats{loadHits_.load(std::memory_order_relaxed),
                     loadMisses_.load(std::memory_order_relaxed),
                     loadRejects_.load(std::memory_order_relaxed),
                     saves_.load(std::memory_order_relaxed)};
    }

    /** Canonical artifact file name for a key. */
    static std::string fileName(std::uint64_t fingerprint,
                                const TilingParams &tiling);

  private:
    std::string path(std::uint64_t fingerprint,
                     const TilingParams &tiling) const;

    std::string directory_;
    mutable std::atomic<std::uint64_t> loadHits_{0};
    mutable std::atomic<std::uint64_t> loadMisses_{0};
    mutable std::atomic<std::uint64_t> loadRejects_{0};
    mutable std::atomic<std::uint64_t> saves_{0};
};

} // namespace graphr

#endif // GRAPHR_STORE_PLAN_STORE_HH
