/**
 * @file
 * The 64-bit hashes behind the graph fingerprint, the on-disk plan
 * store and the in-memory cache keys.
 *
 * XXH64 (xxHash's 64-bit algorithm, seed 0) names and guards every
 * artifact: CooGraph::fingerprint() is an XXH64 of the graph's edge
 * records, a store artifact is keyed by that fingerprint in its
 * header, and its payload and header checksums are XXH64 too. It
 * folds 32 bytes per step into four independent lanes, so hashing a
 * graph costs about what reading its edges does.
 *
 * FNV-1a 64 is the byte-serial fold the fingerprint and the store
 * used before store format 3. It stays for short keys (in-memory
 * hash tables) and for digests pinned before the switch: the
 * benchmark's report digest, the paper-tiling test digests, and the
 * legacy fingerprints that pin the graph generators.
 *
 * Neither is cryptographic: both guard against corruption and
 * staleness, not adversaries, which is all a local artifact cache
 * needs.
 */

#ifndef GRAPHR_COMMON_CHECKSUM_HH
#define GRAPHR_COMMON_CHECKSUM_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace graphr
{

/** Streaming XXH64 hasher (seed 0). */
class Xxh64
{
  public:
    static constexpr std::uint64_t kPrime1 = 0x9e3779b185ebca87ull;
    static constexpr std::uint64_t kPrime2 = 0xc2b2ae3d27d4eb4full;
    static constexpr std::uint64_t kPrime3 = 0x165667b19e3779f9ull;
    static constexpr std::uint64_t kPrime4 = 0x85ebca77c2b2ae63ull;
    static constexpr std::uint64_t kPrime5 = 0x27d4eb2f165667c5ull;

    /** Fold @p size raw bytes into the state; any split of a byte
     *  range over calls gives the same digest. */
    void
    update(const void *data, std::size_t size)
    {
        if (size == 0)
            return;
        const auto *p = static_cast<const unsigned char *>(data);
        total_ += size;
        if (buffered_ + size < kStripe) {
            std::memcpy(buffer_ + buffered_, p, size);
            buffered_ += size;
            return;
        }
        if (buffered_ > 0) {
            const std::size_t fill = kStripe - buffered_;
            std::memcpy(buffer_ + buffered_, p, fill);
            stripes(buffer_, kStripe);
            p += fill;
            size -= fill;
            buffered_ = 0;
        }
        const std::size_t whole = size - size % kStripe;
        stripes(p, whole);
        buffered_ = size - whole;
        std::memcpy(buffer_, p + whole, buffered_);
    }

    /** Fold one 64-bit word as its 8 little-endian bytes. */
    void
    updateWord(std::uint64_t word)
    {
        unsigned char bytes[8];
        for (int i = 0; i < 8; ++i)
            bytes[i] = static_cast<unsigned char>(word >> (8 * i));
        update(bytes, sizeof(bytes));
    }

    std::uint64_t
    digest() const
    {
        std::uint64_t h;
        if (total_ >= kStripe) {
            h = std::rotl(lanes_[0], 1) + std::rotl(lanes_[1], 7) +
                std::rotl(lanes_[2], 12) + std::rotl(lanes_[3], 18);
            for (const std::uint64_t lane : lanes_)
                h = (h ^ round(0, lane)) * kPrime1 + kPrime4;
        } else {
            h = kPrime5;
        }
        h += total_;

        const unsigned char *p = buffer_;
        std::size_t left = buffered_;
        for (; left >= 8; p += 8, left -= 8)
            h = std::rotl(h ^ round(0, load64(p)), 27) * kPrime1 + kPrime4;
        if (left >= 4) {
            h = std::rotl(h ^ (load32(p) * kPrime1), 23) * kPrime2 +
                kPrime3;
            p += 4;
            left -= 4;
        }
        for (; left > 0; ++p, --left)
            h = std::rotl(h ^ (*p * kPrime5), 11) * kPrime1;

        h ^= h >> 33;
        h *= kPrime2;
        h ^= h >> 29;
        h *= kPrime3;
        h ^= h >> 32;
        return h;
    }

  private:
    static constexpr std::size_t kStripe = 32;

    static std::uint64_t
    round(std::uint64_t lane, std::uint64_t input)
    {
        return std::rotl(lane + input * kPrime2, 31) * kPrime1;
    }

    /** Little-endian loads: the digest is the same on every host. */
    static std::uint64_t
    load64(const unsigned char *p)
    {
        std::uint64_t v = 0;
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(&v, p, sizeof(v));
        } else {
            for (int i = 0; i < 8; ++i)
                v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
        }
        return v;
    }

    static std::uint64_t
    load32(const unsigned char *p)
    {
        std::uint64_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
        return v;
    }

    /** Fold @p size bytes, a multiple of kStripe, into the lanes. */
    void
    stripes(const unsigned char *p, std::size_t size)
    {
        std::uint64_t v0 = lanes_[0], v1 = lanes_[1], v2 = lanes_[2],
                      v3 = lanes_[3];
        for (const unsigned char *end = p + size; p != end; p += kStripe) {
            v0 = round(v0, load64(p));
            v1 = round(v1, load64(p + 8));
            v2 = round(v2, load64(p + 16));
            v3 = round(v3, load64(p + 24));
        }
        lanes_[0] = v0;
        lanes_[1] = v1;
        lanes_[2] = v2;
        lanes_[3] = v3;
    }

    std::uint64_t lanes_[4] = {kPrime1 + kPrime2, kPrime2, 0,
                               0 - kPrime1};
    std::uint64_t total_ = 0;
    unsigned char buffer_[kStripe] = {};
    std::size_t buffered_ = 0;
};

/** One-shot XXH64 (seed 0) over a byte range. */
inline std::uint64_t
xxh64(const void *data, std::size_t size)
{
    Xxh64 h;
    h.update(data, size);
    return h.digest();
}

/** Streaming FNV-1a 64-bit hasher. */
class Fnv1a64
{
  public:
    static constexpr std::uint64_t kOffset = 0xcbf29ce484222325ull;
    static constexpr std::uint64_t kPrime = 1099511628211ull;

    /** Fold @p size raw bytes into the state. */
    void
    update(const void *data, std::size_t size)
    {
        const auto *bytes = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < size; ++i) {
            state_ ^= bytes[i];
            state_ *= kPrime;
        }
    }

    /** Fold one 64-bit word, least-significant byte first. */
    void
    updateWord(std::uint64_t word)
    {
        for (int i = 0; i < 8; ++i) {
            state_ ^= (word >> (8 * i)) & 0xffu;
            state_ *= kPrime;
        }
    }

    std::uint64_t digest() const { return state_; }

  private:
    std::uint64_t state_ = kOffset;
};

/** One-shot FNV-1a 64 over a byte range. */
inline std::uint64_t
fnv1a64(const void *data, std::size_t size)
{
    Fnv1a64 h;
    h.update(data, size);
    return h.digest();
}

} // namespace graphr

#endif // GRAPHR_COMMON_CHECKSUM_HH
