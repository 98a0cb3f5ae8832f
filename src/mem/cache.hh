/**
 * @file
 * A set-associative cache model with true LRU replacement, used for
 * the L1i/L1d/L2/L3 levels of the timing-approximate simulator and
 * for its two L1 TLBs (Table II).  Timing, not data, is modeled: an
 * access either hits or misses-and-fills.
 *
 * Storage per way is a tag word and a one-byte fingerprint of it;
 * per set it is one recency word.
 * - A way holds its tag plus one, so 0 marks an empty way and no
 *   valid bits are kept.
 * - The fingerprints of a set are contiguous bytes.  A lookup
 *   compares eight of them per word-wide step and reads full tags
 *   only on the ways whose fingerprint matches.
 * - The recency word lists the set's ways from MRU (low nibble) to
 *   LRU, one 4-bit way number per nibble, which bounds the
 *   associativity at 16.  A fresh set lists its ways in descending
 *   order, so the LRU end is way 0 and fills claim empty ways in
 *   ascending order before evicting the least recently used line.
 */

#ifndef CHIRP_MEM_CACHE_HH
#define CHIRP_MEM_CACHE_HH

#include <bit>
#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

#include "util/bitfield.hh"
#include "util/types.hh"

namespace chirp
{

/** Geometry and latency of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 64 * 1024;
    std::uint32_t assoc = 8;
    std::uint32_t lineBytes = 64;
    Cycles latency = 4; //!< access latency when this level hits
};

/** One level of cache. */
class Cache
{
  public:
    /** Ways one recency word can order. */
    static constexpr std::uint32_t kMaxAssoc = 16;

    explicit Cache(const CacheConfig &config);

    /**
     * Look up @p addr; on a miss the line is allocated (evicting
     * LRU).
     * @return true on hit.
     */
    bool
    access(Addr addr, bool write)
    {
        (void)write; // allocate-on-write; no dirty-state modeling needed
        return accessKey(addr >> lineShift_);
    }

    /**
     * access() by key rather than by byte address: the low bits of
     * @p key select the set and the rest is the tag.  A line number
     * is one such key; the L1 TLBs use Tlb::keyOf, which folds the
     * ASID and page size into the tag bits.
     * @return true on hit.
     */
    bool
    accessKey(Addr key)
    {
        const auto [set, stored] = slotOfKey(key);
        // Most hits (every fetch after the first in a line) land on
        // the MRU way, whose recency is already right.
        if (tags_[set * assoc_ + (recency_[set] & 0xf)] == stored) {
            ++hits_;
            return true;
        }
        const int way = findWay(set, stored);
        if (way < 0) {
            fill(set, stored);
            return false;
        }
        recency_[set] =
            promoted(recency_[set], static_cast<std::uint32_t>(way));
        ++hits_;
        return true;
    }

    /**
     * @p n >= 1 consecutive accessKey(@p key) calls.  The first one
     * hits or fills and leaves the line MRU, so the n - 1 repeats are
     * hits that change no recency.
     * @return the first access's hit result.
     */
    bool
    accessKeyRun(Addr key, std::uint64_t n)
    {
        const bool first = accessKey(key);
        hits_ += n - 1;
        return first;
    }

    /**
     * Allocate @p addr's line if it is absent, counting the miss
     * exactly as access() would.  A present line is left as it is:
     * no hit is counted and its recency does not change.
     * @return true when the line was already present.
     */
    bool
    fillIfAbsent(Addr addr)
    {
        const auto [set, stored] = slotOf(addr);
        if (findWay(set, stored) >= 0)
            return true;
        fill(set, stored);
        return false;
    }

    /** Hit check without any state change (tests). */
    bool probe(Addr addr) const;

    /** Drop all lines and zero statistics. */
    void reset();

    /** Drop all lines but keep the statistics (a flush). */
    void invalidateAll();

    const CacheConfig &config() const { return config_; }
    Cycles latency() const { return config_.latency; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    /** Counted lookups: hits plus misses, prefetch fills included. */
    std::uint64_t accesses() const { return hits_ + misses_; }

  private:
    /** Where a line lives: its set and its stored tag (tag plus one). */
    struct Slot
    {
        std::size_t set;
        Addr stored;
    };

    Slot
    slotOf(Addr addr) const
    {
        return slotOfKey(addr >> lineShift_);
    }

    Slot
    slotOfKey(Addr key) const
    {
        return {static_cast<std::size_t>(key & setMask_),
                (key >> setShift_) + 1};
    }

    static std::uint8_t
    fingerprint(Addr stored)
    {
        return static_cast<std::uint8_t>(
            (stored * 0x9e3779b97f4a7c15ull) >> 56);
    }

    /** Way of @p set holding @p stored, or -1. */
    int
    findWay(std::size_t set, Addr stored) const
    {
        constexpr std::uint64_t kByteOnes = 0x0101010101010101ull;
        const Addr *tags = tags_.data() + set * assoc_;
        const std::uint8_t *fps = fingerprints_.data() + set * assoc_;
        const std::uint64_t pattern = fingerprint(stored) * kByteOnes;
        for (std::uint32_t base = 0; base < assoc_; base += 8) {
            std::uint64_t word;
            std::memcpy(&word, fps + base, sizeof(word));
            // Flag the zero bytes of word ^ pattern: every matching
            // fingerprint, plus possibly a few others the tag check
            // rejects.
            const std::uint64_t x = word ^ pattern;
            std::uint64_t match = (x - kByteOnes) & ~x & (kByteOnes << 7);
            if (assoc_ - base < 8)
                match &= maskBits(8 * (assoc_ - base));
            for (; match != 0; match &= match - 1) {
                const std::uint32_t way =
                    base + (static_cast<std::uint32_t>(
                                std::countr_zero(match)) >> 3);
                if (tags[way] == stored)
                    return static_cast<int>(way);
            }
        }
        return -1;
    }

    /** @p list with @p way moved from its position to the MRU end. */
    static std::uint64_t
    promoted(std::uint64_t list, std::uint32_t way)
    {
        constexpr std::uint64_t kNibbleOnes = 0x1111111111111111ull;
        // The lowest zero nibble of list ^ way-in-every-nibble is
        // @p way's position; the borrow trick flags it exactly (only
        // nibbles above the first zero can be flagged spuriously).
        const std::uint64_t x = list ^ (way * kNibbleOnes);
        const std::uint64_t zeros =
            (x - kNibbleOnes) & ~x & (kNibbleOnes << 3);
        const unsigned at =
            static_cast<unsigned>(std::countr_zero(zeros)) & ~3u;
        const std::uint64_t below = list & maskBits(at);
        const std::uint64_t above = list & ~maskBits(at + 4);
        return above | (below << 4) | way;
    }

    /** Miss path: count the miss and put @p stored in the LRU way. */
    void fill(std::size_t set, Addr stored);

    CacheConfig config_;
    unsigned lineShift_;
    unsigned setShift_;
    Addr setMask_;
    std::uint32_t assoc_;
    std::uint64_t freshRecency_; //!< recency word of an empty set
    std::vector<Addr> tags_;     //!< sets x assoc; tag + 1, 0 = empty
    /** sets x assoc fingerprints, plus a word of padding for findWay. */
    std::vector<std::uint8_t> fingerprints_;
    std::vector<std::uint64_t> recency_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace chirp

#endif // CHIRP_MEM_CACHE_HH
