/**
 * @file
 * A set-associative TLB with a pluggable replacement policy.
 *
 * The TLB is the structure under study: every policy event hook is
 * driven from here, and the per-entry efficiency accounting of Fig 1
 * hangs off the fill/hit/evict events.  TlbHierarchy uses it for the
 * unified L2 TLB; its fixed-LRU L1 TLBs are plain Cache instances
 * keyed by keyOf().
 */

#ifndef CHIRP_TLB_TLB_HH
#define CHIRP_TLB_TLB_HH

#include <memory>
#include <string>

#include "core/replacement_policy.hh"
#include "mem/set_assoc.hh"
#include "tlb/efficiency.hh"
#include "tlb/page_map.hh"
#include "util/types.hh"

namespace chirp
{

/**
 * Is generic virtual policy dispatch forced via the
 * CHIRP_FORCE_VIRTUAL environment variable?  Read at construction
 * time by Tlb and TlbHierarchy; the equality tests flip it to prove
 * the devirtualized event sequences are state-identical to the
 * virtual ones.  Set (non-empty, not "0") means forced.
 */
bool forceVirtualDispatch();

/**
 * Is the batched miss path enabled (the default)?  CHIRP_BATCH_MISS=0
 * in the environment disables it, making accessBatch() run the scalar
 * one-access-at-a-time reference loop — the opt-out the equality CI
 * legs diff against.  Read at construction time by Tlb.
 */
bool batchMissPath();

/** Geometry and latency of one TLB level. */
struct TlbConfig
{
    std::string name = "tlb";
    std::uint32_t entries = 1024;
    std::uint32_t assoc = 8;
    Cycles hitLatency = 8;
};

/** One TLB level. */
class Tlb
{
  public:
    /** The policy is owned by the TLB. */
    Tlb(const TlbConfig &config,
        std::unique_ptr<ReplacementPolicy> policy);

    /**
     * Perform one access: drives the policy's onHit / selectVictim /
     * onFill / onAccessEnd hooks and allocates on miss.
     * @param info the access; the page comes from info.vaddr
     * @param asid address-space tag of the access
     * @param now current time (instruction index) for efficiency
     * @param page_shift log2 page size backing the address: one
     *        entry covers the whole 4KB or 2MB page
     * @return true on hit.
     */
    bool
    access(const AccessInfo &info, Asid asid, std::uint64_t now,
           unsigned page_shift = kPageShift)
    {
        ++accesses_;
        return accessSlow(info, asid, now,
                          keyOf(info.vaddr, asid, page_shift));
    }

    /**
     * Perform @p n accesses as one batch: exactly the state evolution
     * and counter updates of n sequential access() calls (hits[i]
     * mirrors each return value), with the policy dispatch resolved
     * once for the whole batch and each access's set metadata
     * prefetched a few slots ahead of its scan.  @p keys must hold
     * keysOf()/keyOf() of each access — callers precompute the column
     * so the key composition vectorizes over the chunk.
     */
    void accessBatch(const AccessInfo *infos, const Addr *keys,
                     const std::uint64_t *nows, std::size_t n,
                     Asid asid, std::uint8_t *hits);

    /**
     * Does accessBatch() run the batched miss path (policy chunk
     * precompute + deferred bulk counters) rather than the scalar
     * reference loop?  Fixed at construction from CHIRP_BATCH_MISS;
     * the bench reports it so committed baselines are
     * self-describing.
     */
    bool missPathBatched() const { return batchMiss_; }

    /** Key combining page number, size class and ASID for set/tag
     *  mapping. */
    static Addr
    keyOf(Addr vaddr, Asid asid, unsigned page_shift)
    {
        // ASID and the size class mix into the tag bits only (the
        // set index stays a pure page-number slice, as in real L2
        // TLBs); the size bit keeps a 2MB entry from aliasing the
        // 4KB page sharing its number.
        const Addr size_bit =
            page_shift == kPageShift ? 0 : (Addr{1} << 51);
        return (vaddr >> page_shift) | size_bit |
               (static_cast<Addr>(asid) << 52);
    }

    /**
     * keyOf() over a column: keys[i] = keyOf(vaddrs[i], asid,
     * page_shifts[i]), composed by the lane-parallel simd kernel.
     */
    static void keysOf(const Addr *vaddrs,
                       const std::uint8_t *page_shifts, std::size_t n,
                       Asid asid, Addr *keys);

    /** Hit check with no state change. */
    bool probe(Addr vaddr, Asid asid,
               unsigned page_shift = kPageShift) const;

    /** Invalidate every entry (full flush). */
    void flushAll(std::uint64_t now);

    /** Invalidate all entries of @p asid (context flush). */
    void flushAsid(Asid asid, std::uint64_t now);

    /** Close out efficiency accounting for still-resident entries. */
    void finalizeEfficiency(std::uint64_t now);

    /** Reset entries, policy state and statistics. */
    void reset();

    const TlbConfig &config() const { return config_; }
    ReplacementPolicy &policy() { return *policy_; }
    const ReplacementPolicy &policy() const { return *policy_; }

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    /** Evictions of valid entries (capacity/conflict turnover). */
    std::uint64_t evictions() const { return evictions_; }

    const EfficiencyTracker &efficiency() const { return efficiency_; }

    std::uint32_t numSets() const { return array_.numSets(); }
    std::uint32_t assoc() const { return array_.assoc(); }

    /** Valid-entry count (tests). */
    std::uint64_t validCount() const { return array_.validCount(); }

  private:
    /**
     * Resolved dynamic type of the policy, fixed at construction.
     * accessSlow branches on it once per access and then runs a
     * policy-specific instantiation whose hook calls the compiler
     * devirtualizes and inlines (all concrete policies are final and
     * keep their hot hooks in their headers).  Generic is the plain
     * virtual-dispatch path: subclasses of the known policies, and
     * every policy when CHIRP_FORCE_VIRTUAL is set.
     */
    enum class PolicyKind : std::uint8_t
    {
        Generic,
        Lru,
        Chirp,
        Ship,
        Ghrp,
        Srrip,
    };

    /** Hit/miss handling of one access, dispatched on kind_. */
    bool accessSlow(const AccessInfo &info, Asid asid,
                    std::uint64_t now, Addr key);

    /**
     * Statistics sinks for accessCore: DirectAcct writes the member
     * counters and the efficiency tracker per event (the scalar
     * reference); DeferredAcct accumulates a chunk's worth into
     * locals the batched miss path flushes in bulk at the chunk
     * boundary.  Addition is associative, so both land on
     * bit-identical totals.
     */
    struct DirectAcct;
    struct DeferredAcct;

    /**
     * One access's hit/miss sequence with hooks bound to @p Policy
     * and hit/miss/eviction statistics routed through @p Acct.
     */
    template <typename Policy, typename Acct>
    bool accessCore(Policy *policy, const AccessInfo &info, Asid asid,
                    std::uint64_t now, Addr key, Acct &acct);

    /** The access sequence with hooks bound to @p Policy. */
    template <typename Policy>
    bool accessSlowImpl(Policy *policy, const AccessInfo &info,
                        Asid asid, std::uint64_t now, Addr key);

    /** The batch loop with hooks bound to @p Policy. */
    template <typename Policy>
    void accessBatchImpl(Policy *policy, const AccessInfo *infos,
                         const Addr *keys, const std::uint64_t *nows,
                         std::size_t n, Asid asid, std::uint8_t *hits);

    /** Per-entry payload. */
    struct Entry
    {
        Asid asid = 0;
        std::uint64_t fillTime = 0;
        std::uint64_t lastHitTime = 0;
    };

    TlbConfig config_;
    SetAssocArray<Entry> array_;
    std::unique_ptr<ReplacementPolicy> policy_;
    EfficiencyTracker efficiency_;
    PolicyKind kind_ = PolicyKind::Generic;
    // Batched miss path enabled (CHIRP_BATCH_MISS, construction-time).
    bool batchMiss_ = true;
    std::uint64_t accesses_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace chirp

#endif // CHIRP_TLB_TLB_HH
