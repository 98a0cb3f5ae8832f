/**
 * @file
 * Control-flow History Reuse Prediction — the paper's contribution
 * (§IV, Algorithm 5).
 *
 * Per-entry metadata: a 16-bit signature, a dead-prediction bit, a
 * first-hit bit and a 3-bit LRU stack position (Table I).  A single
 * table of 2-bit saturating counters, indexed by a hash of the
 * signature, provides dead predictions.
 *
 * Signature (computed from the PRE-update histories, line 5):
 *     sign = (PC >> 2) ^ pathHist ^ condBrHist ^ uncondBrHist
 *
 * Training is deliberately rare (§IV-E):
 *  - on a miss, the table is written only when the victim was chosen
 *    by LRU (no dead candidate): increment at the victim's stored
 *    signature;
 *  - on a hit, the table is touched only on the entry's *first* hit,
 *    and — Selective Hit Update — only when the access targets a
 *    different set than the previous access: decrement at the old
 *    stored signature, then read at the new signature to refresh the
 *    dead bit.
 *
 * Victim selection prefers the first dead-predicted entry and falls
 * back to LRU.  Every deviation from this default (history
 * components, zero injection, update filters, table geometry) is a
 * ChirpConfig knob so the Fig 2/6/9 ablations are configuration-only.
 *
 * Hot-path layout: per-entry metadata is stored structure-of-arrays
 * (signatures, dead bits and first-hit bits each in their own
 * contiguous per-set run) so the victim scan walks one small array,
 * and the per-access signature is composed once in onAccessBegin and
 * memoized across the hit/victim/fill hooks of the same access.  The
 * hook bodies are inline so the TLB's devirtualized dispatch can
 * flatten the whole event sequence into its access loop.
 */

#ifndef CHIRP_CORE_CHIRP_HH
#define CHIRP_CORE_CHIRP_HH

#include <cassert>
#include <vector>

#include "core/history.hh"
#include "core/prediction_table.hh"
#include "core/replacement_policy.hh"
#include "core/ship.hh" // HitUpdateMode
#include "util/simd.hh"

namespace chirp
{

/** CHiRP configuration (defaults = the paper's main configuration). */
struct ChirpConfig
{
    /** History-register shapes and components. */
    HistoryConfig history;
    /** Prediction-table counters (power of two); 4096 x 2b = 1KB. */
    std::size_t tableEntries = 4096;
    /** Counter width. */
    unsigned counterBits = 2;
    /** Dead when counter > threshold. */
    unsigned deadThreshold = 0;
    /** Stored signature width. */
    unsigned signatureBits = 16;
    /** Index hash. */
    HashKind hash = HashKind::Index;
    /** Hit-training filter (paper: first hit to a different set). */
    HitUpdateMode hitUpdate = HitUpdateMode::FirstHitDiffSet;
    /** Train on LRU-selected victims only (paper) vs all evictions. */
    bool trainOnLruEvictionOnly = true;
    /**
     * Prefer dead-predicted victims.  Disabling this (and with it all
     * table traffic) degenerates CHiRP into exact LRU — a property
     * the tests verify.
     */
    bool victimPrefersDead = true;
};

/** The CHiRP replacement policy. */
class ChirpPolicy final : public ReplacementPolicy
{
  public:
    ChirpPolicy(std::uint32_t num_sets, std::uint32_t assoc,
                const ChirpConfig &config = {});

    void reset() override;

    void
    onBranchRetired(Addr pc, InstClass cls, bool taken) override
    {
        (void)taken; // CHiRP uses branch PCs, not outcomes (§IV-B).
        if (cls == InstClass::CondBranch) {
            history_.onCondBranch(pc);
            memoValid_ = false;
        } else if (cls == InstClass::UncondIndirect) {
            history_.onUncondIndirectBranch(pc);
            memoValid_ = false;
        }
    }

    void
    onInstRetired(Addr pc, InstClass cls) override
    {
        // The global path history follows the retired-instruction path
        // (Algorithm 5 line 22 / UpdatePathHist), filtered to the
        // configured instruction classes.
        switch (config_.history.pathFilter) {
          case PathFilter::All:
            break;
          case PathFilter::Memory:
            if (!isMemory(cls))
                return;
            break;
          case PathFilter::Branch:
            if (!isBranch(cls))
                return;
            break;
        }
        history_.onAccess(pc);
        memoValid_ = false;
    }

    /**
     * onInstRetired() then onBranchRetired() for instructions @p lo ..
     * @p hi - 1 of a PC column, classes from @p cls_at(j): the
     * histories advance in one ControlFlowHistory::retireRun.
     */
    template <typename ClsAt>
    void
    retireRun(const Addr *pcs, std::size_t lo, std::size_t hi,
              ClsAt cls_at)
    {
        history_.retireRun(pcs, lo, hi, cls_at);
        // Only a cache: a needless invalidation recomputes the same
        // signature.
        memoValid_ = false;
    }

    void
    onAccessBegin(const AccessInfo &info) override
    {
        if (batchActive_) {
            // Batched miss path: the signature (and its table index)
            // was composed for the whole chunk in beginAccessBatch;
            // pick up this access's lane and advance the cursors.
            // The index column is consumed lazily by memoizedIndex —
            // the pick itself stays as cheap as scalar mode.
            const std::size_t i = batchPos_++;
            if (sigStream_)
                ++sigIdx_; // keep the replay cursor exact mid-chunk
            memoSig_ = batchSig_[i];
            memoPc_ = info.pc;
            memoValid_ = true;
            return;
        }
        // Compose the signature once; the hit/victim/fill hooks of
        // this access reuse it instead of re-reducing the histories.
        if (sigStream_) {
            // Replay mode: the signatures this policy would compose
            // were precomputed from the retire stream, one per access
            // in order, so the histories need not be evolved at all.
            memoSig_ = sigStream_[sigIdx_++];
        } else {
            memoSig_ = computeSignature(info.pc);
        }
        memoPc_ = info.pc;
        memoValid_ = true;
    }

    /**
     * Batched miss path (see ReplacementPolicy::beginAccessBatch):
     * compose the whole chunk's signatures in one lane-parallel pass
     * — the histories are frozen for the chunk, so every lane shares
     * one folded-history base — instead of a per-access fold.
     */
    void
    beginAccessBatch(const AccessInfo *infos, std::size_t n) override
    {
        if (batchSig_.size() < n) {
            batchSig_.resize(n);
            batchIdx_.resize(n);
            batchLanes_.resize(n);
        }
        if (sigStream_) {
            // Replay mode: the per-access signatures are already a
            // stream; the chunk's slice is a straight copy and the
            // index column one lane-parallel hash pass.  The cursor
            // advances per access (onAccessBegin), not here, so a
            // mid-chunk unwind leaves it exact.
            for (std::size_t i = 0; i < n; ++i)
                batchSig_[i] = sigStream_[sigIdx_ + i];
            table_.indexStream(batchSig_.data(), n, batchLanes_.data(),
                               batchIdx_.data());
        } else {
            // signature(pc) = (pc >> 2) ^ H with H the folded-history
            // XOR, constant across the chunk: folding H into the lane
            // fill lets the fused kernel produce the signature column
            // AND its table-index column in one register-resident
            // pass, so the fills of the chunk never hash.
            const std::uint64_t hbase = history_.signature(0);
            for (std::size_t i = 0; i < n; ++i)
                batchLanes_[i] = (infos[i].pc >> 2) ^ hbase;
            table_.sigIndexStream(batchLanes_.data(), n, sigPlan_,
                                  batchSig_.data(), batchIdx_.data());
        }
#ifndef NDEBUG
        for (std::size_t i = 0; i < n; ++i) {
            assert(batchSig_[i] ==
                   (sigStream_ ? sigStream_[sigIdx_ + i]
                               : computeSignature(infos[i].pc)));
            assert(batchIdx_[i] == table_.indexOf(batchSig_[i]));
        }
#endif
        batchPos_ = 0;
        batchActive_ = true;
    }

    void
    endAccessBatch() override
    {
        // The memos stay valid: they describe the last completed
        // access, exactly as a scalar onAccessBegin would have left
        // them.
        batchActive_ = false;
    }

    /**
     * Batched-loop metadata hint (shadows the base no-op; resolved
     * statically under devirtualized dispatch): pull the set's dead
     * bits, LRU ranks and stored signatures toward the caches one
     * chunk slot ahead of its scan.
     */
    void
    prefetchMeta(std::uint32_t set) const
    {
#if defined(__GNUC__) || defined(__clang__)
        const std::size_t base = idx(set, 0);
        __builtin_prefetch(dead_.data() + base, 0, 3);
        __builtin_prefetch(stack_.positions(set), 0, 3);
        __builtin_prefetch(sig_.data() + base, 1, 3);
#else
        (void)set;
#endif
    }

    void
    onHit(std::uint32_t set, std::uint32_t way,
          const AccessInfo &info) override
    {
        stack_.touch(set, way);
        const std::size_t entry = idx(set, way);
        const std::uint16_t new_sig = memoizedSignature(info.pc);

        if (config_.victimPrefersDead && hitShouldTrain(entry, set)) {
            // The entry proved live: decrement at its stored signature
            // (Algorithm 5 lines 16-17) ...
            countTableWrite();
            if (sigIdxOk_[entry])
                table_.decrementAt(sigIdxVal_[entry]);
            else
                table_.decrement(sig_[entry]);
            // ... and refresh the dead prediction under the new
            // context (lines 7 and 18).
            countTableRead();
            dead_[entry] =
                table_.readAt(memoizedIndex(new_sig)) >
                config_.deadThreshold;
            firstHit_[entry] = false;
        }
        // The signature always tracks the most recent context (line
        // 20); this costs no table access, only entry metadata.  The
        // cached index rides along when the access memo already holds
        // new_sig's slot; untrained hits stay hash-free and just
        // drop the cache.
        sig_[entry] = new_sig;
        if (memoIdxValid_ && memoIdxSig_ == new_sig) {
            sigIdxVal_[entry] = memoIdx_;
            sigIdxOk_[entry] = 1;
        } else {
            sigIdxOk_[entry] = 0;
        }
    }

    std::uint32_t
    selectVictim(std::uint32_t set, const AccessInfo &) override
    {
        std::uint32_t victim = ~0u;
        if (config_.victimPrefersDead) {
            // Among dead-predicted entries, take the least recently
            // used one: a freshly inserted entry flagged dead may
            // still see a near-term touch, while a dead entry deep in
            // the stack has had every chance.  The dead bits and LRU
            // ranks of the set are contiguous assoc-byte runs, so the
            // whole scan is one SIMD kernel call over two cache-line
            // resident arrays.
            const std::size_t way = simd::deepestSetLane(
                dead_.data() + idx(set, 0), stack_.positions(set),
                assoc());
            if (way < assoc())
                victim = static_cast<std::uint32_t>(way);
        }
        const bool lru_fallback = victim == ~0u;
        if (lru_fallback) {
            victim = stack_.lruWay(set);
            ++lruVictims_;
        } else {
            ++deadVictims_;
        }

        if (config_.victimPrefersDead &&
            (lru_fallback || !config_.trainOnLruEvictionOnly)) {
            // An entry the predictor believed live is being evicted:
            // dead evidence at its stored signature (lines 10-12).
            countTableWrite();
            const std::size_t entry = idx(set, victim);
            if (sigIdxOk_[entry])
                table_.incrementAt(sigIdxVal_[entry]);
            else
                table_.increment(sig_[entry]);
        }
        return victim;
    }

    void
    onFill(std::uint32_t set, std::uint32_t way,
           const AccessInfo &info) override
    {
        stack_.touch(set, way);
        const std::size_t entry = idx(set, way);
        const std::uint16_t sig = memoizedSignature(info.pc);
        sig_[entry] = sig;
        firstHit_[entry] = true;
        if (config_.victimPrefersDead) {
            // Prediction metadata update for the incoming entry: read
            // the counter under the new signature and threshold it,
            // caching the slot for this entry's later train events.
            countTableRead();
            const std::size_t tidx = memoizedIndex(sig);
            dead_[entry] = table_.readAt(tidx) > config_.deadThreshold;
            sigIdxVal_[entry] = static_cast<std::uint32_t>(tidx);
            sigIdxOk_[entry] = 1;
        } else {
            dead_[entry] = false;
            sigIdxOk_[entry] = 0;
        }
    }

    void
    onInvalidate(std::uint32_t set, std::uint32_t way) override
    {
        stack_.demote(set, way);
        const std::size_t entry = idx(set, way);
        sig_[entry] = 0;
        dead_[entry] = false;
        firstHit_[entry] = false;
        sigIdxOk_[entry] = 0;
    }

    void
    onAccessEnd(std::uint32_t set, const AccessInfo &info) override
    {
        (void)info;
        lastSet_ = set;
    }

    std::uint64_t storageBits() const override;

    const ChirpConfig &config() const { return config_; }

    /** The histories (tests and the ADALINE extraction hook). */
    const ControlFlowHistory &histories() const { return history_; }

    /** 16-bit signature CHiRP would assign to an access by @p pc now. */
    std::uint16_t
    currentSignature(Addr pc) const
    {
        return computeSignature(pc);
    }

    /** Dead bit of an entry (tests, efficiency analysis). */
    bool
    isDead(std::uint32_t set, std::uint32_t way) const
    {
        return dead_[idx(set, way)];
    }

    /** Stored signature of an entry (tests). */
    std::uint16_t
    storedSignature(std::uint32_t set, std::uint32_t way) const
    {
        return sig_[idx(set, way)];
    }

    /** Evictions that used a dead-predicted victim (diagnostics). */
    std::uint64_t deadVictims() const { return deadVictims_; }

    /** Evictions that fell back to the LRU victim (diagnostics). */
    std::uint64_t lruVictims() const { return lruVictims_; }

    /** LRU stack position of an entry (tests). */
    std::uint32_t
    stackPosition(std::uint32_t set, std::uint32_t way) const
    {
        return stack_.position(set, way);
    }

    /**
     * Event-replay support: take per-access signatures from @p sigs
     * (one per access, in access order) instead of composing them
     * from the live histories, which then need not be fed the retire
     * stream.  The values must equal what computeSignature would have
     * produced at each access; signature-config-equal variants can
     * share one stream.  The array must outlive the policy's use;
     * reset() rewinds to its start.  Null reverts to live histories.
     */
    void
    setSignatureStream(const std::uint16_t *sigs)
    {
        sigStream_ = sigs;
        sigIdx_ = 0;
    }

    /** Is a replay signature stream attached? */
    bool hasSignatureStream() const { return sigStream_ != nullptr; }

  private:
    std::uint16_t
    computeSignature(Addr pc) const
    {
        // sigPlan_ is FoldPlan(signatureBits): identical to
        // foldXor(.., signatureBits) with the ladder precomputed.
        return static_cast<std::uint16_t>(
            sigPlan_.apply(history_.signature(pc)));
    }

    /**
     * The per-access signature: the onAccessBegin memo when it is
     * valid for @p pc (the histories have not advanced since), a
     * fresh composition otherwise (tests drive hooks directly).
     */
    std::uint16_t
    memoizedSignature(Addr pc) const
    {
        if (memoValid_ && memoPc_ == pc)
            return memoSig_;
        return computeSignature(pc);
    }

    /**
     * Table index for @p sig: the chunk's precomputed index column
     * when this is the in-flight batched access's own signature, else
     * the memo when it holds exactly this signature (a previous call
     * for the same signature), one hash otherwise.
     */
    std::size_t
    memoizedIndex(std::uint16_t sig) const
    {
        if (batchActive_ && sig == memoSig_)
            return batchIdx_[batchPos_ - 1];
        if (memoIdxValid_ && memoIdxSig_ == sig)
            return memoIdx_;
        const std::size_t tidx = table_.indexOf(sig);
        memoIdx_ = static_cast<std::uint32_t>(tidx);
        memoIdxSig_ = sig;
        memoIdxValid_ = true;
        return tidx;
    }

    /** Should this hit touch the prediction table? */
    bool
    hitShouldTrain(std::size_t entry, std::uint32_t set) const
    {
        switch (config_.hitUpdate) {
          case HitUpdateMode::Every:
            return true;
          case HitUpdateMode::FirstHit:
            return firstHit_[entry];
          case HitUpdateMode::FirstHitDiffSet:
            return firstHit_[entry] && set != lastSet_;
        }
        return false;
    }

    ChirpConfig config_;
    ControlFlowHistory history_;
    PredictionTable table_;
    // Fold ladder for the signature width, built once.
    simd::FoldPlan sigPlan_;
    // Structure-of-arrays entry metadata, each indexed by idx(set,
    // way): 16-bit stored signature, dead bit, first-hit bit, plus a
    // cached table index for the stored signature (valid when the
    // matching sigIdxOk_ byte is set) so train events at a stored
    // signature skip the hash.
    std::vector<std::uint16_t> sig_;
    std::vector<std::uint8_t> dead_;
    std::vector<std::uint8_t> firstHit_;
    std::vector<std::uint32_t> sigIdxVal_;
    std::vector<std::uint8_t> sigIdxOk_;
    LruStack stack_;
    std::uint32_t lastSet_ = ~0u;
    std::uint64_t deadVictims_ = 0;
    std::uint64_t lruVictims_ = 0;
    // Per-access signature memo (see onAccessBegin).
    bool memoValid_ = false;
    Addr memoPc_ = 0;
    std::uint16_t memoSig_ = 0;
    // Table-index memo: the last hashed signature's slot, filled
    // lazily by memoizedIndex.
    mutable bool memoIdxValid_ = false;
    mutable std::uint16_t memoIdxSig_ = 0;
    mutable std::uint32_t memoIdx_ = 0;
    // Replay signature stream (see setSignatureStream).
    const std::uint16_t *sigStream_ = nullptr;
    std::size_t sigIdx_ = 0;
    // Batched miss path: the chunk-wide signature and table-index
    // columns and the u64 lane scratch their fused fold kernel runs
    // over (see beginAccessBatch).
    std::vector<std::uint16_t> batchSig_;
    std::vector<std::uint32_t> batchIdx_;
    std::vector<std::uint64_t> batchLanes_;
    std::size_t batchPos_ = 0;
    bool batchActive_ = false;
};

} // namespace chirp

#endif // CHIRP_CORE_CHIRP_HH
