#include "sim/simulator.hh"

#include <algorithm>
#include <cstring>
#include <memory>

#include "trace/trace_store.hh"
#include "util/logging.hh"
#include "util/simd.hh"

namespace chirp
{

namespace
{

/**
 * Column scratch for one event chunk of the batched replay paths: the
 * gathered AccessInfos plus the vaddr/now/page-shift columns the key
 * precompute and the walker consume.
 */
struct EventChunk
{
    AccessInfo infos[kReplayBatch];
    Addr vaddrs[kReplayBatch];
    Addr keys[kReplayBatch];
    std::uint64_t nows[kReplayBatch];
    std::uint8_t shifts[kReplayBatch];
    std::uint8_t hits[kReplayBatch];

    /** Gather @p n events into columns and precompute their keys. */
    void
    gather(const L2Event *events, std::size_t n, Asid asid)
    {
        for (std::size_t j = 0; j < n; ++j) {
            const L2Event &event = events[j];
            AccessInfo &info = infos[j];
            info.pc = event.pc;
            info.vaddr = event.vaddr;
            info.cls = event.cls;
            info.isInstr = event.isInstr != 0;
            vaddrs[j] = event.vaddr;
            nows[j] = event.now;
            shifts[j] = event.pageShift;
        }
        Tlb::keysOf(vaddrs, shifts, n, asid, keys);
    }
};

/**
 * Feed @p walker from a chunk's miss lanes: chunks are hit-dominated,
 * so the scan jumps between the zero bytes of the hits column with
 * the SIMD first-clear kernel instead of testing every lane.  Walk
 * order (ascending j) is identical to the plain loop.
 */
void
walkMisses(PageWalker &walker, const std::uint8_t *hits,
           const Addr *vaddrs, std::size_t n)
{
    std::size_t j = simd::firstClearLane(hits, n);
    while (j < n) {
        walker.walk(vaddrs[j]);
        ++j;
        j += simd::firstClearLane(hits + j, n - j);
    }
}

/**
 * Column scratch for one record chunk of the batched pipeline: the
 * L1 TLB keys of both sides and their hit lanes.
 */
struct StepChunk
{
    // i-side lane, one slot per run of consecutive same-page fetches:
    // irunStart[r] is the first record of run r.  ihits is per record.
    Addr ivaddrs[kReplayBatch];
    Addr ikeys[kReplayBatch];
    std::uint8_t ishifts[kReplayBatch];
    std::uint16_t irunStart[kReplayBatch];
    std::uint8_t ihits[kReplayBatch];

    // d-side lane, compact: one slot per memory record, in record
    // order; drec[d] is the record of slot d.
    Addr dvaddrs[kReplayBatch];
    Addr dkeys[kReplayBatch];
    std::uint8_t dshifts[kReplayBatch];
    std::uint16_t drec[kReplayBatch];
    std::uint8_t dhits[kReplayBatch];

    // Transpose buffers for sources that only hand out row-major
    // records (generators, interleaved mixes): the chunk is scattered
    // into these columns once so the chunk runner itself is always
    // column-native.  The memory-backed fast path bypasses them and
    // points the runner straight at the shared trace's columns.
    Addr pcs[kReplayBatch];
    Addr eas[kReplayBatch];
    Addr tgs[kReplayBatch];
    std::uint8_t metas[kReplayBatch];
};

} // namespace

Simulator::Simulator(const SimConfig &config,
                     std::unique_ptr<ReplacementPolicy> l2_policy)
    : config_(config)
{
    tlbs_ = std::make_unique<TlbHierarchy>(
        config.tlbs, std::move(l2_policy),
        std::make_unique<FixedLatencyWalker>(config.pageWalkLatency));
}

void
Simulator::checkCancelled() const
{
    if (cancel_ && cancel_->load(std::memory_order_relaxed)) {
        throw JobCancelled(
            "job cancelled: attempt exceeded --job-timeout");
    }
}

Cycles
Simulator::step(const TraceRecord &rec, std::uint64_t now)
{
    Cycles cost = 1;

    // Front end: translate and fetch the instruction itself.
    AccessInfo ifetch;
    ifetch.pc = rec.pc;
    ifetch.vaddr = rec.pc;
    ifetch.cls = rec.cls;
    ifetch.isInstr = true;
    cost += tlbs_->translate(ifetch, activeAsid_, now).stall;
    if (config_.simulateCaches)
        cost += caches_->accessInstr(rec.pc);

    if (config_.simulateBranch && isBranch(rec.cls))
        cost += branch_->onBranch(rec);

    // Back end: data access.
    if (isMemory(rec.cls)) {
        AccessInfo data;
        data.pc = rec.pc;
        data.vaddr = rec.effAddr;
        data.cls = rec.cls;
        data.isInstr = false;
        cost += tlbs_->translate(data, activeAsid_, now).stall;
        if (config_.simulateCaches) {
            cost += caches_->accessData(rec.effAddr,
                                        rec.cls == InstClass::Store);
        }
    }

    // Retirement: the instruction and branch PCs feed the policy
    // histories (speculative history is not modeled; the paper
    // likewise trains at commit with right-path branches only,
    // §VI-E).
    tlbs_->onInstRetired(rec.pc, rec.cls);
    if (isBranch(rec.cls))
        tlbs_->onBranchRetired(rec.pc, rec.cls, rec.taken);

    return cost;
}

SimStats
Simulator::run(TraceSource &source)
{
    return runImpl({&source}, 0, false);
}

SimStats
Simulator::runInterleaved(const std::vector<TraceSource *> &sources,
                          InstCount quantum, bool flush_on_switch)
{
    if (sources.empty())
        chirp_fatal("runInterleaved needs at least one source");
    if (sources.size() > 1 && quantum == 0)
        chirp_fatal("multi-process runs need a nonzero quantum");
    return runImpl(sources, quantum, flush_on_switch);
}

SimStats
Simulator::replayL2(const ColumnarTrace &records,
                    const std::vector<L2Event> &events,
                    const SimStats &base)
{
    tlbs_->reset();

    const InstCount total = records.size();
    const InstCount warmup = static_cast<InstCount>(
        static_cast<double>(total) * config_.warmupFraction);

    Tlb &l2 = tlbs_->l2();
    PageWalker &walker = tlbs_->walker();
    const auto deliver = [&](const L2Event &event) {
        AccessInfo info;
        info.pc = event.pc;
        info.vaddr = event.vaddr;
        info.cls = event.cls;
        info.isInstr = event.isInstr != 0;
        if (!l2.access(info, /*asid=*/1, event.now, event.pageShift))
            walker.walk(event.vaddr);
    };

    // Policy-dependent counter values at the warmup boundary (all
    // zero when the whole run is measured), mirroring runImpl's
    // snapshot, which is taken just before record `warmup` executes:
    // events of that record carry now == warmup and land after it.
    std::uint64_t snapAcc = 0, snapHit = 0, snapMiss = 0;
    std::uint64_t snapReads = 0, snapWrites = 0;
    Cycles snapWalk = 0;
    const auto snapshot = [&] {
        snapAcc = l2.accesses();
        snapHit = l2.hits();
        snapMiss = l2.misses();
        snapReads = l2.policy().tableReads();
        snapWrites = l2.policy().tableWrites();
        snapWalk = walker.totalCycles();
    };

    // A CHiRP instance fed a precomputed signature stream — or a
    // GHRP instance fed a precomputed history stream — consumes
    // nothing from the retire stream: the stream already encodes the
    // history evolution.
    bool wants_retire = l2.policy().wantsRetireEvents();
    if (wants_retire) {
        if (const auto *streamed =
                dynamic_cast<const ChirpPolicy *>(&l2.policy());
            streamed && streamed->hasSignatureStream())
            wants_retire = false;
        if (const auto *streamed =
                dynamic_cast<const GhrpPolicy *>(&l2.policy());
            streamed && streamed->hasHistoryStream())
            wants_retire = false;
    }

    if (wants_retire) {
        // History-based policy: interleave the event stream with the
        // retire stream exactly as step() does — every translation of
        // a record precedes its retire hooks.
        std::size_t e = 0;
        for (InstCount i = 0; i < total; ++i) {
            if ((i & 0xfff) == 0)
                checkCancelled();
            if (i == warmup && warmup != 0)
                snapshot();
            while (e < events.size() && events[e].now == i)
                deliver(events[e++]);
            const Addr pc = records.pc()[i];
            const InstClass cls = records.cls(i);
            tlbs_->onInstRetired(pc, cls);
            if (isBranch(cls))
                tlbs_->onBranchRetired(pc, cls, records.taken(i));
        }
    } else if (traceFormat() != TraceFormat::Legacy) {
        // Retire-blind policy, batched tier: fixed-size chunks with
        // the key column precomputed by the simd kernel and the walker
        // fed from the chunk's miss lanes.  accessBatch is
        // sequential-equivalent and the walker is latency-accounting
        // only, so every counter (and the snapshot, which lands on a
        // chunk boundary by construction) matches the one-at-a-time
        // reference loop below bit for bit.
        auto chunk = std::make_unique<EventChunk>();
        const auto deliverRange = [&](std::size_t lo, std::size_t hi) {
            while (lo < hi) {
                const std::size_t n =
                    std::min<std::size_t>(kReplayBatch, hi - lo);
                checkCancelled();
                chunk->gather(events.data() + lo, n, /*asid=*/1);
                l2.accessBatch(chunk->infos, chunk->keys, chunk->nows,
                               n, /*asid=*/1, chunk->hits);
                walkMisses(walker, chunk->hits, chunk->vaddrs, n);
                lo += n;
            }
        };
        std::size_t e = 0;
        if (warmup > 0 && warmup < total) {
            const auto boundary = std::lower_bound(
                events.begin(), events.end(), warmup,
                [](const L2Event &event, InstCount limit) {
                    return event.now < limit;
                });
            e = static_cast<std::size_t>(boundary - events.begin());
            deliverRange(0, e);
            snapshot();
        }
        deliverRange(e, events.size());
    } else {
        // Retire-blind policy: only the events themselves matter.
        std::size_t e = 0;
        if (warmup > 0 && warmup < total) {
            const auto boundary = std::lower_bound(
                events.begin(), events.end(), warmup,
                [](const L2Event &event, InstCount limit) {
                    return event.now < limit;
                });
            const auto warm =
                static_cast<std::size_t>(boundary - events.begin());
            for (; e < warm; ++e) {
                if ((e & 0xfff) == 0)
                    checkCancelled();
                deliver(events[e]);
            }
            snapshot();
        }
        for (; e < events.size(); ++e) {
            if ((e & 0xfff) == 0)
                checkCancelled();
            deliver(events[e]);
        }
    }

    tlbs_->finalizeEfficiency(total);

    SimStats stats = base;
    stats.l2TlbAccesses = l2.accesses() - snapAcc;
    stats.l2TlbHits = l2.hits() - snapHit;
    stats.l2TlbMisses = l2.misses() - snapMiss;
    stats.tableReads = l2.policy().tableReads() - snapReads;
    stats.tableWrites = l2.policy().tableWrites() - snapWrites;
    stats.walkCycles = walker.totalCycles() - snapWalk;
    // Every record costs the same under every policy except for the
    // L2-dependent stalls: hitLatency per L2 access plus the page
    // walks.  Swap the recording run's contribution for this one's.
    const Cycles hitLat = config_.tlbs.l2.hitLatency;
    stats.cycles = base.cycles - hitLat * base.l2TlbAccesses -
                   base.walkCycles + hitLat * stats.l2TlbAccesses +
                   stats.walkCycles;
    stats.l2Efficiency = l2.efficiency().efficiency();
    return stats;
}

std::vector<SimStats>
Simulator::replayL2Multi(const std::vector<Simulator *> &sims,
                         const ColumnarTrace &records,
                         const std::vector<L2Event> &events,
                         const SimStats &base)
{
    // Must mirror replayL2 exactly: same per-simulator event/retire
    // interleaving, same warmup-snapshot boundaries, same statistics
    // assembly.  replayL2 stays the (tested) reference; the equality
    // tests diff this batch path against it.
    std::vector<SimStats> out(sims.size(), base);
    if (sims.empty())
        return out;

    const InstCount total = records.size();

    // Per-policy replay state: concrete pointers into one simulator
    // plus its warmup boundary and counter snapshot.
    struct Lane
    {
        TlbHierarchy *tlbs = nullptr;
        Tlb *l2 = nullptr;
        PageWalker *walker = nullptr;
        InstCount warmup = 0;
        bool wantsRetire = false;
        bool snapped = false;
        std::uint64_t snapAcc = 0, snapHit = 0, snapMiss = 0;
        std::uint64_t snapReads = 0, snapWrites = 0;
        Cycles snapWalk = 0;
    };
    std::vector<Lane> lanes(sims.size());
    bool any_retire = false;
    for (std::size_t s = 0; s < sims.size(); ++s) {
        if (!sims[s])
            chirp_fatal("replayL2Multi: null simulator");
        Simulator &sim = *sims[s];
        sim.tlbs_->reset();
        Lane &lane = lanes[s];
        lane.tlbs = sim.tlbs_.get();
        lane.l2 = &sim.tlbs_->l2();
        lane.walker = &sim.tlbs_->walker();
        lane.warmup = static_cast<InstCount>(
            static_cast<double>(total) * sim.config_.warmupFraction);
        // As in replayL2: a CHiRP instance fed a precomputed
        // signature stream (or a GHRP instance fed a precomputed
        // history stream) consumes nothing from the retire stream.
        bool wants = lane.l2->policy().wantsRetireEvents();
        if (wants) {
            if (const auto *streamed = dynamic_cast<const ChirpPolicy *>(
                    &lane.l2->policy());
                streamed && streamed->hasSignatureStream())
                wants = false;
            if (const auto *streamed = dynamic_cast<const GhrpPolicy *>(
                    &lane.l2->policy());
                streamed && streamed->hasHistoryStream())
                wants = false;
        }
        lane.wantsRetire = wants;
        any_retire |= wants;
    }

    const auto deliver = [](Lane &lane, const AccessInfo &info,
                            const L2Event &event) {
        if (!lane.l2->access(info, /*asid=*/1, event.now,
                             event.pageShift))
            lane.walker->walk(event.vaddr);
    };
    const auto snapshot = [](Lane &lane) {
        lane.snapAcc = lane.l2->accesses();
        lane.snapHit = lane.l2->hits();
        lane.snapMiss = lane.l2->misses();
        lane.snapReads = lane.l2->policy().tableReads();
        lane.snapWrites = lane.l2->policy().tableWrites();
        lane.snapWalk = lane.walker->totalCycles();
        lane.snapped = true;
    };
    const auto info_of = [](const L2Event &event) {
        AccessInfo info;
        info.pc = event.pc;
        info.vaddr = event.vaddr;
        info.cls = event.cls;
        info.isInstr = event.isInstr != 0;
        return info;
    };

    // The record walk: interleave each record's L2 events before its
    // retire hooks exactly as step() (and replayL2) does.  Driven for
    // every lane on the legacy tier, and for only the retire-consuming
    // lanes on the batched tier (retire-blind lanes take the chunked
    // event path instead; their snapshots land at the same counter
    // values — all events of instructions before the boundary, none
    // at or after it).
    const auto recordWalk = [&](const std::vector<Lane *> &walkers) {
        std::size_t e = 0;
        for (InstCount i = 0; i < total; ++i) {
            for (Lane *lane : walkers) {
                if (!lane->snapped && i == lane->warmup &&
                    lane->warmup != 0)
                    snapshot(*lane);
            }
            while (e < events.size() && events[e].now == i) {
                const AccessInfo info = info_of(events[e]);
                for (Lane *lane : walkers)
                    deliver(*lane, info, events[e]);
                ++e;
            }
            const Addr pc = records.pc()[i];
            const InstClass cls = records.cls(i);
            const bool branch = isBranch(cls);
            for (Lane *lane : walkers) {
                if (!lane->wantsRetire)
                    continue;
                lane->tlbs->onInstRetired(pc, cls);
                if (branch)
                    lane->tlbs->onBranchRetired(pc, cls,
                                                records.taken(i));
            }
        }
    };

    const bool legacy = traceFormat() == TraceFormat::Legacy;
    if (!legacy && any_retire) {
        // Batched tier with at least one history policy in the batch:
        // split the lanes.  Only the retire-consuming lanes pay the
        // per-record walk; retire-blind lanes replay the (much
        // shorter) event stream through the chunked path below.
        std::vector<Lane *> blind, walkers;
        for (Lane &lane : lanes)
            (lane.wantsRetire ? walkers : blind).push_back(&lane);
        auto chunk = std::make_unique<EventChunk>();
        for (std::size_t lo = 0; lo < events.size();
             lo += kReplayBatch) {
            const std::size_t n = std::min<std::size_t>(
                kReplayBatch, events.size() - lo);
            chunk->gather(events.data() + lo, n, /*asid=*/1);
            for (Lane *plane : blind) {
                Lane &lane = *plane;
                const auto deliverPart = [&](std::size_t a,
                                             std::size_t b) {
                    if (a >= b)
                        return;
                    lane.l2->accessBatch(
                        chunk->infos + a, chunk->keys + a,
                        chunk->nows + a, b - a, /*asid=*/1,
                        chunk->hits + a);
                    walkMisses(*lane.walker, chunk->hits + a,
                               chunk->vaddrs + a, b - a);
                };
                std::size_t cut = n;
                if (!lane.snapped && lane.warmup > 0 &&
                    lane.warmup < total &&
                    events[lo + n - 1].now >= lane.warmup) {
                    cut = 0;
                    while (cut < n &&
                           events[lo + cut].now < lane.warmup)
                        ++cut;
                }
                if (cut < n) {
                    deliverPart(0, cut);
                    snapshot(lane);
                    deliverPart(cut, n);
                } else {
                    deliverPart(0, n);
                }
            }
        }
        for (Lane *lane : blind) {
            if (!lane->snapped && lane->warmup > 0 &&
                lane->warmup < total)
                snapshot(*lane);
        }
        recordWalk(walkers);
    } else if (any_retire) {
        std::vector<Lane *> all;
        all.reserve(lanes.size());
        for (Lane &lane : lanes)
            all.push_back(&lane);
        recordWalk(all);
    } else if (!legacy) {
        // Every policy is retire-blind, batched tier: gather each
        // event chunk's columns once (shared by all lanes), then run
        // each lane's accesses through the batch entry.  A lane whose
        // warmup boundary falls inside the chunk splits its batch at
        // the boundary so the snapshot sees exactly the pre-boundary
        // counters, as in the per-event reference loop below.
        auto chunk = std::make_unique<EventChunk>();
        for (std::size_t lo = 0; lo < events.size();
             lo += kReplayBatch) {
            const std::size_t n = std::min<std::size_t>(
                kReplayBatch, events.size() - lo);
            chunk->gather(events.data() + lo, n, /*asid=*/1);
            for (Lane &lane : lanes) {
                const auto deliverPart = [&](std::size_t a,
                                             std::size_t b) {
                    if (a >= b)
                        return;
                    lane.l2->accessBatch(
                        chunk->infos + a, chunk->keys + a,
                        chunk->nows + a, b - a, /*asid=*/1,
                        chunk->hits + a);
                    walkMisses(*lane.walker, chunk->hits + a,
                               chunk->vaddrs + a, b - a);
                };
                std::size_t cut = n;
                if (!lane.snapped && lane.warmup > 0 &&
                    lane.warmup < total &&
                    events[lo + n - 1].now >= lane.warmup) {
                    cut = 0;
                    while (cut < n &&
                           events[lo + cut].now < lane.warmup)
                        ++cut;
                }
                if (cut < n) {
                    deliverPart(0, cut);
                    snapshot(lane);
                    deliverPart(cut, n);
                } else {
                    deliverPart(0, n);
                }
            }
        }
        for (Lane &lane : lanes) {
            if (!lane.snapped && lane.warmup > 0 && lane.warmup < total)
                snapshot(lane);
        }
    } else {
        // Every policy is retire-blind: only the events themselves
        // matter.  Snapshot each lane when its boundary passes; a
        // lane whose boundary lies beyond the last event snapshots
        // after the loop (matching replayL2, which snapshots after
        // delivering every pre-boundary event).
        for (const L2Event &event : events) {
            const AccessInfo info = info_of(event);
            for (Lane &lane : lanes) {
                if (!lane.snapped && lane.warmup > 0 &&
                    lane.warmup < total && event.now >= lane.warmup)
                    snapshot(lane);
                deliver(lane, info, event);
            }
        }
        for (Lane &lane : lanes) {
            if (!lane.snapped && lane.warmup > 0 && lane.warmup < total)
                snapshot(lane);
        }
    }

    for (std::size_t s = 0; s < sims.size(); ++s) {
        Lane &lane = lanes[s];
        lane.tlbs->finalizeEfficiency(total);
        SimStats &stats = out[s];
        stats.l2TlbAccesses = lane.l2->accesses() - lane.snapAcc;
        stats.l2TlbHits = lane.l2->hits() - lane.snapHit;
        stats.l2TlbMisses = lane.l2->misses() - lane.snapMiss;
        stats.tableReads =
            lane.l2->policy().tableReads() - lane.snapReads;
        stats.tableWrites =
            lane.l2->policy().tableWrites() - lane.snapWrites;
        stats.walkCycles = lane.walker->totalCycles() - lane.snapWalk;
        const Cycles hitLat = sims[s]->config_.tlbs.l2.hitLatency;
        stats.cycles = base.cycles - hitLat * base.l2TlbAccesses -
                       base.walkCycles + hitLat * stats.l2TlbAccesses +
                       stats.walkCycles;
        stats.l2Efficiency = lane.l2->efficiency().efficiency();
    }
    return out;
}

SimStats
Simulator::runImpl(const std::vector<TraceSource *> &sources,
                   InstCount quantum, bool flush_on_switch)
{
    for (TraceSource *source : sources)
        source->reset();
    tlbs_->reset();
    // Built on first use; a new unit is already in its reset state.
    if (config_.simulateCaches) {
        if (caches_)
            caches_->reset();
        else
            caches_ = std::make_unique<CacheHierarchy>(config_.caches);
    }
    if (config_.simulateBranch) {
        if (branch_)
            branch_->reset();
        else
            branch_ = std::make_unique<BranchUnit>(config_.branch);
    }

    InstCount expected = 0;
    for (const TraceSource *source : sources)
        expected += source->expectedLength();
    const InstCount warmup = static_cast<InstCount>(
        static_cast<double>(expected) * config_.warmupFraction);

    SimStats stats;
    stats.walkLatency = config_.pageWalkLatency;
    stats.warmupInstructions = warmup;

    // Counter snapshots taken at the warmup boundary; measured-phase
    // numbers are the difference against the end of the run.
    struct Snapshot
    {
        Cycles cycles = 0;
        std::uint64_t l1iAcc = 0, l1iMiss = 0;
        std::uint64_t l1dAcc = 0, l1dMiss = 0;
        std::uint64_t l2Acc = 0, l2Hit = 0, l2Miss = 0;
        std::uint64_t branches = 0, mispredicts = 0;
        std::uint64_t tReads = 0, tWrites = 0;
        Cycles walkCycles = 0;
    } snap;
    bool snapped = (warmup == 0);

    Cycles cycles = 0;
    InstCount retired = 0;
    const auto takeSnapshot = [&]() {
        snap.cycles = cycles;
        snap.l1iAcc = tlbs_->l1i().accesses();
        snap.l1iMiss = tlbs_->l1i().misses();
        snap.l1dAcc = tlbs_->l1d().accesses();
        snap.l1dMiss = tlbs_->l1d().misses();
        snap.l2Acc = tlbs_->l2().accesses();
        snap.l2Hit = tlbs_->l2().hits();
        snap.l2Miss = tlbs_->l2().misses();
        snap.branches = branch_ ? branch_->branches() : 0;
        snap.mispredicts = branch_ ? branch_->mispredicts() : 0;
        snap.tReads = tlbs_->l2().policy().tableReads();
        snap.tWrites = tlbs_->l2().policy().tableWrites();
        snap.walkCycles = tlbs_->walker().totalCycles();
        snapped = true;
    };
    std::size_t active = 0;
    InstCount quantum_left = quantum;
    std::vector<bool> done(sources.size(), false);
    std::size_t live_sources = sources.size();
    activeAsid_ = static_cast<Asid>(active + 1);
    // Records are pulled in fixed-size chunks so the per-record
    // virtual dispatch (and, for memory-backed sources, all generator
    // branching) stays out of the instruction loop.  Chunks never
    // cross a context-switch boundary, so the interleaving schedule
    // is identical to the old one-record pull.
    TraceRecord batch[kReplayBatch];

    // Batched tier: each chunk runs an L1-TLB pre-pass (both L1 TLBs
    // are plain LRU and evolve independently of everything below
    // them, so their lookups batch safely), then assembles costs in
    // original record order, descending to the shared L2/walker only
    // where the pre-pass recorded a miss.  Chunks are split at the
    // warmup boundary so the snapshot below observes exactly the
    // pre-boundary counters.  CHIRP_TRACE_FORMAT=legacy keeps the
    // one-record-at-a-time step() reference loop.
    const bool batched = traceFormat() != TraceFormat::Legacy;
    auto scratch = batched ? std::make_unique<StepChunk>() : nullptr;
    // With caches and the branch unit both off, a record's cost is 1
    // plus its L1-miss stalls, so the cost pass visits only the
    // misses (see runChunk).
    const bool per_record = config_.simulateCaches || config_.simulateBranch;
    const auto runChunk = [&](const Addr *pc, const Addr *ea,
                              const Addr *tg, const std::uint8_t *meta,
                              std::size_t m,
                              std::uint64_t base_now) -> Cycles {
        StepChunk &c = *scratch;
        const auto clsAt = [meta](std::size_t j) {
            return static_cast<InstClass>(meta[j] & ColumnarTrace::kClsMask);
        };
        // Pass A: i-side L1 lookups.  Sequential fetch makes the
        // i-stream long runs of same-page addresses; every access of
        // a run after the first is a hit that leaves the LRU order as
        // it is, so each run is one keyed lookup.
        std::size_t nr = 0;
        for (std::size_t j = 0; j < m;) {
            const Addr page = pc[j] >> kPageShift;
            std::size_t k = j + 1;
            while (k < m && (pc[k] >> kPageShift) == page)
                ++k;
            c.ivaddrs[nr] = pc[j];
            c.ishifts[nr] =
                static_cast<std::uint8_t>(tlbs_->pageShiftFor(pc[j]));
            c.irunStart[nr] = static_cast<std::uint16_t>(j);
            ++nr;
            j = k;
        }
        Tlb::keysOf(c.ivaddrs, c.ishifts, nr, activeAsid_, c.ikeys);
        Cache &l1i = tlbs_->l1i();
        for (std::size_t r = 0; r < nr; ++r) {
            const std::size_t start = c.irunStart[r];
            const std::size_t len =
                (r + 1 < nr ? c.irunStart[r + 1] : m) - start;
            c.ihits[start] = l1i.accessKeyRun(c.ikeys[r], len) ? 1 : 0;
            std::memset(c.ihits + start + 1, 1, len - 1);
        }
        // Pass B: d-side L1 lookups for the chunk's memory records.
        std::size_t nd = 0;
        for (std::size_t j = 0; j < m; ++j) {
            if (!isMemory(clsAt(j)))
                continue;
            c.dvaddrs[nd] = ea[j];
            c.dshifts[nd] =
                static_cast<std::uint8_t>(tlbs_->pageShiftFor(ea[j]));
            c.drec[nd] = static_cast<std::uint16_t>(j);
            ++nd;
        }
        Tlb::keysOf(c.dvaddrs, c.dshifts, nd, activeAsid_, c.dkeys);
        Cache &l1d = tlbs_->l1d();
        for (std::size_t d = 0; d < nd; ++d)
            c.dhits[d] = l1d.accessKey(c.dkeys[d]) ? 1 : 0;

        // L1 misses are rare, so their access infos are rebuilt from
        // the record columns here instead of being staged per access.
        const auto iMiss = [&](std::size_t j) -> Cycles {
            AccessInfo info;
            info.pc = pc[j];
            info.vaddr = pc[j];
            info.cls = clsAt(j);
            info.isInstr = true;
            return tlbs_->translateL1Miss(
                info, activeAsid_, base_now + j,
                static_cast<unsigned>(tlbs_->pageShiftFor(pc[j])));
        };
        const auto dMiss = [&](std::size_t d) -> Cycles {
            const std::size_t j = c.drec[d];
            AccessInfo info;
            info.pc = pc[j];
            info.vaddr = ea[j];
            info.cls = clsAt(j);
            info.isInstr = false;
            return tlbs_->translateL1Miss(info, activeAsid_, base_now + j,
                                          c.dshifts[d]);
        };
        const auto takenAt = [meta](std::size_t j) {
            return (meta[j] & ColumnarTrace::kTakenBit) != 0;
        };

        if (!per_record) {
            // Pass C, MPKI-only model: merge the i-miss and d-miss
            // lanes in record order, the i-miss of a record before its
            // d-miss as in step().  The records between two misses
            // retire as one run before the later miss.
            Cycles cost = m;
            std::size_t retired = 0;
            std::size_t i = simd::firstClearLane(c.ihits, m);
            std::size_t d = simd::firstClearLane(c.dhits, nd);
            while (i < m || d < nd) {
                const std::size_t dj = d < nd ? c.drec[d] : m;
                const std::size_t j = std::min(i, dj);
                if (retired < j) {
                    tlbs_->retireRun(pc, retired, j, clsAt, takenAt);
                    retired = j;
                }
                if (i <= dj) {
                    cost += iMiss(i);
                    ++i;
                    i += simd::firstClearLane(c.ihits + i, m - i);
                } else {
                    cost += dMiss(d);
                    ++d;
                    d += simd::firstClearLane(c.dhits + d, nd - d);
                }
            }
            if (retired < m)
                tlbs_->retireRun(pc, retired, m, clsAt, takenAt);
            return cost;
        }

        // Pass C, full model: per-record cost assembly in original
        // order; the shared structures below the L1s (L2 TLB, walker,
        // caches, branch unit, retire hooks) see the exact step()
        // sequence.
        Cycles cost = 0;
        std::size_t d = 0;
        for (std::size_t j = 0; j < m; ++j) {
            const InstClass cls = clsAt(j);
            cost += 1;
            if (!c.ihits[j])
                cost += iMiss(j);
            if (config_.simulateCaches)
                cost += caches_->accessInstr(pc[j]);
            if (config_.simulateBranch && isBranch(cls)) {
                TraceRecord rec;
                rec.pc = pc[j];
                rec.effAddr = ea[j];
                rec.target = tg[j];
                rec.cls = cls;
                rec.taken = takenAt(j);
                cost += branch_->onBranch(rec);
            }
            if (isMemory(cls)) {
                if (!c.dhits[d])
                    cost += dMiss(d);
                if (config_.simulateCaches) {
                    cost += caches_->accessData(
                        ea[j], cls == InstClass::Store);
                }
                ++d;
            }
            tlbs_->onInstRetired(pc[j], cls);
            if (isBranch(cls))
                tlbs_->onBranchRetired(pc[j], cls, takenAt(j));
        }
        return cost;
    };

    // Zero-copy fast path: a single memory-backed source replayed in
    // batched mode is driven straight off the shared trace's columns
    // — no per-chunk gather into row-major records and no transpose
    // back into column scratch.  Context-switch scheduling never
    // applies to a single source, so only the warmup clamp and the
    // cancellation poll survive from the generic loop.
    MemoryTraceSource *mem =
        (batched && sources.size() == 1)
            ? dynamic_cast<MemoryTraceSource *>(sources[0])
            : nullptr;
    if (mem) {
        const ColumnarTrace &trace = *mem->records();
        const std::size_t n = trace.size();
        std::size_t pos = 0;
        while (pos < n) {
            checkCancelled();
            if (!snapped && retired >= warmup)
                takeSnapshot();
            std::size_t m = std::min<std::size_t>(kReplayBatch, n - pos);
            if (!snapped && retired + m > warmup)
                m = static_cast<std::size_t>(warmup - retired);
            cycles += runChunk(trace.pc() + pos, trace.effAddr() + pos,
                               trace.target() + pos, trace.meta() + pos,
                               m, retired);
            retired += m;
            pos += m;
        }
        live_sources = 0;
    }

    while (live_sources > 0) {
        // One relaxed load per 256-record batch: cheap enough to be
        // invisible, frequent enough that a fired --job-timeout
        // abandons the run within microseconds.
        checkCancelled();
        // Round-robin context switches every `quantum` instructions.
        if (sources.size() > 1 && quantum_left == 0) {
            std::size_t next = active;
            do {
                next = (next + 1) % sources.size();
            } while (done[next]);
            if (next != active && flush_on_switch) {
                // Non-ASID hardware invalidates translations on a
                // context switch (the switch's other costs are not
                // modeled).
                tlbs_->flushAll(retired);
            }
            active = next;
            activeAsid_ = static_cast<Asid>(active + 1);
            quantum_left = quantum;
        }
        std::size_t want = kReplayBatch;
        if (sources.size() > 1)
            want = static_cast<std::size_t>(
                std::min<InstCount>(want, quantum_left));
        const std::size_t got = sources[active]->nextBatch(batch, want);
        if (got == 0) {
            done[active] = true;
            --live_sources;
            quantum_left = 0;
            continue;
        }
        if (sources.size() > 1)
            quantum_left -= got;
        std::size_t done = 0;
        while (done < got) {
            if (!snapped && retired >= warmup)
                takeSnapshot();
            // Clamp the sub-chunk to the warmup boundary so the next
            // pass of this loop snapshots exactly there.
            std::size_t m = got - done;
            if (!snapped && retired + m > warmup)
                m = static_cast<std::size_t>(warmup - retired);
            if (batched) {
                StepChunk &c = *scratch;
                for (std::size_t j = 0; j < m; ++j) {
                    const TraceRecord &rec = batch[done + j];
                    c.pcs[j] = rec.pc;
                    c.eas[j] = rec.effAddr;
                    c.tgs[j] = rec.target;
                    c.metas[j] =
                        ColumnarTrace::packMeta(rec.cls, rec.taken);
                }
                cycles += runChunk(c.pcs, c.eas, c.tgs, c.metas, m,
                                   retired);
            } else {
                for (std::size_t i = 0; i < m; ++i)
                    cycles += step(batch[done + i], retired + i);
            }
            retired += m;
            done += m;
        }
    }
    if (!snapped) {
        // Degenerate short trace: everything is warmup; measure all.
        snap = Snapshot{};
    }

    tlbs_->finalizeEfficiency(retired);

    stats.instructions = retired - (snapped ? warmup : 0);
    if (retired < warmup)
        stats.instructions = retired;
    stats.cycles = cycles - snap.cycles;
    stats.l1iTlbAccesses = tlbs_->l1i().accesses() - snap.l1iAcc;
    stats.l1iTlbMisses = tlbs_->l1i().misses() - snap.l1iMiss;
    stats.l1dTlbAccesses = tlbs_->l1d().accesses() - snap.l1dAcc;
    stats.l1dTlbMisses = tlbs_->l1d().misses() - snap.l1dMiss;
    stats.l2TlbAccesses = tlbs_->l2().accesses() - snap.l2Acc;
    stats.l2TlbHits = tlbs_->l2().hits() - snap.l2Hit;
    stats.l2TlbMisses = tlbs_->l2().misses() - snap.l2Miss;
    if (branch_) {
        stats.branches = branch_->branches() - snap.branches;
        stats.branchMispredicts = branch_->mispredicts() - snap.mispredicts;
    }
    stats.tableReads = tlbs_->l2().policy().tableReads() - snap.tReads;
    stats.tableWrites = tlbs_->l2().policy().tableWrites() - snap.tWrites;
    stats.walkCycles = tlbs_->walker().totalCycles() - snap.walkCycles;
    stats.l2Efficiency = tlbs_->l2().efficiency().efficiency();
    return stats;
}

} // namespace chirp
