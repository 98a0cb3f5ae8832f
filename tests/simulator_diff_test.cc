/**
 * @file
 * Batched pipeline vs the one-record-at-a-time step() loop
 * (CHIRP_TRACE_FORMAT=legacy): for every policy, in the MPKI-only
 * model (miss-driven cost pass) and the full model (per-record cost
 * pass), run() and runInterleaved() must produce identical statistics
 * and identical L2 event streams.  The traces mix 4KB and 2MB pages,
 * put the warmup boundary inside a chunk, and contain records whose
 * i-side and d-side translations both miss the L1 TLBs, so the order
 * of the two L2 accesses within a record is checked as well.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "core/policy_factory.hh"
#include "sim/simulator.hh"
#include "trace/trace_store.hh"

namespace chirp
{
namespace
{

constexpr Addr kCodeBase = Addr{1} << 30;
constexpr Addr kDataBase = Addr{3} << 30;
constexpr Addr kRegion = Addr{8} << 20; //!< 8MB per side

/** RAII CHIRP_TRACE_FORMAT=legacy so a failing ASSERT cannot leak it. */
class LegacyFormat
{
  public:
    LegacyFormat() { ::setenv("CHIRP_TRACE_FORMAT", "legacy", 1); }
    ~LegacyFormat() { ::unsetenv("CHIRP_TRACE_FORMAT"); }
};

/**
 * Same-page fetch runs broken by jumps across an 8MB code region,
 * loads and stores over an 8MB data region, and branches of every
 * class.  Both regions are far larger than the 64-entry L1 TLBs
 * cover, so many records miss on both sides.  @p offset shifts both
 * regions so two traces share no pages.
 */
std::vector<TraceRecord>
randomTrace(std::size_t n, std::uint64_t seed, Addr offset)
{
    std::mt19937_64 rng(seed);
    std::vector<TraceRecord> records(n);
    Addr pc = kCodeBase + offset;
    for (TraceRecord &rec : records) {
        if (rng() % 6 == 0)
            pc = kCodeBase + offset + (rng() % kRegion) / 4 * 4;
        else
            pc += 4;
        rec.pc = pc;
        static constexpr InstClass kMix[] = {
            InstClass::Load,       InstClass::Load,
            InstClass::Store,      InstClass::CondBranch,
            InstClass::CondBranch, InstClass::UncondIndirect,
            InstClass::UncondDirect, InstClass::Alu,
            InstClass::Fp,         InstClass::SlowAlu,
        };
        rec.cls = kMix[rng() % 10];
        if (isMemory(rec.cls))
            rec.effAddr = kDataBase + offset + rng() % kRegion;
        if (isBranch(rec.cls)) {
            rec.taken = (rng() & 1) != 0;
            rec.target = kCodeBase + offset + (rng() % kRegion) / 4 * 4;
        }
    }
    return records;
}

/** The first half of each region on 2MB pages, the rest on 4KB. */
PageMap
mixedPages()
{
    PageMap map;
    for (const Addr offset : {Addr{0}, kRegion}) {
        map.mapHuge(kCodeBase + offset, kRegion / 2);
        map.mapHuge(kDataBase + offset, kRegion / 2);
    }
    return map;
}

void
expectSameStats(const SimStats &a, const SimStats &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.warmupInstructions, b.warmupInstructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.l1iTlbAccesses, b.l1iTlbAccesses);
    EXPECT_EQ(a.l1iTlbMisses, b.l1iTlbMisses);
    EXPECT_EQ(a.l1dTlbAccesses, b.l1dTlbAccesses);
    EXPECT_EQ(a.l1dTlbMisses, b.l1dTlbMisses);
    EXPECT_EQ(a.l2TlbAccesses, b.l2TlbAccesses);
    EXPECT_EQ(a.l2TlbHits, b.l2TlbHits);
    EXPECT_EQ(a.l2TlbMisses, b.l2TlbMisses);
    EXPECT_EQ(a.branches, b.branches);
    EXPECT_EQ(a.branchMispredicts, b.branchMispredicts);
    EXPECT_EQ(a.tableReads, b.tableReads);
    EXPECT_EQ(a.tableWrites, b.tableWrites);
    EXPECT_EQ(a.walkCycles, b.walkCycles);
    EXPECT_EQ(a.l2Efficiency, b.l2Efficiency);
}

void
expectSameEvents(const std::vector<L2Event> &a,
                 const std::vector<L2Event> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("event " + std::to_string(i));
        EXPECT_EQ(a[i].pc, b[i].pc);
        EXPECT_EQ(a[i].vaddr, b[i].vaddr);
        EXPECT_EQ(a[i].now, b[i].now);
        EXPECT_EQ(a[i].cls, b[i].cls);
        EXPECT_EQ(a[i].isInstr, b[i].isInstr);
        EXPECT_EQ(a[i].pageShift, b[i].pageShift);
        if (::testing::Test::HasFailure())
            return;
    }
}

/** Records whose i-side and d-side both reached the L2. */
std::size_t
bothSideMisses(const std::vector<L2Event> &events)
{
    std::size_t n = 0;
    for (std::size_t i = 1; i < events.size(); ++i) {
        n += events[i].now == events[i - 1].now &&
             events[i - 1].isInstr && !events[i].isInstr;
    }
    return n;
}

/** One simulation: its statistics and its L2 event stream. */
struct Outcome
{
    SimStats stats;
    std::vector<L2Event> events;
};

/** How a case drives the simulator. */
struct Mode
{
    std::string name;
    bool interleaved = false;
    bool memory = false; //!< zero-copy MemoryTraceSource for run()
    InstCount quantum = 0;
    bool flush = false;
    bool pageMap = true;
};

class SimulatorDiff : public ::testing::Test
{
  protected:
    // 20011 records: the warmup boundary (10005, or 20011 for a pair)
    // falls inside a 256-record chunk.
    static constexpr std::size_t kLength = 20011;

    SimulatorDiff()
        : a_(randomTrace(kLength, 11, 0)),
          b_(randomTrace(kLength, 12, kRegion)),
          columnar_(std::make_shared<const ColumnarTrace>(a_)),
          map_(mixedPages())
    {
    }

    Outcome
    simulate(const SimConfig &config, PolicyKind kind, const Mode &mode)
    {
        Simulator sim(config,
                      makePolicy(kind,
                                 config.tlbs.l2.entries / config.tlbs.l2.assoc,
                                 config.tlbs.l2.assoc));
        Outcome out;
        sim.tlbs().setL2EventSink(&out.events);
        if (mode.pageMap)
            sim.tlbs().setPageMap(&map_);
        if (mode.interleaved) {
            VectorSource sa(a_), sb(b_);
            out.stats =
                sim.runInterleaved({&sa, &sb}, mode.quantum, mode.flush);
        } else if (mode.memory) {
            MemoryTraceSource source(columnar_);
            out.stats = sim.run(source);
        } else {
            VectorSource source(a_);
            out.stats = sim.run(source);
        }
        return out;
    }

    void
    compareEveryPolicy(const SimConfig &config,
                       const std::vector<Mode> &modes)
    {
        for (const PolicyKind kind : allPolicyKinds()) {
            for (const Mode &mode : modes) {
                SCOPED_TRACE(std::string(policyKindName(kind)) + " " +
                             mode.name);
                const Outcome batched = simulate(config, kind, mode);
                Outcome stepped;
                {
                    LegacyFormat legacy;
                    stepped = simulate(config, kind, mode);
                }
                EXPECT_GT(bothSideMisses(stepped.events), 0u);
                expectSameStats(batched.stats, stepped.stats);
                expectSameEvents(batched.events, stepped.events);
            }
        }
    }

    static std::vector<Mode>
    allModes()
    {
        return {
            {"run/memory", false, true, 0, false, true},
            {"run/vector", false, false, 0, false, true},
            {"run/4KB-only", false, true, 0, false, false},
            {"interleaved/2000", true, false, 2000, false, true},
            {"interleaved/2000/flush", true, false, 2000, true, true},
            {"interleaved/50000", true, false, 50000, false, true},
            {"interleaved/50000/flush", true, false, 50000, true, true},
        };
    }

    std::vector<TraceRecord> a_;
    std::vector<TraceRecord> b_;
    SharedTrace columnar_;
    PageMap map_;
};

TEST_F(SimulatorDiff, MpkiOnlyModelMatchesStepLoop)
{
    ::unsetenv("CHIRP_TRACE_FORMAT");
    SimConfig config;
    config.simulateCaches = false;
    config.simulateBranch = false;
    compareEveryPolicy(config, allModes());
}

TEST_F(SimulatorDiff, FullModelMatchesStepLoop)
{
    ::unsetenv("CHIRP_TRACE_FORMAT");
    SimConfig config;
    compareEveryPolicy(config, allModes());
}

TEST_F(SimulatorDiff, TracesExerciseBothPageSizes)
{
    // Guard the fixture itself: fetches and data accesses both land
    // on 2MB and on 4KB pages.
    std::size_t fetches = 0, huge_fetches = 0;
    std::size_t data = 0, huge_data = 0;
    for (const TraceRecord &rec : a_) {
        ++fetches;
        huge_fetches += map_.pageShiftFor(rec.pc) == kHugePageShift;
        if (isMemory(rec.cls)) {
            ++data;
            huge_data += map_.pageShiftFor(rec.effAddr) == kHugePageShift;
        }
    }
    EXPECT_GT(huge_fetches, 0u);
    EXPECT_LT(huge_fetches, fetches);
    EXPECT_GT(huge_data, 0u);
    EXPECT_LT(huge_data, data);
}

} // namespace
} // namespace chirp
