/** @file Tests for the TLB, page walkers and hierarchy. */

#include <gtest/gtest.h>

#include <random>

#include "core/lru.hh"
#include "core/policy_factory.hh"
#include "tlb/tlb_hierarchy.hh"

namespace chirp
{
namespace
{

std::unique_ptr<Tlb>
tinyTlb(std::uint32_t entries = 16, std::uint32_t assoc = 4)
{
    TlbConfig config;
    config.name = "test-tlb";
    config.entries = entries;
    config.assoc = assoc;
    config.hitLatency = 8;
    return std::make_unique<Tlb>(
        config, std::make_unique<LruPolicy>(entries / assoc, assoc));
}

AccessInfo
load(Addr vaddr, Addr pc = 0x400000)
{
    AccessInfo info;
    info.pc = pc;
    info.vaddr = vaddr;
    info.cls = InstClass::Load;
    return info;
}

TEST(Tlb, MissThenHitSamePage)
{
    auto tlb = tinyTlb();
    EXPECT_FALSE(tlb->access(load(0x1000), 0, 0));
    EXPECT_TRUE(tlb->access(load(0x1008), 0, 1)) << "same page";
    EXPECT_TRUE(tlb->access(load(0x1fff), 0, 2)) << "same page";
    EXPECT_FALSE(tlb->access(load(0x2000), 0, 3)) << "next page";
    EXPECT_EQ(tlb->accesses(), 4u);
    EXPECT_EQ(tlb->hits(), 2u);
    EXPECT_EQ(tlb->misses(), 2u);
}

TEST(Tlb, AsidsDoNotAlias)
{
    auto tlb = tinyTlb();
    EXPECT_FALSE(tlb->access(load(0x1000), 1, 0));
    EXPECT_FALSE(tlb->access(load(0x1000), 2, 1))
        << "same page, different address space";
    EXPECT_TRUE(tlb->access(load(0x1000), 1, 2));
    EXPECT_TRUE(tlb->access(load(0x1000), 2, 3));
}

TEST(Tlb, FlushAsidIsSelective)
{
    auto tlb = tinyTlb();
    tlb->access(load(0x1000), 1, 0);
    tlb->access(load(0x1000), 2, 1);
    tlb->flushAsid(1, 2);
    EXPECT_FALSE(tlb->probe(0x1000, 1));
    EXPECT_TRUE(tlb->probe(0x1000, 2));
}

TEST(Tlb, FlushAllClearsEverything)
{
    auto tlb = tinyTlb();
    for (Addr page = 0; page < 8; ++page)
        tlb->access(load(page * kPageSize), 0, page);
    EXPECT_GT(tlb->validCount(), 0u);
    tlb->flushAll(100);
    EXPECT_EQ(tlb->validCount(), 0u);
}

TEST(Tlb, LruEvictionWithinSet)
{
    // 2 sets x 2 ways; pages 0, 2, 4 all land in set 0.
    auto tlb = tinyTlb(4, 2);
    tlb->access(load(0 * kPageSize), 0, 0);
    tlb->access(load(2 * kPageSize), 0, 1);
    tlb->access(load(0 * kPageSize), 0, 2); // page 0 is MRU
    tlb->access(load(4 * kPageSize), 0, 3); // evicts page 2
    EXPECT_TRUE(tlb->probe(0 * kPageSize, 0));
    EXPECT_FALSE(tlb->probe(2 * kPageSize, 0));
    EXPECT_TRUE(tlb->probe(4 * kPageSize, 0));
}

TEST(Tlb, CapacityNeverExceeded)
{
    auto tlb = tinyTlb(16, 4);
    for (Addr page = 0; page < 100; ++page)
        tlb->access(load(page * kPageSize), 0, page);
    EXPECT_EQ(tlb->validCount(), 16u);
    EXPECT_EQ(tlb->evictions(), 100u - 16u);
}

TEST(Tlb, EfficiencyTracksLiveTime)
{
    auto tlb = tinyTlb(4, 2);
    // Page A: filled at t=0, hit at t=10, evicted via capacity.
    tlb->access(load(0 * kPageSize), 0, 0);
    tlb->access(load(0 * kPageSize), 0, 10);
    tlb->access(load(2 * kPageSize), 0, 20);
    tlb->access(load(4 * kPageSize), 0, 30); // evicts page 0 (t=30)
    // Generation: fill 0, last hit 10, evict 30 -> live 10/30.
    EXPECT_EQ(tlb->efficiency().generations(), 1u);
    EXPECT_NEAR(tlb->efficiency().efficiency(), 10.0 / 30.0, 1e-9);
}

TEST(Tlb, GeometryMismatchIsFatal)
{
    TlbConfig config;
    config.entries = 16;
    config.assoc = 4;
    EXPECT_EXIT(
        { Tlb tlb(config, std::make_unique<LruPolicy>(8, 2)); },
        ::testing::ExitedWithCode(1), "geometry");
}

TEST(FixedLatencyWalker, ChargesConstantPenalty)
{
    FixedLatencyWalker walker(150);
    EXPECT_EQ(walker.walk(0x1000), 150u);
    EXPECT_EQ(walker.walk(0x2000), 150u);
    EXPECT_EQ(walker.walks(), 2u);
    EXPECT_EQ(walker.totalCycles(), 300u);
    walker.setLatency(20);
    EXPECT_EQ(walker.walk(0x3000), 20u);
}

TEST(RadixPageWalker, PscsShortenRepeatedWalks)
{
    RadixPageWalker::Config config;
    config.memAccessCycles = 40;
    RadixPageWalker walker(config);
    // Cold walk: 4 levels.
    EXPECT_EQ(walker.walk(0x7000), 160u);
    // Neighboring page in the same 2MB region: PD PSC hit -> leaf
    // access only.
    EXPECT_EQ(walker.walk(0x8000), 40u);
    // Same 1GB but different 2MB region: PDPT hit -> 2 accesses.
    EXPECT_EQ(walker.walk(0x7000 + (Addr{1} << 21)), 80u);
    // Same 512GB but different 1GB: PML4 hit -> 3 accesses.
    EXPECT_EQ(walker.walk(0x7000 + (Addr{1} << 30)), 120u);
}

TEST(RadixPageWalker, PscCapacityEviction)
{
    RadixPageWalker::Config config;
    config.pdEntries = 2;
    RadixPageWalker walker(config);
    walker.walk(0x0);                   // region 0 cold
    walker.walk(Addr{1} << 21);         // region 1
    walker.walk(Addr{2} << 21);         // region 2 evicts region 0
    EXPECT_EQ(walker.walk(0x1000), config.memAccessCycles * 2)
        << "PD PSC no longer holds region 0, but PDPT does";
}

TEST(TlbHierarchy, L1FiltersL2)
{
    auto hierarchy = TlbHierarchy::makeDefault(
        makePolicy(PolicyKind::Lru, 128, 8),
        std::make_unique<FixedLatencyWalker>(150));
    AccessInfo info = load(0x5000);
    // Cold: L1 miss, L2 miss, walk.
    const TranslateResult first = hierarchy->translate(info, 0, 0);
    EXPECT_FALSE(first.l1Hit);
    EXPECT_FALSE(first.l2Hit);
    EXPECT_EQ(first.stall, 8u + 150u);
    // Warm: L1 hit, no stall.
    const TranslateResult second = hierarchy->translate(info, 0, 1);
    EXPECT_TRUE(second.l1Hit);
    EXPECT_EQ(second.stall, 0u);
}

TEST(TlbHierarchy, L2HitAfterL1Eviction)
{
    auto hierarchy = TlbHierarchy::makeDefault(
        makePolicy(PolicyKind::Lru, 128, 8),
        std::make_unique<FixedLatencyWalker>(150));
    hierarchy->translate(load(0x0), 0, 0);
    // Push 128 further pages through the L1 d-TLB (64 entries):
    // page 0 is evicted from L1 but still resident in the L2.
    for (Addr page = 1; page <= 128; ++page)
        hierarchy->translate(load(page * kPageSize), 0, page);
    const TranslateResult result =
        hierarchy->translate(load(0x0), 0, 200);
    EXPECT_FALSE(result.l1Hit);
    EXPECT_TRUE(result.l2Hit);
    EXPECT_EQ(result.stall, 8u);
}

/**
 * The L1 TLBs are Cache instances keyed by Tlb::keyOf.  Differential
 * check against a Tlb with an LruPolicy of the same geometry, which
 * stays in the tree as the L2 and so is an independent LRU: random
 * keys over several ASIDs and both page sizes, with same-key runs,
 * full flushes mid-stream and a reset.  Every hit result and the
 * access/miss counts must agree.
 */
TEST(TlbHierarchy, L1TlbMatchesLruTlb)
{
    const TlbHierarchyConfig geometry;
    auto hierarchy = TlbHierarchy::makeDefault(
        makePolicy(PolicyKind::Lru, 128, 8),
        std::make_unique<FixedLatencyWalker>(150));
    Cache &l1 = hierarchy->l1d();
    Tlb ref(geometry.l1d,
            std::make_unique<LruPolicy>(
                geometry.l1d.entries / geometry.l1d.assoc,
                geometry.l1d.assoc));

    std::mt19937_64 rng(5);
    std::uint64_t now = 0;
    for (int step = 0; step < 60000; ++step) {
        const auto asid = static_cast<Asid>(1 + rng() % 4);
        const unsigned shift = rng() % 4 == 0 ? kHugePageShift : kPageShift;
        // 384 distinct keys against 64 entries, so hits, misses and
        // evictions all occur.
        const Addr vaddr = ((rng() % 48) << shift) | (rng() & 0xfff);
        const Addr key = Tlb::keyOf(vaddr, asid, shift);
        AccessInfo info = load(vaddr);
        if (rng() % 5 == 0) {
            const std::uint64_t n = 1 + rng() % 6;
            const bool hit = l1.accessKeyRun(key, n);
            ASSERT_EQ(hit, ref.access(info, asid, now++, shift))
                << "run start, step " << step;
            for (std::uint64_t k = 1; k < n; ++k)
                ASSERT_TRUE(ref.access(info, asid, now++, shift))
                    << "run repeat, step " << step;
        } else {
            ASSERT_EQ(l1.accessKey(key), ref.access(info, asid, now++, shift))
                << "step " << step;
        }
        if (step % 7919 == 7918) {
            l1.invalidateAll();
            ref.flushAll(now);
        }
        if (step == 40000) {
            ASSERT_EQ(l1.accesses(), ref.accesses());
            ASSERT_EQ(l1.misses(), ref.misses());
            l1.reset();
            ref.reset();
        }
    }
    EXPECT_EQ(l1.accesses(), ref.accesses());
    EXPECT_EQ(l1.hits(), ref.hits());
    EXPECT_EQ(l1.misses(), ref.misses());
    EXPECT_GT(l1.misses(), 1000u);
    EXPECT_GT(l1.hits(), 1000u);
}

TEST(TlbHierarchy, InstructionAndDataSidesAreSeparateL1s)
{
    auto hierarchy = TlbHierarchy::makeDefault(
        makePolicy(PolicyKind::Lru, 128, 8),
        std::make_unique<FixedLatencyWalker>(150));
    AccessInfo ifetch;
    ifetch.pc = 0x400000;
    ifetch.vaddr = 0x400000;
    ifetch.isInstr = true;
    hierarchy->translate(ifetch, 0, 0);
    // Data access to the same page: separate L1, but unified L2 hit.
    AccessInfo data = load(0x400008);
    const TranslateResult result = hierarchy->translate(data, 0, 1);
    EXPECT_FALSE(result.l1Hit);
    EXPECT_TRUE(result.l2Hit);
}

} // namespace
} // namespace chirp
