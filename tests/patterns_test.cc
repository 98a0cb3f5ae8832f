/** @file Tests for the synthetic data-access patterns. */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "trace/synthetic/patterns.hh"

namespace chirp
{
namespace
{

constexpr Addr kBase = Addr{1} << 32;

TEST(StreamPattern, SequentialPages)
{
    StreamPattern stream(kBase, 4, 3, 8);
    Rng rng(1);
    // Three touches per page, then the next page.
    for (unsigned page = 0; page < 4; ++page) {
        for (unsigned t = 0; t < 3; ++t) {
            const Addr addr = stream.nextAddr(rng);
            EXPECT_EQ(pageNumber(addr), pageNumber(kBase) + page);
            EXPECT_EQ(addr & kPageOffsetMask, t * 8);
        }
    }
    // Wraps to the first page.
    EXPECT_EQ(pageNumber(stream.nextAddr(rng)), pageNumber(kBase));
}

TEST(StreamPattern, LaggedRevisitsReTouchOldPages)
{
    // revisit fraction 1.0: after every page beyond the lag, one
    // extra touch lands `lag` pages back.
    StreamPattern stream(kBase, 64, 2, 64, /*revisit=*/1.0, /*lag=*/8);
    Rng rng(21);
    std::vector<Addr> pages;
    for (int i = 0; i < 64; ++i)
        pages.push_back(pageNumber(stream.nextAddr(rng)) -
                        pageNumber(kBase));
    // Find a back-jump of exactly `lag` pages.
    bool saw_revisit = false;
    for (std::size_t i = 1; i < pages.size(); ++i) {
        if (pages[i] + 8 == pages[i - 1] + 1 ||
            (pages[i - 1] >= 8 && pages[i] == pages[i - 1] - 8 + 1)) {
            saw_revisit = true;
        }
    }
    EXPECT_TRUE(saw_revisit);
}

TEST(StreamPattern, NoRevisitsByDefault)
{
    StreamPattern stream(kBase, 32, 2);
    Rng rng(23);
    Addr last = 0;
    bool first = true;
    while (true) {
        const Addr page = pageNumber(stream.nextAddr(rng)) -
                          pageNumber(kBase);
        if (!first) {
            EXPECT_GE(page + 1, last) << "pages advance monotonically";
        }
        if (page == 31)
            break;
        last = page;
        first = false;
    }
}

/**
 * DataPattern::reset promises a rewind: after it, the pattern must
 * emit exactly what a freshly constructed one does for the same draws.
 */
void
expectResetRestarts(DataPattern &pattern)
{
    std::vector<Addr> fresh;
    Rng rng(77);
    for (int i = 0; i < 500; ++i)
        fresh.push_back(pattern.nextAddr(rng));
    pattern.reset();
    Rng again(77);
    for (int i = 0; i < 500; ++i)
        ASSERT_EQ(pattern.nextAddr(again), fresh[i]) << "access " << i;
}

TEST(StreamPattern, ResetRestarts)
{
    StreamPattern stream(kBase, 64, 2, 64, /*revisit=*/0.5, /*lag=*/8);
    expectResetRestarts(stream);
}

TEST(ZipfPattern, StaysInFootprint)
{
    ZipfPattern zipf(kBase, 32, 1.0, 42);
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const Addr addr = zipf.nextAddr(rng);
        EXPECT_GE(addr, kBase);
        EXPECT_LT(addr, kBase + 32 * kPageSize);
    }
    EXPECT_EQ(zipf.footprintPages(), 32u);
    EXPECT_FALSE(zipf.transient());
}

TEST(ZipfPattern, SkewedTowardFewPages)
{
    ZipfPattern zipf(kBase, 64, 1.1, 42);
    Rng rng(7);
    std::map<Addr, int> counts;
    for (int i = 0; i < 20000; ++i)
        ++counts[pageNumber(zipf.nextAddr(rng))];
    // The most popular page should hold far more than 1/64 of the
    // accesses.
    int max_count = 0;
    for (const auto &[page, count] : counts)
        max_count = std::max(max_count, count);
    EXPECT_GT(max_count, 20000 / 16);
}

TEST(ZipfPattern, LineSlotsQuantizeOffsets)
{
    ZipfPattern zipf(kBase, 8, 1.0, 42, 4);
    Rng rng(7);
    std::set<Addr> offsets;
    for (int i = 0; i < 500; ++i)
        offsets.insert(zipf.nextAddr(rng) & kPageOffsetMask);
    EXPECT_LE(offsets.size(), 4u);
    for (const Addr off : offsets)
        EXPECT_EQ(off % 64, 0u);
}

TEST(ZipfPattern, ResetRestarts)
{
    ZipfPattern zipf(kBase, 100, 0.9, 42);
    expectResetRestarts(zipf);
}

TEST(UniformPattern, CoversFootprint)
{
    UniformPattern uniform(kBase, 16);
    Rng rng(3);
    std::set<Addr> pages;
    for (int i = 0; i < 2000; ++i)
        pages.insert(pageNumber(uniform.nextAddr(rng)));
    EXPECT_EQ(pages.size(), 16u);
    EXPECT_TRUE(uniform.transient());
}

TEST(UniformPattern, ResetRestarts)
{
    UniformPattern uniform(kBase, 37, 4);
    expectResetRestarts(uniform);
}

TEST(ChasePattern, VisitsEveryPageBeforeRepeating)
{
    ChasePattern chase(kBase, 16, 1, 99);
    Rng rng(5);
    std::set<Addr> pages;
    for (int i = 0; i < 16; ++i)
        pages.insert(pageNumber(chase.nextAddr(rng)));
    // Sattolo cycle: all 16 pages visited in the first 16 steps.
    EXPECT_EQ(pages.size(), 16u);
}

TEST(ChasePattern, DerefsPerPage)
{
    ChasePattern chase(kBase, 8, 3, 99);
    Rng rng(5);
    for (int step = 0; step < 4; ++step) {
        const Addr page = pageNumber(chase.nextAddr(rng));
        EXPECT_EQ(pageNumber(chase.nextAddr(rng)), page);
        EXPECT_EQ(pageNumber(chase.nextAddr(rng)), page);
    }
}

TEST(ChasePattern, ResetRestarts)
{
    ChasePattern chase(kBase, 16, 3, 99);
    expectResetRestarts(chase);
}

TEST(TiledPattern, AccessesStayInTileThenAdvance)
{
    TiledPattern tiled(kBase, 64, 8, 100);
    Rng rng(11);
    // First 100 touches stay inside pages [0, 8).
    for (int i = 0; i < 100; ++i) {
        const Addr page = pageNumber(tiled.nextAddr(rng)) -
                          pageNumber(kBase);
        EXPECT_LT(page, 8u);
    }
    // After the tile advances, accesses come from [8, 16).
    for (int i = 0; i < 100; ++i) {
        const Addr page = pageNumber(tiled.nextAddr(rng)) -
                          pageNumber(kBase);
        EXPECT_GE(page, 8u);
        EXPECT_LT(page, 16u);
    }
}

TEST(TiledPattern, TileClampedToFootprint)
{
    TiledPattern tiled(kBase, 4, 100, 10);
    Rng rng(13);
    for (int i = 0; i < 50; ++i) {
        const Addr page = pageNumber(tiled.nextAddr(rng)) -
                          pageNumber(kBase);
        EXPECT_LT(page, 4u);
    }
}

TEST(TiledPattern, ResetRestarts)
{
    TiledPattern tiled(kBase, 50, 7, 30);
    expectResetRestarts(tiled);
}

} // namespace
} // namespace chirp
