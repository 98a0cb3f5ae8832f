/**
 * @file
 * Coverage for code layout, efficiency tracking, logging and number
 * parsing.
 */

#include <gtest/gtest.h>

#include <limits>

#include "core/chirp.hh"
#include "tlb/efficiency.hh"
#include "trace/synthetic/code_layout.hh"
#include "util/logging.hh"
#include "util/parse.hh"
#include "util/progress.hh"

namespace chirp
{
namespace
{

TEST(CodeLayout, AllocatesContiguousAlignedFunctions)
{
    CodeLayout layout(0x400000);
    const FuncDesc a = layout.allocFunction(2);
    const FuncDesc b = layout.allocFunction(3);
    EXPECT_EQ(a.entry, 0x400000u);
    EXPECT_EQ(b.entry, a.entry + 2 * kBlockBytes);
    EXPECT_EQ(a.entry % kBlockBytes, 0u);
    EXPECT_EQ(b.entry % kBlockBytes, 0u);
}

TEST(CodeLayout, PcOfAddressesSlots)
{
    CodeLayout layout;
    const FuncDesc fn = layout.allocFunction(4);
    EXPECT_EQ(fn.pcOf(0, 0), fn.entry);
    EXPECT_EQ(fn.pcOf(0, 3), fn.entry + 12);
    EXPECT_EQ(fn.pcOf(2, 1), fn.entry + 2 * kBlockBytes + 4);
}

TEST(CodeLayout, PaddingInflatesCodeFootprint)
{
    CodeLayout tight(0x400000);
    CodeLayout padded(0x400000);
    for (int i = 0; i < 8; ++i) {
        tight.allocFunction(4);
        padded.allocFunction(4, /*pad_pages=*/2);
    }
    EXPECT_GT(padded.codePages(), tight.codePages());
    EXPECT_GE(padded.codePages(), 16u);
}

TEST(CodeLayout, RejectsMisalignedBase)
{
    EXPECT_EXIT({ CodeLayout layout(0x400004); },
                ::testing::ExitedWithCode(1), "aligned");
}

TEST(EfficiencyTracker, RatioOfLiveToResident)
{
    EfficiencyTracker tracker;
    tracker.recordGeneration(0, 50, 100);  // 50% live
    tracker.recordGeneration(100, 100, 200); // never hit: 0% live
    EXPECT_EQ(tracker.generations(), 2u);
    EXPECT_NEAR(tracker.efficiency(), 50.0 / 200.0, 1e-12);
}

TEST(EfficiencyTracker, IgnoresDegenerateGenerations)
{
    EfficiencyTracker tracker;
    tracker.recordGeneration(100, 100, 100); // zero residency
    EXPECT_EQ(tracker.generations(), 0u);
    EXPECT_DOUBLE_EQ(tracker.efficiency(), 0.0);
}

TEST(EfficiencyTracker, ResetClears)
{
    EfficiencyTracker tracker;
    tracker.recordGeneration(0, 10, 20);
    tracker.reset();
    EXPECT_EQ(tracker.generations(), 0u);
}

TEST(Logging, WarnAndInformDoNotTerminate)
{
    chirp_warn("test warning ", 42);
    chirp_inform("test info ", 3.5);
    SUCCEED();
}

TEST(Logging, FatalExitsWithStatusOne)
{
    EXPECT_EXIT(chirp_fatal("boom ", 7), ::testing::ExitedWithCode(1),
                "boom 7");
}

TEST(ChirpVictim, DeepestDeadEntryPreferred)
{
    // Two dead-predicted entries: the LRU-deeper one is the victim.
    ChirpPolicy policy(1, 4);
    AccessInfo info;
    info.pc = 0x401000;
    info.vaddr = 0x1000;
    info.cls = InstClass::Load;
    for (std::uint32_t way = 0; way < 4; ++way)
        policy.onFill(0, way, info);
    // Train the context dead, then re-fill ways 1 and 2 (both dead).
    policy.selectVictim(0, info);
    policy.onFill(0, 1, info);
    policy.onFill(0, 2, info);
    ASSERT_TRUE(policy.isDead(0, 1));
    ASSERT_TRUE(policy.isDead(0, 2));
    // Way 1 was filled before way 2, so it is deeper in the stack.
    EXPECT_GT(policy.stackPosition(0, 1), policy.stackPosition(0, 2));
    EXPECT_EQ(policy.selectVictim(0, info), 1u);
}

class HistoryWidth
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{
};

TEST_P(HistoryWidth, ShiftRegisterDropsExactlyOldestEvent)
{
    const auto [events, shift] = GetParam();
    WideShiftHistory history(events, shift);
    // Push a marker, then exactly events-1 zeros: still present.
    history.push(1);
    for (unsigned i = 0; i + 1 < events; ++i)
        history.push(0);
    EXPECT_NE(history.folded(), 0u);
    history.push(0); // the marker falls off
    EXPECT_EQ(history.folded(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, HistoryWidth,
    ::testing::Values(std::pair<unsigned, unsigned>{4, 4},
                      std::pair<unsigned, unsigned>{16, 4},
                      std::pair<unsigned, unsigned>{8, 8},
                      std::pair<unsigned, unsigned>{40, 4},
                      std::pair<unsigned, unsigned>{24, 8},
                      std::pair<unsigned, unsigned>{16, 2}));

TEST(ProgressReporter, AutoResolvesToLinesWhenNotATty)
{
    // Under ctest stderr is a pipe, so Auto must pick the CI-safe
    // line mode rather than the \r redraw.
    ProgressReporter progress("auto", 4);
    EXPECT_EQ(progress.mode(), ProgressReporter::Mode::Lines);
}

TEST(ProgressReporter, LinesModePrintsStrideAndFinal)
{
    ::testing::internal::CaptureStderr();
    {
        ProgressReporter progress("batch", 20,
                                  ProgressReporter::Mode::Lines);
        for (int i = 0; i < 20; ++i)
            progress.tick();
        EXPECT_EQ(progress.done(), 20u);
    }
    const std::string out = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(out.find("[batch] 2/20"), std::string::npos);
    EXPECT_NE(out.find("[batch] 20/20"), std::string::npos);
    EXPECT_EQ(out.find('\r'), std::string::npos)
        << "line mode never uses carriage-return redraws";
}

TEST(ParseUnsigned, AcceptsPlainDigits)
{
    std::uint64_t out = 99;
    EXPECT_TRUE(parseUnsigned("0", 10, out));
    EXPECT_EQ(out, 0u);
    EXPECT_TRUE(parseUnsigned("007", 10, out));
    EXPECT_EQ(out, 7u);
    EXPECT_TRUE(parseUnsigned("18446744073709551615",
                              std::numeric_limits<std::uint64_t>::max(),
                              out));
    EXPECT_EQ(out, std::numeric_limits<std::uint64_t>::max());
}

TEST(ParseUnsigned, RejectsSignsSpacesAndJunk)
{
    const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
    for (const char *text :
         {"-1", "+5", " 5", "5 ", "", "5x", "0x10", "1e3", "-0"}) {
        std::uint64_t out = 42;
        EXPECT_FALSE(parseUnsigned(text, max, out)) << "'" << text << "'";
        EXPECT_EQ(out, 42u) << "a rejection leaves the output alone";
    }
    std::uint64_t out = 42;
    EXPECT_FALSE(parseUnsigned(nullptr, max, out));
}

TEST(ParseUnsigned, RejectsOverflowAndValuesAboveMax)
{
    const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t out = 0;
    EXPECT_FALSE(parseUnsigned("18446744073709551616", max, out))
        << "2^64 overflows";
    EXPECT_FALSE(parseUnsigned("99999999999999999999999", max, out));
    // The max boundary is inclusive.
    EXPECT_TRUE(parseUnsigned("4294967295", 4294967295u, out));
    EXPECT_EQ(out, 4294967295u);
    EXPECT_FALSE(parseUnsigned("4294967296", 4294967295u, out));
    EXPECT_FALSE(parseUnsigned("4294967297", 4294967295u, out))
        << "no silent truncation to 32 bits";
    EXPECT_TRUE(parseUnsigned("0", 0, out));
    EXPECT_FALSE(parseUnsigned("1", 0, out));
}

TEST(ProgressReporter, EmptyLabelIsSilent)
{
    ::testing::internal::CaptureStderr();
    {
        ProgressReporter progress("", 5,
                                  ProgressReporter::Mode::Lines);
        for (int i = 0; i < 5; ++i)
            progress.tick();
    }
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

} // namespace
} // namespace chirp
