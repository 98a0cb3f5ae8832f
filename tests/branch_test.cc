/** @file Tests for the branch-prediction substrate. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "branch/branch_unit.hh"
#include "util/bitfield.hh"
#include "util/random.hh"

namespace chirp
{
namespace
{

TEST(HashedPerceptron, LearnsAStronglyBiasedBranch)
{
    HashedPerceptron predictor;
    const Addr pc = 0x401000;
    for (int i = 0; i < 200; ++i)
        predictor.update(pc, true);
    EXPECT_TRUE(predictor.predict(pc));

    for (int i = 0; i < 400; ++i)
        predictor.update(pc, false);
    EXPECT_FALSE(predictor.predict(pc));
}

TEST(HashedPerceptron, LearnsAPeriodicPattern)
{
    HashedPerceptron predictor;
    const Addr pc = 0x402000;
    // Period-4 pattern: T T T N. Train for a while...
    for (int i = 0; i < 2000; ++i)
        predictor.update(pc, (i % 4) != 3);
    // ...then measure accuracy over the next window.
    int correct = 0;
    for (int i = 0; i < 400; ++i) {
        const bool actual = (i % 4) != 3;
        correct += predictor.predict(pc) == actual;
        predictor.update(pc, actual);
    }
    EXPECT_GT(correct, 360) << "history-based predictor should track "
                               "a short periodic pattern";
}

TEST(HashedPerceptron, HistoryAdvances)
{
    HashedPerceptron predictor;
    const std::uint64_t before = predictor.history();
    predictor.update(0x400100, true);
    EXPECT_EQ(predictor.history(), (before << 1) | 1);
    predictor.update(0x400100, false);
    EXPECT_EQ(predictor.history() & 1, 0u);
}

TEST(HashedPerceptron, ResetClearsState)
{
    HashedPerceptron predictor;
    for (int i = 0; i < 100; ++i)
        predictor.update(0x400000, false);
    predictor.reset();
    EXPECT_EQ(predictor.history(), 0u);
    EXPECT_TRUE(predictor.predict(0x400000))
        << "zero weights predict taken (sum >= 0)";
}

TEST(HashedPerceptron, RejectsHistoryBeyond64Bits)
{
    PerceptronConfig config;
    config.numTables = 9; // 9 x 8 bits: table 8 would shift by 64
    EXPECT_EXIT({ HashedPerceptron p(config); },
                ::testing::ExitedWithCode(1),
                "numTables x historySegBits <= 64, got 9 x 8");
}

/**
 * The two-pass perceptron: predict() and update() each form every
 * table index from scratch with the generic fold.  Reference for the
 * production predictor, which forms them once per branch.
 */
class TwoPassPerceptron
{
  public:
    explicit TwoPassPerceptron(const PerceptronConfig &config)
        : config_(config),
          theta_(static_cast<int>(std::floor(
              1.93 * config.numTables * config.historySegBits + 14.0))),
          weights_(config.numTables * config.tableEntries, 0),
          bias_(config.tableEntries, 0)
    {
    }

    bool predict(Addr pc) const { return sumFor(pc) >= 0; }

    void
    update(Addr pc, bool taken)
    {
        const int sum = sumFor(pc);
        if ((sum >= 0) != taken || std::abs(sum) <= theta_) {
            auto bump = [&](std::int8_t &w) {
                w = static_cast<std::int8_t>(
                    std::clamp(w + (taken ? 1 : -1), -config_.weightMax,
                               config_.weightMax));
            };
            bump(bias_[biasIndex(pc)]);
            for (unsigned t = 0; t < config_.numTables; ++t)
                bump(weights_[weightIndex(pc, t)]);
        }
        history_ = (history_ << 1) | (taken ? 1 : 0);
    }

    std::uint64_t history() const { return history_; }
    const std::vector<std::int8_t> &weights() const { return weights_; }
    const std::vector<std::int8_t> &bias() const { return bias_; }

  private:
    unsigned bits() const { return floorLog2(config_.tableEntries); }

    std::size_t
    biasIndex(Addr pc) const
    {
        return foldXor(pc >> 2, bits());
    }

    std::size_t
    weightIndex(Addr pc, unsigned t) const
    {
        const std::uint64_t segment =
            (history_ >> (t * config_.historySegBits)) &
            maskBits(config_.historySegBits);
        const std::uint64_t mixed = (pc >> 2) ^ (segment * 0x9e3779b1ull) ^
                                    (std::uint64_t{t} << 29);
        return t * config_.tableEntries + foldXor(mixed, bits());
    }

    int
    sumFor(Addr pc) const
    {
        int sum = bias_[biasIndex(pc)];
        for (unsigned t = 0; t < config_.numTables; ++t)
            sum += weights_[weightIndex(pc, t)];
        return sum;
    }

    PerceptronConfig config_;
    int theta_;
    std::vector<std::int8_t> weights_;
    std::vector<std::int8_t> bias_;
    std::uint64_t history_ = 0;
};

/** A random conditional-branch stream over a few PCs of mixed bias. */
struct BranchStream
{
    explicit BranchStream(std::uint64_t seed) : rng(seed) {}

    TraceRecord
    next()
    {
        TraceRecord rec;
        const std::uint64_t site = rng.below(24);
        rec.pc = 0x400000 + 52 * site;
        rec.cls = InstClass::CondBranch;
        rec.target = 0x480000 + 16 * rng.below(site % 3 + 1);
        // Per-site bias from mostly not-taken to mostly taken; every
        // fourth site is a coin flip.
        rec.taken = rng.chance(site % 4 == 0 ? 0.5 : 0.08 + site / 30.0);
        return rec;
    }

    Rng rng;
};

TEST(HashedPerceptron, SinglePassUpdateMatchesPredictThenUpdate)
{
    PerceptronConfig configs[4];
    configs[1].numTables = 4;
    configs[1].historySegBits = 16;
    configs[1].tableEntries = 256;
    configs[2].numTables = 16;
    configs[2].historySegBits = 4;
    configs[2].weightMax = 15;
    configs[3].numTables = 1;
    configs[3].historySegBits = 64;
    configs[3].tableEntries = 2;
    for (std::uint64_t c = 0; c < 4; ++c) {
        SCOPED_TRACE(testing::Message() << "config " << c);
        HashedPerceptron predictor(configs[c]);
        TwoPassPerceptron ref(configs[c]);
        BranchStream stream(c + 1);
        for (int i = 0; i < 20000; ++i) {
            const TraceRecord rec = stream.next();
            const bool expected = ref.predict(rec.pc);
            ASSERT_EQ(predictor.predict(rec.pc), expected) << i;
            ref.update(rec.pc, rec.taken);
            ASSERT_EQ(predictor.update(rec.pc, rec.taken), expected) << i;
            ASSERT_EQ(predictor.history(), ref.history()) << i;
            if (i % 997 == 0) {
                ASSERT_EQ(predictor.weights(), ref.weights()) << i;
                ASSERT_EQ(predictor.bias(), ref.bias()) << i;
            }
        }
        EXPECT_EQ(predictor.weights(), ref.weights());
        EXPECT_EQ(predictor.bias(), ref.bias());
    }
}

TEST(BranchUnit, MispredictsMatchTwoPassReference)
{
    // The reference unit predicts the direction, checks the BTB,
    // then trains: the order onBranch() used before it fused the
    // perceptron's predict and update.
    const BranchUnitConfig config;
    BranchUnit unit(config);
    TwoPassPerceptron direction(config.perceptron);
    Btb btb(config.btbEntries, config.btbAssoc);
    IndirectPredictor indirect(config.indirectEntries);
    std::uint64_t mispredicts = 0;
    BranchStream stream(42);
    for (int i = 0; i < 30000; ++i) {
        TraceRecord rec = stream.next();
        if (i % 7 == 0)
            rec.cls = InstClass::UncondDirect;
        else if (i % 11 == 0)
            rec.cls = InstClass::UncondIndirect;
        bool miss = false;
        if (rec.cls == InstClass::CondBranch) {
            const bool predicted = direction.predict(rec.pc);
            miss = predicted != rec.taken ||
                   (rec.taken && btb.predict(rec.pc) != rec.target);
            direction.update(rec.pc, rec.taken);
            if (rec.taken)
                btb.update(rec.pc, rec.target);
        } else if (rec.cls == InstClass::UncondDirect) {
            miss = btb.predict(rec.pc) != rec.target;
            btb.update(rec.pc, rec.target);
        } else {
            miss = indirect.predict(rec.pc) != rec.target;
            indirect.update(rec.pc, rec.target);
        }
        mispredicts += miss;
        ASSERT_EQ(unit.onBranch(rec), miss ? config.mispredictPenalty : 0)
            << i;
    }
    EXPECT_EQ(unit.mispredicts(), mispredicts);
    EXPECT_EQ(unit.branches(), 30000u);
    EXPECT_GT(mispredicts, 0u);
    EXPECT_EQ(unit.direction().history(), direction.history());
    EXPECT_EQ(unit.direction().weights(), direction.weights());
    EXPECT_EQ(unit.btb().hits(), btb.hits());
    EXPECT_EQ(unit.btb().misses(), btb.misses());
}

TEST(Btb, StoresAndPredictsTargets)
{
    Btb btb(1024, 4);
    EXPECT_EQ(btb.predict(0x400000), 0u);
    btb.update(0x400000, 0x400400);
    EXPECT_EQ(btb.predict(0x400000), 0x400400u);
    btb.update(0x400000, 0x400800);
    EXPECT_EQ(btb.predict(0x400000), 0x400800u);
}

TEST(Btb, CapacityEviction)
{
    Btb btb(16, 2); // 8 sets x 2 ways
    // Fill one set (branches 0x0, 0x200, 0x400 all map to set 0 with
    // 8 sets of 4-byte keys: key = pc>>2, set = key & 7).
    btb.update(0x0, 0x100);
    btb.update(0x200, 0x300);
    btb.predict(0x0); // refresh recency via hit bookkeeping? (reads only)
    btb.update(0x400, 0x500);
    // One of the first two was evicted; the newest must be present.
    EXPECT_EQ(btb.predict(0x400), 0x500u);
}

TEST(IndirectPredictor, ConvergesOnAStableTarget)
{
    IndirectPredictor predictor(512);
    const Addr pc = 0x400abc;
    // The index mixes in a target-path history, so it stabilizes
    // once the register is full of the repeated target.
    for (int i = 0; i < 32; ++i)
        predictor.update(pc, 0x500000);
    EXPECT_EQ(predictor.predict(pc), 0x500000u);
}

TEST(BranchUnit, PenalizesColdBranchesThenLearns)
{
    BranchUnit unit;
    TraceRecord rec;
    rec.pc = 0x400100;
    rec.cls = InstClass::UncondDirect;
    rec.target = 0x400800;
    rec.taken = true;
    const Cycles first = unit.onBranch(rec);
    EXPECT_EQ(first, BranchUnitConfig{}.mispredictPenalty)
        << "cold BTB misses the target";
    const Cycles second = unit.onBranch(rec);
    EXPECT_EQ(second, 0u);
    EXPECT_EQ(unit.branches(), 2u);
    EXPECT_EQ(unit.mispredicts(), 1u);
}

TEST(BranchUnit, ConditionalDirectionAndTarget)
{
    BranchUnit unit;
    TraceRecord rec;
    rec.pc = 0x400200;
    rec.cls = InstClass::CondBranch;
    rec.target = 0x400900;
    rec.taken = true;
    // Train until the unit predicts this always-taken branch.
    for (int i = 0; i < 50; ++i)
        unit.onBranch(rec);
    EXPECT_EQ(unit.onBranch(rec), 0u);
    // A sudden not-taken outcome is a mispredict.
    rec.taken = false;
    EXPECT_EQ(unit.onBranch(rec), BranchUnitConfig{}.mispredictPenalty);
}

TEST(BranchUnit, IndirectTargetsResolveAfterTraining)
{
    BranchUnit unit;
    TraceRecord rec;
    rec.pc = 0x400300;
    rec.cls = InstClass::UncondIndirect;
    rec.target = 0x480000;
    rec.taken = true;
    for (int i = 0; i < 32; ++i)
        unit.onBranch(rec); // warm the target-path history
    EXPECT_EQ(unit.onBranch(rec), 0u) << "stable target is learned";
}

TEST(BranchUnit, NonBranchesAreIgnored)
{
    BranchUnit unit;
    TraceRecord rec;
    rec.pc = 0x400400;
    rec.cls = InstClass::Load;
    EXPECT_EQ(unit.onBranch(rec), 0u);
    EXPECT_EQ(unit.branches(), 1u) << "counted but no predictor state";
}

TEST(BranchUnit, MispredictRateOnRandomOutcomesIsBounded)
{
    BranchUnit unit;
    Rng rng(3);
    TraceRecord rec;
    rec.cls = InstClass::CondBranch;
    rec.target = 0x400800;
    int penalties = 0;
    for (int i = 0; i < 4000; ++i) {
        rec.pc = 0x400000 + 64 * (i % 4);
        rec.taken = rng.chance(0.9);
        penalties += unit.onBranch(rec) > 0;
    }
    // A 90%-biased random branch should mispredict roughly 10% of
    // the time once warmed, certainly less than 25%.
    EXPECT_LT(penalties, 1000);
}

} // namespace
} // namespace chirp
