/**
 * @file
 * Golden tests for the incremental history fold: WideShiftHistory
 * maintains its 64-bit XOR-fold on push(), and that view must be
 * bit-identical to an independent recompute from a naive bit-vector
 * model of the register, for every width the Fig 2 sweep visits.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/history.hh"
#include "util/random.hh"

namespace chirp
{
namespace
{

/**
 * Naive reference: the register as a vector of bits (index 0 = LSB),
 * shifted and folded from first principles.
 */
class BitModel
{
  public:
    BitModel(unsigned events, unsigned shift_per_event)
        : shift_(shift_per_event), bits_(events * shift_per_event, 0)
    {
    }

    void
    push(std::uint64_t value)
    {
        for (std::size_t i = bits_.size(); i-- > shift_;)
            bits_[i] = bits_[i - shift_];
        for (unsigned i = 0; i < shift_ && i < bits_.size(); ++i)
            bits_[i] = static_cast<std::uint8_t>((value >> i) & 1);
    }

    /** XOR-fold of the 64-bit words the register decomposes into. */
    std::uint64_t
    folded() const
    {
        std::uint64_t fold = 0;
        for (std::size_t i = 0; i < bits_.size(); ++i)
            fold ^= static_cast<std::uint64_t>(bits_[i]) << (i % 64);
        return fold;
    }

    std::uint64_t
    low64() const
    {
        std::uint64_t low = 0;
        for (std::size_t i = 0; i < bits_.size() && i < 64; ++i)
            low |= static_cast<std::uint64_t>(bits_[i]) << i;
        return low;
    }

    void reset() { std::fill(bits_.begin(), bits_.end(), 0); }

  private:
    unsigned shift_;
    std::vector<std::uint8_t> bits_;
};

/** Random pushes; the incremental fold must track the model exactly. */
void
checkAgainstModel(unsigned events, unsigned shift, unsigned pushes)
{
    SCOPED_TRACE("events=" + std::to_string(events) +
                 " shift=" + std::to_string(shift));
    WideShiftHistory history(events, shift);
    BitModel model(events, shift);
    ASSERT_EQ(history.widthBits(), events * shift);

    Rng rng(0x5109 + events * 131 + shift);
    for (unsigned i = 0; i < pushes; ++i) {
        const std::uint64_t value = rng.next();
        history.push(value);
        model.push(value);
        ASSERT_EQ(history.folded(), model.folded()) << "push " << i;
        ASSERT_EQ(history.low64(), model.low64()) << "push " << i;
    }

    history.reset();
    model.reset();
    EXPECT_EQ(history.folded(), model.folded());
    // The fold must stay consistent after reset, not just after
    // construction.
    for (unsigned i = 0; i < 64; ++i) {
        const std::uint64_t value = rng.next();
        history.push(value);
        model.push(value);
        ASSERT_EQ(history.folded(), model.folded()) << "post-reset " << i;
    }
}

TEST(WideShiftHistoryFold, PaperPathRegister)
{
    // 16 events x 4 bits: the paper's 64-bit path history.
    checkAgainstModel(16, 4, 2000);
}

TEST(WideShiftHistoryFold, PaperBranchRegisters)
{
    // 8 events x 8 bits: the conditional/indirect branch histories.
    checkAgainstModel(8, 8, 2000);
}

TEST(WideShiftHistoryFold, Fig2SweepWidths)
{
    // The Fig 2 history-length study sweeps pathEvents at the paper's
    // 4-bit shift: widths 16 through 256 bits, crossing the one-word
    // fast path (<= 64), the exact two-word boundary and the general
    // multi-word case.
    for (unsigned events : {4u, 8u, 16u, 24u, 32u, 48u, 64u})
        checkAgainstModel(events, 4, 1200);
}

TEST(WideShiftHistoryFold, PartialTopWordWidths)
{
    // Widths that do not divide into whole 64-bit words exercise the
    // top-word mask in the multi-word path.
    checkAgainstModel(33, 3, 1200); // 99 bits
    checkAgainstModel(25, 5, 1200); // 125 bits
    checkAgainstModel(13, 7, 1200); // 91 bits
}

TEST(WideShiftHistoryFold, NarrowRegisters)
{
    checkAgainstModel(8, 2, 1200);  // 16 bits
    checkAgainstModel(16, 2, 1200); // 32 bits
    checkAgainstModel(1, 1, 200);   // degenerate single-bit register
}

TEST(ControlFlowHistorySignature, MatchesRegisterFolds)
{
    // signature(pc) must be (pc >> 2) XOR the three incremental
    // folds — i.e. the folds really are what composition consumes.
    HistoryConfig config;
    ControlFlowHistory history(config);
    Rng rng(0xF01D);
    for (int i = 0; i < 500; ++i) {
        const Addr pc = rng.next() & 0x7FFFFFFFFFFFull;
        history.onAccess(pc);
        if (rng.chance(0.3))
            history.onCondBranch(pc + 8);
        if (rng.chance(0.1))
            history.onUncondIndirectBranch(pc + 16);
        const std::uint64_t expected = (pc >> 2) ^
                                       history.path().folded() ^
                                       history.cond().folded() ^
                                       history.uncond().folded();
        ASSERT_EQ(history.signature(pc), expected);
    }
}

TEST(ControlFlowHistoryRetireRun, MatchesPerRecordHooks)
{
    // retireRun over runs of random length must leave every register
    // where the per-record hooks (path filter, then the branch split)
    // leave it: one-word registers (the local fast path) and wider
    // ones, every path filter, branch histories on and off.
    std::vector<HistoryConfig> configs;
    for (const PathFilter filter :
         {PathFilter::All, PathFilter::Memory, PathFilter::Branch}) {
        for (const unsigned events : {16u, 40u}) {
            HistoryConfig config;
            config.pathFilter = filter;
            config.pathEvents = events;
            configs.push_back(config);
        }
    }
    configs.push_back(configs.front());
    configs.back().useCondHist = false;
    configs.back().useUncondHist = false;
    configs.push_back(configs.front());
    configs.back().branchEvents = 12; // 96-bit branch registers

    Rng rng(0x7E71);
    std::vector<Addr> pcs(4000);
    std::vector<InstClass> classes(pcs.size());
    for (std::size_t i = 0; i < pcs.size(); ++i) {
        pcs[i] = rng.next() & 0x7FFFFFFFFFFFull;
        classes[i] = static_cast<InstClass>(
            rng.below(static_cast<std::uint64_t>(InstClass::NumClasses)));
    }
    const auto cls_at = [&](std::size_t j) { return classes[j]; };
    for (std::size_t c = 0; c < configs.size(); ++c) {
        SCOPED_TRACE("config " + std::to_string(c));
        const HistoryConfig &config = configs[c];
        ControlFlowHistory run(config);
        ControlFlowHistory hooks(config);
        for (std::size_t lo = 0; lo < pcs.size();) {
            const std::size_t hi =
                std::min(pcs.size(), lo + rng.below(40));
            run.retireRun(pcs.data(), lo, hi, cls_at);
            for (std::size_t j = lo; j < hi; ++j) {
                const InstClass cls = classes[j];
                const bool on_path =
                    config.pathFilter == PathFilter::All ||
                    (config.pathFilter == PathFilter::Memory &&
                     isMemory(cls)) ||
                    (config.pathFilter == PathFilter::Branch &&
                     isBranch(cls));
                if (on_path)
                    hooks.onAccess(pcs[j]);
                if (cls == InstClass::CondBranch)
                    hooks.onCondBranch(pcs[j]);
                else if (cls == InstClass::UncondIndirect)
                    hooks.onUncondIndirectBranch(pcs[j]);
            }
            ASSERT_EQ(run.path().folded(), hooks.path().folded());
            ASSERT_EQ(run.cond().folded(), hooks.cond().folded());
            ASSERT_EQ(run.uncond().folded(), hooks.uncond().folded());
            ASSERT_EQ(run.signature(pcs[lo]), hooks.signature(pcs[lo]));
            lo = hi;
        }
    }
}

} // namespace
} // namespace chirp
