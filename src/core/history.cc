#include "core/history.hh"

#include "util/logging.hh"

namespace chirp
{

WideShiftHistory::WideShiftHistory(unsigned events, unsigned shift_per_event)
    : events_(events), shift_(shift_per_event),
      widthBits_(events * shift_per_event), single_(widthBits_ <= 64),
      widthMask_(maskBits(widthBits_ % 64 == 0 ? 64 : widthBits_ % 64)),
      shiftMask_(maskBits(shift_per_event))
{
    if (events == 0 || shift_per_event == 0 || shift_per_event > 32)
        chirp_fatal("history register needs events >= 1 and a shift of "
                    "1..32 bits, got ", events, " x ", shift_per_event);
    words_.assign((widthBits_ + 63) / 64, 0);
}

void
WideShiftHistory::pushWide(std::uint64_t value)
{
    // Multi-word left shift by shift_ bits, oldest bits fall off the
    // top word.  The fold is re-derived in the same pass over words_,
    // so folded() stays a plain load afterwards.
    std::uint64_t carry = value & shiftMask_;
    std::uint64_t folded = 0;
    for (auto &word : words_) {
        const std::uint64_t next_carry =
            shift_ < 64 ? (word >> (64 - shift_)) : word;
        word = (word << shift_) | carry;
        carry = next_carry;
        folded ^= word;
    }
    // Trim the top word to the register width; the fold must drop the
    // trimmed bits as well.
    const std::uint64_t top = words_.back();
    words_.back() &= widthMask_;
    folded_ = folded ^ top ^ words_.back();
}

void
WideShiftHistory::reset()
{
    for (auto &word : words_)
        word = 0;
    folded_ = 0;
}

ControlFlowHistory::ControlFlowHistory(const HistoryConfig &config)
    : config_(config),
      path_(config.pathEvents, config.pathPcBits + config.pathZeroBits),
      cond_(config.branchEvents, config.branchPcBits),
      uncond_(config.branchEvents, config.branchPcBits),
      pathLow_(config.pathPcLowBit), branchLow_(config.branchPcLowBit),
      pathMask_(maskBits(config.pathPcBits)),
      branchMask_(maskBits(config.branchPcBits))
{
    for (unsigned c = 0; c < unsigned(InstClass::NumClasses); ++c) {
        const auto cls = static_cast<InstClass>(c);
        const bool on_path =
            config.pathFilter == PathFilter::All ||
            (config.pathFilter == PathFilter::Memory && isMemory(cls)) ||
            (config.pathFilter == PathFilter::Branch && isBranch(cls));
        if (on_path)
            pathClasses_ |= 1u << c;
    }
}

void
ControlFlowHistory::reset()
{
    path_.reset();
    cond_.reset();
    uncond_.reset();
}

std::uint64_t
ControlFlowHistory::storageBits() const
{
    std::uint64_t bits = path_.widthBits();
    if (config_.useCondHist)
        bits += cond_.widthBits();
    if (config_.useUncondHist)
        bits += uncond_.widthBits();
    return bits;
}

} // namespace chirp
