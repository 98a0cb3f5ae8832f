#include "branch/perceptron.hh"

#include <algorithm>
#include <cmath>

#include "util/bitfield.hh"
#include "util/logging.hh"

namespace chirp
{

HashedPerceptron::HashedPerceptron(const PerceptronConfig &config)
    : config_(config)
{
    if (config.tableEntries < 2 || !isPowerOfTwo(config.tableEntries))
        chirp_fatal("perceptron table entries must be a power of two "
                    "of at least 2");
    // Table t reads history bits [t*seg, (t+1)*seg); all of them must
    // lie inside the 64-bit history register.
    if (static_cast<std::uint64_t>(config.numTables) *
            config.historySegBits > 64)
        chirp_fatal("perceptron needs numTables x historySegBits <= 64, "
                    "got ", config.numTables, " x ",
                    config.historySegBits);
    const double hist_len =
        static_cast<double>(config.numTables) * config.historySegBits;
    // The classic perceptron threshold heuristic.
    theta_ = static_cast<int>(std::floor(1.93 * hist_len + 14.0));
    fold_ = simd::FoldPlan(floorLog2(config.tableEntries));
    weights_.assign(
        static_cast<std::size_t>(config.numTables) * config.tableEntries,
        0);
    bias_.assign(config.tableEntries, 0);
    slots_.assign(config.numTables, 0);
}

std::size_t
HashedPerceptron::biasIndex(Addr pc) const
{
    return static_cast<std::size_t>(fold_.apply(pc >> 2));
}

std::size_t
HashedPerceptron::weightIndex(Addr pc, unsigned table) const
{
    const unsigned seg_bits = config_.historySegBits;
    const std::uint64_t segment =
        (history_ >> (table * seg_bits)) & maskBits(seg_bits);
    const std::uint64_t mixed = (pc >> 2) ^ (segment * 0x9e3779b1ull) ^
                                (static_cast<std::uint64_t>(table) << 29);
    return static_cast<std::size_t>(table) * config_.tableEntries +
           static_cast<std::size_t>(fold_.apply(mixed));
}

bool
HashedPerceptron::predict(Addr pc) const
{
    int sum = bias_[biasIndex(pc)];
    for (unsigned t = 0; t < config_.numTables; ++t)
        sum += weights_[weightIndex(pc, t)];
    return sum >= 0;
}

bool
HashedPerceptron::update(Addr pc, bool taken)
{
    const std::size_t bias_slot = biasIndex(pc);
    int sum = bias_[bias_slot];
    for (unsigned t = 0; t < config_.numTables; ++t) {
        slots_[t] = weightIndex(pc, t);
        sum += weights_[slots_[t]];
    }
    const bool predicted = sum >= 0;
    if (predicted != taken || std::abs(sum) <= theta_) {
        auto bump = [&](std::int8_t &w) {
            const int next = w + (taken ? 1 : -1);
            w = static_cast<std::int8_t>(
                std::clamp(next, -config_.weightMax, config_.weightMax));
        };
        bump(bias_[bias_slot]);
        for (const std::size_t slot : slots_)
            bump(weights_[slot]);
    }
    history_ = (history_ << 1) | (taken ? 1 : 0);
    return predicted;
}

void
HashedPerceptron::reset()
{
    std::fill(weights_.begin(), weights_.end(), 0);
    std::fill(bias_.begin(), bias_.end(), 0);
    history_ = 0;
}

} // namespace chirp
