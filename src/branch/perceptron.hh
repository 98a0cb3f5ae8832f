/**
 * @file
 * Hashed perceptron conditional-branch direction predictor (Tarjan &
 * Skadron, TACO 2005) — the direction predictor Table II specifies.
 *
 * A set of weight tables is indexed by hashes of the branch PC
 * merged with segments of the global outcome history; the signed sum
 * of the selected weights gives the prediction, and training bumps
 * the weights on mispredictions or low-confidence predictions.
 */

#ifndef CHIRP_BRANCH_PERCEPTRON_HH
#define CHIRP_BRANCH_PERCEPTRON_HH

#include <cstdint>
#include <vector>

#include "util/simd.hh"
#include "util/types.hh"

namespace chirp
{

/** Hashed-perceptron configuration. */
struct PerceptronConfig
{
    unsigned numTables = 8;       //!< history-segment tables
    unsigned tableEntries = 1024; //!< weights per table (power of two)
    unsigned historySegBits = 8;  //!< global-history bits per table
    int weightMax = 127;          //!< weight saturation (int8)
};

/** The predictor. */
class HashedPerceptron
{
  public:
    explicit HashedPerceptron(const PerceptronConfig &config = {});

    /** Predict the direction of the branch at @p pc. */
    bool predict(Addr pc) const;

    /**
     * Predict, train with the resolved outcome and update the global
     * history, forming the table indices once.  Call exactly once per
     * conditional branch.
     * @return the direction predict(pc) gave before training.
     */
    bool update(Addr pc, bool taken);

    /** Clear weights and history. */
    void reset();

    /** Current global outcome history (tests). */
    std::uint64_t history() const { return history_; }

    /** Weight tables, numTables x tableEntries (tests). */
    const std::vector<std::int8_t> &weights() const { return weights_; }

    /** Per-PC bias weights (tests). */
    const std::vector<std::int8_t> &bias() const { return bias_; }

  private:
    std::size_t biasIndex(Addr pc) const;

    /** Slot in weights_ of table @p table's weight for @p pc. */
    std::size_t weightIndex(Addr pc, unsigned table) const;

    PerceptronConfig config_;
    int theta_;
    simd::FoldPlan fold_; //!< folds hashes to a table index
    std::vector<std::int8_t> weights_; //!< numTables x tableEntries
    std::vector<std::int8_t> bias_;    //!< per-PC bias table
    std::vector<std::size_t> slots_;   //!< update()'s weight slots
    std::uint64_t history_ = 0;
};

} // namespace chirp

#endif // CHIRP_BRANCH_PERCEPTRON_HH
