/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic component in the library (workload generators, the
 * Random replacement policy, dataset shuffling) draws from Xorshift64Star
 * seeded explicitly, so a (seed, configuration) pair fully determines a
 * simulation.  std::mt19937 is avoided to keep results stable across
 * standard-library versions.
 *
 * The draws are defined inline: the synthetic generator makes several
 * per emitted record, and an out-of-line call each was a large share
 * of its cost.  Their output sequences are pinned by golden tests
 * (tests/random_test.cc), because trace-cache files are keyed by
 * workload configuration only and so assume the stream never changes.
 */

#ifndef CHIRP_UTIL_RANDOM_HH
#define CHIRP_UTIL_RANDOM_HH

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace chirp
{

/**
 * Xorshift64* generator: tiny state, good statistical quality for
 * simulation purposes, and identical output on every platform.
 */
class Rng
{
  public:
    /** Seed the generator; a zero seed is remapped to a fixed value. */
    explicit Rng(std::uint64_t seed = 0x2545f4914f6cdd1dull)
        : state_(seed ? seed : 0x9e3779b97f4a7c15ull)
    {
    }

    /** Next raw 64-bit draw. */
    std::uint64_t
    next()
    {
        std::uint64_t x = state_;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        state_ = x;
        return x * 0x2545f4914f6cdd1dull;
    }

    /**
     * Rejection limit of below(@p bound): draws at or above it are
     * redrawn so the remainder is unbiased.  It is 2^64 minus
     * (2^64 mod @p bound), which for a power of two is 2^64 - bound
     * and needs no division.  Callers with a fixed bound compute it
     * once and use the two-argument below().  @p bound must be
     * nonzero.
     */
    static std::uint64_t
    belowLimit(std::uint64_t bound)
    {
        if (bound == 0) [[unlikely]]
            belowZero();
        if (isPow2(bound))
            return 0 - bound;
        return ~std::uint64_t{0} - (~std::uint64_t{0} % bound);
    }

    /** Uniform integer in [0, bound); aborts when @p bound is zero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        return below(bound, belowLimit(bound));
    }

    /**
     * below(@p bound) with its rejection limit precomputed by
     * belowLimit(@p bound).  The loop terminates with probability
     * > 1/2 per iteration.
     */
    std::uint64_t
    below(std::uint64_t bound, std::uint64_t limit)
    {
        std::uint64_t draw;
        do {
            draw = next();
        } while (draw >= limit);
        return isPow2(bound) ? draw & (bound - 1) : draw % bound;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        assert(lo <= hi);
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        // 53 random mantissa bits -> uniform in [0, 1).
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability @p p of true. */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /**
     * Zipf-distributed rank in [0, n) with exponent @p s, computed by
     * inversion against a precomputed CDF.  Used for hot/cold page
     * popularity in the synthetic workloads.
     *
     * The inversion is std::lower_bound(cdf, u) for u = uniform(),
     * found through a guide table: bucket b of kGuideBuckets holds
     * lower_bound(cdf, b / kGuideBuckets), and a forward scan from
     * the bucket of u finishes the search.  kGuideBuckets is a power
     * of two, so u * kGuideBuckets is exact and the result equals the
     * binary search's.
     */
    class Zipf
    {
      public:
        static constexpr std::size_t kGuideBuckets = 1024;

        Zipf(std::size_t n, double s);

        /** Draw a rank (0 = most popular). */
        std::size_t
        operator()(Rng &rng) const
        {
            return rankOf(rng.uniform());
        }

        /** The rank a draw of @p u in [0, 1) maps to. */
        std::size_t
        rankOf(double u) const
        {
            // The last CDF entry is exactly 1.0 > u, so the scan stops
            // inside the table.
            std::size_t rank = guide_[static_cast<std::size_t>(
                u * static_cast<double>(kGuideBuckets))];
            while (cdf_[rank] < u)
                ++rank;
            return rank;
        }

        /** The normalized CDF the ranks invert; one entry per rank. */
        const std::vector<double> &cdf() const { return cdf_; }

      private:
        std::vector<double> cdf_;
        std::vector<std::uint32_t> guide_;
    };

    /** Fisher-Yates shuffle of @p values. */
    template <typename T>
    void
    shuffle(std::vector<T> &values)
    {
        for (std::size_t i = values.size(); i > 1; --i) {
            const std::size_t j = below(i);
            std::swap(values[i - 1], values[j]);
        }
    }

    /** Current internal state (for checkpoint-style tests). */
    std::uint64_t state() const { return state_; }

  private:
    static constexpr bool
    isPow2(std::uint64_t x)
    {
        return (x & (x - 1)) == 0;
    }

    /** below(0) has no valid result: abort loudly. */
    [[noreturn]] static void belowZero();

    std::uint64_t state_;
};

} // namespace chirp

#endif // CHIRP_UTIL_RANDOM_HH
