/**
 * @file
 * Data-access patterns for the synthetic workload engine.
 *
 * Each pattern owns a region of the data address space and yields
 * effective addresses.  The pattern mix is chosen so the TLB-reuse
 * phenomena the paper identifies all occur in the generated traces:
 *
 *  - StreamPattern: one-pass page sweeps whose entries are dead after
 *    the last within-page access (defeats LRU, rewards dead-entry
 *    prediction);
 *  - ZipfPattern: skewed hot sets with long-lived entries;
 *  - UniformPattern: low-locality scatter over a large footprint;
 *  - ChasePattern: pointer-chasing walk along a fixed random
 *    permutation of pages;
 *  - TiledPattern: scientific-style tile reuse, where a small window
 *    of a large array is hot until the tile advances (phase-shaped
 *    lifetimes).
 *
 * `transient()` hints whether entries touched by the pattern tend to
 * die quickly; generators use it to place load sites at
 * even/odd instruction slots, which is how PC bits 2..3 come to carry
 * reuse information in the synthetic code layout (Fig 3).
 */

#ifndef CHIRP_TRACE_SYNTHETIC_PATTERNS_HH
#define CHIRP_TRACE_SYNTHETIC_PATTERNS_HH

#include <memory>
#include <vector>

#include "util/random.hh"
#include "util/types.hh"

namespace chirp
{

/** Abstract generator of effective addresses. */
class DataPattern
{
  public:
    virtual ~DataPattern() = default;

    /** Next effective address. */
    virtual Addr nextAddr(Rng &rng) = 0;

    /** Rewind internal position state (not the layout). */
    virtual void reset() {}

    /** Pages owned by the pattern. */
    virtual std::uint64_t footprintPages() const = 0;

    /** True when the pattern's entries tend to die quickly. */
    virtual bool transient() const = 0;
};

/**
 * Sequential one-pass sweep: `accesses_per_page` touches at a fixed
 * byte stride within each page, then the next page; wraps around at
 * the end of the region and starts a new sweep.
 */
class StreamPattern : public DataPattern
{
  public:
    /**
     * @param revisit_fraction after finishing a page, probability of
     *        one extra touch to a page `revisit_lag` pages back.
     *        Real streaming code (merges, lagged readers) re-touches
     *        recently streamed pages, which gives stream entries L2
     *        hits — the Observation-2 behaviour that defeats naive
     *        never-hit heuristics.
     */
    StreamPattern(Addr base, std::uint64_t npages,
                  unsigned accesses_per_page, Addr stride = 64,
                  double revisit_fraction = 0.0,
                  std::uint64_t revisit_lag = 80);

    Addr nextAddr(Rng &rng) override;
    void reset() override;
    std::uint64_t footprintPages() const override { return npages_; }
    bool transient() const override { return true; }

  private:
    Addr base_;
    std::uint64_t npages_;
    unsigned accessesPerPage_;
    Addr stride_;
    double revisitFraction_;
    std::uint64_t revisitLag_;
    std::uint64_t page_ = 0;
    unsigned touch_ = 0;
    bool revisitPending_ = false;
};

/**
 * Zipf-skewed accesses over a shuffled page set: a few pages absorb
 * most touches (hot working set), the tail provides occasional cold
 * fills.
 */
class ZipfPattern : public DataPattern
{
  public:
    /**
     * @param exponent Zipf skew (1.0 is classic; larger = hotter head)
     * @param layout_seed fixes the rank->page shuffle
     * @param line_slots distinct 64B lines touched per page; small
     *        values give the within-page cache locality real hot
     *        structures have
     */
    ZipfPattern(Addr base, std::uint64_t npages, double exponent,
                std::uint64_t layout_seed, unsigned line_slots = 8);

    Addr nextAddr(Rng &rng) override;
    std::uint64_t footprintPages() const override;
    bool transient() const override { return false; }

  private:
    Addr base_;
    Rng::Zipf zipf_;
    std::vector<std::uint32_t> rankToPage_;
    unsigned lineSlots_;
    std::uint64_t lineLimit_; //!< Rng::belowLimit(lineSlots_)
};

/** Uniform random page + offset over the region. */
class UniformPattern : public DataPattern
{
  public:
    UniformPattern(Addr base, std::uint64_t npages,
                   unsigned line_slots = 4);

    Addr nextAddr(Rng &rng) override;
    std::uint64_t footprintPages() const override { return npages_; }
    bool transient() const override { return true; }

  private:
    Addr base_;
    std::uint64_t npages_;
    unsigned lineSlots_;
    std::uint64_t pageLimit_; //!< Rng::belowLimit(npages_)
    std::uint64_t lineLimit_; //!< Rng::belowLimit(lineSlots_)
};

/**
 * Pointer-chasing walk: pages are linked in a fixed random
 * permutation cycle; each step follows the link, with a small number
 * of dereferences per page before moving on.
 */
class ChasePattern : public DataPattern
{
  public:
    ChasePattern(Addr base, std::uint64_t npages, unsigned derefs_per_page,
                 std::uint64_t layout_seed);

    Addr nextAddr(Rng &rng) override;
    void reset() override;
    std::uint64_t footprintPages() const override;
    bool transient() const override { return true; }

  private:
    Addr base_;
    std::vector<std::uint32_t> nextPage_;
    unsigned derefsPerPage_;
    std::uint64_t page_ = 0;
    unsigned touch_ = 0;
};

/**
 * Tiled sweep: accesses fall uniformly inside a window of
 * `tile_pages` pages; after `touches_per_tile` accesses the window
 * slides forward, wrapping at the region end.  Entries are hot while
 * their tile is active and dead afterwards.
 */
class TiledPattern : public DataPattern
{
  public:
    TiledPattern(Addr base, std::uint64_t npages, std::uint64_t tile_pages,
                 std::uint64_t touches_per_tile);

    Addr nextAddr(Rng &rng) override;
    void reset() override;
    std::uint64_t footprintPages() const override { return npages_; }
    bool transient() const override { return true; }

  private:
    Addr base_;
    std::uint64_t npages_;
    std::uint64_t tilePages_;
    std::uint64_t tileLimit_; //!< Rng::belowLimit(tilePages_)
    std::uint64_t touchesPerTile_;
    std::uint64_t tileStart_ = 0;
    std::uint64_t touch_ = 0;
};

} // namespace chirp

#endif // CHIRP_TRACE_SYNTHETIC_PATTERNS_HH
