#include "trace/synthetic/patterns.hh"

#include <numeric>

#include "util/logging.hh"

namespace chirp
{

StreamPattern::StreamPattern(Addr base, std::uint64_t npages,
                             unsigned accesses_per_page, Addr stride,
                             double revisit_fraction,
                             std::uint64_t revisit_lag)
    : base_(base), npages_(npages), accessesPerPage_(accesses_per_page),
      stride_(stride), revisitFraction_(revisit_fraction),
      revisitLag_(revisit_lag)
{
    if (npages == 0 || accesses_per_page == 0)
        chirp_fatal("StreamPattern needs nonzero pages and accesses");
}

Addr
StreamPattern::nextAddr(Rng &rng)
{
    if (revisitPending_) {
        // Lagged re-touch of an already-streamed page: far enough
        // back to have left the L1 TLB, recent enough to still be
        // L2-resident under a sane policy.
        revisitPending_ = false;
        const std::uint64_t back =
            (page_ + npages_ - (revisitLag_ % npages_)) % npages_;
        return base_ + back * kPageSize;
    }
    const Addr offset = (static_cast<Addr>(touch_) * stride_) &
                        kPageOffsetMask;
    const Addr addr = base_ + page_ * kPageSize + offset;
    if (++touch_ >= accessesPerPage_) {
        touch_ = 0;
        if (++page_ >= npages_)
            page_ = 0;
        if (page_ >= revisitLag_ && rng.chance(revisitFraction_))
            revisitPending_ = true;
    }
    return addr;
}

void
StreamPattern::reset()
{
    page_ = 0;
    touch_ = 0;
    revisitPending_ = false;
}

ZipfPattern::ZipfPattern(Addr base, std::uint64_t npages, double exponent,
                         std::uint64_t layout_seed, unsigned line_slots)
    : base_(base), zipf_(npages, exponent),
      lineSlots_(line_slots ? line_slots : 1),
      lineLimit_(Rng::belowLimit(lineSlots_))
{
    if (npages == 0)
        chirp_fatal("ZipfPattern needs nonzero pages");
    rankToPage_.resize(npages);
    std::iota(rankToPage_.begin(), rankToPage_.end(), 0u);
    Rng layout_rng(layout_seed);
    layout_rng.shuffle(rankToPage_);
}

Addr
ZipfPattern::nextAddr(Rng &rng)
{
    const std::size_t rank = zipf_(rng);
    const Addr page = rankToPage_[rank];
    // A few fixed 64B lines per page: hot structures are dense.
    const Addr offset = rng.below(lineSlots_, lineLimit_) * 64;
    return base_ + page * kPageSize + offset;
}

std::uint64_t
ZipfPattern::footprintPages() const
{
    return rankToPage_.size();
}

UniformPattern::UniformPattern(Addr base, std::uint64_t npages,
                               unsigned line_slots)
    : base_(base), npages_(npages), lineSlots_(line_slots ? line_slots : 1)
{
    if (npages == 0)
        chirp_fatal("UniformPattern needs nonzero pages");
    pageLimit_ = Rng::belowLimit(npages_);
    lineLimit_ = Rng::belowLimit(lineSlots_);
}

Addr
UniformPattern::nextAddr(Rng &rng)
{
    const Addr page = rng.below(npages_, pageLimit_);
    const Addr offset = rng.below(lineSlots_, lineLimit_) * 64;
    return base_ + page * kPageSize + offset;
}

ChasePattern::ChasePattern(Addr base, std::uint64_t npages,
                           unsigned derefs_per_page,
                           std::uint64_t layout_seed)
    : base_(base), derefsPerPage_(derefs_per_page ? derefs_per_page : 1)
{
    if (npages == 0)
        chirp_fatal("ChasePattern needs nonzero pages");
    // Build a single-cycle permutation (Sattolo's algorithm) so the
    // walk visits every page before repeating.
    std::vector<std::uint32_t> order(npages);
    std::iota(order.begin(), order.end(), 0u);
    Rng layout_rng(layout_seed);
    for (std::size_t i = npages - 1; i > 0; --i) {
        const std::size_t j = layout_rng.below(i);
        std::swap(order[i], order[j]);
    }
    nextPage_.resize(npages);
    for (std::size_t i = 0; i < npages; ++i)
        nextPage_[order[i]] = order[(i + 1) % npages];
}

Addr
ChasePattern::nextAddr(Rng &rng)
{
    const Addr offset = rng.below(kPageSize / 64) * 64;
    const Addr addr = base_ + static_cast<Addr>(page_) * kPageSize + offset;
    if (++touch_ >= derefsPerPage_) {
        touch_ = 0;
        page_ = nextPage_[page_];
    }
    return addr;
}

void
ChasePattern::reset()
{
    // Restart the walk where a fresh pattern starts it.
    page_ = 0;
    touch_ = 0;
}

std::uint64_t
ChasePattern::footprintPages() const
{
    return nextPage_.size();
}

TiledPattern::TiledPattern(Addr base, std::uint64_t npages,
                           std::uint64_t tile_pages,
                           std::uint64_t touches_per_tile)
    : base_(base), npages_(npages),
      tilePages_(tile_pages ? tile_pages : 1),
      touchesPerTile_(touches_per_tile ? touches_per_tile : 1)
{
    if (npages == 0)
        chirp_fatal("TiledPattern needs nonzero pages");
    if (tilePages_ > npages_)
        tilePages_ = npages_;
    tileLimit_ = Rng::belowLimit(tilePages_);
}

Addr
TiledPattern::nextAddr(Rng &rng)
{
    // tileStart_ < npages_ and the draw is below tilePages_ <= npages_,
    // so one conditional subtract is the modulo.
    Addr page = tileStart_ + rng.below(tilePages_, tileLimit_);
    if (page >= npages_)
        page -= npages_;
    const Addr offset = rng.below(kPageSize / 64) * 64;
    const Addr addr = base_ + page * kPageSize + offset;
    if (++touch_ >= touchesPerTile_) {
        touch_ = 0;
        tileStart_ = (tileStart_ + tilePages_) % npages_;
    }
    return addr;
}

void
TiledPattern::reset()
{
    tileStart_ = 0;
    touch_ = 0;
}

} // namespace chirp
