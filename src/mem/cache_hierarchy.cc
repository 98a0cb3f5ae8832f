#include "mem/cache_hierarchy.hh"

namespace chirp
{

CacheHierarchy::CacheHierarchy(const CacheHierarchyConfig &config)
    : config_(config), l1i_(config.l1i), l1d_(config.l1d), l2_(config.l2),
      l3_(config.l3)
{
}

Cycles
CacheHierarchy::missFromL1(Cache &l1, Addr addr, bool write)
{
    Cycles stall = l2_.latency();
    if (!l2_.access(addr, write)) {
        stall += l3_.latency();
        if (!l3_.access(addr, write))
            stall += config_.dramLatency;
    }
    prefetchAfterMiss(l1, addr);
    return stall;
}

void
CacheHierarchy::prefetchAfterMiss(Cache &l1, Addr addr)
{
    if (!config_.nextLinePrefetch)
        return;
    const Addr line_bytes = l1.config().lineBytes;
    for (unsigned d = 1; d <= config_.prefetchDegree; ++d) {
        const Addr next = addr + d * line_bytes;
        // Stay inside the page: a cross-page prefetch would need its
        // own translation, which hardware prefetchers avoid.
        if (pageBase(next) != pageBase(addr))
            break;
        // Prefetch latency is overlapped with the demand miss.  A line
        // the L1 already holds is skipped without touching its recency
        // or the levels below.
        if (l1.fillIfAbsent(next))
            continue;
        l2_.fillIfAbsent(next);
        l3_.fillIfAbsent(next);
        ++prefetches_;
    }
}

void
CacheHierarchy::reset()
{
    l1i_.reset();
    l1d_.reset();
    l2_.reset();
    l3_.reset();
    prefetches_ = 0;
}

} // namespace chirp
