/**
 * @file
 * Three-level cache hierarchy + DRAM latency model (Table II).
 *
 * The hierarchy returns the *stall cycles beyond a first-level hit*
 * for each access; the in-order pipeline adds them to its cycle
 * count.  Inclusive allocation: a miss fills every level on the way
 * back.
 */

#ifndef CHIRP_MEM_CACHE_HIERARCHY_HH
#define CHIRP_MEM_CACHE_HIERARCHY_HH

#include "mem/cache.hh"

namespace chirp
{

/** Configuration of the full hierarchy; defaults are Table II. */
struct CacheHierarchyConfig
{
    CacheConfig l1i{"l1i", 64 * 1024, 8, 64, 4};
    CacheConfig l1d{"l1d", 64 * 1024, 8, 64, 4};
    CacheConfig l2{"l2", 256 * 1024, 16, 64, 12};
    CacheConfig l3{"l3", 8 * 1024 * 1024, 16, 64, 42};
    Cycles dramLatency = 240;
    /**
     * Next-line prefetch on L1 misses (degree lines ahead, same
     * 4KB page only so the prefetcher never needs a translation).
     * Models the hardware prefetchers every Table II-class machine
     * has; without it streaming workloads pay DRAM latency per line
     * and cache stalls swamp the TLB effects under study.
     */
    bool nextLinePrefetch = true;
    unsigned prefetchDegree = 8;
};

/** L1i/L1d + unified L2/L3 + DRAM. */
class CacheHierarchy
{
  public:
    explicit CacheHierarchy(const CacheHierarchyConfig &config = {});

    /** Instruction fetch of @p pc; returns stall cycles beyond L1. */
    Cycles
    accessInstr(Addr pc)
    {
        // An L1 hit's latency is hidden by the pipeline.
        return l1i_.access(pc, false) ? 0 : missFromL1(l1i_, pc, false);
    }

    /** Data access; returns stall cycles beyond L1. */
    Cycles
    accessData(Addr addr, bool write)
    {
        return l1d_.access(addr, write) ? 0
                                        : missFromL1(l1d_, addr, write);
    }

    /** Drop all state. */
    void reset();

    const Cache &l1i() const { return l1i_; }
    const Cache &l1d() const { return l1d_; }
    const Cache &l2() const { return l2_; }
    const Cache &l3() const { return l3_; }

    /** Lines brought in by the prefetcher. */
    std::uint64_t prefetches() const { return prefetches_; }

  private:
    /**
     * After @p l1 missed on @p addr: walk L2/L3/DRAM, then prefetch.
     * @return stall cycles.
     */
    Cycles missFromL1(Cache &l1, Addr addr, bool write);

    /** Same-page next-line prefetch into @p l1 after a miss. */
    void prefetchAfterMiss(Cache &l1, Addr addr);

    CacheHierarchyConfig config_;
    Cache l1i_;
    Cache l1d_;
    Cache l2_;
    Cache l3_;
    std::uint64_t prefetches_ = 0;
};

} // namespace chirp

#endif // CHIRP_MEM_CACHE_HIERARCHY_HH
