/** @file Tests for the cache model and hierarchy. */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "mem/cache_hierarchy.hh"
#include "util/random.hh"

namespace chirp
{
namespace
{

CacheConfig
tinyCache()
{
    // 4 sets x 2 ways x 64B lines = 512B.
    CacheConfig config;
    config.name = "tiny";
    config.sizeBytes = 512;
    config.assoc = 2;
    config.lineBytes = 64;
    config.latency = 3;
    return config;
}

TEST(Cache, MissThenHit)
{
    Cache cache(tinyCache());
    EXPECT_FALSE(cache.access(0x1000, false));
    EXPECT_TRUE(cache.access(0x1000, false));
    EXPECT_TRUE(cache.access(0x103f, false)) << "same 64B line";
    EXPECT_FALSE(cache.access(0x1040, false)) << "next line";
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(Cache, LruEviction)
{
    Cache cache(tinyCache());
    // Three lines mapping to the same set (4 sets, line 64B:
    // set = (addr/64) % 4). Addresses 0, 256, 512 all hit set 0.
    cache.access(0, false);
    cache.access(256, false);
    cache.access(0, false);   // 0 becomes MRU
    cache.access(512, false); // evicts 256 (LRU)
    EXPECT_TRUE(cache.probe(0));
    EXPECT_FALSE(cache.probe(256));
    EXPECT_TRUE(cache.probe(512));
}

TEST(Cache, ResetClears)
{
    Cache cache(tinyCache());
    cache.access(0x1000, true);
    cache.reset();
    EXPECT_FALSE(cache.probe(0x1000));
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
}

TEST(Cache, RejectsIndivisibleGeometry)
{
    CacheConfig config = tinyCache();
    config.sizeBytes = 500;
    EXPECT_EXIT({ Cache c(config); }, ::testing::ExitedWithCode(1),
                "not divisible");
}

TEST(Cache, RejectsAssocBeyondTheRecencyList)
{
    CacheConfig config = tinyCache();
    config.assoc = 32;
    config.sizeBytes = 4 * 32 * 64;
    EXPECT_EXIT({ Cache c(config); }, ::testing::ExitedWithCode(1),
                "associativity 32 outside 1..16");
}

TEST(Cache, FillIfAbsentLeavesPresentLinesAlone)
{
    Cache cache(tinyCache());
    cache.access(0, false);
    cache.access(256, false); // set 0 now holds 256 (MRU) and 0 (LRU)
    EXPECT_TRUE(cache.fillIfAbsent(0));
    EXPECT_EQ(cache.hits(), 0u) << "a present line counts no hit";
    cache.access(512, false);
    EXPECT_FALSE(cache.probe(0)) << "0 stayed LRU and was evicted";
    EXPECT_FALSE(cache.fillIfAbsent(0)) << "absent: filled as a miss";
    EXPECT_EQ(cache.misses(), 4u);
    EXPECT_TRUE(cache.probe(0));
    EXPECT_FALSE(cache.probe(256));
}

TEST(CacheHierarchy, LatencyAccumulatesDownTheHierarchy)
{
    CacheHierarchyConfig config; // Table II
    CacheHierarchy hierarchy(config);
    // Cold access: misses L1, L2, L3 -> 12 + 42 + 240.
    EXPECT_EQ(hierarchy.accessData(0x5000, false),
              config.l2.latency + config.l3.latency +
                  config.dramLatency);
    // Second access: L1 hit -> no stall.
    EXPECT_EQ(hierarchy.accessData(0x5000, false), 0u);
}

TEST(CacheHierarchy, InstrAndDataAreSeparateL1s)
{
    CacheHierarchy hierarchy;
    hierarchy.accessInstr(0x9000);
    // The same address on the data side still misses L1d but hits
    // the unified L2 (filled by the instruction access).
    const Cycles stall = hierarchy.accessData(0x9000, false);
    EXPECT_EQ(stall, CacheHierarchyConfig{}.l2.latency);
}

TEST(CacheHierarchy, L2HitAfterL1Eviction)
{
    CacheHierarchyConfig config;
    CacheHierarchy hierarchy(config);
    hierarchy.accessData(0x100000, false);
    // Sweep enough lines through L1d (64KB, 8-way, 64B lines = 128
    // sets) to evict the first one, but not enough to spill L2.
    for (Addr a = 0; a < 80 * 1024; a += 64)
        hierarchy.accessData(0x200000 + a, false);
    const Cycles stall = hierarchy.accessData(0x100000, false);
    EXPECT_EQ(stall, config.l2.latency);
}

TEST(CacheHierarchy, PrefetchStridesByTheL1LineSize)
{
    // A 32-byte-line L1d under 64-byte L2/L3 lines: the prefetcher
    // must fill the L1's own next lines, not every other one.
    CacheHierarchyConfig config;
    config.l1d.lineBytes = 32;
    CacheHierarchy hierarchy(config);
    const Addr base = 0x40000;
    hierarchy.accessData(base, false);
    EXPECT_EQ(hierarchy.prefetches(), config.prefetchDegree);
    for (unsigned d = 1; d <= config.prefetchDegree; ++d)
        EXPECT_TRUE(hierarchy.l1d().probe(base + d * 32)) << "line " << d;
    EXPECT_FALSE(
        hierarchy.l1d().probe(base + (config.prefetchDegree + 1) * 32));
    EXPECT_EQ(hierarchy.accessData(base + 32, false), 0u);
}

// --- Differential test against a naive reference -------------------
//
// The reference is the textbook algorithm: a valid bit and a recency
// tick per way, the first invalid way or else the oldest tick as the
// victim, and a prefetcher that probes each level before accessing
// it.  It shares no code with the production model.

class NaiveCache
{
  public:
    explicit NaiveCache(const CacheConfig &config)
        : lineBytes_(config.lineBytes), assoc_(config.assoc),
          sets_(config.sizeBytes / config.lineBytes / config.assoc),
          ways_(sets_ * assoc_)
    {
    }

    bool
    access(Addr addr)
    {
        ++tick_;
        Way *set = setOf(addr);
        const Addr tag = tagOf(addr);
        for (std::uint64_t w = 0; w < assoc_; ++w) {
            if (set[w].valid && set[w].tag == tag) {
                set[w].lastUse = tick_;
                ++hits_;
                return true;
            }
        }
        ++misses_;
        Way *victim = nullptr;
        for (std::uint64_t w = 0; w < assoc_ && !victim; ++w) {
            if (!set[w].valid)
                victim = &set[w];
        }
        if (!victim) {
            victim = &set[0];
            for (std::uint64_t w = 1; w < assoc_; ++w) {
                if (set[w].lastUse < victim->lastUse)
                    victim = &set[w];
            }
        }
        *victim = Way{true, tag, tick_};
        return false;
    }

    bool
    probe(Addr addr) const
    {
        const Way *set = &ways_[(addr / lineBytes_) % sets_ * assoc_];
        for (std::uint64_t w = 0; w < assoc_; ++w) {
            if (set[w].valid && set[w].tag == tagOf(addr))
                return true;
        }
        return false;
    }

    void
    reset()
    {
        ways_.assign(ways_.size(), Way{});
        tick_ = hits_ = misses_ = 0;
    }

    std::uint64_t lineBytes() const { return lineBytes_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    struct Way
    {
        bool valid = false;
        Addr tag = 0;
        std::uint64_t lastUse = 0;
    };

    Way *setOf(Addr addr)
    {
        return &ways_[(addr / lineBytes_) % sets_ * assoc_];
    }

    Addr tagOf(Addr addr) const { return addr / lineBytes_ / sets_; }

    std::uint64_t lineBytes_;
    std::uint64_t assoc_;
    std::uint64_t sets_;
    std::vector<Way> ways_;
    std::uint64_t tick_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

class NaiveHierarchy
{
  public:
    explicit NaiveHierarchy(const CacheHierarchyConfig &config)
        : config(config), l1i(config.l1i), l1d(config.l1d), l2(config.l2),
          l3(config.l3)
    {
    }

    Cycles
    access(NaiveCache &l1, Addr addr)
    {
        if (l1.access(addr))
            return 0;
        Cycles stall = config.l2.latency;
        if (!l2.access(addr)) {
            stall += config.l3.latency;
            if (!l3.access(addr))
                stall += config.dramLatency;
        }
        for (unsigned d = 1;
             config.nextLinePrefetch && d <= config.prefetchDegree; ++d) {
            const Addr next = addr + d * l1.lineBytes();
            if (next / kPageSize != addr / kPageSize)
                break;
            if (l1.probe(next))
                continue;
            l1.access(next);
            if (!l2.probe(next))
                l2.access(next);
            if (!l3.probe(next))
                l3.access(next);
            ++prefetches;
        }
        return stall;
    }

    void
    reset()
    {
        l1i.reset();
        l1d.reset();
        l2.reset();
        l3.reset();
        prefetches = 0;
    }

    CacheHierarchyConfig config;
    NaiveCache l1i, l1d, l2, l3;
    std::uint64_t prefetches = 0;
};

enum class Stream
{
    Random,    //!< uniform over a footprint a few times the cache
    Strided,   //!< runs of a random stride from random bases
    PageLocal, //!< random offsets inside a handful of pages
};

/** A seeded address stream of one @p kind over @p footprint bytes. */
class StreamGen
{
  public:
    StreamGen(Stream kind, Addr footprint, std::uint64_t seed)
        : kind_(kind), footprint_(footprint), rng_(seed)
    {
    }

    Addr
    next()
    {
        switch (kind_) {
          case Stream::Random:
            return rng_.below(footprint_);
          case Stream::Strided:
            if (left_ == 0) {
                base_ = rng_.below(footprint_);
                stride_ = 8 * rng_.range(1, 40);
                left_ = rng_.range(4, 64);
            }
            --left_;
            base_ += stride_;
            return base_;
          case Stream::PageLocal:
            return kPageSize * rng_.below(6) + rng_.below(kPageSize) +
                   0x7f0000000000ull;
        }
        return 0;
    }

  private:
    Stream kind_;
    Addr footprint_;
    Rng rng_;
    Addr base_ = 0;
    Addr stride_ = 0;
    std::uint64_t left_ = 0;
};

CacheConfig
geometry(const char *name, std::uint64_t sets, std::uint32_t assoc,
         std::uint32_t line_bytes, Cycles latency)
{
    return CacheConfig{name, sets * assoc * line_bytes, assoc, line_bytes,
                       latency};
}

constexpr std::uint32_t kAssocs[] = {1, 2, 4, 8, 16};
constexpr std::uint64_t kSetCounts[] = {1, 4, 32};
constexpr Stream kStreams[] = {Stream::Random, Stream::Strided,
                               Stream::PageLocal};

TEST(CacheDifferential, MatchesNaiveTickLru)
{
    std::uint64_t seed = 1;
    for (const std::uint32_t assoc : kAssocs) {
        for (const std::uint64_t sets : kSetCounts) {
            for (const Stream kind : kStreams) {
                const CacheConfig config = geometry("c", sets, assoc, 64, 1);
                Cache cache(config);
                NaiveCache ref(config);
                StreamGen gen(kind, 4 * config.sizeBytes, ++seed);
                Rng ops(seed);
                std::set<Addr> touched;
                SCOPED_TRACE(testing::Message()
                             << "assoc " << assoc << " sets " << sets
                             << " stream " << static_cast<int>(kind));
                for (int i = 0; i < 6000; ++i) {
                    if (i == 4000) {
                        cache.reset();
                        ref.reset();
                    }
                    const Addr addr = gen.next();
                    touched.insert(addr);
                    if (ops.chance(0.25)) {
                        // fillIfAbsent is probe-then-access.
                        const bool present = ref.probe(addr);
                        if (!present)
                            ref.access(addr);
                        ASSERT_EQ(cache.fillIfAbsent(addr), present) << i;
                    } else {
                        ASSERT_EQ(cache.access(addr, ops.chance(0.3)),
                                  ref.access(addr))
                            << i;
                    }
                }
                EXPECT_EQ(cache.hits(), ref.hits());
                EXPECT_EQ(cache.misses(), ref.misses());
                for (const Addr addr : touched)
                    ASSERT_EQ(cache.probe(addr), ref.probe(addr)) << addr;
            }
        }
    }
}

TEST(CacheDifferential, HierarchyMatchesProbeThenAccessPrefetching)
{
    std::uint64_t seed = 100;
    for (const std::uint32_t assoc : kAssocs) {
        for (const std::uint64_t sets : kSetCounts) {
            for (const Stream kind : kStreams) {
                CacheHierarchyConfig config;
                const std::uint32_t l1_line = sets == 4 ? 32 : 64;
                config.l1i = geometry("l1i", sets, assoc, l1_line, 4);
                config.l1d = geometry("l1d", sets, assoc, l1_line, 4);
                config.l2 = geometry("l2", sets * 4, assoc, 64, 12);
                config.l3 = geometry("l3", sets * 16, 16, 64, 42);
                config.prefetchDegree = 1 + static_cast<unsigned>(seed % 8);
                config.nextLinePrefetch = sets != 32 || assoc != 2;
                CacheHierarchy hierarchy(config);
                NaiveHierarchy ref(config);
                StreamGen gen(kind, 2 * config.l3.sizeBytes, ++seed);
                Rng ops(seed);
                std::set<Addr> touched;
                SCOPED_TRACE(testing::Message()
                             << "assoc " << assoc << " sets " << sets
                             << " stream " << static_cast<int>(kind));
                for (int i = 0; i < 6000; ++i) {
                    if (i == 4000) {
                        hierarchy.reset();
                        ref.reset();
                    }
                    const Addr addr = gen.next();
                    for (unsigned d = 0; d <= config.prefetchDegree; ++d)
                        touched.insert(addr + d * l1_line);
                    if (ops.chance(0.4)) {
                        ASSERT_EQ(hierarchy.accessInstr(addr),
                                  ref.access(ref.l1i, addr))
                            << i;
                    } else {
                        const bool write = ops.chance(0.3);
                        ASSERT_EQ(hierarchy.accessData(addr, write),
                                  ref.access(ref.l1d, addr))
                            << i;
                    }
                }
                const Cache *levels[] = {&hierarchy.l1i(), &hierarchy.l1d(),
                                         &hierarchy.l2(), &hierarchy.l3()};
                const NaiveCache *refs[] = {&ref.l1i, &ref.l1d, &ref.l2,
                                            &ref.l3};
                for (int l = 0; l < 4; ++l) {
                    EXPECT_EQ(levels[l]->hits(), refs[l]->hits()) << l;
                    EXPECT_EQ(levels[l]->misses(), refs[l]->misses()) << l;
                    for (const Addr addr : touched) {
                        ASSERT_EQ(levels[l]->probe(addr),
                                  refs[l]->probe(addr))
                            << "level " << l << " addr " << addr;
                    }
                }
                EXPECT_EQ(hierarchy.prefetches(), ref.prefetches);
            }
        }
    }
}

} // namespace
} // namespace chirp
