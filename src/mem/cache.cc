#include "mem/cache.hh"

#include <algorithm>

#include "util/logging.hh"

namespace chirp
{

namespace
{

std::uint32_t
setsFor(const CacheConfig &config)
{
    // At least one offset bit, so a stored tag plus one cannot wrap.
    if (config.lineBytes < 2 || !isPowerOfTwo(config.lineBytes))
        chirp_fatal("cache '", config.name, "': line size must be a power "
                    "of two of at least 2 bytes");
    if (config.assoc == 0 || config.assoc > Cache::kMaxAssoc)
        chirp_fatal("cache '", config.name, "': associativity ",
                    config.assoc, " outside 1..", Cache::kMaxAssoc);
    const std::uint64_t lines = config.sizeBytes / config.lineBytes;
    if (lines == 0 || lines % config.assoc != 0)
        chirp_fatal("cache '", config.name, "': size ", config.sizeBytes,
                    " not divisible into ", config.assoc, "-way sets of ",
                    config.lineBytes, "B lines");
    const std::uint64_t sets = lines / config.assoc;
    if (!isPowerOfTwo(sets))
        chirp_fatal("cache '", config.name, "': set count ", sets,
                    " must be a power of two");
    return static_cast<std::uint32_t>(sets);
}

/** Recency word of an empty @p assoc-way set: ways assoc-1 .. 0. */
std::uint64_t
freshRecencyFor(std::uint32_t assoc)
{
    std::uint64_t list = 0;
    for (std::uint32_t pos = 0; pos < assoc; ++pos)
        list |= static_cast<std::uint64_t>(assoc - 1 - pos) << (4 * pos);
    return list;
}

} // namespace

Cache::Cache(const CacheConfig &config) : config_(config)
{
    const std::uint32_t sets = setsFor(config);
    lineShift_ = floorLog2(config.lineBytes);
    setShift_ = floorLog2(sets);
    setMask_ = sets - 1;
    assoc_ = config.assoc;
    freshRecency_ = freshRecencyFor(assoc_);
    tags_.assign(static_cast<std::size_t>(sets) * assoc_, 0);
    fingerprints_.assign(tags_.size() + sizeof(std::uint64_t), 0);
    recency_.assign(sets, freshRecency_);
}

void
Cache::fill(std::size_t set, Addr stored)
{
    ++misses_;
    const std::uint64_t list = recency_[set];
    const unsigned lru_at = 4 * (assoc_ - 1);
    const auto victim = static_cast<std::uint32_t>((list >> lru_at) & 0xf);
    tags_[set * assoc_ + victim] = stored;
    fingerprints_[set * assoc_ + victim] = fingerprint(stored);
    recency_[set] = ((list << 4) & maskBits(4 * assoc_)) | victim;
}

bool
Cache::probe(Addr addr) const
{
    const auto [set, stored] = slotOf(addr);
    return findWay(set, stored) >= 0;
}

void
Cache::reset()
{
    invalidateAll();
    hits_ = 0;
    misses_ = 0;
}

void
Cache::invalidateAll()
{
    std::fill(tags_.begin(), tags_.end(), 0);
    std::fill(fingerprints_.begin(), fingerprints_.end(), 0);
    std::fill(recency_.begin(), recency_.end(), freshRecency_);
}

} // namespace chirp
