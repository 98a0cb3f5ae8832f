#include "tlb/tlb_hierarchy.hh"

#include <typeinfo>

#include "util/logging.hh"

namespace chirp
{

namespace
{

/**
 * An L1 TLB as a cache of page-sized lines.  Lookups go through
 * Cache::accessKey with Tlb::keyOf keys, so the line size only fixes
 * the entry count; the set count (entries / assoc) must be a power of
 * two, as for every Cache.
 */
CacheConfig
l1CacheConfig(const TlbConfig &config)
{
    return {config.name, std::uint64_t{config.entries} * kPageSize,
            config.assoc, static_cast<std::uint32_t>(kPageSize),
            config.hitLatency};
}

} // namespace

TlbHierarchy::TlbHierarchy(const TlbHierarchyConfig &config,
                           std::unique_ptr<ReplacementPolicy> l2_policy,
                           std::unique_ptr<PageWalker> walker)
    : config_(config), l1i_(l1CacheConfig(config.l1i)),
      l1d_(l1CacheConfig(config.l1d)), l2_(config.l2, std::move(l2_policy)),
      walker_(std::move(walker))
{
    if (!walker_)
        chirp_fatal("TLB hierarchy needs a page walker");
    l2WantsRetire_ = l2_.policy().wantsRetireEvents();
    if (!forceVirtualDispatch()) {
        ReplacementPolicy &policy = l2_.policy();
        if (typeid(policy) == typeid(ChirpPolicy))
            l2Chirp_ = static_cast<ChirpPolicy *>(&policy);
        else if (typeid(policy) == typeid(GhrpPolicy))
            l2Ghrp_ = static_cast<GhrpPolicy *>(&policy);
    }
}

std::unique_ptr<TlbHierarchy>
TlbHierarchy::makeDefault(std::unique_ptr<ReplacementPolicy> l2_policy,
                          std::unique_ptr<PageWalker> walker)
{
    return std::make_unique<TlbHierarchy>(
        TlbHierarchyConfig{}, std::move(l2_policy), std::move(walker));
}

void
TlbHierarchy::finalizeEfficiency(std::uint64_t now)
{
    l2_.finalizeEfficiency(now);
}

void
TlbHierarchy::flushAll(std::uint64_t now)
{
    l1i_.invalidateAll();
    l1d_.invalidateAll();
    l2_.flushAll(now);
}

void
TlbHierarchy::reset()
{
    l1i_.reset();
    l1d_.reset();
    l2_.reset();
    walker_->reset();
}

} // namespace chirp
