#include "trace/synthetic/program.hh"

#include <algorithm>
#include <cassert>

#include "util/hashing.hh"
#include "util/logging.hh"

namespace chirp
{

namespace
{

/** Slots 0..14 hold body instructions; slot 15 the block branch. */
constexpr unsigned kBodySlots = kSlotsPerBlock - 1;

/**
 * Incremental packer of sites into (block, slot) coordinates with
 * automatic block-ending conditional branches.
 */
class BlockPacker
{
  public:
    BlockPacker(std::vector<Program::Site> &sites, double branch_bias,
                Rng &build_rng)
        : sites_(sites), branchBias_(branch_bias), buildRng_(build_rng)
    {
    }

    /** Relative PC (from function entry) of a (block, slot) pair. */
    static Addr
    relPc(unsigned block, unsigned slot)
    {
        return static_cast<Addr>(block) * kBlockBytes +
               static_cast<Addr>(slot) * kInstBytes;
    }

    /**
     * Append a site at the next slot; if @p parity is 0 or 1, ALU
     * filler is inserted until the slot index has that parity.
     */
    void
    place(Program::Site site, int parity = -1)
    {
        if (parity >= 0) {
            while (static_cast<int>(slot_ & 1) != parity)
                placeFiller();
        }
        site.pc = relPc(block_, slot_);
        sites_.push_back(site);
        advance();
    }

    /** Append one ALU/FP filler instruction. */
    void
    placeFiller(double fp_fraction = 0.0)
    {
        Program::Site filler;
        if (buildRng_.chance(fp_fraction))
            filler.cls = InstClass::Fp;
        else if (buildRng_.chance(0.05))
            filler.cls = InstClass::SlowAlu;
        else
            filler.cls = InstClass::Alu;
        filler.pc = relPc(block_, slot_);
        sites_.push_back(filler);
        advance();
    }

    /**
     * Close the current block if partially filled, then return the
     * total number of blocks used.  The final block's branch slot is
     * left free for the caller (loop back-edge or return).
     */
    unsigned
    finish()
    {
        return block_ + 1;
    }

    /** Relative PC of the current block's branch slot (slot 15). */
    Addr
    branchSlotPc() const
    {
        return relPc(block_, kSlotsPerBlock - 1);
    }

  private:
    /** Move to the next slot, ending blocks with a branch site. */
    void
    advance()
    {
        if (++slot_ < kBodySlots)
            return;
        // Block-ending conditional branch at slot 15; the taken
        // target skips one block ahead, giving each branch a
        // plausible forward target.
        Program::Site br;
        br.cls = InstClass::CondBranch;
        br.pc = relPc(block_, kSlotsPerBlock - 1);
        br.takenBias = branchBias_;
        // Most block branches follow a short loop-like pattern; the
        // rest stay data-dependent (biased coin).
        if (buildRng_.chance(0.7))
            br.period = 2 + static_cast<unsigned>(buildRng_.below(11));
        br.target = relPc(block_ + 2, 0);
        sites_.push_back(br);
        ++block_;
        slot_ = 0;
    }

    std::vector<Program::Site> &sites_;
    double branchBias_;
    Rng &buildRng_;
    unsigned block_ = 0;
    unsigned slot_ = 0;
};

} // namespace

Program::Program(std::string name, std::uint64_t seed, InstCount length)
    : seed_(seed), length_(length), rng_(mix64(seed))
{
    name_ = std::move(name);
    if (length == 0)
        chirp_fatal("program '", name_, "' has zero length");
}

Program::~Program() = default;

unsigned
Program::addPattern(std::unique_ptr<DataPattern> pattern)
{
    assert(!finalized_);
    patterns_.push_back(std::move(pattern));
    return static_cast<unsigned>(patterns_.size() - 1);
}

unsigned
Program::addSharedFunction(const SharedFnSpec &spec)
{
    assert(!finalized_);
    fnSpecs_.push_back(spec);
    return static_cast<unsigned>(fnSpecs_.size() - 1);
}

unsigned
Program::addRegion(const RegionSpec &spec)
{
    assert(!finalized_);
    BuiltRegion region;
    region.spec = spec;
    regions_.push_back(std::move(region));
    return static_cast<unsigned>(regions_.size() - 1);
}

void
Program::setTransition(unsigned from, unsigned to, double weight)
{
    assert(!finalized_);
    if (from >= regions_.size() || to >= regions_.size())
        chirp_fatal("transition references unknown region");
    auto &row = regions_[from].transitions;
    if (row.empty())
        row.assign(regions_.size(), 0.0);
    row[to] = weight;
}

void
Program::buildSharedFn(BuiltFn &built, const SharedFnSpec &spec)
{
    Rng build_rng(mix64(seed_ ^ (built.fn.entry + 0x5f)));
    std::vector<Site> sites;
    BlockPacker packer(sites, 0.9, build_rng);
    unsigned filler_left = spec.alus;
    const unsigned per_load =
        spec.loads ? std::max(1u, spec.alus / std::max(1u, spec.loads)) : 0;
    for (unsigned i = 0; i < spec.loads; ++i) {
        for (unsigned a = 0; a < per_load && filler_left; ++a, --filler_left)
            packer.placeFiller();
        Site load;
        load.cls = build_rng.chance(spec.storeFraction) ? InstClass::Store
                                                        : InstClass::Load;
        load.patternIdx = kNoPattern; // resolved by the call site
        packer.place(load);
    }
    while (filler_left--)
        packer.placeFiller();

    built.returnPc = packer.branchSlotPc();
    const unsigned nblocks = packer.finish();
    // Assign real addresses now that the size is known.
    built.fn = layout_.allocFunction(nblocks);
    for (auto &site : sites) {
        site.pc += built.fn.entry;
        if (site.cls == InstClass::CondBranch)
            site.target += built.fn.entry;
    }
    built.returnPc += built.fn.entry;
    compile(sites, built.body);
}

void
Program::buildRegion(BuiltRegion &region, unsigned index)
{
    const RegionSpec &spec = region.spec;
    Rng build_rng(mix64(seed_ ^ (index + 0x17) ^
                        (region.spec.loadSites.size() << 8)));
    std::vector<Site> sites;
    BlockPacker packer(sites, spec.branchBias, build_rng);

    for (unsigned pattern_idx : spec.loadSites) {
        if (pattern_idx >= patterns_.size())
            chirp_fatal("region '", spec.name, "' references pattern ",
                        pattern_idx, " but only ", patterns_.size(),
                        " exist");
        for (unsigned a = 0; a < spec.alusPerBlock; ++a)
            packer.placeFiller(spec.fpFraction);
        Site mem;
        mem.cls = build_rng.chance(spec.storeFraction) ? InstClass::Store
                                                       : InstClass::Load;
        mem.patternIdx = pattern_idx;
        // Slot-parity convention: transient-pattern sites sit at even
        // slots, persistent ones at odd slots, so PC bit 2 carries
        // reuse information (the Fig 3 phenomenon).
        const int parity = patterns_[pattern_idx]->transient() ? 0 : 1;
        packer.place(mem, parity);
    }

    // Call sites occupy their own slots after the body.
    for (const CallSpec &call : spec.calls) {
        if (call.fnIdx >= fns_.size())
            chirp_fatal("region '", spec.name, "' calls unknown function ",
                        call.fnIdx);
        if (call.patternIdx >= patterns_.size())
            chirp_fatal("region '", spec.name,
                        "' passes unknown pattern ", call.patternIdx);
        Site site;
        site.cls = call.indirect ? InstClass::UncondIndirect
                                 : InstClass::UncondDirect;
        site.isCall = true;
        site.callee = call.fnIdx;
        site.patternIdx = call.patternIdx;
        site.target = fns_[call.fnIdx].fn.entry;
        site.probability = call.probability;
        packer.place(site);
    }

    const Addr loop_pc = packer.branchSlotPc();
    const unsigned nblocks = packer.finish();
    const FuncDesc fn = layout_.allocFunction(nblocks, spec.codePadPages);
    for (auto &site : sites) {
        site.pc += fn.entry;
        if (site.cls == InstClass::CondBranch && !site.isCall)
            site.target += fn.entry;
    }

    // The packer appended call sites into the body; split them out so
    // emission can interleave callee bodies.
    std::vector<Site> body;
    for (const auto &site : sites) {
        if (!site.isCall) {
            body.push_back(site);
            continue;
        }
        CallSite call;
        call.call.pc = site.pc;
        call.call.cls = site.cls;
        call.call.target = site.target;
        call.call.taken = true;
        call.ret.pc = fns_[site.callee].returnPc;
        call.ret.cls = InstClass::UncondIndirect;
        call.ret.target = site.pc + kInstBytes;
        call.ret.taken = true;
        call.callee = site.callee;
        call.pattern = patterns_[site.patternIdx].get();
        call.probability = site.probability;
        region.calls.push_back(call);
    }
    compile(body, region.body);

    region.loop.pc = loop_pc + fn.entry;
    region.loop.cls = InstClass::CondBranch;
    region.loop.target = fn.entry;
}

void
Program::compile(const std::vector<Site> &sites, Body &body)
{
    body.records.reserve(sites.size());
    for (const Site &site : sites) {
        TraceRecord rec;
        rec.pc = site.pc;
        rec.cls = site.cls;
        Patch patch;
        patch.at = static_cast<std::uint32_t>(body.records.size());
        if (isMemory(site.cls)) {
            patch.kind = Patch::Kind::Memory;
            if (site.patternIdx != kNoPattern)
                patch.pattern = patterns_[site.patternIdx].get();
            body.patches.push_back(patch);
        } else if (site.cls == InstClass::CondBranch) {
            rec.target = site.target;
            if (site.period > 0) {
                patch.kind = Patch::Kind::Periodic;
                patch.period = site.period;
                patch.siteId =
                    static_cast<std::uint32_t>(siteCounters_.size());
                siteCounters_.push_back(0);
            } else {
                patch.kind = Patch::Kind::Biased;
                patch.bias = site.takenBias;
            }
            body.patches.push_back(patch);
        }
        body.records.push_back(rec);
    }
}

void
Program::finalize()
{
    if (finalized_)
        chirp_fatal("program '", name_, "' finalized twice");
    if (regions_.empty())
        chirp_fatal("program '", name_, "' has no regions");
    if (patterns_.empty())
        chirp_fatal("program '", name_, "' has no data patterns");

    fns_.resize(fnSpecs_.size());
    for (std::size_t i = 0; i < fnSpecs_.size(); ++i)
        buildSharedFn(fns_[i], fnSpecs_[i]);
    for (std::size_t i = 0; i < regions_.size(); ++i)
        buildRegion(regions_[i], static_cast<unsigned>(i));

    // Default transition rows: uniform over the *other* regions.
    std::size_t longest = 0;
    for (std::size_t i = 0; i < regions_.size(); ++i) {
        auto &row = regions_[i].transitions;
        if (row.empty()) {
            row.assign(regions_.size(), 1.0);
            if (regions_.size() > 1)
                row[i] = 0.0;
        }
        double sum = 0.0;
        for (double w : row)
            sum += w;
        if (sum <= 0.0)
            chirp_fatal("region '", regions_[i].spec.name,
                        "' has no outgoing transitions");

        // An iteration is the body, every call with its callee body
        // and return, and the back edge.
        std::size_t iteration = regions_[i].body.records.size() + 1;
        for (const CallSite &call : regions_[i].calls)
            iteration += fns_[call.callee].body.records.size() + 2;
        longest = std::max(longest, iteration);
    }
    queue_.resize(longest);

    finalized_ = true;
    reset();
}

std::uint64_t
Program::dataFootprintPages() const
{
    std::uint64_t pages = 0;
    for (const auto &p : patterns_)
        pages += p->footprintPages();
    return pages;
}

unsigned
Program::chooseNextRegion()
{
    const auto &row = regions_[currentRegion_].transitions;
    double sum = 0.0;
    for (double w : row)
        sum += w;
    double draw = rng_.uniform() * sum;
    for (std::size_t i = 0; i < row.size(); ++i) {
        draw -= row[i];
        if (draw < 0.0)
            return static_cast<unsigned>(i);
    }
    return static_cast<unsigned>(row.size() - 1);
}

TraceRecord *
Program::emitBody(const Body &body, DataPattern *caller, TraceRecord *out)
{
    std::copy_n(body.records.data(), body.records.size(), out);
    for (const Patch &patch : body.patches) {
        TraceRecord &rec = out[patch.at];
        switch (patch.kind) {
          case Patch::Kind::Memory:
            rec.effAddr =
                (patch.pattern ? patch.pattern : caller)->nextAddr(rng_);
            break;
          case Patch::Kind::Periodic: {
            const std::uint32_t phase = siteCounters_[patch.siteId]++;
            rec.taken = (phase % patch.period) != patch.period - 1;
            if (rng_.chance(0.02))
                rec.taken = !rec.taken; // sporadic data dependence
            break;
          }
          case Patch::Kind::Biased:
            rec.taken = rng_.chance(patch.bias);
            break;
        }
    }
    return out + body.records.size();
}

void
Program::emitIteration(bool last_iteration)
{
    const BuiltRegion &region = regions_[currentRegion_];
    TraceRecord *out = emitBody(region.body, nullptr, queue_.data());
    for (const CallSite &call : region.calls) {
        if (call.probability < 1.0 && !rng_.chance(call.probability))
            continue;
        *out++ = call.call;
        out = emitBody(fns_[call.callee].body, call.pattern, out);
        *out++ = call.ret;
    }
    *out = region.loop;
    out->taken = !last_iteration;
    queueHead_ = 0;
    queueEnd_ = static_cast<std::size_t>(out + 1 - queue_.data());
}

void
Program::refill()
{
    const bool last = itersLeft_ <= 1;
    emitIteration(last);
    if (last) {
        currentRegion_ = chooseNextRegion();
        const RegionSpec &spec = regions_[currentRegion_].spec;
        itersLeft_ = static_cast<unsigned>(
            rng_.range(spec.minIters, spec.maxIters));
    } else {
        --itersLeft_;
    }
}

bool
Program::next(TraceRecord &rec)
{
    assert(finalized_);
    if (emitted_ >= length_)
        return false;
    if (queueHead_ >= queueEnd_)
        refill();
    rec = queue_[queueHead_++];
    ++emitted_;
    return true;
}

std::size_t
Program::nextBatch(TraceRecord *out, std::size_t n)
{
    assert(finalized_);
    std::size_t total = 0;
    while (total < n && emitted_ < length_) {
        if (queueHead_ >= queueEnd_)
            refill();
        const std::size_t take =
            std::min({n - total, queueEnd_ - queueHead_,
                      static_cast<std::size_t>(length_ - emitted_)});
        std::copy_n(queue_.data() + queueHead_, take, out + total);
        queueHead_ += take;
        emitted_ += take;
        total += take;
    }
    return total;
}

void
Program::reset()
{
    rng_ = Rng(mix64(seed_));
    for (auto &p : patterns_)
        p->reset();
    queueHead_ = 0;
    queueEnd_ = 0;
    std::fill(siteCounters_.begin(), siteCounters_.end(), 0u);
    emitted_ = 0;
    currentRegion_ = 0;
    if (!regions_.empty()) {
        const RegionSpec &spec = regions_[0].spec;
        itersLeft_ = static_cast<unsigned>(
            rng_.range(spec.minIters, spec.maxIters));
    }
}

} // namespace chirp
