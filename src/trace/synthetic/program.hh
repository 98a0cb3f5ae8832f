/**
 * @file
 * Synthetic program: the trace generator at the heart of the CVP-1
 * substitution.
 *
 * A Program is a set of *regions* (loop nests) scheduled by a Markov
 * chain, a set of *shared functions* callable from any region, and a
 * set of *data patterns* (see patterns.hh).  Executing the program
 * emits a realistic retired-instruction stream: ALU/FP filler, loads
 * and stores with effective addresses drawn from patterns,
 * conditional branches ending every basic block, and direct/indirect
 * calls into shared functions.
 *
 * The structure deliberately reproduces the phenomena the paper
 * builds CHiRP on:
 *
 *  - a shared function's load PCs are identical no matter which
 *    region calls it, while the *lifetime* of the pages it touches
 *    depends on the calling region (its argument pattern): the
 *    accessing PC alone cannot predict reuse, but the control-flow
 *    history (region branch PCs, indirect call-site PCs) can;
 *  - within a page, many consecutive accesses hit, so per-PC
 *    predictors see overwhelmingly "live" evidence (Observation 2);
 *  - streaming regions sweep footprints larger than the TLB, the
 *    scan case where LRU is weakest.
 */

#ifndef CHIRP_TRACE_SYNTHETIC_PROGRAM_HH
#define CHIRP_TRACE_SYNTHETIC_PROGRAM_HH

#include <memory>
#include <string>
#include <vector>

#include "trace/synthetic/code_layout.hh"
#include "trace/synthetic/patterns.hh"
#include "trace/trace_source.hh"
#include "util/random.hh"

namespace chirp
{

/** Allocates contiguous page ranges inside a synthetic data segment. */
class DataLayout
{
  public:
    explicit DataLayout(Addr base = Addr{1} << 32)
        : top_(base), base_(base)
    {
    }

    /** Reserve @p npages pages (plus a guard page) and return the base. */
    Addr
    alloc(std::uint64_t npages)
    {
        const Addr result = top_;
        top_ += (npages + 1) * kPageSize;
        pages_ += npages;
        allocations_.push_back({result, npages});
        return result;
    }

    /** Total data pages allocated (excluding guard pages). */
    std::uint64_t pages() const { return pages_; }

    Addr base() const { return base_; }

    /** One reserved region. */
    struct Allocation
    {
        Addr base;
        std::uint64_t npages;
    };

    /** Every region reserved so far, in allocation order; lets
     *  mixed-page studies back chosen regions with superpages. */
    const std::vector<Allocation> &allocations() const
    {
        return allocations_;
    }

  private:
    Addr top_;
    Addr base_;
    std::uint64_t pages_ = 0;
    std::vector<Allocation> allocations_;
};

/**
 * The synthetic program.  Build once (addPattern / addSharedFunction /
 * addRegion / setTransition, then finalize), then consume as a
 * TraceSource.  Given the same construction parameters and seed, the
 * emitted stream is bit-identical across runs and platforms.
 */
class Program : public TraceSource
{
  public:
    /** Specification of a shared (callee) function. */
    struct SharedFnSpec
    {
        std::string name;
        unsigned alus = 4;  //!< ALU filler instructions in the body
        unsigned loads = 4; //!< load sites (pattern supplied per call)
        /** Fraction of memory sites emitted as stores. */
        double storeFraction = 0.0;
    };

    /** One call a region makes each iteration. */
    struct CallSpec
    {
        unsigned fnIdx = 0;      //!< index from addSharedFunction
        unsigned patternIdx = 0; //!< pattern the callee dereferences
        bool indirect = true;    //!< call through a pointer?
        /** Chance the call happens in a given iteration. */
        double probability = 1.0;
    };

    /** Specification of a region (one phase of the program). */
    struct RegionSpec
    {
        std::string name;
        /** Pattern index for each body load site, in emission order. */
        std::vector<unsigned> loadSites;
        unsigned alusPerBlock = 6;  //!< ALU filler density
        double fpFraction = 0.0;    //!< fraction of filler that is FP
        double storeFraction = 0.1; //!< memory sites emitted as stores
        /** Taken bias of block-ending conditional branches. */
        double branchBias = 0.85;
        std::vector<CallSpec> calls;
        unsigned minIters = 8;  //!< iterations per visit, lower bound
        unsigned maxIters = 32; //!< iterations per visit, upper bound
        /** Dead code pages after the region body (i-TLB pressure). */
        unsigned codePadPages = 0;
    };

    /**
     * @param name workload name (reported in all results)
     * @param seed master seed; derives every random decision
     * @param length total instructions to emit before end-of-trace
     */
    Program(std::string name, std::uint64_t seed, InstCount length);
    ~Program() override;

    /** Register a data pattern; returns its index. */
    unsigned addPattern(std::unique_ptr<DataPattern> pattern);

    /** Register a shared function; returns its index. */
    unsigned addSharedFunction(const SharedFnSpec &spec);

    /** Register a region; returns its index. */
    unsigned addRegion(const RegionSpec &spec);

    /**
     * Set the Markov transition weight from region @p from to region
     * @p to.  Rows with no explicit weights default to uniform over
     * the other regions (or a self-loop for single-region programs).
     */
    void setTransition(unsigned from, unsigned to, double weight);

    /** Lay out code, validate references; must be called before use. */
    void finalize();

    bool next(TraceRecord &rec) override;
    std::size_t nextBatch(TraceRecord *out, std::size_t n) override;
    void reset() override;
    InstCount expectedLength() const override { return length_; }

    /** The code layout (for footprint reporting). */
    const CodeLayout &layout() const { return layout_; }

    /** Data pages across all patterns. */
    std::uint64_t dataFootprintPages() const;

    /** The data segment allocator, for the factory to place patterns. */
    DataLayout &dataLayout() { return dataLayout_; }
    const DataLayout &dataLayout() const { return dataLayout_; }

    /** Total instructions this program will emit. */
    InstCount length() const { return length_; }

    /**
     * A pre-laid-out instruction site (public so layout helpers can
     * build site lists; not part of the stable API).
     */
    struct Site
    {
        Addr pc = 0;
        InstClass cls = InstClass::Alu;
        unsigned patternIdx = 0; //!< loads/stores; ~0u = use override
        double takenBias = 1.0;  //!< conditional branches
        Addr target = 0;         //!< branches/calls
        unsigned callee = 0;     //!< calls: shared function index
        double probability = 1.0; //!< calls: per-iteration chance
        /**
         * Conditional branches: outcome pattern period.  0 draws
         * from takenBias each time; k > 0 is not-taken once every k
         * executions (loop-like, learnable), with a small noise
         * probability on top.  Real branch outcomes are patterned,
         * which matters to outcome-history predictors (GHRP) and to
         * the perceptron.
         */
        unsigned period = 0;
        bool isCall = false;
    };

  private:
    /**
     * One record of a body whose content changes per execution: a
     * memory site's effective address or a conditional branch's
     * outcome.
     */
    struct Patch
    {
        enum class Kind : std::uint8_t
        {
            Memory,   //!< effAddr from `pattern` (nullptr: the caller's)
            Periodic, //!< taken by the site's period, plus noise
            Biased,   //!< taken with probability `bias`
        };
        Kind kind = Kind::Memory;
        std::uint32_t at = 0;     //!< record index in the body
        std::uint32_t period = 0; //!< Periodic
        std::uint32_t siteId = 0; //!< Periodic: index of its counter
        double bias = 0.0;        //!< Biased
        DataPattern *pattern = nullptr; //!< Memory
    };

    /**
     * A body compiled for emission.  pc, class and branch target are
     * fixed per site, so each record is built once; emission copies
     * them in bulk and applies the patches in site order, which is the
     * order the RNG draws are made in.
     */
    struct Body
    {
        std::vector<TraceRecord> records;
        std::vector<Patch> patches;
    };

    /** A built shared function; the return is emitted by the caller. */
    struct BuiltFn
    {
        FuncDesc fn;
        Body body;
        Addr returnPc = 0;
    };

    /** One call a region makes per iteration. */
    struct CallSite
    {
        TraceRecord call;   //!< the call instruction
        TraceRecord ret;    //!< the callee's return to after the call
        unsigned callee = 0;
        DataPattern *pattern = nullptr; //!< what the callee dereferences
        double probability = 1.0;
    };

    /** A built region. */
    struct BuiltRegion
    {
        RegionSpec spec;
        Body body;                   //!< block bodies + block branches
        std::vector<CallSite> calls; //!< one per CallSpec
        TraceRecord loop;            //!< back edge; taken set per visit
        std::vector<double> transitions; //!< outgoing weights
    };

    static constexpr unsigned kNoPattern = ~0u;

    void buildRegion(BuiltRegion &region, unsigned index);
    void buildSharedFn(BuiltFn &fn, const SharedFnSpec &spec);

    /** Compile @p sites into @p body, numbering periodic branches. */
    void compile(const std::vector<Site> &sites, Body &body);

    /**
     * Emit @p body at @p out, resolving caller-supplied memory sites
     * to @p caller; returns the end of the emitted records.
     */
    TraceRecord *emitBody(const Body &body, DataPattern *caller,
                          TraceRecord *out);

    /** Emit one iteration of the current region into the queue. */
    void emitIteration(bool last_iteration);

    /** Refill the drained queue with the next iteration. */
    void refill();

    unsigned chooseNextRegion();

    std::uint64_t seed_;
    InstCount length_;
    CodeLayout layout_;
    DataLayout dataLayout_;
    std::vector<std::unique_ptr<DataPattern>> patterns_;
    std::vector<SharedFnSpec> fnSpecs_;
    std::vector<BuiltFn> fns_;
    std::vector<BuiltRegion> regions_;
    bool finalized_ = false;

    // Execution state (reconstructed by reset()).
    Rng rng_;
    std::vector<std::uint32_t> siteCounters_; //!< periodic-branch state
    // Pending records of the current iteration.  Sized at finalize()
    // for the longest iteration, so emission writes through a pointer
    // and bulk consumers copy contiguous spans.
    std::vector<TraceRecord> queue_;
    std::size_t queueHead_ = 0;
    std::size_t queueEnd_ = 0;
    InstCount emitted_ = 0;
    unsigned currentRegion_ = 0;
    unsigned itersLeft_ = 0;
};

} // namespace chirp

#endif // CHIRP_TRACE_SYNTHETIC_PROGRAM_HH
