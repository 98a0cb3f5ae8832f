/**
 * @file
 * Repository benchmark driver.
 *
 * One process runs one workload for one seed:
 *
 *   chirp_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                   --scratch-root DIR [--spans PATH] [--tiny]
 *                   [--perturb]
 *
 * Workloads (see perfbench/README.md for why each exists):
 *   policy_sweep    one Runner::runSuiteMulti over the six paper
 *                   policies, MPKI-only model, traces from the warm
 *                   disk tier, 2 runner jobs
 *   config_sweep    LRU plus a fig02-shaped grid of CHiRP history
 *                   variants, one serial Runner::runSuite each, full
 *                   timing model
 *   context_switch  workload pairs through Simulator::runInterleaved,
 *                   LRU and CHiRP, ASID and flush, quanta 2k and 50k
 *
 * Set-up enumerates the suite from the seed and materializes every
 * trace cold into a fresh scratch trace cache (median of several
 * repetitions).  With --trace 0 the workload's pass then repeats for
 * --seconds and the end-to-end metrics are reported; with --trace 1 a
 * decomposed pass calls every layer directly under spans and the
 * per-layer metrics are reported.  Both modes run a correctness gate
 * outside the timed region.  The last stdout line is one JSON object.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "branch/branch_unit.hh"
#include "core/chirp.hh"
#include "core/policy_factory.hh"
#include "mem/cache_hierarchy.hh"
#include "sim/runner.hh"
#include "sim/simulator.hh"
#include "tlb/page_walker.hh"
#include "tlb/tlb_hierarchy.hh"
#include "trace/trace_store.hh"
#include "trace/workload_suite.hh"
#include "util/hashing.hh"
#include "util/simd.hh"

#ifndef CHIRP_PERFBENCH_BUILD_TYPE
#define CHIRP_PERFBENCH_BUILD_TYPE "unknown"
#endif

extern char **environ;

using namespace chirp;

namespace
{

using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - kEpoch)
            .count());
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/** The @p q quantile of @p xs (lower nearest rank). */
double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const double rank = q * static_cast<double>(xs.size() - 1);
    return xs[static_cast<std::size_t>(rank)];
}

// ---------------------------------------------------------------------
// Tracing: spans kept in memory, written as JSONL at exit.

struct Span
{
    std::string name;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    int parent = -1;
    long workload = -1;
};

/** Serial span recorder: the traced run is single-threaded. */
class Tracer
{
  public:
    int
    open(const std::string &name, long workload = -1)
    {
        Span span;
        span.name = name;
        span.parent = stack_.empty() ? -1 : stack_.back();
        span.workload = workload;
        span.startNs = nowNs();
        spans_.push_back(std::move(span));
        stack_.push_back(static_cast<int>(spans_.size() - 1));
        return stack_.back();
    }

    /** Close span @p id (must be innermost); returns its duration. */
    std::uint64_t
    close(int id)
    {
        if (stack_.empty() || stack_.back() != id)
            throw std::logic_error("tracer: spans closed out of order");
        stack_.pop_back();
        Span &span = spans_[static_cast<std::size_t>(id)];
        span.endNs = nowNs();
        return span.endNs - span.startNs;
    }

    /** Run @p fn under a span; returns the span's duration in ns. */
    template <typename Fn>
    std::uint64_t
    time(const std::string &name, long workload, Fn &&fn)
    {
        const int id = open(name, workload);
        fn();
        return close(id);
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Is @p id inside the subtree rooted at @p root? */
    bool
    within(int id, int root) const
    {
        for (int s = id; s >= 0; s = spans_[static_cast<std::size_t>(s)].parent)
            if (s == root)
                return true;
        return false;
    }

    /**
     * Self time per span name over the strict subtree of @p root: a
     * span's duration minus the part its child spans cover.
     */
    std::map<std::string, double>
    selfSeconds(int root) const
    {
        std::vector<std::uint64_t> child(spans_.size(), 0);
        for (const Span &span : spans_)
            if (span.parent >= 0)
                child[static_cast<std::size_t>(span.parent)] +=
                    span.endNs - span.startNs;
        std::map<std::string, double> self;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const int id = static_cast<int>(i);
            if (id == root || !within(id, root))
                continue;
            const Span &span = spans_[i];
            self[span.name] +=
                1e-9 * static_cast<double>(span.endNs - span.startNs -
                                           child[i]);
        }
        return self;
    }

    /** Sum of the durations of @p root's direct children. */
    double
    childSeconds(int root) const
    {
        std::uint64_t total = 0;
        for (const Span &span : spans_)
            if (span.parent == root)
                total += span.endNs - span.startNs;
        return 1e-9 * static_cast<double>(total);
    }

    double
    seconds(int id) const
    {
        const Span &span = spans_[static_cast<std::size_t>(id)];
        return 1e-9 * static_cast<double>(span.endNs - span.startNs);
    }

    bool
    writeJsonl(const std::string &path) const
    {
        std::FILE *out = std::fopen(path.c_str(), "w");
        if (!out)
            return false;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &span = spans_[i];
            std::fprintf(out,
                         "{\"id\": %zu, \"name\": \"%s\", "
                         "\"start_ns\": %" PRIu64 ", \"end_ns\": %" PRIu64
                         ", \"parent\": %d, \"workload\": %ld}\n",
                         i, span.name.c_str(), span.startNs, span.endNs,
                         span.parent, span.workload);
        }
        return std::fclose(out) == 0;
    }

  private:
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

// ---------------------------------------------------------------------
// Per-layer metrics: each is num / den * scale, accumulated where the
// work happens.

struct Ratio
{
    double num = 0.0;
    double den = 0.0;
    double scale = 1.0;

    double value() const { return den > 0.0 ? num / den * scale : 0.0; }
};

class LayerMetrics
{
  public:
    bool has(const std::string &name) const { return m_.count(name) != 0; }

    void
    add(const std::string &name, double num, double den,
        double scale = 1.0)
    {
        Ratio &r = m_[name];
        r.num += num;
        r.den += den;
        r.scale = scale;
    }

    void set(const std::string &name, double value) { add(name, value, 1.0); }

    /** add() unless the decomposed pass already measured @p name. */
    void
    fill(const LayerMetrics &path, const std::string &name, double num,
         double den, double scale = 1.0)
    {
        if (!path.has(name))
            add(name, num, den, scale);
    }

    double value(const std::string &name) const
    {
        const auto it = m_.find(name);
        return it == m_.end() ? 0.0 : it->second.value();
    }

    void
    merge(const LayerMetrics &other)
    {
        for (const auto &[name, r] : other.m_)
            if (!has(name))
                m_[name] = r;
    }

  private:
    std::map<std::string, Ratio> m_;
};

/** The per-layer metrics every workload reports, with units. */
const std::vector<std::pair<std::string, std::string>> &
perLayerCatalog()
{
    static const std::vector<std::pair<std::string, std::string>> cat = [] {
        std::vector<std::pair<std::string, std::string>> c = {
            {"trace.generate_ns_per_record", "ns/record"},
            {"trace.load_ns_per_record", "ns/record"},
            {"trace.store_hit_ratio", "ratio"},
            {"trace.resident_mb", "MB"},
            {"sim.record_ns_per_inst", "ns/inst"},
            {"sim.l2_events_per_kinst", "events/kinst"},
            {"sim.replay_ns_per_event", "ns/event"},
            {"sim.full_ns_per_inst", "ns/inst"},
            {"sim.interleaved_ns_per_inst", "ns/inst"},
            {"sim.runner_residual_s", "s"},
            {"sim.jobs_attempted", "count"},
            {"sim.jobs_failed", "count"},
            {"sim.jobs_retried", "count"},
        };
        for (const PolicyKind kind : allPolicyKinds())
            c.push_back({std::string("core.") + policyKindName(kind) +
                             ".replay_ns_per_event",
                         "ns/event"});
        for (const char *p : {"ship", "ghrp", "chirp"})
            c.push_back({std::string("core.") + p +
                             ".table_accesses_per_l2_access",
                         "ratio"});
        c.push_back({"core.chirp.dead_victim_ratio", "ratio"});
        c.push_back({"tlb.translate_ns_per_access", "ns/access"});
        c.push_back({"tlb.l1_misses_per_kinst", "misses/kinst"});
        for (const PolicyKind kind : allPolicyKinds())
            c.push_back({std::string("tlb.l2_mpki.") + policyKindName(kind),
                         "mpki"});
        c.push_back({"tlb.flushes", "count"});
        c.push_back({"tlb.l2_evictions_per_kinst", "evictions/kinst"});
        c.push_back({"mem.access_ns_per_inst", "ns/inst"});
        c.push_back({"branch.ns_per_branch", "ns/branch"});
        c.push_back({"branch.mpki", "mpki"});
        return c;
    }();
    return cat;
}

// ---------------------------------------------------------------------
// Workload plans.

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    bool perturb = false;
    std::string scratchRoot;
    std::string spansPath;
};

struct Variant
{
    std::string name;
    PolicyFactory factory;
};

/** One interleaved run of context_switch: a pair under one schedule. */
struct CsJob
{
    std::size_t a = 0;
    std::size_t b = 0;
    InstCount quantum = 0;
    bool flush = false;
};

struct Plan
{
    std::string name;
    SimConfig config;
    /** Every trace the workload reads, materialized during set-up. */
    std::vector<WorkloadConfig> suite;
    /** variants[0] is LRU; variants[chirpIdx] is default CHiRP. */
    std::vector<Variant> variants;
    std::size_t chirpIdx = 0;
    /** Runner worker threads for the timed pass. */
    unsigned jobs = 1;
    /** context_switch only: the interleaved runs per variant. */
    std::vector<CsJob> csJobs;

    /** Jobs per variant in one pass. */
    std::size_t
    jobCount() const
    {
        return csJobs.empty() ? suite.size() : csJobs.size();
    }
};

unsigned
hostCpus()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

PolicyFactory
chirpWith(unsigned path_events, bool with_branch)
{
    ChirpConfig config;
    config.history.pathEvents = path_events;
    config.history.useCondHist = with_branch;
    config.history.useUncondHist = with_branch;
    return [config](std::uint32_t sets, std::uint32_t assoc) {
        return makeChirp(sets, assoc, config);
    };
}

/** Build the plan for @p opts (enumerates the suite from the seed). */
Plan
makePlan(const Options &opts)
{
    Plan plan;
    plan.name = opts.workload;
    SuiteOptions suite;
    suite.baseSeed = opts.seed;
    if (opts.workload == "policy_sweep") {
        suite.size = opts.tiny ? 6 : 24;
        suite.traceLength = opts.tiny ? 20'000 : 250'000;
        plan.config.simulateCaches = false;
        plan.config.simulateBranch = false;
        for (const PolicyKind kind : allPolicyKinds())
            plan.variants.push_back(
                {policyKindName(kind), Runner::factoryFor(kind)});
        plan.chirpIdx = plan.variants.size() - 1;
        // Two workers exercise the pool while leaving cores free: with
        // a worker on every core, co-tenant load on any one core of a
        // shared host delays the whole pass.
        plan.jobs = 2;
    } else if (opts.workload == "config_sweep") {
        suite.size = opts.tiny ? 6 : 12;
        suite.traceLength = opts.tiny ? 20'000 : 150'000;
        plan.variants.push_back(
            {"lru", Runner::factoryFor(PolicyKind::Lru)});
        // fig02 shape: path length x {PC-only, +branch histories};
        // (16, +br) is the default configuration.
        plan.variants.push_back({"chirp", chirpWith(16, true)});
        plan.chirpIdx = 1;
        plan.variants.push_back({"chirp_len8_pc", chirpWith(8, false)});
        plan.variants.push_back({"chirp_len32_br", chirpWith(32, true)});
    } else if (opts.workload == "context_switch") {
        suite.size = opts.tiny ? 2 : 6;
        suite.traceLength = opts.tiny ? 20'000 : 150'000;
        plan.config.simulateCaches = false;
        plan.config.simulateBranch = false;
        plan.variants.push_back(
            {"lru", Runner::factoryFor(PolicyKind::Lru)});
        plan.variants.push_back(
            {"chirp", Runner::factoryFor(PolicyKind::Chirp)});
        plan.chirpIdx = 1;
        for (std::size_t i = 0; i + 1 < suite.size; i += 2)
            for (const InstCount quantum : {2'000ull, 50'000ull})
                for (const bool flush : {false, true})
                    plan.csJobs.push_back({i, i + 1, quantum, flush});
    } else {
        throw std::invalid_argument("unknown workload '" + opts.workload +
                                    "' (policy_sweep, config_sweep, "
                                    "context_switch)");
    }
    plan.suite = makeSuite(suite);
    // Stratify the footprint scale over makeSuite's log-uniform range:
    // the k-th of K workloads of a category gets the k-th stratum's
    // midpoint, so every seed simulates the same footprint mix and
    // runs with different seeds do comparable work.
    const std::size_t ncat =
        static_cast<std::size_t>(Category::NumCategories);
    const std::size_t per_cat = (plan.suite.size() + ncat - 1) / ncat;
    for (std::size_t i = 0; i < plan.suite.size(); ++i) {
        const double stratum = (static_cast<double>(i / ncat) + 0.5) /
                               static_cast<double>(per_cat);
        plan.suite[i].scale = 0.45 * std::pow(2.0, 2.0 * stratum);
    }
    return plan;
}

std::uint32_t
l2Sets(const SimConfig &config)
{
    return config.tlbs.l2.entries / config.tlbs.l2.assoc;
}

// ---------------------------------------------------------------------
// Results, digest and comparison.

struct PassResult
{
    /** stats[variant][job] */
    std::vector<std::vector<SimStats>> stats;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t retried = 0;
    /** Simulated instructions, warm-up included, over every job. */
    double insts = 0.0;
};

std::uint64_t
doubleBits(double x)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof(bits));
    return bits;
}

std::vector<std::uint64_t>
statsFields(const SimStats &s)
{
    return {s.instructions,   s.warmupInstructions, s.cycles,
            s.l1iTlbAccesses, s.l1iTlbMisses,       s.l1dTlbAccesses,
            s.l1dTlbMisses,   s.l2TlbAccesses,      s.l2TlbHits,
            s.l2TlbMisses,    s.branches,           s.branchMispredicts,
            s.tableReads,     s.tableWrites,        doubleBits(s.l2Efficiency),
            s.walkCycles,     s.walkLatency};
}

bool
sameStats(const SimStats &a, const SimStats &b)
{
    return statsFields(a) == statsFields(b);
}

std::uint64_t
digestOf(const PassResult &result)
{
    std::uint64_t h = mix64(0xc41c9);
    for (const auto &per_variant : result.stats)
        for (const SimStats &s : per_variant)
            for (const std::uint64_t field : statsFields(s))
                h = hashCombine(h, field);
    return h;
}

std::vector<WorkloadResult>
asResults(const std::vector<SimStats> &stats)
{
    std::vector<WorkloadResult> out(stats.size());
    for (std::size_t i = 0; i < stats.size(); ++i)
        out[i].stats = stats[i];
    return out;
}

/** Aggregate num/den over a variant's jobs into @p m. */
void
addVariantCounts(LayerMetrics &m, const Plan &plan, const PassResult &r,
                 std::size_t v)
{
    const std::string p = plan.variants[v].name;
    for (const SimStats &s : r.stats[v]) {
        const double insts = static_cast<double>(s.instructions);
        m.add("tlb.l2_mpki." + p, static_cast<double>(s.l2TlbMisses), insts,
              1000.0);
        if (p == "ship" || p == "ghrp" || p == "chirp")
            m.add("core." + p + ".table_accesses_per_l2_access",
                  static_cast<double>(s.tableReads + s.tableWrites),
                  static_cast<double>(s.l2TlbAccesses));
        if (v == 0) {
            m.add("tlb.l1_misses_per_kinst",
                  static_cast<double>(s.l1iTlbMisses + s.l1dTlbMisses),
                  insts, 1000.0);
            if (plan.config.simulateBranch)
                m.add("branch.mpki",
                      static_cast<double>(s.branchMispredicts), insts,
                      1000.0);
        }
    }
}

// ---------------------------------------------------------------------
// Set-up: enumerate the suite and materialize every trace cold.

struct SetupResult
{
    Plan plan;
    double seconds = 0.0;
    std::uint64_t generated = 0;
};

SetupResult
runSetup(const Options &opts, const std::string &dir, Tracer *tracer,
         LayerMetrics *metrics)
{
    const auto t0 = Clock::now();
    SetupResult out;
    out.plan = makePlan(opts);
    TraceStore store(dir);
    for (std::size_t w = 0; w < out.plan.suite.size(); ++w) {
        const WorkloadConfig &config = out.plan.suite[w];
        const std::uint64_t begin = nowNs();
        int span = tracer ? tracer->open("trace.generate", static_cast<long>(w))
                          : -1;
        const std::size_t records = store.get(config)->size();
        if (tracer)
            tracer->close(span);
        if (metrics)
            metrics->add("trace.generate_ns_per_record",
                         static_cast<double>(nowNs() - begin),
                         static_cast<double>(records));
        // Written to the disk tier; drop it so set-up holds nothing.
        store.drop(config);
    }
    out.generated = store.generated();
    out.seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    return out;
}

// ---------------------------------------------------------------------
// The workload's pass through the program's own entry points: this is
// what --trace 0 times.

PassResult
runPass(const Plan &plan, const Runner &runner)
{
    PassResult r;
    const SuiteHealth &health = *runner.health();
    const std::uint64_t failed0 = health.failureCount();
    const std::uint64_t retried0 = health.retriedJobs();
    r.stats.assign(plan.variants.size(), {});
    if (plan.name == "policy_sweep") {
        std::vector<PolicyFactory> factories;
        std::vector<std::string> tags;
        for (const Variant &v : plan.variants) {
            factories.push_back(v.factory);
            tags.push_back(v.name);
        }
        const auto results =
            runner.runSuiteMulti(plan.suite, factories, "", {}, tags);
        for (std::size_t v = 0; v < results.size(); ++v)
            for (const WorkloadResult &w : results[v])
                r.stats[v].push_back(w.stats);
    } else if (plan.name == "config_sweep") {
        for (std::size_t v = 0; v < plan.variants.size(); ++v)
            for (const WorkloadResult &w :
                 runner.runSuite(plan.suite, plan.variants[v].factory))
                r.stats[v].push_back(w.stats);
    } else {
        const std::uint32_t sets = l2Sets(plan.config);
        for (std::size_t v = 0; v < plan.variants.size(); ++v) {
            for (const CsJob &job : plan.csJobs) {
                SimStats stats;
                try {
                    const auto a = buildWorkload(plan.suite[job.a]);
                    const auto b = buildWorkload(plan.suite[job.b]);
                    Simulator sim(plan.config,
                                  plan.variants[v].factory(
                                      sets, plan.config.tlbs.l2.assoc));
                    stats = sim.runInterleaved({a.get(), b.get()},
                                               job.quantum, job.flush);
                } catch (const std::exception &err) {
                    ++r.failed;
                    std::fprintf(stderr, "context_switch job failed: %s\n",
                                 err.what());
                }
                r.stats[v].push_back(stats);
            }
        }
    }
    r.attempted = plan.variants.size() * plan.jobCount();
    r.failed += health.failureCount() - failed0;
    r.retried = health.retriedJobs() - retried0;
    for (const auto &per_variant : r.stats)
        for (const SimStats &s : per_variant)
            r.insts += static_cast<double>(s.instructions +
                                           s.warmupInstructions);
    return r;
}

// ---------------------------------------------------------------------
// Correctness gate: re-run a sample of jobs through an independent
// full Simulator::run on the materialized traces.

/** Counts which source pulls records, i.e. every context switch. */
struct SwitchCounter
{
    int last = -1;
    std::uint64_t switches = 0;
};

class CountingSource : public TraceSource
{
  public:
    CountingSource(TraceSource &inner, int id, SwitchCounter &counter)
        : inner_(inner), id_(id), counter_(counter)
    {
    }

    bool
    next(TraceRecord &rec) override
    {
        note();
        return inner_.next(rec);
    }

    std::size_t
    nextBatch(TraceRecord *out, std::size_t n) override
    {
        note();
        return inner_.nextBatch(out, n);
    }

    void reset() override { inner_.reset(); }

    InstCount expectedLength() const override
    {
        return inner_.expectedLength();
    }

  private:
    void
    note()
    {
        if (counter_.last != id_) {
            if (counter_.last >= 0)
                ++counter_.switches;
            counter_.last = id_;
        }
    }

    TraceSource &inner_;
    int id_;
    SwitchCounter &counter_;
};

/** (variant, job) pairs the gate re-simulates; always holds (0, 0). */
std::vector<std::pair<std::size_t, std::size_t>>
gateSample(const Plan &plan, std::uint64_t seed)
{
    std::vector<std::pair<std::size_t, std::size_t>> sample = {{0, 0}};
    for (std::size_t v = 0; v < plan.variants.size(); ++v) {
        const std::size_t j = static_cast<std::size_t>(
            mix64(seed * 0x9e3779b97f4a7c15ull + v + 1) % plan.jobCount());
        if (!(v == 0 && j == 0))
            sample.push_back({v, j});
    }
    return sample;
}

std::uint64_t
independentCheck(const Plan &plan, const std::string &warm_dir,
                 const PassResult &result, std::uint64_t seed,
                 std::uint64_t &attempted)
{
    TraceStore store(warm_dir);
    const std::uint32_t sets = l2Sets(plan.config);
    std::uint64_t mismatches = 0;
    for (const auto &[v, j] : gateSample(plan, seed)) {
        ++attempted;
        bool same = false;
        try {
            Simulator sim(plan.config, plan.variants[v].factory(
                                           sets, plan.config.tlbs.l2.assoc));
            SimStats ref;
            if (plan.csJobs.empty()) {
                MemoryTraceSource src(store.get(plan.suite[j]));
                ref = sim.run(src);
            } else {
                const CsJob &job = plan.csJobs[j];
                MemoryTraceSource a(store.get(plan.suite[job.a]));
                MemoryTraceSource b(store.get(plan.suite[job.b]));
                ref = sim.runInterleaved({&a, &b}, job.quantum, job.flush);
            }
            same = sameStats(ref, result.stats[v][j]);
        } catch (const std::exception &err) {
            std::fprintf(stderr, "gate: re-simulation failed: %s\n",
                         err.what());
        }
        for (const WorkloadConfig &config : plan.suite)
            store.drop(config);
        if (!same) {
            ++mismatches;
            std::fprintf(stderr,
                         "gate: %s x job %zu differs from an independent "
                         "Simulator run\n",
                         plan.variants[v].name.c_str(), j);
        }
    }
    return mismatches;
}

/** Every job of @p got must equal @p want (traced decomposition check). */
std::uint64_t
compareAll(const Plan &plan, const PassResult &want, const PassResult &got,
           std::uint64_t &attempted)
{
    std::uint64_t mismatches = 0;
    for (std::size_t v = 0; v < want.stats.size(); ++v) {
        for (std::size_t j = 0; j < want.stats[v].size(); ++j) {
            ++attempted;
            if (!sameStats(want.stats[v][j], got.stats[v][j])) {
                ++mismatches;
                std::fprintf(stderr,
                             "gate: decomposed %s x job %zu differs from "
                             "the Runner's result\n",
                             plan.variants[v].name.c_str(), j);
            }
        }
    }
    return mismatches;
}

// ---------------------------------------------------------------------
// Traced run: the same work as runPass, one layer call per span.

std::vector<TraceRecord>
drainGenerator(const WorkloadConfig &config)
{
    const auto program = buildWorkload(config);
    std::vector<TraceRecord> records;
    records.reserve(static_cast<std::size_t>(program->length()));
    TraceRecord buf[4096];
    std::size_t got = 0;
    while ((got = program->nextBatch(buf, 4096)) > 0)
        records.insert(records.end(), buf, buf + got);
    return records;
}

struct ChirpVictims
{
    double dead = 0.0;
    double lru = 0.0;

    void
    note(const Simulator &sim)
    {
        const auto &chirp =
            dynamic_cast<const ChirpPolicy &>(sim.tlbs().l2().policy());
        dead += static_cast<double>(chirp.deadVictims());
        lru += static_cast<double>(chirp.lruVictims());
    }
};

/**
 * Execute @p plan's pass by calling each layer directly (serially),
 * recording spans and filling the metrics of the layers the pass
 * exercises.  @p resident_mb receives the peak trace bytes it holds.
 */
PassResult
decomposedPass(const Plan &plan, const std::string &warm_dir, Tracer &tr,
               LayerMetrics &m, double &resident_mb)
{
    PassResult r;
    r.stats.assign(plan.variants.size(),
                   std::vector<SimStats>(plan.jobCount()));
    const std::uint32_t sets = l2Sets(plan.config);
    const std::uint32_t assoc = plan.config.tlbs.l2.assoc;
    ChirpVictims victims;
    resident_mb = 0.0;
    if (plan.name == "policy_sweep") {
        TraceStore store(warm_dir);
        for (std::size_t w = 0; w < plan.suite.size(); ++w) {
            const long id = static_cast<long>(w);
            SharedTrace trace;
            double ns = static_cast<double>(tr.time(
                "trace.load", id, [&] { trace = store.get(plan.suite[w]); }));
            const double n = static_cast<double>(trace->size());
            m.add("trace.load_ns_per_record", ns, n);
            resident_mb = std::max(resident_mb, 25.0 * n / 1e6);

            std::vector<L2Event> events;
            SimStats base;
            ns = static_cast<double>(tr.time("sim.record", id, [&] {
                Simulator rec(plan.config,
                              makePolicy(PolicyKind::Lru, sets, assoc));
                rec.tlbs().setL2EventSink(&events);
                MemoryTraceSource src(trace);
                base = rec.run(src);
            }));
            m.add("sim.record_ns_per_inst", ns, n);
            m.add("sim.l2_events_per_kinst",
                  static_cast<double>(events.size()), n, 1000.0);

            std::vector<std::unique_ptr<Simulator>> sims;
            std::vector<SimStats> out;
            ns = static_cast<double>(tr.time("sim.replay", id, [&] {
                std::vector<Simulator *> raw;
                for (const Variant &v : plan.variants) {
                    sims.push_back(std::make_unique<Simulator>(
                        plan.config, v.factory(sets, assoc)));
                    raw.push_back(sims.back().get());
                }
                out = Simulator::replayL2Multi(raw, *trace, events, base);
            }));
            m.add("sim.replay_ns_per_event", ns,
                  static_cast<double>(events.size()));
            for (std::size_t v = 0; v < out.size(); ++v)
                r.stats[v][w] = out[v];
            victims.note(*sims[plan.chirpIdx]);
            store.drop(plan.suite[w]);
        }
        m.add("trace.store_hit_ratio",
              static_cast<double>(store.diskLoads()),
              static_cast<double>(store.diskLoads() + store.generated()));
    } else if (plan.name == "config_sweep") {
        for (std::size_t v = 0; v < plan.variants.size(); ++v) {
            for (std::size_t w = 0; w < plan.suite.size(); ++w) {
                const long id = static_cast<long>(w);
                std::vector<TraceRecord> records;
                double ns = static_cast<double>(tr.time(
                    "trace.generate", id,
                    [&] { records = drainGenerator(plan.suite[w]); }));
                const double n = static_cast<double>(records.size());
                m.add("trace.generate_ns_per_record", ns, n);
                resident_mb = std::max(
                    resident_mb, n * sizeof(TraceRecord) / 1e6);
                ns = static_cast<double>(tr.time("sim.full", id, [&] {
                    Simulator sim(plan.config,
                                  plan.variants[v].factory(sets, assoc));
                    VectorSource src(std::move(records));
                    r.stats[v][w] = sim.run(src);
                    if (v == plan.chirpIdx)
                        victims.note(sim);
                }));
                m.add("sim.full_ns_per_inst", ns, n);
            }
        }
    } else {
        std::uint64_t flushes = 0;
        for (std::size_t v = 0; v < plan.variants.size(); ++v) {
            for (std::size_t j = 0; j < plan.csJobs.size(); ++j) {
                const CsJob &job = plan.csJobs[j];
                const long id = static_cast<long>(j);
                std::vector<TraceRecord> a, b;
                double ns = static_cast<double>(
                    tr.time("trace.generate", id, [&] {
                        a = drainGenerator(plan.suite[job.a]);
                        b = drainGenerator(plan.suite[job.b]);
                    }));
                const double n = static_cast<double>(a.size() + b.size());
                m.add("trace.generate_ns_per_record", ns, n);
                resident_mb = std::max(
                    resident_mb, n * sizeof(TraceRecord) / 1e6);
                SwitchCounter counter;
                double evictions = 0.0;
                ns = static_cast<double>(tr.time("sim.interleaved", id, [&] {
                    Simulator sim(plan.config,
                                  plan.variants[v].factory(sets, assoc));
                    VectorSource sa(std::move(a)), sb(std::move(b));
                    CountingSource ca(sa, 0, counter), cb(sb, 1, counter);
                    r.stats[v][j] =
                        sim.runInterleaved({&ca, &cb}, job.quantum, job.flush);
                    evictions =
                        static_cast<double>(sim.tlbs().l2().evictions());
                    if (v == plan.chirpIdx)
                        victims.note(sim);
                }));
                m.add("sim.interleaved_ns_per_inst", ns, n);
                m.add("tlb.l2_evictions_per_kinst", evictions, n, 1000.0);
                if (job.flush)
                    flushes += counter.switches;
            }
        }
        m.set("tlb.flushes", static_cast<double>(flushes));
    }
    m.add("core.chirp.dead_victim_ratio", victims.dead,
          victims.dead + victims.lru);
    for (std::size_t v = 0; v < plan.variants.size(); ++v)
        addVariantCounts(m, plan, r, v);
    r.attempted = plan.variants.size() * plan.jobCount();
    return r;
}

/**
 * Layer probes over the first traces of the workload: the layers its
 * pass cannot separate (TLB, caches, branch unit, one-lane replays)
 * and those it does not exercise at all, so every workload reports the
 * full per-layer set.  Values the decomposed pass measured (in @p
 * path) are never overwritten.
 */
void
probeLayers(const Plan &plan, const std::string &warm_dir, Tracer &tr,
            const LayerMetrics &path, LayerMetrics &m)
{
    const std::size_t k = std::min<std::size_t>(2, plan.suite.size());
    SimConfig mpki = plan.config;
    mpki.simulateCaches = false;
    mpki.simulateBranch = false;
    SimConfig full = plan.config;
    full.simulateCaches = true;
    full.simulateBranch = true;
    const std::uint32_t sets = l2Sets(mpki);
    const std::uint32_t assoc = mpki.tlbs.l2.assoc;

    TraceStore store(warm_dir);
    std::vector<SharedTrace> traces;
    for (std::size_t i = 0; i < k; ++i) {
        SharedTrace trace;
        const double ns = static_cast<double>(tr.time(
            "trace.load", static_cast<long>(i),
            [&] { trace = store.get(plan.suite[i]); }));
        m.fill(path, "trace.load_ns_per_record", ns,
               static_cast<double>(trace->size()));
        traces.push_back(trace);
        store.drop(plan.suite[i]);
    }
    m.fill(path, "trace.store_hit_ratio",
           static_cast<double>(store.diskLoads()),
           static_cast<double>(store.diskLoads() + store.generated()));

    volatile Cycles sink = 0;
    for (std::size_t i = 0; i < k; ++i) {
        const long id = static_cast<long>(i);
        const ColumnarTrace &trace = *traces[i];
        const std::size_t n = trace.size();
        const double dn = static_cast<double>(n);

        std::vector<L2Event> events;
        SimStats base;
        double ns = static_cast<double>(tr.time("sim.record", id, [&] {
            Simulator rec(mpki, makePolicy(PolicyKind::Lru, sets, assoc));
            rec.tlbs().setL2EventSink(&events);
            MemoryTraceSource src(traces[i]);
            base = rec.run(src);
        }));
        const double ne = static_cast<double>(events.size());
        m.fill(path, "sim.record_ns_per_inst", ns, dn);
        m.fill(path, "sim.l2_events_per_kinst", ne, dn, 1000.0);

        if (!path.has("sim.replay_ns_per_event")) {
            std::vector<std::unique_ptr<Simulator>> sims;
            std::vector<Simulator *> raw;
            for (const PolicyKind kind : allPolicyKinds()) {
                sims.push_back(std::make_unique<Simulator>(
                    mpki, makePolicy(kind, sets, assoc)));
                raw.push_back(sims.back().get());
            }
            ns = static_cast<double>(tr.time("sim.replay", id, [&] {
                Simulator::replayL2Multi(raw, trace, events, base);
            }));
            m.add("sim.replay_ns_per_event", ns, ne);
        }

        for (const PolicyKind kind : allPolicyKinds()) {
            const std::string p = policyKindName(kind);
            Simulator sim(mpki, makePolicy(kind, sets, assoc));
            std::vector<SimStats> out;
            ns = static_cast<double>(tr.time("core." + p + ".replay", id, [&] {
                out = Simulator::replayL2Multi({&sim}, trace, events, base);
            }));
            m.add("core." + p + ".replay_ns_per_event", ns, ne);
            const SimStats &s = out[0];
            m.fill(path, "tlb.l2_mpki." + p,
                   static_cast<double>(s.l2TlbMisses),
                   static_cast<double>(s.instructions), 1000.0);
            m.fill(path, "core." + p + ".table_accesses_per_l2_access",
                   static_cast<double>(s.tableReads + s.tableWrites),
                   static_cast<double>(s.l2TlbAccesses));
            if (kind == PolicyKind::Chirp && !path.has(
                    "core.chirp.dead_victim_ratio")) {
                ChirpVictims victims;
                victims.note(sim);
                m.add("core.chirp.dead_victim_ratio", victims.dead,
                      victims.dead + victims.lru);
            }
        }

        auto tlbs = TlbHierarchy::makeDefault(
            makePolicy(PolicyKind::Lru, sets, assoc),
            std::make_unique<FixedLatencyWalker>(mpki.pageWalkLatency));
        double accesses = 0.0;
        ns = static_cast<double>(tr.time("tlb.translate", id, [&] {
            Cycles stall = 0;
            for (std::size_t j = 0; j < n; ++j) {
                AccessInfo info;
                info.pc = trace.pc()[j];
                info.vaddr = info.pc;
                info.cls = trace.cls(j);
                info.isInstr = true;
                stall += tlbs->translate(info, 1, j).stall;
                if (isMemory(info.cls)) {
                    info.vaddr = trace.effAddr()[j];
                    info.isInstr = false;
                    stall += tlbs->translate(info, 1, j).stall;
                    accesses += 1.0;
                }
            }
            sink = sink + stall;
        }));
        m.add("tlb.translate_ns_per_access", ns, accesses + dn);

        CacheHierarchy caches(full.caches);
        ns = static_cast<double>(tr.time("mem.access", id, [&] {
            Cycles cost = 0;
            for (std::size_t j = 0; j < n; ++j) {
                cost += caches.accessInstr(trace.pc()[j]);
                const InstClass cls = trace.cls(j);
                if (isMemory(cls))
                    cost += caches.accessData(trace.effAddr()[j],
                                              cls == InstClass::Store);
            }
            sink = sink + cost;
        }));
        m.add("mem.access_ns_per_inst", ns, dn);

        BranchUnit branch(full.branch);
        double nbranch = 0.0;
        ns = static_cast<double>(tr.time("branch.on_branch", id, [&] {
            Cycles cost = 0;
            for (std::size_t j = 0; j < n; ++j) {
                if (!isBranch(trace.cls(j)))
                    continue;
                cost += branch.onBranch(trace.record(j));
                nbranch += 1.0;
            }
            sink = sink + cost;
        }));
        m.add("branch.ns_per_branch", ns, nbranch);

        if (!path.has("sim.full_ns_per_inst")) {
            SimStats s;
            ns = static_cast<double>(tr.time("sim.full", id, [&] {
                Simulator sim(full, makePolicy(PolicyKind::Lru, sets, assoc));
                MemoryTraceSource src(traces[i]);
                s = sim.run(src);
            }));
            m.add("sim.full_ns_per_inst", ns, dn);
            m.fill(path, "branch.mpki",
                   static_cast<double>(s.branchMispredicts),
                   static_cast<double>(s.instructions), 1000.0);
        }
    }

    if (!path.has("sim.interleaved_ns_per_inst")) {
        MemoryTraceSource a(traces.front()), b(traces.back());
        SwitchCounter counter;
        CountingSource ca(a, 0, counter), cb(b, 1, counter);
        double evictions = 0.0;
        const double ns =
            static_cast<double>(tr.time("sim.interleaved", 0, [&] {
                Simulator sim(mpki,
                              makePolicy(PolicyKind::Lru, sets, assoc));
                sim.runInterleaved({&ca, &cb}, 50'000,
                                   /*flush_on_switch=*/true);
                evictions =
                    static_cast<double>(sim.tlbs().l2().evictions());
            }));
        const double n =
            static_cast<double>(traces.front()->size() + traces.back()->size());
        m.add("sim.interleaved_ns_per_inst", ns, n);
        m.fill(path, "tlb.l2_evictions_per_kinst", evictions, n, 1000.0);
        m.fill(path, "tlb.flushes", static_cast<double>(counter.switches),
               1.0);
    }
}

// ---------------------------------------------------------------------
// Driver.

/** Removes the run's scratch directory on every exit path. */
struct ScratchDir
{
    std::string path;

    explicit ScratchDir(const std::string &root)
    {
        std::filesystem::create_directories(root);
        std::string templ = root + "/run-XXXXXX";
        if (!mkdtemp(templ.data()))
            throw std::runtime_error("cannot create scratch dir under " +
                                     root);
        path = templ;
    }

    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
};

/**
 * Polls how many traces @p store holds, on its own thread, until
 * destroyed; the peak feeds trace.resident_mb.
 */
class ResidencySampler
{
  public:
    explicit ResidencySampler(const TraceStore &store)
        : thread_([this, &store] {
              while (!stop_.load()) {
                  peak_ = std::max(peak_, store.residentTraces());
                  std::this_thread::sleep_for(
                      std::chrono::microseconds(500));
              }
          })
    {
    }

    ResidencySampler(const ResidencySampler &) = delete;
    ResidencySampler &operator=(const ResidencySampler &) = delete;

    ~ResidencySampler() { stopAndJoin(); }

    /** Stop sampling; returns the peak resident trace count. */
    std::size_t
    stopAndJoin()
    {
        stop_ = true;
        if (thread_.joinable())
            thread_.join();
        return peak_;
    }

  private:
    std::atomic<bool> stop_{false};
    std::size_t peak_ = 0;
    std::thread thread_;
};

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload")
            opts.workload = value();
        else if (arg == "--seed")
            opts.seed = std::stoull(value());
        else if (arg == "--seconds")
            opts.seconds = std::stod(value());
        else if (arg == "--trace")
            opts.trace = value() != "0";
        else if (arg == "--scratch-root")
            opts.scratchRoot = value();
        else if (arg == "--spans")
            opts.spansPath = value();
        else if (arg == "--tiny")
            opts.tiny = true;
        else if (arg == "--perturb")
            opts.perturb = true;
        else
            throw std::invalid_argument("unknown argument '" + arg + "'");
    }
    if (opts.workload.empty() || opts.scratchRoot.empty())
        throw std::invalid_argument(
            "usage: chirp_perfbench --workload NAME --seed N --seconds S "
            "--trace 0|1 --scratch-root DIR [--spans PATH] [--tiny] "
            "[--perturb]");
    return opts;
}

/** Names of CHIRP_* variables in the environment. */
std::vector<std::string>
chirpEnvironment()
{
    std::vector<std::string> names;
    for (char **env = environ; env && *env; ++env)
        if (std::strncmp(*env, "CHIRP_", 6) == 0)
            names.emplace_back(*env, std::strcspn(*env, "="));
    return names;
}

double
peakRssMb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KB -> MB
}

Runner
makeRunner(const Plan &plan, const std::string &warm_dir, unsigned jobs,
           const std::shared_ptr<SuiteHealth> &health)
{
    Runner runner(plan.config, jobs);
    runner.setTraceCacheDir(warm_dir);
    runner.setHealth(health);
    return runner;
}

template <typename Fn>
double
wallSeconds(Fn &&fn)
{
    const auto t0 = Clock::now();
    fn();
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

void
printHeader(const Options &opts, const Plan &plan)
{
    std::printf("# chirp perfbench: workload=%s seed=%" PRIu64
                " trace=%d%s\n",
                plan.name.c_str(), opts.seed, opts.trace ? 1 : 0,
                opts.tiny ? " (tiny)" : "");
    std::printf("# host: nproc=%u runner_jobs=%u simd=%s build=%s\n",
                hostCpus(), plan.jobs,
                simd::backendName(simd::activeBackend()),
                CHIRP_PERFBENCH_BUILD_TYPE);
    std::printf("# inputs: %zu traces x %" PRIu64
                " records, %zu variants x %zu jobs, %s model\n",
                plan.suite.size(),
                static_cast<std::uint64_t>(plan.suite.front().length),
                plan.variants.size(), plan.jobCount(),
                plan.config.simulateCaches ? "full timing" : "MPKI-only");
}

struct Metric
{
    std::string name;
    std::string unit;
    double value;
};

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double v = std::isfinite(metrics[i].value) ? metrics[i].value
                                                         : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), v,
                    metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

double
chirpMpkiReductionPct(const Plan &plan, const PassResult &r)
{
    return mpkiReductionPct(asResults(r.stats[0]),
                            asResults(r.stats[plan.chirpIdx]));
}

double
chirpSpeedupPct(const Plan &plan, const PassResult &r)
{
    return speedupPct(asResults(r.stats[0]),
                      asResults(r.stats[plan.chirpIdx]),
                      plan.config.pageWalkLatency);
}

/** --trace 0: end-to-end metrics. */
int
runUntraced(const Options &opts, const ScratchDir &scratch)
{
    constexpr int kSetupReps = 7;
    std::vector<double> setup_times;
    std::string warm_dir;
    Plan plan;
    std::uint64_t failed = 0;
    double ready_s = 0.0;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const std::string dir =
            scratch.path + "/setup-" + std::to_string(rep);
        SetupResult s = runSetup(opts, dir, nullptr, nullptr);
        if (rep == 0)
            ready_s = 1e-9 * static_cast<double>(nowNs());
        setup_times.push_back(s.seconds);
        if (s.generated != s.plan.suite.size()) {
            // A warm hit would mean an earlier run leaked into this one.
            std::fprintf(stderr, "setup: %" PRIu64 " of %zu traces were "
                         "not generated cold\n",
                         s.plan.suite.size() - s.generated,
                         s.plan.suite.size());
            ++failed;
        }
        if (!warm_dir.empty()) {
            std::error_code ec;
            std::filesystem::remove_all(warm_dir, ec);
        }
        warm_dir = dir;
        plan = std::move(s.plan);
    }
    printHeader(opts, plan);
    std::printf("# process start to inputs ready: %.3f s\n", ready_s);

    auto health = std::make_shared<SuiteHealth>();
    const Runner runner = makeRunner(plan, warm_dir, plan.jobs, health);
    std::vector<double> pass_times;
    std::vector<std::uint64_t> digests;
    PassResult first;
    std::uint64_t attempted = 0;
    const auto start = Clock::now();
    do {
        PassResult r;
        pass_times.push_back(wallSeconds([&] { r = runPass(plan, runner); }));
        digests.push_back(digestOf(r));
        attempted += r.attempted;
        failed += r.failed;
        if (first.stats.empty())
            first = std::move(r);
    } while (pass_times.size() < 10 ||
             std::chrono::duration<double>(Clock::now() - start).count() <
                 opts.seconds);

    // Correctness gate, outside the timed region.
    std::uint64_t unstable = 0;
    for (const std::uint64_t d : digests)
        unstable += d != digests.front();
    if (unstable)
        std::fprintf(stderr, "gate: stats digest changed in %" PRIu64
                     " of %zu passes\n", unstable, digests.size());
    if (opts.perturb)
        first.stats[0][0].l2TlbMisses += 1;
    const std::uint64_t mismatches =
        independentCheck(plan, warm_dir, first, opts.seed, attempted);
    failed += unstable + mismatches;

    // The lower decile, not the median: co-tenants on a shared host
    // slow whole stretches of a run by up to 1.7x, which moves the
    // median of one run against the next by 10-25%; the fastest tenth
    // of the passes stays within a few percent.
    const double sweep_s = quantile(pass_times, 0.1);
    const double mpki_red = chirpMpkiReductionPct(plan, first);
    std::printf("# passes: %zu in %.2f s; pass p10 %.4f s, median %.4f s, "
                "p90 %.4f s, max %.4f s\n",
                pass_times.size(),
                std::chrono::duration<double>(Clock::now() - start).count(),
                sweep_s, median(pass_times), quantile(pass_times, 0.9),
                *std::max_element(pass_times.begin(), pass_times.end()));
    std::printf("# setup reps (s):");
    for (const double t : setup_times)
        std::printf(" %.4f", t);
    std::printf("\n# stats_digest: %016" PRIx64 "\n", digests.front());
    std::printf("# chirp_mpki_reduction_pct: %.2f (paper: 28.21; synthetic "
                "traces, unvalidated against CVP-1; no error figure)\n",
                mpki_red);
    std::printf("# chirp_speedup_pct: %.3f at walk penalty %" PRIu64 "\n",
                chirpSpeedupPct(plan, first),
                static_cast<std::uint64_t>(plan.config.pageWalkLatency));
    std::printf("# gate: %" PRIu64 " mismatches, %" PRIu64
                " unstable digests, %" PRIu64 " failed of %" PRIu64
                " attempted\n",
                mismatches, unstable, failed, attempted);

    printResult(failed == 0, attempted, failed,
                {{"setup_s", "s", median(setup_times)},
                 {"sweep_s", "s", sweep_s},
                 {"sim_minst_per_s", "Minst/s", first.insts / sweep_s / 1e6},
                 {"peak_rss_mb", "MB", peakRssMb()},
                 // Reported as a share of LRU rather than as the
                 // reduction/speedup itself: those sit near zero on
                 // short traces, where a relative spread means nothing.
                 {"chirp_mpki_pct_of_lru", "%", 100.0 - mpki_red},
                 {"chirp_ipc_pct_of_lru", "%",
                  100.0 + chirpSpeedupPct(plan, first)},
                 {"job_success_pct", "%",
                  100.0 * (1.0 - static_cast<double>(failed) /
                                     static_cast<double>(attempted))}});
    return failed == 0 ? 0 : 1;
}

/** --trace 1: per-layer metrics from a decomposed, spanned run. */
int
runTraced(const Options &opts, const ScratchDir &scratch)
{
    Tracer tr;
    LayerMetrics path, probe;
    const std::string warm_dir = scratch.path + "/setup-0";
    const int setup_span = tr.open("setup");
    SetupResult s = runSetup(opts, warm_dir, &tr, &path);
    tr.close(setup_span);
    const Plan plan = std::move(s.plan);
    printHeader(opts, plan);

    // Reference: the untraced pass with the workload's own job count,
    // sampling how many traces the store holds at once.
    auto health = std::make_shared<SuiteHealth>();
    const Runner runner = makeRunner(plan, warm_dir, plan.jobs, health);
    ResidencySampler sampler(runner.traceStore());
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t retried = 0;
    PassResult ref;
    // Median wall of a few untraced passes through @p with.
    auto reference = [&](const Runner &with) {
        std::vector<double> times;
        for (int i = 0; i < 3; ++i) {
            PassResult r;
            times.push_back(wallSeconds([&] { r = runPass(plan, with); }));
            attempted += r.attempted;
            failed += r.failed;
            retried += r.retried;
            if (ref.stats.empty())
                ref = std::move(r);
        }
        return median(times);
    };
    const double sweep_s = reference(runner);
    const std::size_t peak_traces = sampler.stopAndJoin();

    // The residual compares like with like: a serial Runner call.
    const double serial_s =
        plan.jobs > 1 ? reference(makeRunner(plan, warm_dir, 1, health))
                      : sweep_s;

    double resident_mb = 0.0;
    const int dec_span = tr.open("decomposed");
    const PassResult dec =
        decomposedPass(plan, warm_dir, tr, path, resident_mb);
    tr.close(dec_span);
    const int probe_span = tr.open("probe");
    probeLayers(plan, warm_dir, tr, path, probe);
    tr.close(probe_span);
    attempted += dec.attempted;

    if (opts.perturb)
        ref.stats[0][0].l2TlbMisses += 1;
    const std::uint64_t mismatches =
        compareAll(plan, ref, dec, attempted) +
        independentCheck(plan, warm_dir, ref, opts.seed, attempted);
    failed += mismatches;

    const double dec_s = tr.seconds(dec_span);
    const double spans_s = tr.childSeconds(dec_span);
    const double residual_s = serial_s - spans_s;
    if (plan.name == "policy_sweep")
        resident_mb = std::max(
            resident_mb, 25.0 * static_cast<double>(peak_traces) *
                             static_cast<double>(plan.suite.front().length) /
                             1e6);
    path.set("trace.resident_mb", resident_mb);
    path.set("sim.runner_residual_s", residual_s);
    path.set("sim.jobs_attempted", static_cast<double>(attempted));
    path.set("sim.jobs_failed", static_cast<double>(failed));
    path.set("sim.jobs_retried", static_cast<double>(retried));
    path.merge(probe);

    std::printf("# per-layer self time, decomposed pass (%.4f s):\n", dec_s);
    for (const auto &[name, self] : tr.selfSeconds(dec_span))
        std::printf("#   %-22s %9.4f s  %5.1f%%\n", name.c_str(), self,
                    100.0 * self / dec_s);
    std::printf("#   %-22s %9.4f s  %5.1f%%  (pass loop outside spans)\n",
                "unspanned", dec_s - spans_s,
                100.0 * (dec_s - spans_s) / dec_s);
    std::printf("# serial Runner call %.4f s = layer spans %.4f s + "
                "runner residual %.4f s\n",
                serial_s, spans_s, residual_s);
    std::printf("# untraced pass (sweep_s, %u jobs) %.4f s; "
                "tracing/decomposition overhead %+.1f%% vs sweep_s, "
                "%+.1f%% vs the serial Runner call\n",
                plan.jobs, sweep_s, 100.0 * (dec_s / sweep_s - 1.0),
                100.0 * (dec_s / serial_s - 1.0));
    std::printf("# layer probes (outside the accounting, %.4f s):\n",
                tr.seconds(probe_span));
    for (const auto &[name, self] : tr.selfSeconds(probe_span))
        std::printf("#   %-28s %9.4f s\n", name.c_str(), self);
    std::printf("# stats_digest: %016" PRIx64 "\n", digestOf(ref));
    std::printf("# chirp_mpki_reduction_pct: %.2f (paper: 28.21; synthetic "
                "traces, unvalidated against CVP-1; no error figure)\n",
                chirpMpkiReductionPct(plan, ref));
    std::printf("# gate: %" PRIu64 " mismatches, %" PRIu64 " failed of %" PRIu64
                " attempted\n",
                mismatches, failed, attempted);
    if (!opts.spansPath.empty()) {
        std::filesystem::create_directories(
            std::filesystem::path(opts.spansPath).parent_path());
        if (tr.writeJsonl(opts.spansPath))
            std::printf("# spans: %zu written to %s\n", tr.spans().size(),
                        opts.spansPath.c_str());
    }

    std::vector<Metric> metrics;
    for (const auto &[name, unit] : perLayerCatalog()) {
        if (!path.has(name))
            throw std::logic_error("per-layer metric " + name +
                                   " was not measured");
        metrics.push_back({name, unit, path.value(name)});
    }
    printResult(failed == 0, attempted, failed, metrics);
    return failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> env = chirpEnvironment();
    if (!env.empty()) {
        // Those switches select a different program (trace format,
        // replay mode, fault injection, shared trace cache).
        std::fprintf(stderr, "perfbench: refusing to run with %s set\n",
                     env.front().c_str());
        return 2;
    }
    try {
        const Options opts = parseArgs(argc, argv);
        const ScratchDir scratch(opts.scratchRoot);
        return opts.trace ? runTraced(opts, scratch)
                          : runUntraced(opts, scratch);
    } catch (const std::exception &err) {
        std::fprintf(stderr, "perfbench: %s\n", err.what());
        return 2;
    }
}
