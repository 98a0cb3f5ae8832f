#include "sim/runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <future>
#include <thread>

#include "core/chirp.hh"
#include "core/ghrp.hh"
#include "sim/run_journal.hh"
#include "sim/simulator.hh"
#include "trace/ingest/ingest.hh"
#include "util/bitfield.hh"
#include "util/fault_injection.hh"
#include "util/logging.hh"
#include "util/progress.hh"
#include "util/stats.hh"
#include "util/thread_pool.hh"

namespace chirp
{

namespace
{

/**
 * One CHiRP signature-stream group: every CHiRP variant whose
 * signatures are configured identically (same history shape and
 * signature width — the common case in parameter sweeps) shares one
 * precomputed stream, because table geometry, hash, thresholds and
 * training knobs never touch the histories.
 */
struct SigGroup
{
    HistoryConfig history;
    unsigned signatureBits = 0;
    std::vector<std::uint16_t> sigs;
};

/**
 * GHRP's analog: the global history register depends only on
 * historyShift — masks and signature width all apply downstream of
 * it — so variants sharing that field share one register stream.
 */
struct GhrpGroup
{
    unsigned historyShift = 0;
    std::vector<std::uint64_t> hists;
};

/**
 * Advance a GHRP global history register over records @p lo .. @p hi
 * - 1: each retired conditional branch shifts in its PC slice and
 * outcome.
 */
std::uint64_t
ghrpRetireRun(std::uint64_t hist, unsigned shift, const Addr *pcs,
              const std::uint8_t *meta, std::size_t lo, std::size_t hi)
{
    for (std::size_t j = lo; j < hi; ++j) {
        if (static_cast<InstClass>(meta[j] & ColumnarTrace::kClsMask) !=
            InstClass::CondBranch)
            continue;
        const std::uint64_t event =
            (bits(pcs[j], shift, 2) << 1) |
            ((meta[j] & ColumnarTrace::kTakenBit) != 0 ? 1 : 0);
        hist = (hist << shift) | event;
    }
    return hist;
}

/**
 * Precompute every group's replay stream in a single walk of the
 * record stream: at each L2 event capture, per CHiRP group,
 * foldXor(history.signature(pc), signatureBits) — and per GHRP
 * group the current global history register — using the pre-update
 * state exactly as onAccessBegin does.  Between two events, each
 * group retires the records in between as one run (onInstRetired's
 * path filter and onBranchRetired's class split for CHiRP, the
 * conditional-branch outcome/address shift for GHRP).  Sharing the
 * walk means the 30M-record retire stream is touched once per
 * workload however many streamed policies ride on it.
 */
void
computeReplayStreams(std::vector<SigGroup> &groups,
                     std::vector<GhrpGroup> &ghrp_groups,
                     const ColumnarTrace &records,
                     const std::vector<L2Event> &events)
{
    if (groups.empty() && ghrp_groups.empty())
        return;
    std::vector<ControlFlowHistory> hist;
    hist.reserve(groups.size());
    for (SigGroup &group : groups) {
        group.sigs.reserve(events.size());
        hist.emplace_back(group.history);
    }
    std::vector<std::uint64_t> ghist(ghrp_groups.size(), 0);
    for (GhrpGroup &group : ghrp_groups)
        group.hists.reserve(events.size());
    // Only the pc and meta columns feed the histories; the effective
    // address and target columns are never touched here.  Records
    // after the last event can no longer matter.
    const Addr *pcs = records.pc();
    const std::uint8_t *meta = records.meta();
    const auto cls_at = [meta](std::size_t j) {
        return static_cast<InstClass>(meta[j] & ColumnarTrace::kClsMask);
    };
    std::size_t retired = 0;
    for (std::size_t e = 0; e < events.size();) {
        const auto now = static_cast<std::size_t>(events[e].now);
        for (ControlFlowHistory &h : hist)
            h.retireRun(pcs, retired, now, cls_at);
        for (std::size_t g = 0; g < ghrp_groups.size(); ++g)
            ghist[g] = ghrpRetireRun(ghist[g], ghrp_groups[g].historyShift,
                                     pcs, meta, retired, now);
        retired = now;
        for (; e < events.size() && events[e].now == now; ++e) {
            for (std::size_t g = 0; g < groups.size(); ++g) {
                groups[g].sigs.push_back(
                    static_cast<std::uint16_t>(foldXor(
                        hist[g].signature(events[e].pc),
                        groups[g].signatureBits)));
            }
            for (std::size_t g = 0; g < ghrp_groups.size(); ++g)
                ghrp_groups[g].hists.push_back(ghist[g]);
        }
    }
}

/**
 * Is the policy-parallel batch replay enabled?  On by default; set
 * CHIRP_POLICY_PARALLEL=0 to force the legacy one-replay-per-policy
 * walk (the CI equality leg diffs the two).  Read per suite call so
 * tests can flip it between runs in one process.
 */
bool
policyParallelReplay()
{
    const char *value = std::getenv("CHIRP_POLICY_PARALLEL");
    return !(value != nullptr && value[0] == '0' && value[1] == '\0');
}

/**
 * Cancels jobs whose current attempt exceeds the --job-timeout
 * budget.  One slot per concurrently-guarded job; a scan thread wakes
 * a few times per timeout period, and an overrunning attempt is
 * flagged, warned about once, and has its cancel token raised — the
 * simulator polls the token at its cancellation points and aborts the
 * attempt with JobCancelled, which the guard records as timed-out
 * (never retried).  Inert (no thread, no locking) when the timeout is
 * 0.
 */
class Watchdog
{
  public:
    Watchdog(std::uint64_t timeout_ms, std::size_t slots)
        : timeoutMs_(timeout_ms), slots_(slots)
    {
        if (timeoutMs_ == 0)
            return;
        tokens_.reserve(slots);
        for (std::size_t i = 0; i < slots; ++i)
            tokens_.push_back(
                std::make_unique<std::atomic<bool>>(false));
        scanner_ = std::thread([this] { scan(); });
    }

    ~Watchdog()
    {
        if (!scanner_.joinable())
            return;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stopping_ = true;
        }
        cv_.notify_all();
        scanner_.join();
    }

    /** Begin timing one attempt of the job in @p slot. */
    void
    start(std::size_t slot, const std::string &desc)
    {
        if (timeoutMs_ == 0)
            return;
        std::lock_guard<std::mutex> lock(mutex_);
        slots_[slot] = {Clock::now(), desc, true, false};
        tokens_[slot]->store(false, std::memory_order_relaxed);
    }

    /**
     * Cancel token for @p slot, for Simulator::setCancelToken; null
     * when the watchdog is inert.
     */
    const std::atomic<bool> *
    token(std::size_t slot) const
    {
        return timeoutMs_ == 0 ? nullptr : tokens_[slot].get();
    }

    /** Stop timing @p slot; true when the attempt was flagged. */
    bool
    finish(std::size_t slot)
    {
        if (timeoutMs_ == 0)
            return false;
        std::lock_guard<std::mutex> lock(mutex_);
        slots_[slot].running = false;
        return slots_[slot].flagged;
    }

  private:
    using Clock = std::chrono::steady_clock;

    struct Slot
    {
        Clock::time_point start{};
        std::string desc;
        bool running = false;
        bool flagged = false;
    };

    void
    scan()
    {
        const auto period = std::chrono::milliseconds(
            std::max<std::uint64_t>(10, timeoutMs_ / 4));
        const auto budget = std::chrono::milliseconds(timeoutMs_);
        std::unique_lock<std::mutex> lock(mutex_);
        while (!stopping_) {
            cv_.wait_for(lock, period);
            const auto now = Clock::now();
            for (std::size_t i = 0; i < slots_.size(); ++i) {
                Slot &slot = slots_[i];
                if (!slot.running || slot.flagged)
                    continue;
                if (now - slot.start >= budget) {
                    slot.flagged = true;
                    tokens_[i]->store(true,
                                      std::memory_order_relaxed);
                    chirp_warn("watchdog: job '", slot.desc,
                               "' exceeded --job-timeout (", timeoutMs_,
                               " ms); cancelling the attempt");
                }
            }
        }
    }

    const std::uint64_t timeoutMs_;
    std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<Slot> slots_;
    std::vector<std::unique_ptr<std::atomic<bool>>> tokens_;
    bool stopping_ = false;
    std::thread scanner_;
};

/** What runGuarded observed across every attempt of one job. */
struct GuardOutcome
{
    bool ok = false;
    bool hung = false;
    bool timedOut = false;
    unsigned attempts = 0;
    std::uint64_t wallNs = 0;
    std::string error;
};

/**
 * Run @p body under the suite isolation contract: catch everything,
 * retry TransientError up to @p retries extra attempts, time each
 * attempt under the watchdog.  @p body must be idempotent — it runs
 * once per attempt and must not observe partial state from a failed
 * previous attempt.
 */
template <typename Body>
GuardOutcome
runGuarded(unsigned retries, Watchdog &dog, std::size_t slot,
           const std::string &desc, Body &&body)
{
    GuardOutcome out;
    for (;;) {
        ++out.attempts;
        dog.start(slot, desc);
        const auto begin = std::chrono::steady_clock::now();
        bool transient = false;
        try {
            FaultInjector::instance().onJobStart();
            body();
            out.ok = true;
            out.error.clear();
        } catch (const JobCancelled &err) {
            // Enforced timeout: the watchdog cancelled the attempt.
            // Never retried — a deterministic job that blew the
            // budget once will blow it again.
            out.timedOut = true;
            out.error = err.what();
        } catch (const IngestError &err) {
            // Watchdog cancellation surfacing through the ingest
            // front-end is a timeout like JobCancelled; every other
            // ingest failure (hostile file, blown budget) is an
            // ordinary job failure the suite survives.
            if (err.kind() == DecodeErrorKind::Cancelled ||
                err.kind() == DecodeErrorKind::Timeout) {
                out.timedOut = true;
            }
            out.error = err.what();
        } catch (const TransientError &err) {
            transient = true;
            out.error = err.what();
        } catch (const std::exception &err) {
            out.error = err.what();
        } catch (...) {
            out.error = "unknown exception";
        }
        out.wallNs += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - begin)
                .count());
        out.hung |= dog.finish(slot);
        if (out.ok || !transient || out.attempts > retries)
            return out;
    }
}

/**
 * Per-suite-run collector: forwards every outcome to the shared
 * SuiteHealth ledger and prints one failure summary when the run
 * finishes, so a long bench says what broke right where it broke.
 */
class RunLedger
{
  public:
    RunLedger(std::string label, std::shared_ptr<SuiteHealth> health,
              bool journaled)
        : label_(std::move(label)), health_(std::move(health)),
          journaled_(journaled)
    {
    }

    void
    add(JobResult job)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++total_;
        if (health_)
            health_->add(job);
        if (!job.ok)
            failures_.push_back(std::move(job));
    }

    void
    summarize() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (failures_.empty())
            return;
        chirp_warn("suite '", label_, "': ", failures_.size(), " of ",
                   total_, " jobs failed");
        for (const JobResult &job : failures_) {
            chirp_warn("  ", job.workload, " x ", job.policy, ": ",
                       job.error, " (", job.attempts, " attempt",
                       job.attempts == 1 ? "" : "s", ", ",
                       job.wallNs / 1000000, " ms)",
                       job.timedOut  ? " [timed out]"
                       : job.hung    ? " [hung]"
                                     : "");
        }
        if (journaled_)
            chirp_warn("  rerun with --resume to retry only the "
                       "failed jobs");
    }

  private:
    mutable std::mutex mutex_;
    std::string label_;
    std::shared_ptr<SuiteHealth> health_;
    bool journaled_;
    std::vector<JobResult> failures_;
    std::uint64_t total_ = 0;
};

} // namespace

void
SuiteHealth::add(const JobResult &job)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++total_;
    if (job.ok)
        ++ok_;
    if (job.resumed)
        ++resumed_;
    if (job.hung)
        ++hung_;
    if (job.timedOut)
        ++timedOut_;
    if (job.attempts > 1)
        ++retried_;
    if (!job.ok)
        failures_.push_back(job);
}

std::uint64_t
SuiteHealth::totalJobs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return total_;
}

std::uint64_t
SuiteHealth::okJobs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return ok_;
}

std::uint64_t
SuiteHealth::resumedJobs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return resumed_;
}

std::uint64_t
SuiteHealth::hungJobs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hung_;
}

std::uint64_t
SuiteHealth::timedOutJobs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return timedOut_;
}

std::uint64_t
SuiteHealth::retriedJobs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return retried_;
}

std::vector<JobResult>
SuiteHealth::failures() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return failures_;
}

std::size_t
SuiteHealth::failureCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return failures_.size();
}

Runner::Runner(const SimConfig &config, unsigned jobs)
    : config_(config), jobs_(jobs),
      store_(std::make_shared<TraceStore>()),
      health_(std::make_shared<SuiteHealth>())
{
}

void
Runner::setHealth(std::shared_ptr<SuiteHealth> health)
{
    health_ = health ? std::move(health)
                     : std::make_shared<SuiteHealth>();
}

SimStats
Runner::runOne(const WorkloadConfig &workload,
               const PolicyFactory &factory) const
{
    const std::uint32_t sets =
        config_.tlbs.l2.entries / config_.tlbs.l2.assoc;
    Simulator sim(config_, factory(sets, config_.tlbs.l2.assoc));
    if (!workload.tracePath.empty()) {
        // External workload: replay the ingested stream; the store
        // dedups concurrent ingests of the same file.
        const SharedTrace trace = store_->get(workload);
        MemoryTraceSource source(trace, workload.name);
        return sim.run(source);
    }
    const auto program = buildWorkload(workload);
    return sim.run(*program);
}

SimStats
Runner::runReplay(const WorkloadConfig &workload,
                  const SharedTrace &trace,
                  const PolicyFactory &factory) const
{
    const std::uint32_t sets =
        config_.tlbs.l2.entries / config_.tlbs.l2.assoc;
    MemoryTraceSource source(trace, workload.name);
    Simulator sim(config_, factory(sets, config_.tlbs.l2.assoc));
    return sim.run(source);
}

void
Runner::setTraceCacheDir(const std::string &dir)
{
    store_ = std::make_shared<TraceStore>(dir);
}

std::vector<std::vector<WorkloadResult>>
Runner::runSuiteMulti(const std::vector<WorkloadConfig> &suite,
                      const std::vector<PolicyFactory> &factories,
                      const std::string &label,
                      const SimObserver &observer,
                      const std::vector<std::string> &tags) const
{
    std::vector<std::vector<WorkloadResult>> results(factories.size());
    if (factories.empty() || suite.empty())
        return results;
    for (auto &per_policy : results)
        per_policy.resize(suite.size());

    const std::uint32_t sets =
        config_.tlbs.l2.entries / config_.tlbs.l2.assoc;
    const std::uint32_t assoc = config_.tlbs.l2.assoc;
    TraceStore &store = *store_;
    ProgressReporter progress(label, suite.size() * factories.size());

    unsigned jobs = jobs_;
    if (jobs == 0)
        jobs = ThreadPool::defaultConcurrency();

    // An observer disables the journal for this call: resumed jobs
    // skip simulation entirely, so observer-derived data (diagnostic
    // counters read off the live policy) would silently go missing.
    RunJournal *journal = observer ? nullptr : journal_.get();
    // The suite sequence number keys the journal.  Every suite call
    // bumps it, observer calls that bypass the journal included, so
    // the numbering cannot depend on which calls carry an observer.
    const std::uint64_t seq = journal_ ? journal_->nextSuiteSeq() : 0;

    RunLedger ledger(label.empty() ? "policies" : label, health_,
                     journal != nullptr);
    Watchdog dog(resilience_.jobTimeoutMs,
                 suite.size() * factories.size());
    auto tag_of = [&](std::size_t p) {
        return p < tags.size() ? tags[p] : "p" + std::to_string(p);
    };
    auto add_outcome = [&](std::size_t w, std::size_t p,
                           const GuardOutcome &out) {
        JobResult job;
        job.workload = suite[w].name;
        job.policy = tag_of(p);
        job.ok = out.ok;
        job.hung = out.hung;
        job.timedOut = out.timedOut;
        job.attempts = out.attempts;
        job.wallNs = out.wallNs;
        job.error = out.error;
        ledger.add(std::move(job));
        progress.tick();
    };
    auto add_resumed = [&](std::size_t w, std::size_t p) {
        JobResult job;
        job.workload = suite[w].name;
        job.policy = tag_of(p);
        job.ok = true;
        job.resumed = true;
        ledger.add(std::move(job));
        progress.tick();
    };

    if (forceVirtualDispatch()) {
        // Legacy path (CHIRP_FORCE_VIRTUAL): full simulation of every
        // (workload, policy) pair.  The equality tests diff this
        // against the record/replay fast path below, so it must stay
        // the reference implementation.
        std::vector<std::vector<bool>> done(
            factories.size(), std::vector<bool>(suite.size(), false));
        std::vector<std::size_t> missing(suite.size(), 0);
        for (std::size_t w = 0; w < suite.size(); ++w) {
            for (std::size_t p = 0; p < factories.size(); ++p) {
                results[p][w].workload = suite[w];
                if (journal &&
                    journal->lookup(
                        RunJournal::jobKey(seq, suite[w], p),
                        results[p][w].stats)) {
                    done[p][w] = true;
                    add_resumed(w, p);
                } else {
                    ++missing[w];
                }
            }
        }
        auto run_job = [&](std::size_t w, std::size_t p) {
            const GuardOutcome out = runGuarded(
                resilience_.retries, dog,
                w * factories.size() + p,
                suite[w].name + " x " + tag_of(p), [&] {
                    // The same token the simulator polls also reaches
                    // any external-trace ingest under store.get.
                    ScopedIngestCancel ingest_cancel(
                        dog.token(w * factories.size() + p));
                    const SharedTrace trace = store.get(suite[w]);
                    MemoryTraceSource source(trace, suite[w].name);
                    Simulator sim(config_, factories[p](sets, assoc));
                    sim.setCancelToken(
                        dog.token(w * factories.size() + p));
                    results[p][w] = {suite[w], sim.run(source)};
                    if (observer)
                        observer(p, w, sim);
                });
            if (out.ok && journal) {
                journal->record(RunJournal::jobKey(seq, suite[w], p),
                                results[p][w].stats);
            }
            add_outcome(w, p, out);
        };
        const std::size_t total = suite.size() * factories.size();
        if (jobs <= 1 || total <= 1) {
            for (std::size_t w = 0; w < suite.size(); ++w) {
                for (std::size_t p = 0; p < factories.size(); ++p) {
                    if (!done[p][w])
                        run_job(w, p);
                }
                store.drop(suite[w]);
            }
        } else {
            ThreadPool pool(std::min<std::size_t>(jobs, total));
            // remaining[w] counts policies still to replay workload
            // w; the job that takes it to zero drops the store's
            // reference.  Jobs are submitted workload-major, so a
            // FIFO pool keeps only about ceil(jobs / P) + 1 traces
            // materialized at once.
            std::vector<std::atomic<std::size_t>> remaining(
                suite.size());
            for (std::size_t w = 0; w < suite.size(); ++w)
                remaining[w].store(missing[w]);
            std::vector<std::future<void>> pending;
            pending.reserve(total);
            for (std::size_t w = 0; w < suite.size(); ++w) {
                for (std::size_t p = 0; p < factories.size(); ++p) {
                    if (done[p][w])
                        continue;
                    pending.push_back(pool.submit([&, w, p] {
                        run_job(w, p);
                        if (remaining[w].fetch_sub(1) == 1)
                            store.drop(suite[w]);
                    }));
                }
            }
            // Jobs never throw (failures land in the ledger), so
            // get() here is pure synchronization.
            for (std::future<void> &job : pending)
                job.get();
        }
        ledger.summarize();
        return results;
    }

    // Fast path: one full simulation per workload (the recorder, a
    // throwaway LRU whose results are discarded) captures the L2
    // event stream, which is policy-independent because the plain-LRU
    // L1 TLBs never consult the L2.  Every requested policy then
    // replays just that stream — a small fraction of the records —
    // through Simulator::replayL2, which reconstructs bit-identical
    // full-run statistics from the recorder's baseline.
    //
    // The resume scan runs up front (not per-workload), so only
    // workloads with a pending policy reach the pool.
    std::vector<std::vector<char>> done(
        factories.size(), std::vector<char>(suite.size(), 0));
    std::vector<std::size_t> missing(suite.size(), factories.size());
    for (std::size_t w = 0; w < suite.size(); ++w) {
        for (std::size_t p = 0; p < factories.size(); ++p) {
            results[p][w].workload = suite[w];
            if (journal &&
                journal->lookup(RunJournal::jobKey(seq, suite[w], p),
                                results[p][w].stats)) {
                done[p][w] = 1;
                --missing[w];
                add_resumed(w, p);
            }
        }
    }
    std::vector<std::size_t> pending;
    for (std::size_t w = 0; w < suite.size(); ++w)
        if (missing[w] > 0)
            pending.push_back(w);

    auto run_workload = [&](std::size_t w) {
        SharedTrace trace;
        std::vector<L2Event> events;
        SimStats base;
        const GuardOutcome rec_out = runGuarded(
            resilience_.retries, dog, w * factories.size(),
            suite[w].name + " (recorder)", [&] {
                // A retried attempt must not see the previous one's
                // partial event stream.
                events.clear();
                ScopedIngestCancel ingest_cancel(
                    dog.token(w * factories.size()));
                trace = store.get(suite[w]);
                MemoryTraceSource source(trace, suite[w].name);
                Simulator recorder(
                    config_, makePolicy(PolicyKind::Lru, sets, assoc));
                recorder.setCancelToken(
                    dog.token(w * factories.size()));
                recorder.tlbs().setL2EventSink(&events);
                base = recorder.run(source);
            });
        if (!rec_out.ok) {
            // No event stream: every pending policy of this workload
            // fails with the recorder's error.
            for (std::size_t p = 0; p < factories.size(); ++p) {
                if (!done[p][w])
                    add_outcome(w, p, rec_out);
            }
            store.drop(suite[w]);
            return;
        }
        // Probe one throwaway instance per pending policy: CHiRP
        // variants whose signatures are configured identically (same
        // history shape and signature width — the common case in
        // parameter sweeps) share one precomputed signature stream,
        // so the retire stream is walked once per distinct
        // configuration instead of once per variant.  The instances
        // actually simulated are constructed fresh inside each
        // guarded job so a retried attempt starts from scratch.
        std::vector<SigGroup> groups;
        std::vector<GhrpGroup> ghrp_groups;
        std::vector<std::size_t> group_of(factories.size(), 0);
        std::vector<bool> is_chirp(factories.size(), false);
        std::vector<bool> is_ghrp(factories.size(), false);
        for (std::size_t p = 0; p < factories.size(); ++p) {
            if (done[p][w])
                continue;
            const auto probe = factories[p](sets, assoc);
            // On the legacy trace tier GHRP keeps walking the retire
            // stream: that path stays the byte-equality reference the
            // CI leg diffs the streamed replay against.
            if (const auto *ghrp =
                    traceFormat() == TraceFormat::Legacy
                        ? nullptr
                        : dynamic_cast<const GhrpPolicy *>(probe.get())) {
                is_ghrp[p] = true;
                const unsigned shift = ghrp->config().historyShift;
                std::size_t g = 0;
                while (g < ghrp_groups.size() &&
                       ghrp_groups[g].historyShift != shift)
                    ++g;
                if (g == ghrp_groups.size())
                    ghrp_groups.push_back({shift, {}});
                group_of[p] = g;
                continue;
            }
            const auto *chirp =
                dynamic_cast<const ChirpPolicy *>(probe.get());
            if (!chirp)
                continue;
            is_chirp[p] = true;
            const ChirpConfig &cfg = chirp->config();
            std::size_t g = 0;
            while (g < groups.size() &&
                   !(groups[g].history == cfg.history &&
                     groups[g].signatureBits == cfg.signatureBits))
                ++g;
            if (g == groups.size())
                groups.push_back({cfg.history, cfg.signatureBits, {}});
            group_of[p] = g;
        }
        computeReplayStreams(groups, ghrp_groups, *trace, events);
        // Policy-parallel batch replay (CHIRP_POLICY_PARALLEL):
        // evaluate every pending policy's table updates in one pass
        // over the shared event stream.  The pass is speculative and
        // unguarded — it consumes no fault-injection job event and no
        // watchdog slot, so the per-policy jobs below keep the exact
        // event numbering and failure isolation of the legacy path;
        // they merely publish precomputed results when the batch
        // succeeded, and fall back to an individual replayL2 when it
        // did not (or when a policy's own job must re-simulate).
        std::vector<std::size_t> pend;
        for (std::size_t p = 0; p < factories.size(); ++p) {
            if (!done[p][w])
                pend.push_back(p);
        }
        const auto make_policy = [&](std::size_t p) {
            auto policy = factories[p](sets, assoc);
            if (is_chirp[p]) {
                static_cast<ChirpPolicy *>(policy.get())
                    ->setSignatureStream(
                        groups[group_of[p]].sigs.data());
            } else if (is_ghrp[p]) {
                static_cast<GhrpPolicy *>(policy.get())
                    ->setHistoryStream(
                        ghrp_groups[group_of[p]].hists.data());
            }
            return policy;
        };
        std::vector<std::unique_ptr<Simulator>> batch_sims;
        std::vector<SimStats> batch_stats;
        bool batch_ok = false;
        if (policyParallelReplay() && pend.size() > 1) {
            try {
                std::vector<Simulator *> raw;
                batch_sims.reserve(pend.size());
                raw.reserve(pend.size());
                for (const std::size_t p : pend) {
                    batch_sims.push_back(std::make_unique<Simulator>(
                        config_, make_policy(p)));
                    raw.push_back(batch_sims.back().get());
                }
                batch_stats =
                    Simulator::replayL2Multi(raw, *trace, events, base);
                batch_ok = true;
            } catch (const std::exception &err) {
                chirp_warn("policy-parallel replay of '", suite[w].name,
                           "' failed (", err.what(),
                           "); falling back to per-policy replay");
            } catch (...) {
                chirp_warn("policy-parallel replay of '", suite[w].name,
                           "' failed; falling back to per-policy "
                           "replay");
            }
        }
        for (std::size_t k = 0; k < pend.size(); ++k) {
            const std::size_t p = pend[k];
            const GuardOutcome out = runGuarded(
                resilience_.retries, dog, w * factories.size() + p,
                suite[w].name + " x " + tag_of(p), [&, k, p] {
                    if (batch_ok) {
                        results[p][w] = {suite[w], batch_stats[k]};
                        if (observer)
                            observer(p, w, *batch_sims[k]);
                        return;
                    }
                    Simulator sim(config_, make_policy(p));
                    sim.setCancelToken(
                        dog.token(w * factories.size() + p));
                    results[p][w] = {suite[w],
                                     sim.replayL2(*trace, events, base)};
                    if (observer)
                        observer(p, w, sim);
                });
            if (out.ok && journal) {
                journal->record(RunJournal::jobKey(seq, suite[w], p),
                                results[p][w].stats);
            }
            add_outcome(w, p, out);
        }
        store.drop(suite[w]);
    };

    if (jobs <= 1 || pending.size() <= 1) {
        for (std::size_t w : pending)
            run_workload(w);
        ledger.summarize();
        return results;
    }

    // One job per workload: recording and the replays that reuse its
    // event stream stay on one thread, so the stream lives exactly as
    // long as the job and no cross-thread handoff is needed.  Slot-
    // indexed writes keep the merged results bit-identical to the
    // serial order no matter which thread finishes first.
    ThreadPool pool(std::min<std::size_t>(jobs, pending.size()));
    std::vector<std::future<void>> in_flight;
    in_flight.reserve(pending.size());
    for (std::size_t w : pending)
        in_flight.push_back(pool.submit([&, w] { run_workload(w); }));
    // Jobs never throw (failures land in the ledger), so get() here
    // is pure synchronization.
    for (std::future<void> &job : in_flight)
        job.get();
    ledger.summarize();
    return results;
}

std::vector<WorkloadResult>
Runner::runSuite(const std::vector<WorkloadConfig> &suite,
                 const PolicyFactory &factory,
                 const std::string &label) const
{
    return runSuiteParallel(suite, factory, jobs_, label);
}

std::vector<WorkloadResult>
Runner::runSuiteParallel(const std::vector<WorkloadConfig> &suite,
                         const PolicyFactory &factory, unsigned jobs,
                         const std::string &label) const
{
    if (jobs == 0)
        jobs = ThreadPool::defaultConcurrency();

    RunJournal *journal = journal_.get();
    // Same numbering as runSuiteMulti (see there).
    const std::uint64_t seq = journal ? journal->nextSuiteSeq() : 0;

    ProgressReporter progress(label, suite.size());
    const std::string tag = label.empty() ? "policy" : label;
    RunLedger ledger(tag, health_, journal != nullptr);
    Watchdog dog(resilience_.jobTimeoutMs, suite.size());

    // Every job writes only its own slot, so the merged vector is in
    // suite order and bit-identical to the serial path no matter
    // which thread finishes first, and a failed job leaves only its
    // own slot zeroed.
    std::vector<WorkloadResult> results(suite.size());
    auto run_job = [&](std::size_t i) {
        results[i].workload = suite[i];
        const std::uint64_t key =
            journal ? RunJournal::jobKey(seq, suite[i], 0) : 0;
        JobResult job;
        job.workload = suite[i].name;
        job.policy = tag;
        if (journal && journal->lookup(key, results[i].stats)) {
            job.ok = true;
            job.resumed = true;
        } else {
            const GuardOutcome out = runGuarded(
                resilience_.retries, dog, i, suite[i].name, [&] {
                    // runOne, inlined so the watchdog's cancel token
                    // reaches the simulator (and, for external
                    // workloads, the ingest front-end).
                    const std::uint32_t sets =
                        config_.tlbs.l2.entries / config_.tlbs.l2.assoc;
                    Simulator sim(
                        config_,
                        factory(sets, config_.tlbs.l2.assoc));
                    sim.setCancelToken(dog.token(i));
                    if (!suite[i].tracePath.empty()) {
                        ScopedIngestCancel ingest_cancel(dog.token(i));
                        const SharedTrace trace = store_->get(suite[i]);
                        MemoryTraceSource source(trace, suite[i].name);
                        results[i].stats = sim.run(source);
                        return;
                    }
                    const auto program = buildWorkload(suite[i]);
                    results[i].stats = sim.run(*program);
                });
            if (out.ok && journal)
                journal->record(key, results[i].stats);
            job.ok = out.ok;
            job.hung = out.hung;
            job.timedOut = out.timedOut;
            job.attempts = out.attempts;
            job.wallNs = out.wallNs;
            job.error = out.error;
        }
        ledger.add(std::move(job));
        progress.tick();
    };

    if (jobs <= 1 || suite.size() <= 1) {
        // Legacy serial path: one job after another on this thread.
        for (std::size_t i = 0; i < suite.size(); ++i)
            run_job(i);
    } else {
        ThreadPool pool(std::min<std::size_t>(jobs, suite.size()));
        std::vector<std::future<void>> pending;
        pending.reserve(suite.size());
        for (std::size_t i = 0; i < suite.size(); ++i)
            pending.push_back(pool.submit([&, i] { run_job(i); }));
        // Jobs never throw (failures land in the ledger), so get()
        // here is pure synchronization.
        for (std::future<void> &job : pending)
            job.get();
    }
    ledger.summarize();
    return results;
}

PolicyFactory
Runner::factoryFor(PolicyKind kind)
{
    return [kind](std::uint32_t sets, std::uint32_t assoc) {
        return makePolicy(kind, sets, assoc);
    };
}

SimStats
aggregateStats(const std::vector<WorkloadResult> &results)
{
    SimStats total;
    for (const WorkloadResult &r : results)
        total.merge(r.stats);
    return total;
}

double
averageMpki(const std::vector<WorkloadResult> &results)
{
    std::vector<double> mpkis;
    mpkis.reserve(results.size());
    for (const auto &r : results)
        mpkis.push_back(r.stats.mpki());
    return mean(mpkis);
}

double
mpkiReductionPct(const std::vector<WorkloadResult> &baseline,
                 const std::vector<WorkloadResult> &results)
{
    return pctReduction(averageMpki(baseline), averageMpki(results));
}

double
speedupPct(const std::vector<WorkloadResult> &baseline,
           const std::vector<WorkloadResult> &results, Cycles penalty)
{
    if (baseline.size() != results.size())
        chirp_fatal("speedup: result sets differ in size");
    std::vector<double> ipc;
    std::vector<double> base;
    ipc.reserve(results.size());
    base.reserve(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        ipc.push_back(results[i].stats.ipcAtPenalty(penalty));
        base.push_back(baseline[i].stats.ipcAtPenalty(penalty));
    }
    return geomeanSpeedupPct(ipc, base);
}

double
efficiencyGainPct(const std::vector<WorkloadResult> &baseline,
                  const std::vector<WorkloadResult> &results)
{
    if (baseline.size() != results.size())
        chirp_fatal("efficiency: result sets differ in size");
    std::vector<double> gains;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const double base = baseline[i].stats.l2Efficiency;
        if (base <= 0.0)
            continue;
        gains.push_back(
            (results[i].stats.l2Efficiency / base - 1.0) * 100.0);
    }
    return mean(gains);
}

double
meanTableAccessRate(const std::vector<WorkloadResult> &results)
{
    std::vector<double> rates;
    rates.reserve(results.size());
    for (const auto &r : results)
        rates.push_back(r.stats.tableAccessRate());
    return mean(rates);
}

} // namespace chirp
