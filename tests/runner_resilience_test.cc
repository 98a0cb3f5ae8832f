/**
 * @file
 * Suite-runner resilience tests driven by the fault injector: hard
 * faults isolate a single job, transient faults are retried per
 * --retries, the run journal resumes to bit-identical stats (single-
 * and multi-policy suites), the watchdog cancels jobs overrunning
 * their budget, and a recorder failure in runSuiteMulti fails exactly
 * that workload's pending policies.  Every run that injects a fault
 * is serial (jobs = 1) so fault events land on deterministic jobs.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/policy_factory.hh"
#include "sim/run_journal.hh"
#include "sim/runner.hh"
#include "util/fault_injection.hh"

namespace chirp
{
namespace
{

class RunnerResilienceTest : public ::testing::Test
{
  protected:
    void SetUp() override { FaultInjector::instance().reset(); }
    void TearDown() override { FaultInjector::instance().reset(); }
};

SimConfig
fastConfig()
{
    SimConfig config;
    config.simulateCaches = false;
    config.simulateBranch = false;
    return config;
}

std::vector<WorkloadConfig>
smallSuite(std::size_t size = 4)
{
    SuiteOptions options;
    options.size = size;
    options.traceLength = 40000;
    return makeSuite(options);
}

void
expectIdenticalStats(const SimStats &a, const SimStats &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.l2TlbAccesses, b.l2TlbAccesses);
    EXPECT_EQ(a.l2TlbHits, b.l2TlbHits);
    EXPECT_EQ(a.l2TlbMisses, b.l2TlbMisses);
    EXPECT_EQ(a.tableReads, b.tableReads);
    EXPECT_EQ(a.tableWrites, b.tableWrites);
    EXPECT_EQ(a.walkCycles, b.walkCycles);
    EXPECT_EQ(a.l2Efficiency, b.l2Efficiency);
}

TEST_F(RunnerResilienceTest, HardFaultIsolatesOneJob)
{
    const auto suite = smallSuite();
    const Runner runner(fastConfig());
    // Serial run: job event 1 is the second workload's only attempt.
    FaultInjector::instance().configure("hard-throw@1");
    const auto results = runner.runSuiteParallel(
        suite, Runner::factoryFor(PolicyKind::Lru), 1);

    ASSERT_EQ(results.size(), suite.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (i == 1)
            EXPECT_EQ(results[i].stats.instructions, 0u);
        else
            EXPECT_GT(results[i].stats.instructions, 0u);
    }
    const SuiteHealth &health = *runner.health();
    EXPECT_EQ(health.totalJobs(), suite.size());
    EXPECT_EQ(health.okJobs(), suite.size() - 1);
    ASSERT_EQ(health.failureCount(), 1u);
    const JobResult failed = health.failures()[0];
    EXPECT_EQ(failed.workload, suite[1].name);
    EXPECT_EQ(failed.attempts, 1u)
        << "InjectedFault must not be retried";
    EXPECT_NE(failed.error.find("permanent"), std::string::npos);
}

TEST_F(RunnerResilienceTest, TransientFaultIsRetriedToSuccess)
{
    const auto suite = smallSuite();
    const auto factory = Runner::factoryFor(PolicyKind::Srrip);
    const Runner clean(fastConfig());
    const auto reference = clean.runSuiteParallel(suite, factory, 1);

    Runner runner(fastConfig());
    ASSERT_EQ(runner.resilience().retries, 1u) << "default retry budget";
    // Serial events: job0 @0, job1 @1, job2 @2 (throws) then its
    // retry @3, job3 @4.
    FaultInjector::instance().configure("throw@2");
    const auto results = runner.runSuiteParallel(suite, factory, 1);

    const SuiteHealth &health = *runner.health();
    EXPECT_EQ(health.okJobs(), suite.size());
    EXPECT_EQ(health.failureCount(), 0u);
    EXPECT_EQ(health.retriedJobs(), 1u);
    ASSERT_EQ(results.size(), reference.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        SCOPED_TRACE(suite[i].name);
        expectIdenticalStats(results[i].stats, reference[i].stats);
    }
}

TEST_F(RunnerResilienceTest, ExhaustedRetriesFailTheJob)
{
    const auto suite = smallSuite();
    Runner runner(fastConfig());
    // Both the first attempt (event 1) and the one retry (event 2)
    // fail; the job is out of budget after 2 attempts.
    FaultInjector::instance().configure("throw@1,throw@2");
    runner.runSuiteParallel(suite, Runner::factoryFor(PolicyKind::Lru),
                            1);
    const SuiteHealth &health = *runner.health();
    ASSERT_EQ(health.failureCount(), 1u);
    EXPECT_EQ(health.failures()[0].attempts, 2u);
    EXPECT_EQ(health.failures()[0].workload, suite[1].name);
    EXPECT_NE(health.failures()[0].error.find("transient"),
              std::string::npos);
}

TEST_F(RunnerResilienceTest, ZeroRetriesFailsOnFirstTransient)
{
    const auto suite = smallSuite(2);
    Runner runner(fastConfig());
    runner.setResilience({/*retries=*/0, /*jobTimeoutMs=*/0});
    FaultInjector::instance().configure("throw@0");
    runner.runSuiteParallel(suite, Runner::factoryFor(PolicyKind::Lru),
                            1);
    const SuiteHealth &health = *runner.health();
    ASSERT_EQ(health.failureCount(), 1u);
    EXPECT_EQ(health.failures()[0].attempts, 1u);
}

TEST_F(RunnerResilienceTest, WatchdogCancelsSlowJobs)
{
    const auto suite = smallSuite(3);
    Runner runner(fastConfig());
    // The budget must let a healthy job finish even on a loaded CI
    // runner under sanitizers (~100 ms observed) while the slow job
    // overruns it by a wide margin.
    runner.setResilience({/*retries=*/1, /*jobTimeoutMs=*/400});
    // Job 1's attempt sleeps 1.5 s before simulating; the watchdog
    // trips at 400 ms and the simulator aborts at its first
    // cancellation point.
    FaultInjector::instance().configure("slow@1:1500");
    const auto results = runner.runSuiteParallel(
        suite, Runner::factoryFor(PolicyKind::Lru), 1);
    const SuiteHealth &health = *runner.health();
    EXPECT_EQ(health.okJobs(), suite.size() - 1)
        << "the watchdog is enforcing: the slow job is cancelled";
    ASSERT_EQ(health.failureCount(), 1u);
    EXPECT_EQ(health.hungJobs(), 1u);
    EXPECT_EQ(health.timedOutJobs(), 1u);
    const JobResult failed = health.failures()[0];
    EXPECT_EQ(failed.workload, suite[1].name);
    EXPECT_TRUE(failed.timedOut);
    EXPECT_EQ(failed.attempts, 1u)
        << "a cancelled attempt is never retried";
    EXPECT_EQ(results[1].stats.instructions, 0u);
}

TEST_F(RunnerResilienceTest, JournalResumeIsBitIdentical)
{
    const auto suite = smallSuite();
    const auto factory = Runner::factoryFor(PolicyKind::Chirp);
    const std::string path =
        ::testing::TempDir() + "chirp_resilience.journal";
    std::filesystem::remove(path);
    const std::uint64_t fp = 0xc0ffee;

    const Runner clean(fastConfig());
    const auto reference = clean.runSuiteParallel(suite, factory, 1);

    {
        // First run: job 2 dies with a permanent fault, the other
        // three land in the journal.
        Runner crashing(fastConfig());
        crashing.setJournal(
            std::make_shared<RunJournal>(path, fp, /*resume=*/false));
        FaultInjector::instance().configure("hard-throw@2");
        crashing.runSuiteParallel(suite, factory, 1);
        EXPECT_EQ(crashing.health()->failureCount(), 1u);
    }

    FaultInjector::instance().reset();
    Runner resuming(fastConfig());
    auto journal =
        std::make_shared<RunJournal>(path, fp, /*resume=*/true);
    EXPECT_EQ(journal->loaded(), suite.size() - 1);
    resuming.setJournal(journal);
    const auto resumed = resuming.runSuiteParallel(suite, factory, 1);

    const SuiteHealth &health = *resuming.health();
    EXPECT_EQ(health.resumedJobs(), suite.size() - 1)
        << "only the failed job is re-simulated";
    EXPECT_EQ(health.okJobs(), suite.size());
    EXPECT_EQ(health.failureCount(), 0u);
    ASSERT_EQ(resumed.size(), reference.size());
    for (std::size_t i = 0; i < resumed.size(); ++i) {
        SCOPED_TRACE(suite[i].name);
        expectIdenticalStats(resumed[i].stats, reference[i].stats);
    }
    std::filesystem::remove(path);
}

TEST_F(RunnerResilienceTest, MultiJournalResumeRunsOnlyMissingJobs)
{
    const auto suite = smallSuite();
    const std::vector<PolicyFactory> factories = {
        Runner::factoryFor(PolicyKind::Lru),
        Runner::factoryFor(PolicyKind::Chirp),
    };
    const std::size_t total = suite.size() * factories.size();
    const std::string path =
        ::testing::TempDir() + "chirp_multi_resume.journal";
    const std::uint64_t fp = 0xd15c0;

    const Runner clean(fastConfig(), 1);
    const auto reference = clean.runSuiteMulti(suite, factories);

    for (const unsigned jobs : {1u, 2u}) {
        SCOPED_TRACE("resume at jobs=" + std::to_string(jobs));
        std::filesystem::remove(path);
        {
            // Serial fast-path events: w0 recorder @0, replays @1 @2.
            // The fault leaves exactly workload 0's second policy
            // missing from the journal -- the hole a run killed
            // mid-sweep leaves behind.
            Runner first(fastConfig(), 1);
            first.setJournal(
                std::make_shared<RunJournal>(path, fp, /*resume=*/false));
            FaultInjector::instance().configure("hard-throw@2");
            first.runSuiteMulti(suite, factories);
            EXPECT_EQ(first.health()->failureCount(), 1u);
        }
        FaultInjector::instance().reset();

        Runner resumed(fastConfig(), jobs);
        auto journal =
            std::make_shared<RunJournal>(path, fp, /*resume=*/true);
        EXPECT_EQ(journal->loaded(), total - 1);
        resumed.setJournal(journal);
        const auto results = resumed.runSuiteMulti(suite, factories);

        const SuiteHealth &health = *resumed.health();
        EXPECT_EQ(health.okJobs(), total);
        EXPECT_EQ(health.resumedJobs(), total - 1)
            << "only the missing job re-executes";
        EXPECT_EQ(health.failureCount(), 0u);
        ASSERT_EQ(results.size(), reference.size());
        for (std::size_t p = 0; p < results.size(); ++p) {
            ASSERT_EQ(results[p].size(), reference[p].size());
            for (std::size_t w = 0; w < results[p].size(); ++w) {
                SCOPED_TRACE("policy " + std::to_string(p) +
                             " workload " + std::to_string(w));
                // encodeSimStats is bit-exact (doubles as their
                // IEEE-754 bit patterns), so string equality is the
                // byte-identical-CSV claim.
                EXPECT_EQ(encodeSimStats(results[p][w].stats),
                          encodeSimStats(reference[p][w].stats));
            }
        }
    }
    std::filesystem::remove(path);
}

TEST_F(RunnerResilienceTest, MultiRecorderFailureFailsItsWorkloadOnly)
{
    const auto suite = smallSuite(2);
    const std::vector<PolicyFactory> factories = {
        Runner::factoryFor(PolicyKind::Lru),
        Runner::factoryFor(PolicyKind::Chirp),
    };
    const Runner runner(fastConfig(), 1);
    // Fast-path serial events per workload: recorder first, then one
    // replay per policy.  Event 0 is workload 0's recorder; with no
    // event stream every pending policy of that workload fails.
    FaultInjector::instance().configure("hard-throw@0");
    const auto results =
        runner.runSuiteMulti(suite, factories, "", {}, {"lru", "chirp"});

    ASSERT_EQ(results.size(), factories.size());
    for (std::size_t p = 0; p < factories.size(); ++p) {
        EXPECT_EQ(results[p][0].stats.instructions, 0u);
        EXPECT_GT(results[p][1].stats.instructions, 0u);
    }
    const SuiteHealth &health = *runner.health();
    EXPECT_EQ(health.totalJobs(), suite.size() * factories.size());
    ASSERT_EQ(health.failureCount(), factories.size());
    for (const JobResult &job : health.failures()) {
        EXPECT_EQ(job.workload, suite[0].name);
        EXPECT_NE(job.error.find("permanent"), std::string::npos);
    }
}

TEST_F(RunnerResilienceTest, MultiReplayFaultFailsOnePolicyJob)
{
    const auto suite = smallSuite(2);
    const std::vector<PolicyFactory> factories = {
        Runner::factoryFor(PolicyKind::Lru),
        Runner::factoryFor(PolicyKind::Srrip),
    };
    const Runner runner(fastConfig(), 1);
    const auto reference = runner.runSuiteMulti(suite, factories);
    // Serial fast-path events: w0 recorder @0, replays @1 @2; the
    // fault hits workload 0's second policy replay.
    FaultInjector::instance().configure("hard-throw@2");
    const auto results =
        runner.runSuiteMulti(suite, factories, "", {}, {"lru", "srrip"});

    const SuiteHealth &health = *runner.health();
    ASSERT_EQ(health.failureCount(), 1u);
    EXPECT_EQ(health.failures()[0].policy, "srrip");
    EXPECT_EQ(health.failures()[0].workload, suite[0].name);
    EXPECT_EQ(results[1][0].stats.instructions, 0u);
    // Every other cell matches the fault-free sweep bit-exactly.
    expectIdenticalStats(results[0][0].stats, reference[0][0].stats);
    expectIdenticalStats(results[0][1].stats, reference[0][1].stats);
    expectIdenticalStats(results[1][1].stats, reference[1][1].stats);
}

} // namespace
} // namespace chirp
