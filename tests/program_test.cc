/** @file Tests for the synthetic Program trace generator. */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "trace/synthetic/program.hh"
#include "trace/synthetic/workload_factory.hh"
#include "trace/workload_suite.hh"
#include "util/hashing.hh"

namespace chirp
{
namespace
{

/** A minimal two-region program for focused checks. */
std::unique_ptr<Program>
tinyProgram(std::uint64_t seed = 5, InstCount length = 20000)
{
    auto prog = std::make_unique<Program>("tiny", seed, length);
    const Addr data = prog->dataLayout().alloc(64);
    const unsigned hot = prog->addPattern(
        std::make_unique<ZipfPattern>(data, 64, 1.0, 11));
    const Addr sdata = prog->dataLayout().alloc(256);
    const unsigned stream = prog->addPattern(
        std::make_unique<StreamPattern>(sdata, 256, 4));

    Program::SharedFnSpec fn;
    fn.name = "helper";
    fn.alus = 4;
    fn.loads = 2;
    const unsigned helper = prog->addSharedFunction(fn);

    Program::RegionSpec a;
    a.name = "hotloop";
    a.loadSites = {hot, hot};
    a.calls = {{helper, hot, true, 1.0}};
    a.minIters = 4;
    a.maxIters = 8;
    prog->addRegion(a);

    Program::RegionSpec b;
    b.name = "sweeper";
    b.loadSites = {stream};
    b.calls = {{helper, stream, true, 1.0}};
    b.minIters = 4;
    b.maxIters = 8;
    prog->addRegion(b);

    prog->finalize();
    return prog;
}

TEST(Program, EmitsExactlyLengthInstructions)
{
    auto prog = tinyProgram(5, 5000);
    TraceRecord rec;
    InstCount n = 0;
    while (prog->next(rec))
        ++n;
    EXPECT_EQ(n, 5000u);
    EXPECT_EQ(prog->expectedLength(), 5000u);
}

TEST(Program, DeterministicAcrossResets)
{
    auto prog = tinyProgram();
    std::vector<TraceRecord> first;
    std::vector<TraceRecord> second;
    TraceRecord rec;
    while (prog->next(rec))
        first.push_back(rec);
    prog->reset();
    while (prog->next(rec))
        second.push_back(rec);
    EXPECT_EQ(first, second);
}

TEST(Program, DeterministicAcrossInstances)
{
    auto a = tinyProgram(9);
    auto b = tinyProgram(9);
    TraceRecord ra;
    TraceRecord rb;
    for (int i = 0; i < 10000; ++i) {
        const bool more_a = a->next(ra);
        const bool more_b = b->next(rb);
        ASSERT_EQ(more_a, more_b);
        if (!more_a)
            break;
        ASSERT_EQ(ra, rb) << "diverged at instruction " << i;
    }
}

TEST(Program, DifferentSeedsDiverge)
{
    auto a = tinyProgram(1);
    auto b = tinyProgram(2);
    TraceRecord ra;
    TraceRecord rb;
    int differences = 0;
    for (int i = 0; i < 5000; ++i) {
        if (!a->next(ra) || !b->next(rb))
            break;
        differences += !(ra == rb);
    }
    EXPECT_GT(differences, 0);
}

TEST(Program, InstructionStreamIsWellFormed)
{
    auto prog = tinyProgram();
    TraceRecord rec;
    while (prog->next(rec)) {
        // Instructions are 4-byte aligned in the code segment.
        EXPECT_EQ(rec.pc % 4, 0u);
        EXPECT_GE(rec.pc, 0x400000u);
        if (isMemory(rec.cls)) {
            EXPECT_GE(rec.effAddr, Addr{1} << 32)
                << "data addresses live in the data segment";
        }
        if (isBranch(rec.cls) && rec.cls != InstClass::CondBranch) {
            EXPECT_TRUE(rec.taken);
            EXPECT_NE(rec.target, 0u);
        }
    }
}

TEST(Program, CallsEnterSharedFunctionAndReturn)
{
    auto prog = tinyProgram();
    TraceRecord rec;
    bool saw_call = false;
    Addr call_pc = 0;
    Addr call_target = 0;
    bool checked_return = false;
    std::vector<TraceRecord> window;
    while (prog->next(rec)) {
        if (rec.cls == InstClass::UncondIndirect && !saw_call &&
            rec.target != 0 && rec.target < 0x500000) {
            saw_call = true;
            call_pc = rec.pc;
            call_target = rec.target;
            continue;
        }
        if (saw_call && !checked_return &&
            rec.cls == InstClass::UncondIndirect) {
            // The matching return jumps back to the call site + 4.
            EXPECT_EQ(rec.target, call_pc + 4);
            checked_return = true;
        }
    }
    EXPECT_TRUE(saw_call);
    EXPECT_TRUE(checked_return);
    (void)call_target;
}

TEST(Program, ClassMixIsPlausible)
{
    auto prog = tinyProgram(7, 50000);
    std::map<InstClass, int> counts;
    TraceRecord rec;
    while (prog->next(rec))
        ++counts[rec.cls];
    EXPECT_GT(counts[InstClass::Alu], 0);
    EXPECT_GT(counts[InstClass::Load], 0);
    EXPECT_GT(counts[InstClass::CondBranch], 0);
    EXPECT_GT(counts[InstClass::UncondIndirect], 0);
    // Memory share should be substantial but not dominant.
    const int mem = counts[InstClass::Load] + counts[InstClass::Store];
    EXPECT_GT(mem, 50000 / 20);
    EXPECT_LT(mem, 50000 / 2);
}

TEST(Program, PeriodicBranchesHavePatternedOutcomes)
{
    auto prog = tinyProgram(3, 60000);
    // For each conditional-branch PC, count outcomes; periodic sites
    // should show a stable not-taken fraction near 1/period.
    std::map<Addr, std::pair<int, int>> outcomes; // taken, total
    TraceRecord rec;
    while (prog->next(rec)) {
        if (rec.cls == InstClass::CondBranch) {
            auto &[taken, total] = outcomes[rec.pc];
            taken += rec.taken;
            ++total;
        }
    }
    EXPECT_GT(outcomes.size(), 2u);
    // Every branch executes both often enough to be meaningful.
    int patterned = 0;
    for (const auto &[pc, stats] : outcomes) {
        if (stats.second < 100)
            continue;
        const double rate =
            static_cast<double>(stats.first) / stats.second;
        if (rate > 0.05 && rate < 0.995)
            ++patterned;
    }
    EXPECT_GT(patterned, 0);
}

TEST(Program, FinalizeValidatesReferences)
{
    Program prog("bad", 1, 1000);
    Program::RegionSpec region;
    region.name = "r";
    region.loadSites = {0}; // no patterns registered
    prog.addRegion(region);
    EXPECT_EXIT(prog.finalize(), ::testing::ExitedWithCode(1),
                "no data patterns");
}

TEST(Program, CodeLayoutFootprint)
{
    auto prog = tinyProgram();
    EXPECT_GT(prog->layout().codePages(), 0u);
    EXPECT_EQ(prog->dataFootprintPages(), 64u + 256u);
}

/** Fold one record into a stream digest. */
std::uint64_t
foldRecord(std::uint64_t digest, const TraceRecord &rec)
{
    digest = hashCombine(digest, rec.pc);
    digest = hashCombine(digest, rec.effAddr);
    digest = hashCombine(digest, rec.target);
    return hashCombine(digest, (static_cast<std::uint64_t>(rec.cls) << 1) |
                                   (rec.taken ? 1u : 0u));
}

TEST(Program, GoldenStreams)
{
    // Digests of the first 100k records of one makeSuite workload per
    // category at two suite seeds, produced by the original
    // record-by-record generator.  The stream is a contract: trace-cache
    // files are keyed by workload configuration alone, so any drift
    // would silently mix old cached traces with new ones.
    struct Case
    {
        std::uint64_t seed;
        const char *name;
        std::uint64_t digest;
    };
    const Case cases[] = {
        {42, "spec_000", 0x6e15a751f12f1c48ull},
        {42, "db_001", 0x81517dbd1e0046d6ull},
        {42, "crypto_002", 0x9c854abf459a2fa4ull},
        {42, "sci_003", 0xcfaf9fcca903e518ull},
        {42, "web_004", 0x55fb4b717e73e678ull},
        {42, "bigdata_005", 0xf346fa653df9e5adull},
        {7, "spec_000", 0xb6c441c63fb11b48ull},
        {7, "db_001", 0x44daca4f82d95c40ull},
        {7, "crypto_002", 0x69ca2a4dd8e4cba9ull},
        {7, "sci_003", 0xd7516b59b58f259eull},
        {7, "web_004", 0x315e26e97eaaf1c4ull},
        {7, "bigdata_005", 0x1b745b2e38ff5aeeull},
    };
    constexpr InstCount kLength = 100000;
    std::size_t checked = 0;
    for (const std::uint64_t seed : {42ull, 7ull}) {
        SuiteOptions options;
        options.size = 6;
        options.traceLength = kLength;
        options.baseSeed = seed;
        for (const WorkloadConfig &config : makeSuite(options)) {
            const Case *want = nullptr;
            for (const Case &c : cases) {
                if (c.seed == seed && config.name == c.name)
                    want = &c;
            }
            ASSERT_NE(want, nullptr) << config.name;

            auto one = buildWorkload(config);
            std::uint64_t digest = 0;
            InstCount n = 0;
            TraceRecord rec;
            while (one->next(rec)) {
                digest = foldRecord(digest, rec);
                ++n;
            }
            EXPECT_EQ(n, kLength);
            EXPECT_EQ(digest, want->digest)
                << "next() stream of " << config.name << " seed " << seed;

            // Batch sizes that straddle iteration boundaries in every
            // way, including single records.
            auto batched = buildWorkload(config);
            const std::size_t sizes[] = {1, 7, 256, 4096, 33, 255};
            std::vector<TraceRecord> buf(4096);
            digest = 0;
            n = 0;
            std::size_t got = 0;
            for (std::size_t k = 0;
                 (got = batched->nextBatch(buf.data(), sizes[k % 6])) > 0;
                 ++k) {
                for (std::size_t i = 0; i < got; ++i)
                    digest = foldRecord(digest, buf[i]);
                n += got;
            }
            EXPECT_EQ(n, kLength);
            EXPECT_EQ(digest, want->digest) << "nextBatch() stream of "
                                            << config.name << " seed "
                                            << seed;
            ++checked;
        }
    }
    EXPECT_EQ(checked, std::size(cases));
}

} // namespace
} // namespace chirp
