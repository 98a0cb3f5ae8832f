/** @file Tests for the workload factory and suite enumeration. */

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

#include "trace/workload_suite.hh"

namespace chirp
{
namespace
{

class WorkloadCategory : public ::testing::TestWithParam<Category>
{
};

TEST_P(WorkloadCategory, BuildsAndEmits)
{
    WorkloadConfig config;
    config.category = GetParam();
    config.seed = 77;
    config.length = 30000;
    auto prog = buildWorkload(config);
    ASSERT_NE(prog, nullptr);
    EXPECT_FALSE(prog->name().empty());
    TraceRecord rec;
    InstCount n = 0;
    bool saw_memory = false;
    bool saw_branch = false;
    while (prog->next(rec)) {
        saw_memory |= isMemory(rec.cls);
        saw_branch |= isBranch(rec.cls);
        ++n;
    }
    EXPECT_EQ(n, 30000u);
    EXPECT_TRUE(saw_memory);
    EXPECT_TRUE(saw_branch);
}

TEST_P(WorkloadCategory, ScaleGrowsFootprint)
{
    WorkloadConfig small;
    small.category = GetParam();
    small.seed = 5;
    small.length = 10000;
    small.scale = 0.5;
    WorkloadConfig big = small;
    big.scale = 2.0;
    const auto sp = buildWorkload(small);
    const auto bp = buildWorkload(big);
    EXPECT_GT(bp->dataFootprintPages(), sp->dataFootprintPages());
}

TEST_P(WorkloadCategory, SeedChangesBehaviourNotValidity)
{
    WorkloadConfig a;
    a.category = GetParam();
    a.seed = 1;
    a.length = 5000;
    WorkloadConfig b = a;
    b.seed = 2;
    const auto pa = buildWorkload(a);
    const auto pb = buildWorkload(b);
    TraceRecord ra;
    TraceRecord rb;
    int diff = 0;
    for (int i = 0; i < 5000; ++i) {
        if (!pa->next(ra) || !pb->next(rb))
            break;
        diff += !(ra == rb);
    }
    EXPECT_GT(diff, 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllCategories, WorkloadCategory,
    ::testing::Values(Category::Spec, Category::Database,
                      Category::Crypto, Category::Scientific,
                      Category::Web, Category::BigData),
    [](const ::testing::TestParamInfo<Category> &info) {
        return categoryName(info.param);
    });

TEST(WorkloadSuite, EnumeratesRequestedSize)
{
    SuiteOptions options;
    options.size = 13;
    options.traceLength = 10000;
    const auto suite = makeSuite(options);
    EXPECT_EQ(suite.size(), 13u);
    std::set<std::string> names;
    std::set<std::uint64_t> seeds;
    for (const auto &config : suite) {
        names.insert(config.name);
        seeds.insert(config.seed);
        EXPECT_EQ(config.length, 10000u);
        EXPECT_GT(config.scale, 0.3);
        EXPECT_LT(config.scale, 2.0);
    }
    EXPECT_EQ(names.size(), 13u) << "workload names must be unique";
    EXPECT_EQ(seeds.size(), 13u) << "workload seeds must be unique";
}

TEST(WorkloadSuite, CyclesThroughCategories)
{
    SuiteOptions options;
    options.size = 12;
    const auto suite = makeSuite(options);
    std::set<Category> seen;
    for (const auto &config : suite)
        seen.insert(config.category);
    EXPECT_EQ(seen.size(),
              static_cast<std::size_t>(Category::NumCategories));
}

TEST(WorkloadSuite, DeterministicForSeed)
{
    SuiteOptions options;
    options.size = 6;
    const auto a = makeSuite(options);
    const auto b = makeSuite(options);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].seed, b[i].seed);
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_DOUBLE_EQ(a[i].scale, b[i].scale);
    }
}

TEST(WorkloadSuite, EnvOverridesAreParsed)
{
    ::setenv("CHIRP_SUITE_SIZE", "4", 1);
    ::setenv("CHIRP_TRACE_LEN", "20000", 1);
    ::setenv("CHIRP_SEED", "9", 1);
    ::setenv("CHIRP_CATEGORY", "db", 1);
    const SuiteOptions options = suiteOptionsFromEnv();
    EXPECT_EQ(options.size, 4u);
    EXPECT_EQ(options.traceLength, 20000u);
    EXPECT_EQ(options.baseSeed, 9u);
    EXPECT_EQ(options.onlyCategory,
              static_cast<int>(Category::Database));
    const auto suite = makeSuite(options);
    for (const auto &config : suite)
        EXPECT_EQ(config.category, Category::Database);
    ::unsetenv("CHIRP_SUITE_SIZE");
    ::unsetenv("CHIRP_TRACE_LEN");
    ::unsetenv("CHIRP_SEED");
    ::unsetenv("CHIRP_CATEGORY");
}

TEST(WorkloadSuiteDeathTest, NegativeOrOverflowingEnvIsFatal)
{
    // strtoull alone would wrap "-1" to 2^64 - 1 workloads.
    for (const char *bad : {"-1", "18446744073709551616", " 4", "+4"}) {
        SCOPED_TRACE(bad);
        EXPECT_EXIT(
            {
                ::setenv("CHIRP_SUITE_SIZE", bad, 1);
                suiteOptionsFromEnv();
            },
            ::testing::ExitedWithCode(1), "is not a number");
    }
}

} // namespace
} // namespace chirp
