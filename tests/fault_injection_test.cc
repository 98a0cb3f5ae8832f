/**
 * @file
 * FaultInjector tests: spec parsing, actions firing at exactly their
 * armed event (once), the transient/permanent exception split, the
 * cache corruption actions mutating a real file, and counter/reset
 * behaviour.  The injector is a process-wide singleton, so every test
 * configures it afresh and disarms it on the way out.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/fault_injection.hh"

namespace chirp
{
namespace
{

/** Configure-on-entry / disarm-on-exit guard around the singleton. */
class FaultInjectionTest : public ::testing::Test
{
  protected:
    void SetUp() override { FaultInjector::instance().reset(); }
    void TearDown() override { FaultInjector::instance().reset(); }
};

std::string
scratchFile(const char *tag, const std::string &content)
{
    const std::string path =
        ::testing::TempDir() + "chirp_fault_" + tag;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
    return path;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

TEST_F(FaultInjectionTest, DisarmedInjectorIsInert)
{
    FaultInjector &injector = FaultInjector::instance();
    EXPECT_FALSE(injector.active());
    for (int i = 0; i < 4; ++i)
        EXPECT_NO_THROW(injector.onJobStart());
    EXPECT_EQ(injector.jobEvents(), 4u);
    EXPECT_EQ(injector.cacheEvents(), 0u);
}

TEST_F(FaultInjectionTest, ThrowFiresOnceAtItsEvent)
{
    FaultInjector &injector = FaultInjector::instance();
    injector.configure("throw@2");
    EXPECT_TRUE(injector.active());
    EXPECT_NO_THROW(injector.onJobStart()); // event 0
    EXPECT_NO_THROW(injector.onJobStart()); // event 1
    EXPECT_THROW(injector.onJobStart(), TransientError);
    // Fired actions stay fired: event 2 never recurs.
    EXPECT_NO_THROW(injector.onJobStart());
    EXPECT_EQ(injector.jobEvents(), 4u);
}

TEST_F(FaultInjectionTest, HardThrowIsNotTransient)
{
    FaultInjector &injector = FaultInjector::instance();
    injector.configure("hard-throw@0");
    try {
        injector.onJobStart();
        FAIL() << "expected InjectedFault";
    } catch (const InjectedFault &err) {
        EXPECT_NE(std::string(err.what()).find("permanent"),
                  std::string::npos);
    } catch (const TransientError &) {
        FAIL() << "hard-throw must not be retryable";
    }
}

TEST_F(FaultInjectionTest, MultipleActionsFireIndependently)
{
    FaultInjector &injector = FaultInjector::instance();
    injector.configure("throw@0,hard-throw@2");
    EXPECT_THROW(injector.onJobStart(), TransientError); // event 0
    EXPECT_NO_THROW(injector.onJobStart());              // event 1
    EXPECT_THROW(injector.onJobStart(), InjectedFault);  // event 2
    EXPECT_NO_THROW(injector.onJobStart());
}

TEST_F(FaultInjectionTest, SlowDelaysTheArmedEvent)
{
    FaultInjector &injector = FaultInjector::instance();
    injector.configure("slow@0:50");
    const auto begin = std::chrono::steady_clock::now();
    injector.onJobStart();
    const auto elapsed = std::chrono::duration_cast<
        std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - begin);
    EXPECT_GE(elapsed.count(), 50);
}

TEST_F(FaultInjectionTest, CacheTruncateCutsThePublishedFile)
{
    const std::string path =
        scratchFile("truncate", std::string(100, 'x'));
    FaultInjector &injector = FaultInjector::instance();
    injector.configure("cache-truncate@1:30");
    injector.onCachePublish(path); // event 0: not armed, untouched
    EXPECT_EQ(std::filesystem::file_size(path), 100u);
    injector.onCachePublish(path); // event 1: cut 30 bytes
    EXPECT_EQ(std::filesystem::file_size(path), 70u);
    EXPECT_EQ(injector.cacheEvents(), 2u);
    EXPECT_EQ(injector.jobEvents(), 0u)
        << "cache events must not advance the job counter";
    std::filesystem::remove(path);
}

TEST_F(FaultInjectionTest, CacheTruncateDefaultsToHalf)
{
    const std::string path =
        scratchFile("truncate_half", std::string(64, 'y'));
    FaultInjector &injector = FaultInjector::instance();
    injector.configure("cache-truncate@0");
    injector.onCachePublish(path);
    EXPECT_EQ(std::filesystem::file_size(path), 32u);
    std::filesystem::remove(path);
}

TEST_F(FaultInjectionTest, CacheBitflipChangesExactlyOneBit)
{
    const std::string content(40, 'z');
    const std::string path = scratchFile("bitflip", content);
    FaultInjector &injector = FaultInjector::instance();
    injector.configure("cache-bitflip@0:7");
    injector.onCachePublish(path);
    const std::string mutated = slurp(path);
    ASSERT_EQ(mutated.size(), content.size());
    for (std::size_t i = 0; i < content.size(); ++i) {
        if (i == 7)
            EXPECT_EQ(mutated[i], static_cast<char>(content[i] ^ 0x01));
        else
            EXPECT_EQ(mutated[i], content[i]);
    }
    std::filesystem::remove(path);
}

TEST_F(FaultInjectionTest, JobActionsIgnoreCacheEventsAndViceVersa)
{
    const std::string path = scratchFile("cross", "payload");
    FaultInjector &injector = FaultInjector::instance();
    injector.configure("throw@0,cache-bitflip@0");
    // The cache event must not trip the job action...
    injector.onCachePublish(path);
    // ...and the job event must still fire its own.
    EXPECT_THROW(injector.onJobStart(), TransientError);
    std::filesystem::remove(path);
}

TEST_F(FaultInjectionTest, ChunkActionsIgnoreCacheEvents)
{
    const std::string path = scratchFile("chunk", "payload");
    FaultInjector &injector = FaultInjector::instance();
    injector.configure("chunk-throw@0");
    // A cache publish must neither corrupt the file nor consume the
    // armed chunk action.
    injector.onCachePublish(path);
    EXPECT_EQ(slurp(path), "payload");
    EXPECT_TRUE(FaultInjector::chunkFaultsArmed());
    EXPECT_THROW(injector.onBatchChunk(), TransientError);
    std::filesystem::remove(path);
}

TEST_F(FaultInjectionTest, ConfigureResetsCountersAndResetDisarms)
{
    FaultInjector &injector = FaultInjector::instance();
    injector.configure("throw@5");
    injector.onJobStart();
    injector.onJobStart();
    EXPECT_EQ(injector.jobEvents(), 2u);
    injector.configure("throw@5"); // re-arm: counters restart
    EXPECT_EQ(injector.jobEvents(), 0u);
    injector.reset();
    EXPECT_FALSE(injector.active());
    for (int i = 0; i < 8; ++i)
        EXPECT_NO_THROW(injector.onJobStart());
}

using FaultInjectionDeathTest = FaultInjectionTest;

TEST_F(FaultInjectionDeathTest, MalformedSpecsAreFatal)
{
    EXPECT_EXIT(FaultInjector::instance().configure("throw"),
                ::testing::ExitedWithCode(1), "missing '@index'");
    EXPECT_EXIT(FaultInjector::instance().configure("explode@3"),
                ::testing::ExitedWithCode(1), "unknown action");
    // Spellings of deleted kinds must fail loudly, not be ignored.
    EXPECT_EXIT(FaultInjector::instance().configure("worker-crash@1"),
                ::testing::ExitedWithCode(1), "unknown action");
    EXPECT_EXIT(FaultInjector::instance().configure("throw@banana"),
                ::testing::ExitedWithCode(1), "bad number");
    EXPECT_EXIT(FaultInjector::instance().configure("throw@-1"),
                ::testing::ExitedWithCode(1), "bad number");
}

} // namespace
} // namespace chirp
