/** @file Unit tests for util/random.hh. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "util/hashing.hh"
#include "util/random.hh"

namespace chirp
{
namespace
{

TEST(Rng, DeterministicPerSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_EQ(same, 0);
}

TEST(Rng, ZeroSeedIsRemapped)
{
    Rng a(0);
    EXPECT_NE(a.next(), 0u);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
}

TEST(Rng, BelowCoversRange)
{
    Rng rng(11);
    std::vector<int> seen(8, 0);
    for (int i = 0; i < 1000; ++i)
        ++seen[rng.below(8)];
    for (int i = 0; i < 8; ++i)
        EXPECT_GT(seen[i], 60) << "value " << i << " underrepresented";
}

TEST(Rng, RangeInclusive)
{
    Rng rng(13);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 500; ++i) {
        const std::uint64_t v = rng.range(3, 6);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 6u);
        saw_lo |= v == 3;
        saw_hi |= v == 6;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(17);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceEdgeCases)
{
    Rng rng(19);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceApproximatesProbability)
{
    Rng rng(23);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Zipf, HeadIsHotterThanTail)
{
    Rng rng(29);
    Rng::Zipf zipf(100, 1.0);
    std::vector<int> counts(100, 0);
    for (int i = 0; i < 20000; ++i)
        ++counts[zipf(rng)];
    EXPECT_GT(counts[0], counts[50] * 5);
    EXPECT_GT(counts[0], counts[99] * 10);
}

TEST(Zipf, AllRanksReachable)
{
    Rng rng(31);
    Rng::Zipf zipf(8, 0.5);
    std::vector<int> counts(8, 0);
    for (int i = 0; i < 5000; ++i)
        ++counts[zipf(rng)];
    for (int i = 0; i < 8; ++i)
        EXPECT_GT(counts[i], 0) << "rank " << i;
}

// Golden sequences.  The literals were produced by the original
// out-of-line implementation (binary-search Zipf, division-based
// below()), so they check the inline draws against the old code, not
// against themselves.  Generated traces and trace-cache files depend
// on every one of these sequences staying fixed.

TEST(RngGolden, Next)
{
    Rng rng(0x1234);
    const std::uint64_t want[] = {
        0x237e70e6733f6ad8ull, 0xa2a4f6471b1e8672ull, 0x53c5b09381d7e87full,
        0x1388b1b1ccb766ceull, 0x18435c0272d6a3b0ull, 0x631e00c77569bb3dull,
        0xd27e9562407372a8ull, 0xe8ca45387e7ccdd7ull};
    for (const std::uint64_t w : want)
        EXPECT_EQ(rng.next(), w);
}

TEST(RngGolden, Below)
{
    struct Case
    {
        std::uint64_t bound;
        std::uint64_t want[6];
    };
    // Powers of two take the mask path; 2^63 + 1 rejects about half
    // of all draws, so it pins the rejection loop's draw count.
    const Case cases[] = {
        {1, {0, 0, 0, 0, 0, 0}},
        {2, {1, 1, 1, 1, 1, 0}},
        {7, {6, 6, 1, 3, 5, 3}},
        {8, {5, 1, 3, 1, 6, 7}},
        {64, {60, 13, 49, 6, 51, 39}},
        {1000, {402, 921, 11, 942, 501, 415}},
        {std::uint64_t{1} << 40,
         {293970785218ull, 826328941938ull, 118626394777ull,
          475385847851ull, 273956731575ull, 550576351983ull}},
        {(std::uint64_t{1} << 63) + 1,
         {7984831879100508925ull, 5708970480268262904ull,
          7052298119825825024ull, 6544375223763971657ull,
          4822377638193958006ull, 7708594081093840164ull}},
    };
    Rng rng(99);
    for (const Case &c : cases) {
        for (const std::uint64_t w : c.want)
            EXPECT_EQ(rng.below(c.bound), w) << "bound " << c.bound;
    }
    EXPECT_EQ(rng.state(), 0x3ebde8ff09ccec74ull);
}

TEST(RngGolden, Range)
{
    Rng rng(5);
    EXPECT_EQ(rng.range(3, 6), 3u);
    EXPECT_EQ(rng.range(1000, 2000), 1310u);
    EXPECT_EQ(rng.range(5, 5), 5u);
    EXPECT_EQ(rng.range(8, 800), 659u);
    EXPECT_EQ(rng.range(0, 63), 46u);
    EXPECT_EQ(rng.range(150, 400), 336u);
    EXPECT_EQ(rng.state(), 0x381017c05ca2975dull);
}

TEST(RngGolden, Uniform)
{
    Rng rng(17);
    const double want[] = {0x1.6d26152577b88p-2, 0x1.38822007b9592p-2,
                           0x1.7d06d81862004p-1, 0x1.75e9e8177e52ep-1,
                           0x1.8ebdac7dbda16p-1, 0x1.9a7df633825fep-1};
    for (const double w : want)
        EXPECT_EQ(rng.uniform(), w);
}

TEST(RngGolden, Chance)
{
    struct Case
    {
        double p;
        const char *want;
    };
    // p <= 0 and p >= 1 consume no draw; the final state checks that.
    const Case cases[] = {
        {0.0, "0000000000000000000000000000000000000000"},
        {0.02, "0000000000100000000000000000000000000000"},
        {0.3, "0000101110000110001010111010000010010001"},
        {0.5, "0110000001001110110101000110100101011100"},
        {0.97, "1101111111111111111111111111111111111111"},
        {1.0, "1111111111111111111111111111111111111111"},
    };
    Rng rng(23);
    for (const Case &c : cases) {
        std::string got;
        for (int i = 0; i < 40; ++i)
            got += rng.chance(c.p) ? '1' : '0';
        EXPECT_EQ(got, c.want) << "p = " << c.p;
    }
    EXPECT_EQ(rng.state(), 0xdce4f7271c7d4dbbull);
}

TEST(RngGolden, Zipf)
{
    struct Case
    {
        std::size_t n;
        double s;
        std::size_t want[12];
        std::uint64_t digest; //!< over the next 100k draws
    };
    const Case cases[] = {
        {1639, 0.9, {246, 104, 24, 17, 110, 7, 29, 74, 16, 9, 846, 258},
         0x3322c08f2fce0187ull},
        {24, 0.8, {9, 6, 2, 2, 6, 1, 3, 5, 2, 1, 17, 9},
         0xaf2c765e2c9bf93eull},
        {1, 1.0, {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
         0xdc87e9c9563ad8d9ull},
        {1000, 1.2, {25, 9, 2, 2, 10, 1, 3, 6, 2, 1, 184, 26},
         0x2b447cf5f79baffaull},
        {3, 0.5, {1, 1, 0, 0, 1, 0, 0, 1, 0, 0, 2, 1},
         0xc0d452c2a9442f38ull},
    };
    for (const Case &c : cases) {
        Rng rng(31);
        Rng::Zipf zipf(c.n, c.s);
        for (const std::size_t w : c.want)
            EXPECT_EQ(zipf(rng), w) << "n " << c.n << " s " << c.s;
        std::uint64_t digest = 0;
        for (int i = 0; i < 100000; ++i)
            digest = hashCombine(digest, zipf(rng));
        EXPECT_EQ(digest, c.digest) << "n " << c.n << " s " << c.s;
    }
}

TEST(Zipf, GuideTableEqualsBinarySearch)
{
    // The guide-table inversion must return exactly lower_bound over
    // the CDF for every u in [0, 1): random draws, every bucket edge,
    // every CDF entry, and the doubles either side of each.
    constexpr double kBuckets = Rng::Zipf::kGuideBuckets;
    Rng draws(0x5eed);
    for (const std::size_t n : {1u, 2u, 3u, 1000u, 1639u}) {
        for (const double s : {0.5, 0.8, 0.9, 1.0, 1.1, 1.2}) {
            const Rng::Zipf zipf(n, s);
            const std::vector<double> &cdf = zipf.cdf();
            ASSERT_EQ(cdf.size(), n);
            ASSERT_EQ(cdf.back(), 1.0);
            std::vector<double> probes = {0.0, std::nextafter(1.0, 0.0)};
            for (int i = 0; i < 20000; ++i)
                probes.push_back(draws.uniform());
            for (std::size_t b = 0; b < Rng::Zipf::kGuideBuckets; ++b)
                probes.push_back(static_cast<double>(b) / kBuckets);
            probes.insert(probes.end(), cdf.begin(), cdf.end());
            const std::size_t exact = probes.size();
            for (std::size_t i = 0; i < exact; ++i) {
                probes.push_back(std::nextafter(probes[i], 0.0));
                probes.push_back(std::nextafter(probes[i], 1.0));
            }
            for (const double u : probes) {
                if (u < 0.0 || u >= 1.0)
                    continue;
                const auto want = static_cast<std::size_t>(
                    std::lower_bound(cdf.begin(), cdf.end(), u) -
                    cdf.begin());
                ASSERT_EQ(zipf.rankOf(u), want)
                    << "n " << n << " s " << s << " u " << u;
            }
        }
    }
}

TEST(RngDeathTest, BelowZeroAborts)
{
    // [0, 0) is empty; a silent full-range draw or a hang would hide
    // the caller's bug.
    Rng rng(1);
    EXPECT_DEATH(rng.below(0), "below\\(0\\)");
    EXPECT_DEATH(Rng::belowLimit(0), "below\\(0\\)");
}

TEST(Shuffle, IsAPermutation)
{
    Rng rng(37);
    std::vector<int> values = {1, 2, 3, 4, 5, 6, 7, 8};
    auto sorted = values;
    rng.shuffle(values);
    std::sort(values.begin(), values.end());
    EXPECT_EQ(values, sorted);
}

TEST(Shuffle, ChangesOrderForLongVectors)
{
    Rng rng(41);
    std::vector<int> values(100);
    std::iota(values.begin(), values.end(), 0);
    auto original = values;
    rng.shuffle(values);
    EXPECT_NE(values, original);
}

} // namespace
} // namespace chirp
