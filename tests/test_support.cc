/**
 * @file
 * Tests for the support layer: deterministic RNG, string utilities,
 * tables and diagnostics.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <climits>
#include <sstream>
#include <thread>
#include <vector>

#include "support/bitmatrix.hh"
#include "support/diag.hh"
#include "support/rng.hh"
#include "support/singleflight.hh"
#include "support/stats.hh"
#include "support/strutil.hh"
#include "support/table.hh"

namespace swp
{
namespace
{

TEST(Rng, DeterministicForEqualSeeds)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, RangeIsInclusiveAndCoversEndpoints)
{
    Rng rng(7);
    bool sawLo = false, sawHi = false;
    for (int i = 0; i < 2000; ++i) {
        const int v = rng.range(3, 6);
        ASSERT_GE(v, 3);
        ASSERT_LE(v, 6);
        sawLo |= v == 3;
        sawHi |= v == 6;
    }
    EXPECT_TRUE(sawLo);
    EXPECT_TRUE(sawHi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0;
    for (int i = 0; i < 4000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 4000.0, 0.5, 0.03);
}

TEST(Rng, PickWeightedRespectsZeroWeights)
{
    Rng rng(3);
    const int weights[3] = {0, 5, 0};
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(rng.pickWeighted(weights, 3), 1);
}

TEST(Strutil, TrimStripsBothEnds)
{
    EXPECT_EQ(trim("  a b  "), "a b");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim(" \t\n "), "");
}

TEST(Strutil, SplitKeepsEmptyFields)
{
    const auto parts = split("a,,b", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[1], "");
}

TEST(Strutil, SplitWsDropsEmptyFields)
{
    const auto parts = splitWs("  ld   x1\t x2 ");
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "ld");
    EXPECT_EQ(parts[2], "x2");
}

TEST(Strutil, ParseIntInRangeRejectsGarbage)
{
    int v = 0;
    EXPECT_TRUE(parseIntInRange("42", 0, 100, v));
    EXPECT_EQ(v, 42);
    EXPECT_TRUE(parseIntInRange("-7", -10, 10, v));
    EXPECT_EQ(v, -7);

    // Rejections never touch the output.
    v = 7;
    for (const char *bad : {"", "x", "12x", " -7 ", "-1", "101"}) {
        EXPECT_FALSE(parseIntInRange(bad, 0, 100, v)) << bad;
        EXPECT_EQ(v, 7) << bad;
    }
    // Past the int range even when the bounds allow every int: 2^32 + 1
    // would narrow to 1, and strtol saturates the second.
    for (const char *big : {"4294967297", "99999999999999999999"}) {
        EXPECT_FALSE(parseIntInRange(big, INT_MIN, INT_MAX, v)) << big;
        EXPECT_EQ(v, 7) << big;
    }
}

TEST(Strutil, Strprintf)
{
    EXPECT_EQ(strprintf("%d-%s", 3, "a"), "3-a");
    EXPECT_EQ(strprintf("%.2f", 1.5), "1.50");
}

TEST(Strutil, ParseInt64InRangeCheckedParsing)
{
    long long v = -1;
    EXPECT_TRUE(parseInt64InRange("42", 1, 100, v));
    EXPECT_EQ(v, 42);
    EXPECT_TRUE(parseInt64InRange("1000000000000", 1, 1000000000000LL, v));
    EXPECT_EQ(v, 1000000000000LL);

    // Rejections never touch the output.
    v = 7;
    for (const char *bad : {"", "x", "12x", "x12", "1 2", " 12", "12 ",
                            "0", "-3", "101", "9223372036854775808",
                            "99999999999999999999", "12.5", "+"}) {
        EXPECT_FALSE(parseInt64InRange(bad, 1, 100, v)) << bad;
        EXPECT_EQ(v, 7) << bad;
    }
}

TEST(Strutil, StrCatConcatenatesMixedTypes)
{
    EXPECT_EQ(strCat("a", 1, "/", 2), "a1/2");
    EXPECT_EQ(strCat(), "");
    EXPECT_EQ(strCat(std::string("x"), 'y'), "xy");
}

TEST(Table, AlignsColumnsAndCountsRows)
{
    Table t({"name", "value"});
    t.row().add("a").add(1);
    t.row().add("bb").add(22);
    EXPECT_EQ(t.numRows(), 2u);
    std::ostringstream os;
    t.print(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("name"), std::string::npos);
    EXPECT_NE(text.find("bb"), std::string::npos);
}

TEST(Table, CsvOutput)
{
    Table t({"a", "b"});
    t.row().add(1).add(2.5, 1);
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2.5\n");
}

TEST(Diag, FatalAndPanicThrowDistinctTypes)
{
    EXPECT_THROW(SWP_FATAL("user error ", 1), FatalError);
    EXPECT_THROW(SWP_PANIC("bug ", 2), PanicError);
    EXPECT_NO_THROW(SWP_ASSERT(true, "fine"));
    EXPECT_THROW(SWP_ASSERT(1 == 2, "broken"), PanicError);
}

TEST(Stats, AccumulatorTracksMoments)
{
    Accumulator acc;
    acc.sample(1.0);
    acc.sample(3.0);
    EXPECT_EQ(acc.count(), 2u);
    EXPECT_DOUBLE_EQ(acc.mean(), 2.0);
    EXPECT_DOUBLE_EQ(acc.min(), 1.0);
    EXPECT_DOUBLE_EQ(acc.max(), 3.0);
}

TEST(Stats, StopwatchAdvances)
{
    Stopwatch sw;
    volatile long x = 0;
    for (long i = 0; i < 100000; ++i)
        x = x + i;
    EXPECT_GT(sw.seconds(), 0.0);
}

namespace
{

/** getOrCompute with a counting compute and a no-op hit hook. */
int
cachedSquare(SingleFlightCache<int, int> &cache, int key, int &computes)
{
    return cache.getOrCompute(
        key,
        [&]() {
            ++computes;
            return key * key;
        },
        [](const int &) {});
}

} // namespace

TEST(SingleFlight, EachKeyComputesOnce)
{
    SingleFlightCache<int, int> cache;
    int computes = 0;
    for (int round = 0; round < 3; ++round) {
        for (int k = 0; k < 50; ++k)
            EXPECT_EQ(cachedSquare(cache, k, computes), k * k);
    }
    EXPECT_EQ(computes, 50);
    const SingleFlightStats s = cache.stats();
    EXPECT_EQ(s.requests, 150);
    EXPECT_EQ(s.computes, 50);
    EXPECT_EQ(s.entries, 50);
}

TEST(SingleFlight, FailedComputationsRetryAndDoNotPoison)
{
    SingleFlightCache<int, int> cache;
    int calls = 0;
    const auto failing = [&]() -> int {
        ++calls;
        throw std::runtime_error("boom");
    };
    EXPECT_THROW(cache.getOrCompute(7, failing, [](const int &) {}),
                 std::runtime_error);
    int computes = 0;
    EXPECT_EQ(cachedSquare(cache, 7, computes), 49);
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(computes, 1);
}

TEST(SingleFlight, StatsSnapshotIsConsistentUnderLoad)
{
    // Concurrent getOrCompute (owners, waiters on in-flight entries,
    // and hits) against concurrent stats() readers; under TSan this is
    // the cache's race check. Mid-run a snapshot may see an in-flight
    // entry before its compute counter lands (computes < entries),
    // never the reverse, and never computes > requests.
    SingleFlightCache<int, int> cache;
    std::atomic<bool> stop{false};
    std::vector<std::thread> workers;
    for (int w = 0; w < 4; ++w) {
        workers.emplace_back([&cache, &stop, w] {
            int computes = 0;
            int k = w * 17;
            while (!stop.load(std::memory_order_relaxed)) {
                cachedSquare(cache, k % 96, computes);
                ++k;
            }
        });
    }
    long totalRequests = 0;
    for (int i = 0; i < 200; ++i) {
        const SingleFlightStats s = cache.stats();
        EXPECT_GE(s.requests, totalRequests); // Monotone across cuts.
        totalRequests = s.requests;
        EXPECT_LE(s.computes, s.requests);
        EXPECT_LE(s.computes, s.entries);
        EXPECT_LE(s.entries, 96);
    }
    stop.store(true);
    for (std::thread &t : workers)
        t.join();
    const SingleFlightStats s = cache.stats();
    EXPECT_EQ(s.computes, s.entries); // Exact at rest.
}

TEST(Strutil, JsonQuoteEscapes)
{
    EXPECT_EQ(jsonQuote("plain"), "\"plain\"");
    EXPECT_EQ(jsonQuote("a\"b\\c"), "\"a\\\"b\\\\c\"");
    EXPECT_EQ(jsonQuote("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
    EXPECT_EQ(jsonQuote(std::string("\x01", 1)), "\"\\u0001\"");
}

TEST(BitMatrix, WordHelpers)
{
    EXPECT_EQ(countTrailingZeros(1), 0);
    EXPECT_EQ(countTrailingZeros(0b1000), 3);
    EXPECT_EQ(countTrailingZeros(std::uint64_t(1) << 63), 63);
    EXPECT_EQ(lowBitsMask(0), 0u);
    EXPECT_EQ(lowBitsMask(1), 1u);
    EXPECT_EQ(lowBitsMask(5), 0b11111u);
    EXPECT_EQ(lowBitsMask(64), ~std::uint64_t(0));
}

TEST(BitMatrix, SetTestAndCrossWordColumns)
{
    // 70 columns spans two words per row: bits on both sides of the
    // word boundary must be independent.
    BitMatrix m(3, 70);
    EXPECT_EQ(m.wordsPerRow(), 2);
    EXPECT_FALSE(m.test(1, 63));
    m.set(1, 63);
    m.set(1, 64);
    m.set(2, 69);
    EXPECT_TRUE(m.test(1, 63));
    EXPECT_TRUE(m.test(1, 64));
    EXPECT_TRUE(m.test(2, 69));
    EXPECT_FALSE(m.test(0, 63));
    EXPECT_FALSE(m.test(1, 62));
    EXPECT_FALSE(m.test(1, 65));
    // clear() drops one bit and leaves its word neighbours set.
    m.clear(1, 64);
    EXPECT_FALSE(m.test(1, 64));
    EXPECT_TRUE(m.test(1, 63));
    EXPECT_TRUE(m.test(2, 69));
}

TEST(BitMatrix, ResetClearsAndReusesAcrossShapes)
{
    BitMatrix m(2, 10);
    m.set(0, 3);
    m.set(1, 9);
    m.reset(4, 5);
    EXPECT_EQ(m.rows(), 4);
    EXPECT_EQ(m.cols(), 5);
    for (int r = 0; r < 4; ++r) {
        for (int c = 0; c < 5; ++c)
            EXPECT_FALSE(m.test(r, c));
    }
    // Growing again after shrinking also starts clear.
    m.reset(1, 130);
    for (int c = 0; c < 130; ++c)
        EXPECT_FALSE(m.test(0, c));
}

TEST(BitMatrix, IntersectsAndOrRowInto)
{
    BitMatrix m(2, 130);
    m.set(0, 5);
    m.set(0, 129);
    m.set(1, 64);

    BitRow mask;
    mask.reset(130);
    EXPECT_FALSE(m.intersects(0, mask.words()));
    mask.set(129);
    EXPECT_TRUE(m.intersects(0, mask.words()));
    EXPECT_FALSE(m.intersects(1, mask.words()));
    mask.clear(129);
    mask.set(64);
    EXPECT_TRUE(m.intersects(1, mask.words()));
    EXPECT_FALSE(m.intersects(0, mask.words()));

    // orRowInto unions a row into an external word buffer.
    BitRow acc;
    acc.reset(130);
    m.orRowInto(0, acc.words());
    m.orRowInto(1, acc.words());
    EXPECT_TRUE(acc.test(5));
    EXPECT_TRUE(acc.test(64));
    EXPECT_TRUE(acc.test(129));
    EXPECT_FALSE(acc.test(6));
}

TEST(BitRow, SetClearAndReuse)
{
    BitRow r;
    r.reset(70);
    EXPECT_EQ(r.size(), 70);
    r.set(0);
    r.set(69);
    EXPECT_TRUE(r.test(0));
    EXPECT_TRUE(r.test(69));
    r.clear(69);
    EXPECT_FALSE(r.test(69));
    r.reset(3);
    EXPECT_FALSE(r.test(0));
}

} // namespace
} // namespace swp
