// Unit tests for src/common: status, slice, coding, hash, bloom, arena, rng,
// number parsing.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/arena.h"
#include "common/bloom.h"
#include "common/coding.h"
#include "common/hash.h"
#include "common/parse.h"
#include "common/random.h"
#include "common/slice.h"
#include "common/status.h"

namespace hybridndp {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesMessage) {
  Status s = Status::NotFound("key 42");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: key 42");
}

TEST(StatusTest, AllCodesRoundTrip) {
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_EQ(Status::IOError("y").code(), Code::kIOError);
  EXPECT_EQ(Status::Aborted().code(), Code::kAborted);
  EXPECT_EQ(Status::Internal().code(), Code::kInternal);
  EXPECT_EQ(Status::NotSupported().code(), Code::kNotSupported);
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok(42);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  Result<int> err(Status::NotFound("nope"));
  ASSERT_FALSE(err.ok());
  EXPECT_TRUE(err.status().IsNotFound());
}

TEST(SliceTest, CompareOrdersLexicographically) {
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abd").compare(Slice("abc")), 0);
  EXPECT_EQ(Slice("abc").compare(Slice("abc")), 0);
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);  // prefix sorts first
}

TEST(SliceTest, EqualityAndPrefix) {
  Slice s("hello world");
  EXPECT_TRUE(s.starts_with("hello"));
  EXPECT_FALSE(s.starts_with("world"));
  s.remove_prefix(6);
  EXPECT_EQ(s.ToString(), "world");
}

TEST(CodingTest, Fixed32RoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0);
  PutFixed32(&buf, 12345);
  PutFixed32(&buf, 0xffffffffu);
  EXPECT_EQ(DecodeFixed32(buf.data()), 0u);
  EXPECT_EQ(DecodeFixed32(buf.data() + 4), 12345u);
  EXPECT_EQ(DecodeFixed32(buf.data() + 8), 0xffffffffu);
}

TEST(CodingTest, VarintRoundTrip) {
  std::string buf;
  const uint64_t values[] = {0, 1, 127, 128, 300, 1 << 20, (1ull << 40) + 7,
                             ~0ull};
  for (uint64_t v : values) PutVarint64(&buf, v);
  Slice input(buf);
  for (uint64_t v : values) {
    uint64_t got = 0;
    ASSERT_TRUE(GetVarint64(&input, &got));
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(input.empty());
}

TEST(CodingTest, VarintLengthMatchesEncoding) {
  for (uint64_t v : {0ull, 127ull, 128ull, 1ull << 21, 1ull << 63}) {
    std::string buf;
    PutVarint64(&buf, v);
    EXPECT_EQ(static_cast<int>(buf.size()), VarintLength(v));
  }
}

TEST(CodingTest, Varint32RejectsTruncated) {
  std::string buf;
  PutVarint32(&buf, 1 << 20);
  Slice truncated(buf.data(), buf.size() - 1);
  uint32_t v;
  EXPECT_FALSE(GetVarint32(&truncated, &v));
}

TEST(CodingTest, LengthPrefixedSlice) {
  std::string buf;
  PutLengthPrefixedSlice(&buf, "hello");
  PutLengthPrefixedSlice(&buf, "");
  PutLengthPrefixedSlice(&buf, "world");
  Slice input(buf), out;
  ASSERT_TRUE(GetLengthPrefixedSlice(&input, &out));
  EXPECT_EQ(out.ToString(), "hello");
  ASSERT_TRUE(GetLengthPrefixedSlice(&input, &out));
  EXPECT_EQ(out.ToString(), "");
  ASSERT_TRUE(GetLengthPrefixedSlice(&input, &out));
  EXPECT_EQ(out.ToString(), "world");
}

TEST(CodingTest, OrderedInt32PreservesOrder) {
  const int32_t values[] = {INT32_MIN, -100, -1, 0, 1, 42, INT32_MAX};
  std::string prev;
  for (int32_t v : values) {
    std::string cur;
    PutOrderedInt32(&cur, v);
    ASSERT_EQ(cur.size(), 4u);
    EXPECT_EQ(GetOrderedInt32(cur.data()), v);
    if (!prev.empty()) {
      EXPECT_LT(Slice(prev).compare(Slice(cur)), 0)
          << "ordering broken at " << v;
    }
    prev = cur;
  }
}

TEST(HashTest, DeterministicAndSeedSensitive) {
  EXPECT_EQ(Hash64("abc", 3), Hash64("abc", 3));
  EXPECT_NE(Hash64("abc", 3, 1), Hash64("abc", 3, 2));
  EXPECT_NE(Hash64("abc", 3), Hash64("abd", 3));
}

TEST(HashTest, CoversAllTailLengths) {
  std::set<uint64_t> seen;
  std::string s = "0123456789abcdef0123";
  for (size_t n = 0; n <= s.size(); ++n) {
    seen.insert(Hash64(s.data(), n));
  }
  EXPECT_EQ(seen.size(), s.size() + 1);  // no trivial collisions
}

TEST(BloomTest, NoFalseNegatives) {
  BloomFilterBuilder builder(10);
  std::vector<std::string> keys;
  for (int i = 0; i < 1000; ++i) keys.push_back("key" + std::to_string(i));
  for (const auto& k : keys) builder.AddKey(k);
  std::string data = builder.Finish();
  BloomFilter filter((Slice(data)));
  for (const auto& k : keys) {
    EXPECT_TRUE(filter.MayContain(k)) << k;
  }
}

TEST(BloomTest, LowFalsePositiveRate) {
  BloomFilterBuilder builder(10);
  for (int i = 0; i < 10000; ++i) builder.AddKey("key" + std::to_string(i));
  std::string data = builder.Finish();
  BloomFilter filter((Slice(data)));
  int fp = 0;
  for (int i = 0; i < 10000; ++i) {
    if (filter.MayContain("other" + std::to_string(i))) ++fp;
  }
  EXPECT_LT(fp, 300);  // ~1% expected at 10 bits/key; allow 3%
}

TEST(BloomTest, CorruptFilterFailsOpen) {
  BloomFilter filter(Slice("x"));  // too short
  EXPECT_TRUE(filter.MayContain("anything"));
}

TEST(ArenaTest, AllocationsAreAlignedAndDisjoint) {
  Arena arena;
  std::vector<char*> ptrs;
  for (int i = 1; i <= 200; ++i) {
    char* p = arena.Allocate(i);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % alignof(void*), 0u);
    memset(p, i & 0xff, i);  // would crash/corrupt if overlapping
    ptrs.push_back(p);
  }
  EXPECT_GT(arena.MemoryUsage(), 0u);
}

TEST(ArenaTest, LargeAllocationGetsOwnBlock) {
  Arena arena;
  char* small = arena.Allocate(8);
  char* big = arena.Allocate(100000);
  char* small2 = arena.Allocate(8);
  memset(big, 0xab, 100000);
  EXPECT_NE(small, big);
  EXPECT_NE(small2, big);
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, ZipfIsSkewedTowardLowRanks) {
  Rng rng(7);
  int low = 0;
  const int kSamples = 10000;
  for (int i = 0; i < kSamples; ++i) {
    if (rng.Zipf(1000, 0.9) < 100) ++low;  // first decile of ranks
  }
  // Under uniform we would expect ~10%; zipf(0.9) must be far above that.
  EXPECT_GT(low, kSamples / 4);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(ParseTest, AcceptsWholeNumbers) {
  uint64_t u = 0;
  EXPECT_TRUE(common::ParseUint64("0", &u));
  EXPECT_EQ(u, 0u);
  EXPECT_TRUE(common::ParseUint64("18446744073709551615", &u));
  EXPECT_EQ(u, ~0ull);
  int64_t i = 0;
  EXPECT_TRUE(common::ParseInt64("-7", &i));
  EXPECT_EQ(i, -7);
  double d = 0;
  EXPECT_TRUE(common::ParseDouble("0.25", &d));
  EXPECT_EQ(d, 0.25);
  EXPECT_TRUE(common::ParseDouble("-1e-3", &d));
  EXPECT_EQ(d, -1e-3);
  EXPECT_TRUE(common::ParseDouble("3", &d));
  EXPECT_EQ(d, 3.0);
}

TEST(ParseTest, RejectsMalformedText) {
  // Unsigned input takes digits only; nothing is read as 0 or wraps.
  for (const char* s : {"-1", "+1", " 1", "1 ", "1x", "",
                        "18446744073709551616", "0x10", "1.5"}) {
    uint64_t u = 99;
    EXPECT_FALSE(common::ParseUint64(s, &u)) << '"' << s << '"';
    EXPECT_EQ(u, 99u) << "out written on failure";
  }
  for (const char* s : {"+1", " 1", "1x", "", "-", "9223372036854775808"}) {
    int64_t i = 99;
    EXPECT_FALSE(common::ParseInt64(s, &i)) << '"' << s << '"';
    EXPECT_EQ(i, 99);
  }
  // A double must be whole text and finite.
  for (const char* s : {"inf", "-inf", "nan", "1e999", "-1e999", "", " 1",
                        "1 ", "0.5x", "+0.5", "0x1p3"}) {
    double d = 99;
    EXPECT_FALSE(common::ParseDouble(s, &d)) << '"' << s << '"';
    EXPECT_EQ(d, 99.0);
  }
}

}  // namespace
}  // namespace hybridndp
