// Tests for the HDR-style histogram and table printer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "stats/histogram.h"
#include "stats/table.h"

namespace meshnet::stats {
namespace {

TEST(LogHistogram, EmptyIsZero) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.percentile(50), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.stddev(), 0.0);
}

TEST(LogHistogram, SmallValuesAreExact) {
  LogHistogram h(7);
  for (std::uint64_t v = 0; v < 128; ++v) h.record(v);
  // Every value below 2^7 sits in its own bucket: percentiles are exact.
  EXPECT_EQ(h.percentile(0), 0u);
  EXPECT_EQ(h.percentile(100), 127u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 127u);
  EXPECT_EQ(h.count(), 128u);
}

TEST(LogHistogram, SingleValue) {
  LogHistogram h;
  h.record(42);
  EXPECT_EQ(h.percentile(0), 42u);
  EXPECT_EQ(h.percentile(50), 42u);
  EXPECT_EQ(h.percentile(100), 42u);
  EXPECT_DOUBLE_EQ(h.mean(), 42.0);
}

TEST(LogHistogram, MeanAndStddevMatchNaive) {
  LogHistogram h;
  std::vector<double> values;
  std::mt19937_64 rng(1);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng() % 100000;
    h.record(v);
    values.push_back(static_cast<double>(v));
  }
  double sum = 0;
  for (double v : values) sum += v;
  const double mean = sum / static_cast<double>(values.size());
  double sq = 0;
  for (double v : values) sq += (v - mean) * (v - mean);
  const double stddev = std::sqrt(sq / (static_cast<double>(values.size()) - 1));
  EXPECT_NEAR(h.mean(), mean, 1e-6);
  EXPECT_NEAR(h.stddev(), stddev, 1e-6);
}

TEST(LogHistogram, RecordNWeightsCounts) {
  LogHistogram h;
  h.record_n(10, 99);
  h.record_n(1000000, 1);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.percentile(50), 10u);
  EXPECT_GT(h.percentile(100), 900000u);
}

TEST(LogHistogram, RecordZeroCountIsNoop) {
  LogHistogram h;
  h.record_n(5, 0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(LogHistogram, PercentileClampsToObservedRange) {
  LogHistogram h;
  h.record(1'000'003);
  EXPECT_EQ(h.percentile(0), 1'000'003u);
  EXPECT_EQ(h.percentile(100), 1'000'003u);
}

TEST(LogHistogram, CdfMonotone) {
  LogHistogram h;
  std::mt19937_64 rng(2);
  for (int i = 0; i < 5000; ++i) h.record(rng() % 1000000);
  double prev = 0.0;
  for (std::uint64_t v = 0; v < 1000000; v += 50000) {
    const double c = h.cdf(v);
    EXPECT_GE(c, prev);
    EXPECT_LE(c, 1.0);
    prev = c;
  }
  EXPECT_NEAR(h.cdf(1000000), 1.0, 1e-9);
}

TEST(LogHistogram, MergeEqualsCombinedRecording) {
  LogHistogram a, b, combined;
  std::mt19937_64 rng(3);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng() % 1000000;
    if (i % 2 == 0) {
      a.record(v);
    } else {
      b.record(v);
    }
    combined.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
  for (double p : {1.0, 25.0, 50.0, 75.0, 99.0}) {
    EXPECT_EQ(a.percentile(p), combined.percentile(p)) << "p=" << p;
  }
}

TEST(LogHistogram, MergeAcrossPrecisionsReRecords) {
  LogHistogram fine(10), coarse(5);
  for (int i = 0; i < 100; ++i) coarse.record(1000 + static_cast<std::uint64_t>(i));
  fine.merge(coarse);
  EXPECT_EQ(fine.count(), 100u);
}

TEST(LogHistogram, ResetClearsEverything) {
  LogHistogram h;
  h.record(123456);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.percentile(99), 0u);
}

TEST(LogHistogram, PrecisionBitsClamped) {
  EXPECT_EQ(LogHistogram(0).precision_bits(), 3);
  EXPECT_EQ(LogHistogram(99).precision_bits(), 14);
  EXPECT_EQ(LogHistogram(7).precision_bits(), 7);
}

// Property: relative error of any percentile is bounded by 2^-k, across
// several magnitudes and distributions.
class HistogramErrorTest : public ::testing::TestWithParam<int> {};

TEST_P(HistogramErrorTest, RelativeErrorBound) {
  const int k = GetParam();
  LogHistogram h(k);
  std::vector<std::uint64_t> values;
  std::mt19937_64 rng(42);
  for (int i = 0; i < 20000; ++i) {
    // log-uniform over [1, 2^40]
    const double exponent = std::uniform_real_distribution<>(0, 40)(rng);
    values.push_back(static_cast<std::uint64_t>(std::pow(2.0, exponent)));
    h.record(values.back());
  }
  std::sort(values.begin(), values.end());
  const double bound = std::pow(2.0, -k) + 1e-12;
  for (double p : {1.0, 10.0, 50.0, 90.0, 99.0, 99.9}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    const std::uint64_t exact = values[std::max<std::size_t>(rank, 1) - 1];
    const std::uint64_t approx = h.percentile(p);
    const double rel_err =
        std::abs(static_cast<double>(approx) - static_cast<double>(exact)) /
        std::max<double>(1.0, static_cast<double>(exact));
    EXPECT_LE(rel_err, bound) << "p=" << p << " k=" << k
                              << " exact=" << exact << " approx=" << approx;
  }
}

INSTANTIATE_TEST_SUITE_P(Precision, HistogramErrorTest,
                         ::testing::Values(5, 7, 9, 11));

TEST(Table, AlignsColumnsAndUnderlines) {
  Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer-name", "22"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  // All lines (header, underline, rows) end in newline.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(Table, MissingCellsRenderEmpty) {
  Table t({"a", "b", "c"});
  t.add_row({"x"});
  EXPECT_EQ(t.row_count(), 1u);
  EXPECT_NO_THROW(t.to_string());
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\n");
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(3.0, 0), "3");
}

// ---------------------------------------------------------------------------
// Sharded-merge properties. The sweep runner's determinism guarantee rests
// on these: merging K per-point recorders must equal one recorder fed the
// concatenated samples, for ANY split of the samples into shards.

TEST(LogHistogram, ShardedMergeEqualsCombined_RandomSplits) {
  std::mt19937_64 rng(0xfeed);
  for (int trial = 0; trial < 20; ++trial) {
    const int shards = 1 + static_cast<int>(rng() % 8);
    // Spread values across both the exact (< 2^k) and bucketed ranges of
    // the histogram. Cap at 2^20 so the sum of squares stays within the
    // double-exact integer range: equality below is bit-exact, and summing
    // inexact squares in shard order vs sample order would differ in the
    // last ulp without any merge bug.
    std::vector<std::uint64_t> samples(500 + rng() % 1500);
    for (auto& v : samples) v = rng() % (1ULL << (8 + rng() % 13));

    LogHistogram combined;
    std::vector<LogHistogram> parts(static_cast<std::size_t>(shards));
    for (const std::uint64_t v : samples) {
      combined.record(v);
      parts[rng() % static_cast<std::uint64_t>(shards)].record(v);
    }
    LogHistogram merged;
    for (const LogHistogram& part : parts) merged.merge(part);

    // Bit-exact equivalence, not just "close": operator== compares every
    // bucket plus min/max/sum/sum_sq.
    EXPECT_EQ(merged, combined) << "trial=" << trial << " shards=" << shards;
    for (double p : {0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
      EXPECT_EQ(merged.percentile(p), combined.percentile(p))
          << "trial=" << trial << " p=" << p;
    }
    EXPECT_DOUBLE_EQ(merged.mean(), combined.mean());
  }
}

TEST(LogHistogram, ShardedMergeOrderInvariant) {
  // Merging the same shards in a different order must give the same
  // histogram (counts are integers, sums are exact for these values), so
  // the sweep runner's fixed input-order merge is deterministic.
  std::mt19937_64 rng(77);
  std::vector<LogHistogram> parts(5);
  for (int i = 0; i < 2000; ++i) {
    parts[rng() % parts.size()].record(rng() % 1000000);
  }
  LogHistogram forward, backward;
  for (std::size_t i = 0; i < parts.size(); ++i) forward.merge(parts[i]);
  for (std::size_t i = parts.size(); i-- > 0;) backward.merge(parts[i]);
  EXPECT_EQ(forward, backward);
}

TEST(LogHistogram, EqualityDetectsDifferences) {
  LogHistogram a, b;
  a.record(100);
  b.record(100);
  EXPECT_EQ(a, b);
  b.record(100);
  EXPECT_NE(a, b);

  LogHistogram c(7), d(6);  // same data, different precision
  c.record(1 << 20);
  d.record(1 << 20);
  EXPECT_NE(c, d);
}

}  // namespace
}  // namespace meshnet::stats
