// Unit tests for the support layer: RNG determinism and distribution shape,
// streaming statistics, string utilities, tables, the simulation clock, and
// the open/close alert trigger.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/sim_clock.hpp"
#include "support/stats.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "support/trigger.hpp"

namespace antarex {
namespace {

// --------------------------------------------------------------------------
// Rng
// --------------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntCoversFullInclusiveRange) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const i64 v = rng.uniform_int(0, 9);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 9);
    saw_lo = saw_lo || v == 0;
    saw_hi = saw_hi || v == 9;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntSingletonRange) {
  Rng rng(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(11);
  RunningStats st;
  for (int i = 0; i < 50000; ++i) st.add(rng.normal());
  EXPECT_NEAR(st.mean(), 0.0, 0.03);
  EXPECT_NEAR(st.stddev(), 1.0, 0.03);
}

TEST(Rng, ExponentialMeanIsInverseRate) {
  Rng rng(13);
  RunningStats st;
  for (int i = 0; i < 50000; ++i) st.add(rng.exponential(4.0));
  EXPECT_NEAR(st.mean(), 0.25, 0.01);
}

TEST(Rng, ParetoRespectsScaleAndIsHeavyTailed) {
  Rng rng(17);
  RunningStats st;
  for (int i = 0; i < 20000; ++i) st.add(rng.pareto(1.0, 2.0));
  EXPECT_GE(st.min(), 1.0);
  // E[X] = alpha*xm/(alpha-1) = 2 for alpha=2, xm=1.
  EXPECT_NEAR(st.mean(), 2.0, 0.25);
  EXPECT_GT(st.max(), 5.0);  // tail reaches far out
}

TEST(Rng, LognormalIsPositive) {
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.lognormal(0.0, 0.5), 0.0);
}

TEST(Rng, BernoulliFrequencyTracksP) {
  Rng rng(23);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(29);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, ThrowsOnInvalidArguments) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform(2.0, 1.0), Error);
  EXPECT_THROW(rng.uniform_int(2, 1), Error);
  EXPECT_THROW(rng.exponential(0.0), Error);
  EXPECT_THROW(rng.pareto(0.0, 1.0), Error);
  EXPECT_THROW(rng.index(0), Error);
}

// --------------------------------------------------------------------------
// RunningStats
// --------------------------------------------------------------------------

TEST(RunningStats, EmptyIsZero) {
  RunningStats st;
  EXPECT_EQ(st.count(), 0u);
  EXPECT_EQ(st.mean(), 0.0);
  EXPECT_EQ(st.variance(), 0.0);
}

TEST(RunningStats, KnownSample) {
  RunningStats st;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) st.add(x);
  EXPECT_DOUBLE_EQ(st.mean(), 5.0);
  EXPECT_NEAR(st.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(st.min(), 2.0);
  EXPECT_EQ(st.max(), 9.0);
  EXPECT_DOUBLE_EQ(st.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesConcatenation) {
  Rng rng(5);
  RunningStats all, a, b;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal(3.0, 2.0);
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean_before = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean_before);
  empty.merge(a);
  EXPECT_DOUBLE_EQ(empty.mean(), mean_before);
}

// --------------------------------------------------------------------------
// SlidingWindow / percentile
// --------------------------------------------------------------------------

TEST(SlidingWindow, EvictsOldest) {
  SlidingWindow w(3);
  w.add(1.0);
  w.add(2.0);
  w.add(3.0);
  EXPECT_TRUE(w.full());
  w.add(10.0);  // evicts 1.0
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);
}

TEST(SlidingWindow, PercentileOnWindow) {
  SlidingWindow w(100);
  for (int i = 1; i <= 100; ++i) w.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(w.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(w.percentile(95), 95.0);
  EXPECT_DOUBLE_EQ(w.percentile(100), 100.0);
}

TEST(Percentile, NearestRankSemantics) {
  std::vector<double> xs{15, 20, 35, 40, 50};
  EXPECT_DOUBLE_EQ(percentile(xs, 30), 20.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 40), 20.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 35.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 15.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 50.0);
}

TEST(Percentile, MultiRankReadMatchesSingleReads) {
  const std::vector<double> xs{40, 15, 50, 20, 35};
  EXPECT_EQ(percentiles(xs, {0, 30, 50, 100}),
            (std::vector<double>{15.0, 20.0, 35.0, 50.0}));
  SlidingWindow w(4);
  for (double x : {9.0, 1.0, 5.0, 3.0, 7.0}) w.add(x);  // 9 evicted
  EXPECT_EQ(w.percentiles({25, 50, 100}),
            (std::vector<double>{w.percentile(25), w.percentile(50),
                                 w.percentile(100)}));
  EXPECT_THROW(percentiles(xs, {50, 101}), Error);
  EXPECT_THROW(SlidingWindow(2).percentiles({50}), Error);
}

TEST(Percentile, ThrowsOnEmptyOrBadP) {
  EXPECT_THROW(percentile({}, 50), Error);
  EXPECT_THROW(percentile({1.0}, 101), Error);
}

TEST(Histogram, BinningAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.99);
  h.add(-5.0);   // clamps to bin 0
  h.add(100.0);  // clamps to last bin
  EXPECT_EQ(h.count(), 4u);
  // Two samples in [0, 1) and two in [9, 10), spread evenly within each bin.
  EXPECT_EQ(h.approx_quantiles({0.25, 0.5, 0.75, 1.0}),
            (std::vector<double>{0.5, 1.0, 9.5, 10.0}));
}

TEST(Histogram, QuantilesWithinOneBinWidth) {
  Histogram h(0.0, 100.0, 20);  // 5-unit bins
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_EQ(h.count(), 100u);
  const std::vector<double> q = h.approx_quantiles({0.5, 0.95});
  EXPECT_NEAR(q[0], 50.0, 5.0);
  EXPECT_NEAR(q[1], 95.0, 5.0);
  // Clamping: out-of-range samples land in the edge bins, never lost.
  h.add(-10.0);
  h.add(500.0);
  EXPECT_EQ(h.count(), 102u);
  const std::vector<double> ends = h.approx_quantiles({0.0, 1.0});
  EXPECT_GE(ends[0], 0.0);
  EXPECT_LE(ends[1], 100.0);
  EXPECT_EQ(Histogram(0.0, 1.0, 4).approx_quantiles({0.5}),
            std::vector<double>{0.0});
  EXPECT_THROW(h.approx_quantiles({0.5, 1.5}), Error);
}

TEST(Histogram, MergeCombinesPopulations) {
  Histogram a(0.0, 10.0, 10), b(0.0, 10.0, 10);
  for (int i = 0; i < 50; ++i) a.add(2.0);
  for (int i = 0; i < 50; ++i) b.add(8.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 100u);
  const std::vector<double> q = a.approx_quantiles({0.25, 0.75});
  EXPECT_NEAR(q[0], 2.5, 1.0);
  EXPECT_NEAR(q[1], 8.5, 1.0);
  EXPECT_THROW(a.merge(Histogram(0.0, 10.0, 5)), Error);
}

TEST(Histogram, MultiQuantileReadIsOrderedAndMatchesSingleReads) {
  Histogram h(0.0, 1.0, 16);
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) h.add(rng.uniform() * rng.uniform());
  const std::vector<double> qs = {0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0};
  const std::vector<double> v =
      h.approx_quantiles({0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0});
  ASSERT_EQ(v.size(), qs.size());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(v[i], h.approx_quantiles({qs[i]}).front());
    if (i > 0) {
      EXPECT_LE(v[i - 1], v[i]);
    }
  }
}

TEST(Histogram, InfinitiesAndHugeValuesLandInEdgeBins) {
  Histogram h(0.0, 10.0, 10);
  h.add(INFINITY);
  h.add(1e300);
  h.add(std::numeric_limits<double>::max());
  h.add(-INFINITY);
  h.add(-1e300);
  h.add(std::numeric_limits<double>::lowest());
  EXPECT_EQ(h.count(), 6u);
  // Three samples in the first bin, three in the last.
  EXPECT_EQ(h.approx_quantiles({0.25, 0.5, 0.75, 1.0}),
            (std::vector<double>{0.5, 1.0, 9.5, 10.0}));
  EXPECT_EQ(histogram_bin(INFINITY, 0.0, 10.0, 10), 9u);
  EXPECT_EQ(histogram_bin(-INFINITY, 0.0, 10.0, 10), 0u);
}

TEST(Histogram, NaNSampleThrowsAndIsNotCounted) {
  Histogram h(0.0, 10.0, 10);
  h.add(5.0);
  EXPECT_THROW(h.add(std::nan("")), Error);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_THROW(histogram_bin(std::nan(""), 0.0, 10.0, 10), Error);
}

TEST(Histogram, RejectsEmptyOrInfiniteRange) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), Error);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), Error);
  EXPECT_THROW(Histogram(0.0, INFINITY, 4), Error);
  EXPECT_THROW(Histogram(-1e308, 1e308, 4), Error);  // width overflows
}

// --------------------------------------------------------------------------
// strings
// --------------------------------------------------------------------------

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(trim("  hi\t\n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, JoinRoundTripsSplit) {
  const std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(join(parts, ","), "x,y,z");
  EXPECT_EQ(split(join(parts, ","), ','), parts);
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(replace_all("aaa", "a", "bb"), "bbbbbb");
  EXPECT_EQ(replace_all("abc", "x", "y"), "abc");
  EXPECT_EQ(replace_all("[[v]] = [[v]]", "[[v]]", "size"), "size = size");
}

TEST(Strings, Format) {
  EXPECT_EQ(format("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
}

// --------------------------------------------------------------------------
// Table / SimClock
// --------------------------------------------------------------------------

TEST(Table, RendersHeaderAndRows) {
  Table t({"metric", "paper", "ours"});
  t.add_row({"savings", "18-50%", "37.2%"});
  const std::string s = t.render();
  EXPECT_NE(s.find("metric"), std::string::npos);
  EXPECT_NE(s.find("37.2%"), std::string::npos);
  EXPECT_EQ(t.rows(), 1u);
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

// --------------------------------------------------------------------------
// JSON: the one escaping implementation + the small parser
// --------------------------------------------------------------------------

TEST(Json, EscapeCoversQuotesBackslashesAndControlBytes) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(json_quote("k\"v"), "\"k\\\"v\"");
}

TEST(Json, ParseRoundTripsEscapedStrings) {
  const std::string nasty = "name with \"quotes\" and \\backslash\\ and\nnewline";
  const JsonValue v = parse_json("{" + json_quote(nasty) + ": 1}");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.members().size(), 1u);
  EXPECT_EQ(v.members()[0].first, nasty);
  EXPECT_DOUBLE_EQ(v.members()[0].second.as_number(), 1.0);
}

TEST(Json, ParsesNestedDocuments) {
  const JsonValue v = parse_json(
      "{\"a\": [1, 2.5, -3e2], \"b\": {\"c\": true, \"d\": null}, "
      "\"s\": \"x\"}");
  EXPECT_DOUBLE_EQ(v.get("a")->as_array()[0].as_number(), 1.0);
  EXPECT_DOUBLE_EQ(v.get("a")->as_array()[1].as_number(), 2.5);
  EXPECT_DOUBLE_EQ(v.get("a")->as_array()[2].as_number(), -300.0);
  EXPECT_TRUE(v.get("b")->get("c")->as_bool());
  EXPECT_TRUE(v.get("b")->get("d")->is_null());
  EXPECT_EQ(v.get("s")->as_string(), "x");
  EXPECT_EQ(v.get("missing"), nullptr);
  EXPECT_DOUBLE_EQ(v.number_or("missing", 7.0), 7.0);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(parse_json(""), Error);
  EXPECT_THROW(parse_json("{"), Error);
  EXPECT_THROW(parse_json("{\"a\":}"), Error);
  EXPECT_THROW(parse_json("[1,]"), Error);
  EXPECT_THROW(parse_json("1 2"), Error);
  EXPECT_THROW(parse_json("\"unterminated"), Error);
  EXPECT_THROW(parse_json("nulL"), Error);
}

TEST(SimClock, AdvancesMonotonically) {
  SimClock c;
  EXPECT_DOUBLE_EQ(c.now(), 0.0);
  c.advance(1.5);
  c.advance(0.5);
  EXPECT_DOUBLE_EQ(c.now(), 2.0);
  EXPECT_THROW(c.advance(-1.0), Error);
  c.reset();
  EXPECT_DOUBLE_EQ(c.now(), 0.0);
}

// One row per rule and input sequence: '1' is a true input, '0' a false one;
// the expected string marks each step 'o' (opened), 'c' (closed) or '.'.
TEST(Trigger, OpensAndClosesOnConsecutiveRuns) {
  struct Case {
    TriggerRule rule;
    const char* inputs;
    const char* expected;
  };
  const Case cases[] = {
      // Edge rule: fire on each rising edge, clear on each falling one; a
      // held condition opens once.
      {{1, 1}, "0110101100", ".o.coco.c."},
      // Episode rule: an interrupted flag run restarts its count, and so
      // does an interrupted quiet run.
      {{2, 3}, "101110010001100", "...o......c.o.."},
      {{2, 3}, "0001", "...."},
      // Spike rule: one flag opens, three quiet samples close.
      {{1, 3}, "1001000110000", "o.....co...c."},
  };
  for (const Case& c : cases) {
    Trigger trig;
    std::string got;
    bool open = false;
    for (const char* in = c.inputs; *in != '\0'; ++in) {
      const Transition t = trig.step(c.rule, *in == '1');
      EXPECT_FALSE(t.opened && t.closed);
      got += t.opened ? 'o' : t.closed ? 'c' : '.';
      open = (open || t.opened) && !t.closed;
      EXPECT_EQ(trig.open, open);
      EXPECT_EQ(trig.last, *in == '1');
    }
    EXPECT_EQ(got, c.expected) << "rule {" << c.rule.open_after << ","
                               << c.rule.close_after << "} on " << c.inputs;
  }
}

TEST(Trigger, StateStaysEightBytes) {
  // The detector keeps one per (tracked node, anomaly kind).
  EXPECT_EQ(sizeof(Trigger), 8u);
}

}  // namespace
}  // namespace antarex
