// QuantileSketch: accuracy against exact offline quantiles, merge
// semantics (the sweep's worker/replicate fold), and the pinned
// serialization round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "obs/telemetry/quantile_sketch.hpp"

namespace dvs::obs {
namespace {

double exact_quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  if (lo + 1 >= v.size()) return v.back();
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[lo + 1] - v[lo]) * frac;
}

std::vector<double> exponential_stream(std::uint64_t seed, std::size_t n) {
  Rng rng{seed};
  std::vector<double> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) v.push_back(rng.exponential(12.0));
  return v;
}

TEST(QuantileSketch, ExactModeMatchesOfflineQuantilesExactly) {
  const std::vector<double> data = exponential_stream(7, 500);
  QuantileSketch sk;  // capacity 1024 > 500: stays exact
  for (double x : data) sk.add(x);
  ASSERT_TRUE(sk.exact());
  for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(sk.quantile(q), exact_quantile(data, q)) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(sk.min(), *std::min_element(data.begin(), data.end()));
  EXPECT_DOUBLE_EQ(sk.max(), *std::max_element(data.begin(), data.end()));
}

// The documented accuracy contract (docs/OBSERVABILITY.md): P² rank error
// well under 0.02.  Check it as a rank bound — the sketch's value at q must
// sit between the exact values at q +- 0.02 — which is the form the bound
// actually takes (value error follows the local density).
TEST(QuantileSketch, P2ModeWithinDocumentedRankError) {
  const std::vector<double> data = exponential_stream(11, 60000);
  QuantileSketch sk;
  for (double x : data) sk.add(x);
  ASSERT_FALSE(sk.exact());
  ASSERT_EQ(sk.count(), data.size());
  const double rank_tol = 0.02;
  for (double q : {0.5, 0.9, 0.99}) {
    const double est = sk.quantile(q);
    const double lo = exact_quantile(data, std::max(0.0, q - rank_tol));
    const double hi = exact_quantile(data, std::min(1.0, q + rank_tol));
    EXPECT_GE(est, lo) << "q=" << q;
    EXPECT_LE(est, hi) << "q=" << q;
  }
}

TEST(QuantileSketch, QuantilesAreMonotoneAndBounded) {
  const std::vector<double> data = exponential_stream(13, 20000);
  QuantileSketch sk;
  for (double x : data) sk.add(x);
  double prev = sk.quantile(0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double v = sk.quantile(q);
    EXPECT_GE(v, prev);
    EXPECT_GE(v, sk.min());
    EXPECT_LE(v, sk.max());
    prev = v;
  }
}

TEST(QuantileSketch, TinyCapacityStaysSane) {
  // Capacity close to the marker count exercises the marker-position
  // collision fix-up in the exact -> P² collapse.
  QuantileSketch sk{10};
  Rng rng{3};
  for (int i = 0; i < 500; ++i) sk.add(rng.exponential(1.0));
  EXPECT_FALSE(sk.exact());
  EXPECT_LE(sk.quantile(0.5), sk.quantile(0.9));
  EXPECT_LE(sk.quantile(0.9), sk.quantile(0.99));
  EXPECT_GE(sk.quantile(0.0), sk.min());
  EXPECT_LE(sk.quantile(1.0), sk.max());
}

TEST(QuantileSketch, ErrorsOnEmptyAndOutOfRange) {
  QuantileSketch sk;
  EXPECT_THROW(sk.quantile(0.5), std::logic_error);
  EXPECT_THROW(sk.min(), std::logic_error);
  sk.add(1.0);
  EXPECT_THROW(sk.quantile(-0.1), std::domain_error);
  EXPECT_THROW(sk.quantile(1.1), std::domain_error);
  EXPECT_DOUBLE_EQ(sk.quantile(0.5), 1.0);
}

TEST(QuantileSketch, ResetReturnsToAnEmptyExactSketch) {
  QuantileSketch sk{16};
  for (int i = 0; i < 100; ++i) sk.add(static_cast<double>(i));
  ASSERT_FALSE(sk.exact());
  sk.reset();
  EXPECT_TRUE(sk.empty());
  EXPECT_TRUE(sk.exact());
  EXPECT_EQ(sk.exact_capacity(), 16u);
  EXPECT_THROW((void)sk.min(), std::logic_error);
  // The old extrema are gone: the next stream starts from scratch.
  for (double x : {5.0, 3.0, 4.0}) sk.add(x);
  EXPECT_DOUBLE_EQ(sk.min(), 3.0);
  EXPECT_DOUBLE_EQ(sk.max(), 5.0);
  EXPECT_DOUBLE_EQ(sk.quantile(0.5), 4.0);
}

TEST(QuantileSketchMerge, ExactPlusExactIsExact) {
  const std::vector<double> data = exponential_stream(17, 800);
  QuantileSketch a;
  QuantileSketch b;
  for (std::size_t i = 0; i < data.size(); ++i) {
    (i % 2 == 0 ? a : b).add(data[i]);
  }
  a.merge(b);
  ASSERT_TRUE(a.exact());
  EXPECT_EQ(a.count(), data.size());
  for (double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(a.quantile(q), exact_quantile(data, q)) << "q=" << q;
  }
}

// The sweep fold: N workers each sketch a chunk of the population; the
// merged sketch must agree with one sketch that saw the whole stream, and
// both must sit inside the documented rank error of the exact offline
// quantiles.
TEST(QuantileSketchMerge, MergedChunksMatchSingleSketchStream) {
  const std::vector<double> data = exponential_stream(23, 40000);
  QuantileSketch whole;
  for (double x : data) whole.add(x);

  QuantileSketch merged;
  const std::size_t kChunks = 4;
  for (std::size_t c = 0; c < kChunks; ++c) {
    QuantileSketch part;
    for (std::size_t i = c; i < data.size(); i += kChunks) part.add(data[i]);
    merged.merge(part);
  }
  ASSERT_EQ(merged.count(), data.size());
  EXPECT_DOUBLE_EQ(merged.min(), whole.min());
  EXPECT_DOUBLE_EQ(merged.max(), whole.max());
  const double rank_tol = 0.02;
  for (double q : {0.5, 0.9, 0.99}) {
    const double lo = exact_quantile(data, std::max(0.0, q - rank_tol));
    const double hi = exact_quantile(data, std::min(1.0, q + rank_tol));
    EXPECT_GE(merged.quantile(q), lo) << "q=" << q;
    EXPECT_LE(merged.quantile(q), hi) << "q=" << q;
  }
}

TEST(QuantileSketchMerge, DeterministicInOperandValues) {
  // Two separately-built but value-identical operand pairs must merge to
  // bit-identical sketches — the property the jobs=1 vs jobs=N CSV
  // byte-identity rests on.
  const auto build = [] {
    QuantileSketch a;
    QuantileSketch b;
    Rng ra{31};
    Rng rb{37};
    for (int i = 0; i < 5000; ++i) a.add(ra.exponential(5.0));
    for (int i = 0; i < 3000; ++i) b.add(rb.exponential(9.0));
    a.merge(b);
    std::ostringstream os;
    a.write_text(os);
    return os.str();
  };
  EXPECT_EQ(build(), build());
}

TEST(QuantileSketchMerge, EmptyOperandsAreIdentity) {
  QuantileSketch a;
  QuantileSketch empty;
  a.add(1.0);
  a.add(2.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  QuantileSketch b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.quantile(1.0), 2.0);
}

TEST(QuantileSketchMerge, ExactModeIsOrderIndependent) {
  // While everything stays exact (union fits the buffer), a merge is a
  // multiset union, so fold order cannot matter at all — any permutation
  // of the operands yields bit-identical quantiles.  (The serialized byte
  // stream keeps insertion order, so it is deliberately not compared.)
  const std::vector<double> data = exponential_stream(41, 900);
  std::vector<QuantileSketch> parts(3);
  for (std::size_t i = 0; i < data.size(); ++i) parts[i % 3].add(data[i]);
  const auto fold = [&](std::initializer_list<std::size_t> order) {
    QuantileSketch out;
    for (std::size_t i : order) out.merge(parts[i]);
    EXPECT_TRUE(out.exact());
    return out;
  };
  const QuantileSketch forward = fold({0, 1, 2});
  for (const auto& order : {fold({2, 0, 1}), fold({1, 2, 0})}) {
    EXPECT_EQ(order.count(), forward.count());
    EXPECT_DOUBLE_EQ(order.min(), forward.min());
    EXPECT_DOUBLE_EQ(order.max(), forward.max());
    for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
      EXPECT_DOUBLE_EQ(order.quantile(q), forward.quantile(q)) << "q=" << q;
    }
  }
}

TEST(QuantileSketchMerge, FleetShardFoldOrderIsReproducible) {
  // The fleet runner's population fold: per-shard sketches (large enough
  // to force P² mode in the fold) merged serially in shard-index order.
  // Estimated-mode merges are NOT order-independent in general — which is
  // exactly why the runner pins the fold order — but the pinned order must
  // be bit-reproducible run over run, independent of how the shard
  // sketches were produced between runs.
  const auto fold = [] {
    QuantileSketch population;
    for (std::uint64_t shard = 0; shard < 8; ++shard) {
      QuantileSketch part;
      Rng rng{mix_seed(97, shard)};
      for (int d = 0; d < 700; ++d) part.add(rng.exponential(3.0 + shard));
      population.merge(part);
    }
    EXPECT_FALSE(population.exact());
    std::ostringstream os;
    population.write_text(os);
    return os.str();
  };
  EXPECT_EQ(fold(), fold());
}

TEST(QuantileSketchSerialization, RoundTripIsBitStableBothModes) {
  for (const std::size_t n : {std::size_t{200}, std::size_t{20000}}) {
    QuantileSketch sk;
    Rng rng{41};
    for (std::size_t i = 0; i < n; ++i) sk.add(rng.exponential(2.0));
    std::ostringstream first;
    sk.write_text(first);
    std::istringstream in{first.str()};
    const QuantileSketch back = QuantileSketch::read_text(in);
    EXPECT_EQ(back.count(), sk.count());
    EXPECT_EQ(back.exact(), sk.exact());
    for (double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
      EXPECT_DOUBLE_EQ(back.quantile(q), sk.quantile(q)) << "n=" << n;
    }
    std::ostringstream second;
    back.write_text(second);
    EXPECT_EQ(first.str(), second.str()) << "n=" << n;
  }
}

TEST(QuantileSketchSerialization, SketchTextOfAnEmptySketchIsEmpty) {
  EXPECT_EQ(sketch_text(QuantileSketch{}), "");
  EXPECT_TRUE(sketch_from_text("").empty());

  QuantileSketch sk;
  for (double x : {0.25, 1.5, 0.75}) sk.add(x);
  const std::string text = sketch_text(sk);
  ASSERT_FALSE(text.empty());
  const QuantileSketch back = sketch_from_text(text);
  EXPECT_EQ(back.count(), 3u);
  EXPECT_DOUBLE_EQ(back.quantile(0.5), 0.75);
  EXPECT_EQ(sketch_text(back), text);
  EXPECT_THROW((void)sketch_from_text("not a sketch"), std::runtime_error);
}

TEST(QuantileSketchSerialization, RejectsMalformedInput) {
  std::istringstream bad{"dvs-sketch-v99 mode=exact cap=8 count=0"};
  EXPECT_THROW(QuantileSketch::read_text(bad), std::runtime_error);
  std::istringstream empty{""};
  EXPECT_THROW(QuantileSketch::read_text(empty), std::runtime_error);
}

}  // namespace
}  // namespace dvs::obs
