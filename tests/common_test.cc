// Unit and property tests for src/common: Status/StatusOr, strings, RNG,
// alias sampling, histogram, the byte codec, thread pool and failpoints.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <set>
#include <thread>
#include <vector>

#include "common/alias_table.h"
#include "common/arena.h"
#include "common/bytes.h"
#include "common/circuit_breaker.h"
#include "common/failpoint.h"
#include "common/histogram.h"
#include "common/random.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace titant {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("user 42");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "user 42");
  EXPECT_EQ(s.ToString(), "NotFound: user 42");
}

TEST(StatusTest, OkDropsMessage) {
  Status s(StatusCode::kOk, "ignored");
  EXPECT_TRUE(s.ok());
  EXPECT_TRUE(s.message().empty());
  EXPECT_EQ(s, Status::OK());
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int code = 0; code <= 14; ++code) {
    EXPECT_NE(StatusCodeName(static_cast<StatusCode>(code)), "Unknown");
  }
}

TEST(StatusTest, CodeNamesRoundTripThroughFromName) {
  for (int code = 0; code <= 14; ++code) {
    ASSERT_TRUE(StatusCodeIsValid(code));
    StatusCode parsed = StatusCode::kOk;
    ASSERT_TRUE(StatusCodeFromName(StatusCodeName(static_cast<StatusCode>(code)), &parsed));
    EXPECT_EQ(parsed, static_cast<StatusCode>(code));
  }
  StatusCode parsed = StatusCode::kOk;
  EXPECT_FALSE(StatusCodeFromName("NoSuchCode", &parsed));
  EXPECT_FALSE(StatusCodeIsValid(-1));
  EXPECT_FALSE(StatusCodeIsValid(15));
}

TEST(StatusTest, RetryableCodesAreTransportFailures) {
  EXPECT_TRUE(Status::Unavailable("x").IsRetryable());
  EXPECT_TRUE(Status::Timeout("x").IsTimeout());
  EXPECT_TRUE(Status::Timeout("x").IsRetryable());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsRetryable());
  // Answers, not outages: retrying would re-fetch the same result.
  EXPECT_FALSE(Status::NotFound("x").IsRetryable());
  EXPECT_FALSE(Status::InvalidArgument("x").IsRetryable());
  EXPECT_FALSE(Status::Internal("x").IsRetryable());
  EXPECT_FALSE(Status::OK().IsRetryable());
  // Instance-failure classification adds Internal (failover, not retry).
  EXPECT_TRUE(Status::Internal("x").IsInstanceFailure());
  EXPECT_TRUE(Status::Unavailable("x").IsInstanceFailure());
  EXPECT_FALSE(Status::NotFound("x").IsInstanceFailure());
}

// ---------------------------------------------------------------------------
// Failpoints.

// Every test disarms on entry and exit so suites can run in any order.
class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { Failpoints::DisarmAll(); }
  void TearDown() override { Failpoints::DisarmAll(); }
};

Status GuardedOperation() {
  TITANT_FAILPOINT("test.op");
  return Status::OK();
}

StatusOr<int> GuardedValue() {
  TITANT_FAILPOINT("test.op");
  return 42;
}

TEST_F(FailpointTest, UnarmedPointsAreInvisible) {
  EXPECT_FALSE(failpoint_internal::AnyArmed());
  EXPECT_TRUE(GuardedOperation().ok());
  EXPECT_EQ(*GuardedValue(), 42);
  EXPECT_FALSE(Failpoints::armed("test.op"));
  EXPECT_EQ(Failpoints::hits("test.op"), 0u);
  // Unarmed evaluations are not even counted: the macro's fast path
  // never reaches the registry.
  EXPECT_EQ(Failpoints::evaluations("test.op"), 0u);
}

TEST_F(FailpointTest, ArmedErrorInjectsIntoStatusAndStatusOr) {
  FailpointSpec spec;
  spec.code = StatusCode::kUnavailable;
  spec.message = "injected outage";
  Failpoints::Arm("test.op", spec);
  EXPECT_TRUE(failpoint_internal::AnyArmed());

  const Status status = GuardedOperation();
  EXPECT_TRUE(status.IsUnavailable());
  EXPECT_EQ(status.message(), "injected outage");
  EXPECT_TRUE(GuardedValue().status().IsUnavailable());
  EXPECT_EQ(Failpoints::hits("test.op"), 2u);

  EXPECT_TRUE(Failpoints::Disarm("test.op"));
  EXPECT_TRUE(GuardedOperation().ok());
  EXPECT_FALSE(Failpoints::Disarm("test.op"));  // Already gone.
}

TEST_F(FailpointTest, SkipAndMaxHitsBoundTheFailureWindow) {
  FailpointSpec spec;
  spec.code = StatusCode::kTimeout;
  spec.skip = 2;      // First two evaluations pass.
  spec.max_hits = 3;  // Then exactly three failures.
  Failpoints::Arm("test.op", spec);
  int failures = 0;
  for (int i = 0; i < 10; ++i) failures += GuardedOperation().ok() ? 0 : 1;
  EXPECT_EQ(failures, 3);
  EXPECT_EQ(Failpoints::hits("test.op"), 3u);
  EXPECT_EQ(Failpoints::evaluations("test.op"), 10u);
}

TEST_F(FailpointTest, ProbabilityIsSeededAndDeterministic) {
  FailpointSpec spec;
  spec.code = StatusCode::kUnavailable;
  spec.probability = 0.3;
  spec.seed = 1234;
  Failpoints::Arm("test.op", spec);
  std::vector<bool> first_run;
  for (int i = 0; i < 200; ++i) first_run.push_back(!GuardedOperation().ok());

  Failpoints::Arm("test.op", spec);  // Re-arm resets the PRNG stream.
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(!GuardedOperation().ok(), first_run[static_cast<std::size_t>(i)]) << i;
  }
  const auto hit_count =
      static_cast<int>(std::count(first_run.begin(), first_run.end(), true));
  EXPECT_GT(hit_count, 20);   // ~60 expected at p=0.3.
  EXPECT_LT(hit_count, 120);
}

TEST_F(FailpointTest, SpecStringArmsMultiplePoints) {
  ASSERT_TRUE(Failpoints::ArmFromSpec(
                  "test.op,error:Unavailable,hits:1;test.other,delay:0,p:1.0,skip:5")
                  .ok());
  EXPECT_TRUE(Failpoints::armed("test.op"));
  EXPECT_TRUE(Failpoints::armed("test.other"));
  EXPECT_FALSE(GuardedOperation().ok());
  EXPECT_TRUE(GuardedOperation().ok());  // hits:1 exhausted.

  // Latency-only point: triggers but injects no error.
  for (int i = 0; i < 7; ++i) EXPECT_TRUE(Failpoints::Eval("test.other").ok());
  EXPECT_EQ(Failpoints::hits("test.other"), 2u);  // skip:5, then 2 of 7.

  EXPECT_FALSE(Failpoints::ArmFromSpec("p.x,error:Bogus").ok());
  EXPECT_FALSE(Failpoints::ArmFromSpec("p.x,p:1.5").ok());
  EXPECT_FALSE(Failpoints::armed("p.x"));
  EXPECT_TRUE(Failpoints::ArmFromSpec("").ok());  // Empty spec: no-op.
}

TEST_F(FailpointTest, ArmFromEnvReadsTheSpecVariable) {
  ASSERT_EQ(::setenv("TITANT_FAILPOINTS", "test.env,error:IOError", 1), 0);
  ASSERT_TRUE(Failpoints::ArmFromEnv().ok());
  ::unsetenv("TITANT_FAILPOINTS");
  EXPECT_TRUE(Failpoints::armed("test.env"));
  EXPECT_TRUE(Failpoints::Eval("test.env").IsIOError());
  const auto names = Failpoints::ArmedNames();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "test.env");
  // Unset variable: no-op, nothing armed.
  Failpoints::DisarmAll();
  EXPECT_TRUE(Failpoints::ArmFromEnv().ok());
  EXPECT_TRUE(Failpoints::ArmedNames().empty());
}

StatusOr<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

StatusOr<int> Doubled(int x) {
  TITANT_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(StatusOrTest, ValueAndErrorPaths) {
  auto ok = Doubled(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);

  auto err = Doubled(-1);
  ASSERT_FALSE(err.ok());
  EXPECT_TRUE(err.status().IsInvalidArgument());
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(7);
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> taken = std::move(v).value();
  EXPECT_EQ(*taken, 7);
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("xyz", ','), (std::vector<std::string>{"xyz"}));
}

TEST(StringUtilTest, JoinInvertsSplit) {
  const std::vector<std::string> parts = {"a", "bb", "", "c"};
  EXPECT_EQ(Split(Join(parts, "|"), '|'), parts);
}

TEST(StringUtilTest, TrimAndCase) {
  EXPECT_EQ(Trim("  x y \t\n"), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(ToLower("AbC09_"), "abc09_");
  EXPECT_TRUE(StartsWith("titant", "tit"));
  EXPECT_FALSE(StartsWith("ti", "tit"));
}

TEST(StringUtilTest, ParseInt64Strict) {
  EXPECT_EQ(*ParseInt64("42"), 42);
  EXPECT_EQ(*ParseInt64(" -17 "), -17);
  EXPECT_FALSE(ParseInt64("12x").ok());
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("99999999999999999999").ok());
}

TEST(StringUtilTest, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.5"), 3.5);
  EXPECT_FALSE(ParseDouble("3.5abc").ok());
  EXPECT_FALSE(ParseDouble("").ok());
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.NextU64() == b.NextU64();
  EXPECT_LT(equal, 2);
}

TEST(RngTest, UniformInRange) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformCoversAllResidues) {
  Rng rng(5);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(7);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextGaussian();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(11);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, PoissonMean) {
  Rng rng(13);
  for (double mean : {0.5, 3.0, 20.0, 100.0}) {
    double total = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) total += rng.Poisson(mean);
    EXPECT_NEAR(total / n, mean, mean * 0.05 + 0.05) << "mean=" << mean;
  }
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng(19);
  const std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {};
  for (int i = 0; i < 40000; ++i) ++counts[rng.WeightedIndex(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.25);
}

class AliasTableParamTest : public ::testing::TestWithParam<int> {};

TEST_P(AliasTableParamTest, MatchesWeightDistribution) {
  const int size = GetParam();
  Rng weight_rng(100 + static_cast<uint64_t>(size));
  std::vector<double> weights(static_cast<std::size_t>(size));
  double total = 0.0;
  for (auto& w : weights) {
    w = weight_rng.NextDouble() < 0.2 ? 0.0 : weight_rng.UniformReal(0.1, 5.0);
    total += w;
  }
  weights[0] = std::max(weights[0], 0.5);  // At least one positive.
  total = 0.0;
  for (double w : weights) total += w;

  AliasTable table(weights);
  ASSERT_FALSE(table.empty());
  Rng rng(7);
  std::vector<int> counts(static_cast<std::size_t>(size), 0);
  const int draws = 200000;
  for (int i = 0; i < draws; ++i) ++counts[table.Sample(rng)];
  for (int i = 0; i < size; ++i) {
    const double expected = weights[static_cast<std::size_t>(i)] / total;
    const double observed = static_cast<double>(counts[static_cast<std::size_t>(i)]) / draws;
    if (weights[static_cast<std::size_t>(i)] == 0.0) {
      EXPECT_EQ(counts[static_cast<std::size_t>(i)], 0) << "index " << i;
    } else {
      EXPECT_NEAR(observed, expected, 0.02 + expected * 0.15) << "index " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, AliasTableParamTest, ::testing::Values(1, 2, 7, 64, 501));

/// Rng::Uniform as it was before it skipped the threshold division: the
/// threshold 2^64 mod n, computed on every call.
uint64_t ReferenceUniform(Rng& rng, uint64_t n) {
  const uint64_t threshold = -n % n;
  for (;;) {
    const uint64_t r = rng.NextU64();
    if (r >= threshold) return r % n;
  }
}

TEST(RngTest, UniformDrawsLikeTheRejectionReference) {
  // Large n reject often (2^63 + 1 rejects almost half of all draws).
  for (const uint64_t n : {uint64_t{1}, uint64_t{2}, uint64_t{3}, uint64_t{13492},
                           (uint64_t{1} << 32) + 1, (uint64_t{1} << 63) + 1,
                           uint64_t{3} << 62, ~uint64_t{0}}) {
    Rng a(n), b(n);
    for (int i = 0; i < 2000; ++i) ASSERT_EQ(a.Uniform(n), ReferenceUniform(b, n)) << n;
    EXPECT_EQ(a.NextU64(), b.NextU64()) << n;
  }
}

TEST(FixedModulusTest, MatchesTheRemainder) {
  const uint64_t max = ~uint64_t{0};
  Rng rng(29);
  for (const uint64_t n :
       {uint64_t{1}, uint64_t{2}, uint64_t{3}, uint64_t{7}, uint64_t{2000}, uint64_t{65537},
        (uint64_t{1} << 31) - 1, uint64_t{1} << 31, (uint64_t{1} << 32) - 1, uint64_t{1} << 32,
        rng.Uniform(uint64_t{1} << 32) + 1}) {
    const FixedModulus mod(n);
    std::vector<uint64_t> xs = {0, 1, n - 1, n, max, max - 1, max / n * n, max / n * n - 1};
    for (const uint64_t k : {uint64_t{2}, uint64_t{3}, uint64_t{1} << 20, max / n}) {
      if (k <= max / n) xs.push_back(k * n);
    }
    for (int i = 0; i < 1000; ++i) xs.push_back(rng.NextU64());
    for (const uint64_t x : xs) ASSERT_EQ(mod.Of(x), x % n) << x << " % " << n;
  }
}

TEST(AliasTableTest, SampleDrawsExactlyUniformThenNextDouble) {
  // With equal weights every cell keeps itself (probability 1), so Sample
  // returns the cell Uniform(size()) draws, after the same draws.
  for (const std::size_t size : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                 std::size_t{2000}, std::size_t{65537}}) {
    const AliasTable table(std::vector<double>(size, 1.0));
    ASSERT_EQ(table.size(), size);
    Rng a(size), b(size);
    for (int i = 0; i < 5000; ++i) {
      const std::size_t want = static_cast<std::size_t>(b.Uniform(size));
      b.NextDouble();
      ASSERT_EQ(table.Sample(a), want) << size;
    }
    EXPECT_EQ(a.NextU64(), b.NextU64()) << size;
  }
}

TEST(AliasTableTest, RejectsInvalidWeights) {
  AliasTable table;
  EXPECT_FALSE(table.Build({}));
  EXPECT_FALSE(table.Build({0.0, 0.0}));
  EXPECT_FALSE(table.Build({1.0, -0.5}));
  EXPECT_TRUE(table.empty());
}

TEST(HistogramTest, ExactSmallSample) {
  Histogram h;
  for (double v : {1.0, 2.0, 3.0, 4.0, 100.0}) h.Add(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), 22.0);
  EXPECT_LE(h.P50(), 4.0);
  EXPECT_GE(h.Percentile(100.0), 90.0);
}

TEST(HistogramTest, PercentileApproximation) {
  Histogram h;
  Rng rng(3);
  std::vector<double> values;
  for (int i = 0; i < 50000; ++i) {
    const double v = rng.Exponential(0.01);  // Mean 100.
    values.push_back(v);
    h.Add(v);
  }
  std::sort(values.begin(), values.end());
  for (double p : {50.0, 95.0, 99.0}) {
    const double exact = values[static_cast<std::size_t>(p / 100.0 * (values.size() - 1))];
    EXPECT_NEAR(h.Percentile(p), exact, exact * 0.25) << "p" << p;
  }
}

TEST(HistogramTest, MergeEqualsCombined) {
  Histogram a, b, combined;
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.UniformReal(0, 1000);
    (i % 2 == 0 ? a : b).Add(v);
    combined.Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_NEAR(a.mean(), combined.mean(), 1e-9);  // Summation order differs.
  EXPECT_DOUBLE_EQ(a.max(), combined.max());
  EXPECT_NEAR(a.P99(), combined.P99(), 1e-9);
}

TEST(HistogramTest, EmptyAndClear) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(50), 0.0);
  h.Add(5);
  h.Clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
}

// ---------------------------------------------------------------------------
// Circuit breaker.

TEST(CircuitBreakerTest, TripsProbesClosesAndResets) {
  CircuitBreaker breaker;
  // Four failures in a row leave it closed; the fifth trips it.
  for (uint32_t i = 1; i < CircuitBreaker::kTripFailures; ++i) {
    EXPECT_FALSE(breaker.Fail()) << "failure " << i;
    EXPECT_FALSE(breaker.open());
  }
  EXPECT_TRUE(breaker.Fail());
  EXPECT_TRUE(breaker.open());
  EXPECT_EQ(breaker.trips(), 1u);
  // Failing while open extends the streak but is not another trip.
  EXPECT_FALSE(breaker.Fail());
  EXPECT_EQ(breaker.trips(), 1u);

  // While open, every 16th call is a probe and the rest are turned away.
  for (int round = 0; round < 3; ++round) {
    for (uint64_t call = 1; call < CircuitBreaker::kProbeInterval; ++call) {
      EXPECT_FALSE(breaker.ProbeDue()) << "round " << round << " call " << call;
    }
    EXPECT_TRUE(breaker.ProbeDue()) << "round " << round;
  }

  // A clean answer closes it, once.
  EXPECT_TRUE(breaker.Close());
  EXPECT_FALSE(breaker.open());
  EXPECT_FALSE(breaker.Close());

  // Closing also clears a streak short of the threshold: after a reset,
  // it again takes five fresh failures to trip.
  for (uint32_t i = 1; i < CircuitBreaker::kTripFailures; ++i) breaker.Fail();
  breaker.Close();
  for (uint32_t i = 1; i < CircuitBreaker::kTripFailures; ++i) EXPECT_FALSE(breaker.Fail());
  EXPECT_TRUE(breaker.Fail());
  EXPECT_EQ(breaker.trips(), 2u);

  // A trip restarts the probe cadence; an operator trip of an open
  // breaker changes nothing.
  for (uint64_t call = 1; call < CircuitBreaker::kProbeInterval; ++call) {
    EXPECT_FALSE(breaker.ProbeDue());
  }
  EXPECT_TRUE(breaker.ProbeDue());
  EXPECT_FALSE(breaker.Trip());
  EXPECT_EQ(breaker.trips(), 2u);
  EXPECT_TRUE(breaker.Close());
  EXPECT_TRUE(breaker.Trip());
  EXPECT_TRUE(breaker.open());
  EXPECT_EQ(breaker.trips(), 3u);
}

// ---------------------------------------------------------------------------
// Byte codec.

TEST(BytesTest, FieldsAreLittleEndianAndRoundTrip) {
  std::string out = "x";  // The writer appends.
  ByteWriter w(&out);
  w.U8(0xab);
  w.U16(0x0102);
  w.U32(0x03040506);
  w.U64(0x0708090a0b0c0d0eull);
  w.I32(-2);
  w.I64(-3);
  w.F32(1.5f);
  w.F64(-0.25);
  w.Str("hi");
  w.Bytes("raw");
  const int32_t ints[] = {1, -1};
  w.Array(ints, 2);
  ASSERT_EQ(out.size(), 1u + 1 + 2 + 4 + 8 + 4 + 8 + 4 + 8 + 6 + 3 + 8);
  EXPECT_EQ(out.substr(0, 8), std::string("x\xab\x02\x01\x06\x05\x04\x03", 8));

  ByteReader r(std::string_view(out).substr(1));
  uint8_t u8 = 0;
  uint16_t u16 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int32_t i32 = 0;
  int64_t i64 = 0;
  float f32 = 0;
  double f64 = 0;
  std::string_view str, raw;
  std::vector<int32_t> array;
  ASSERT_TRUE(r.U8(&u8) && r.U16(&u16) && r.U32(&u32) && r.U64(&u64) && r.I32(&i32) &&
              r.I64(&i64) && r.F32(&f32) && r.F64(&f64) && r.Str(&str) && r.Bytes(3, &raw) &&
              r.Array(2, &array));
  EXPECT_TRUE(r.done());
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u16, 0x0102);
  EXPECT_EQ(u32, 0x03040506u);
  EXPECT_EQ(u64, 0x0708090a0b0c0d0eull);
  EXPECT_EQ(i32, -2);
  EXPECT_EQ(i64, -3);
  EXPECT_EQ(f32, 1.5f);
  EXPECT_EQ(f64, -0.25);
  EXPECT_EQ(str, "hi");
  EXPECT_EQ(raw, "raw");
  EXPECT_EQ(array, (std::vector<int32_t>{1, -1}));
}

TEST(BytesTest, FailedReadsConsumeNothing) {
  std::string out;
  ByteWriter w(&out);
  w.Str("abcdef");
  // Every prefix of a length-prefixed string fails and leaves the reader
  // where it was, so the caller can report the truncation and stop.
  for (std::size_t cut = 0; cut < out.size(); ++cut) {
    ByteReader r(std::string_view(out).substr(0, cut));
    std::string_view s;
    EXPECT_FALSE(r.Str(&s)) << cut;
    EXPECT_EQ(r.remaining(), cut);
  }
  ByteReader r(std::string_view(out).substr(0, 3));
  uint32_t u32 = 7;
  std::string_view bytes;
  std::vector<uint16_t> array = {9};
  EXPECT_FALSE(r.U32(&u32));
  EXPECT_EQ(u32, 7u);
  EXPECT_FALSE(r.Bytes(4, &bytes));
  EXPECT_FALSE(r.Array(2, &array));
  EXPECT_EQ(array, std::vector<uint16_t>{9});  // Not resized by a count that does not fit.
  EXPECT_EQ(r.remaining(), 3u);
  EXPECT_EQ(r.Rest(), std::string_view(out).substr(0, 3));
  EXPECT_TRUE(r.done());
}

TEST(BytesTest, CountCheckNeverWraps) {
  // n * w wraps to 0 here; the division form still refuses it.
  EXPECT_FALSE(CountFits(uint64_t{1} << 62, 4, 16));
  EXPECT_FALSE(CountFits(uint64_t{1} << 40, uint64_t{1} << 24, 0));
  EXPECT_TRUE(CountFits(4, 4, 16));
  EXPECT_FALSE(CountFits(5, 4, 16));
  EXPECT_TRUE(CountFits(UINT64_MAX, 0, 0));  // Zero-width items take no bytes.
  std::vector<double> huge;
  ByteReader r(std::string_view("12345678", 8));
  EXPECT_FALSE(r.Array(UINT64_MAX, &huge));
  EXPECT_TRUE(huge.empty());
  EXPECT_TRUE(r.Fits(1, 8));
  EXPECT_FALSE(r.Fits(2, 4) && r.Fits(1, 9));
}

TEST(ArenaTest, AllocateCopyAndAlignment) {
  Arena arena;
  char* a = arena.Allocate(10);
  char* b = arena.Allocate(1, 64);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 64, 0u);
  EXPECT_NE(a, b);
  const std::string value = "stable bytes";
  char* copy = arena.Copy(value.data(), value.size());
  EXPECT_EQ(std::string_view(copy, value.size()), value);
  double* doubles = arena.AllocateArray<double>(8);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(doubles) % alignof(double), 0u);
  doubles[7] = 1.5;  // Writable (would fault if poisoned/unbacked).
  EXPECT_EQ(doubles[7], 1.5);
}

TEST(ArenaTest, GrowsAcrossBlocksAndKeepsOldAllocationsStable) {
  Arena arena(64);  // Tiny first block forces growth.
  std::vector<std::pair<char*, char>> marks;
  for (int i = 0; i < 200; ++i) {
    char* p = arena.Allocate(100);
    p[0] = static_cast<char>('a' + i % 26);
    marks.emplace_back(p, p[0]);
  }
  for (const auto& [p, mark] : marks) EXPECT_EQ(p[0], mark);
}

TEST(ArenaTest, ResetCoalescesToOneBlockAndReusesIt) {
  Arena arena(64);
  for (int i = 0; i < 50; ++i) arena.Allocate(300);  // Spills across blocks.
  arena.Reset();
  const std::size_t warm_capacity = arena.capacity();
  // A same-sized second cycle must fit the coalesced block without growing.
  for (int cycle = 0; cycle < 5; ++cycle) {
    for (int i = 0; i < 50; ++i) arena.Allocate(300);
    arena.Reset();
    EXPECT_EQ(arena.capacity(), warm_capacity);
  }
}

#ifdef TITANT_ARENA_ASAN
TEST(ArenaTest, ResetPoisonsReclaimedBytesUnderAsan) {
  Arena arena;
  char* p = arena.Allocate(32);
  EXPECT_FALSE(__asan_address_is_poisoned(p));
  arena.Reset();
  EXPECT_TRUE(__asan_address_is_poisoned(p));
  // Reallocation unpoisons exactly the handed-out range again.
  char* q = arena.Allocate(32);
  EXPECT_FALSE(__asan_address_is_poisoned(q));
}
#endif

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(57);
  pool.ParallelFor(57, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForRunsTheFirstBlockOnTheCaller) {
  ThreadPool pool(3);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(9);
  std::atomic<int> running{0};
  std::atomic<int> most{0};
  pool.ParallelFor(ran.size(), [&](std::size_t i) {
    const int now = running.fetch_add(1) + 1;
    int seen = most.load();
    while (now > seen && !most.compare_exchange_weak(seen, now)) {
    }
    ran[i] = std::this_thread::get_id();
    running.fetch_sub(1);
  });
  // Three blocks of three: the first on this thread, the others not.
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(ran[i], caller) << i;
  for (std::size_t i = 3; i < ran.size(); ++i) EXPECT_NE(ran[i], caller) << i;
  EXPECT_LE(most.load(), 3);
}

TEST(ThreadPoolTest, DrainsOnDestruction) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.Submit([&counter] { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 50);
}

}  // namespace
}  // namespace titant
