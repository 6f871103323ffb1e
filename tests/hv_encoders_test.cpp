#include "hv/encoders.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>

namespace hdc::hv {
namespace {

constexpr std::size_t kDim = 10000;
constexpr std::size_t kSmallDim = 64;  // memo-cap tests encode > 4096 values
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(LevelEncoder, MinMapsToSeed) {
  const LevelEncoder enc(kDim, 0.0, 100.0, 1);
  EXPECT_EQ(enc.encode(0.0), enc.seed_vector());
}

TEST(LevelEncoder, BelowMinClampsToSeed) {
  const LevelEncoder enc(kDim, 10.0, 100.0, 2);
  EXPECT_EQ(enc.encode(-50.0), enc.seed_vector());
}

TEST(LevelEncoder, MaxIsOrthogonalToMin) {
  const LevelEncoder enc(kDim, 0.0, 1.0, 3);
  const std::size_t d = enc.encode(0.0).hamming(enc.encode(1.0));
  EXPECT_EQ(d, kDim / 2);  // exactly orthogonal by construction
}

TEST(LevelEncoder, AboveMaxClampsToMaxEncoding) {
  const LevelEncoder enc(kDim, 0.0, 1.0, 4);
  EXPECT_EQ(enc.encode(5.0), enc.encode(1.0));
}

TEST(LevelEncoder, DistanceIsLinearInValueDifference) {
  const LevelEncoder enc(kDim, 0.0, 100.0, 5);
  // Nested flips make hamming(enc(a), enc(b)) == |flips(a) - flips(b)|.
  const auto v25 = enc.encode(25.0);
  const auto v50 = enc.encode(50.0);
  const auto v75 = enc.encode(75.0);
  const std::size_t d_25_50 = v25.hamming(v50);
  const std::size_t d_50_75 = v50.hamming(v75);
  const std::size_t d_25_75 = v25.hamming(v75);
  EXPECT_EQ(d_25_50, d_50_75);
  EXPECT_EQ(d_25_75, d_25_50 + d_50_75);
}

TEST(LevelEncoder, NeighborsCloserThanDistantValues) {
  const LevelEncoder enc(kDim, 0.0, 100.0, 6);
  const auto v45 = enc.encode(45.0);
  EXPECT_LT(v45.hamming(enc.encode(50.0)), v45.hamming(enc.encode(70.0)));
}

TEST(LevelEncoder, FlipCountFollowsPaperFormula) {
  const LevelEncoder enc(kDim, 0.0, 200.0, 7);
  // x = k * (t - min) / (2 * (max - min)), quantised to even.
  EXPECT_EQ(enc.flip_count(0.0), 0u);
  EXPECT_EQ(enc.flip_count(200.0), kDim / 2);
  EXPECT_EQ(enc.flip_count(100.0), kDim / 4);
  EXPECT_NEAR(static_cast<double>(enc.flip_count(50.0)),
              static_cast<double>(kDim) * 50.0 / 400.0, 2.0);
}

TEST(LevelEncoder, PreservesDensity) {
  const LevelEncoder enc(kDim, 0.0, 10.0, 8);
  for (const double t : {0.0, 2.5, 5.0, 7.5, 10.0}) {
    EXPECT_EQ(enc.encode(t).popcount(), kDim / 2) << "t=" << t;
  }
}

TEST(LevelEncoder, DegenerateRangeMapsEverythingToSeed) {
  const LevelEncoder enc(kDim, 5.0, 5.0, 9);
  EXPECT_EQ(enc.encode(5.0), enc.seed_vector());
  EXPECT_EQ(enc.encode(123.0), enc.seed_vector());
}

TEST(LevelEncoder, DeterministicPerSeed) {
  const LevelEncoder a(kDim, 0.0, 1.0, 42);
  const LevelEncoder b(kDim, 0.0, 1.0, 42);
  EXPECT_EQ(a.encode(0.37), b.encode(0.37));
}

TEST(LevelEncoder, DifferentSeedsGiveDifferentSpaces) {
  const LevelEncoder a(kDim, 0.0, 1.0, 1);
  const LevelEncoder b(kDim, 0.0, 1.0, 2);
  EXPECT_NEAR(a.encode(0.5).hamming_fraction(b.encode(0.5)), 0.5, 0.05);
}

TEST(LevelEncoder, RejectsBadArguments) {
  EXPECT_THROW(LevelEncoder(0, 0.0, 1.0, 1), std::invalid_argument);
  EXPECT_THROW(LevelEncoder(101, 0.0, 1.0, 1), std::invalid_argument);  // odd
  EXPECT_THROW(LevelEncoder(kDim, 2.0, 1.0, 1), std::invalid_argument);  // lo > hi
}

TEST(BinaryEncoder, ZeroOneAreOrthogonal) {
  const BinaryEncoder enc(kDim, 10);
  EXPECT_EQ(enc.zero_vector().hamming(enc.one_vector()), kDim / 2);
}

TEST(BinaryEncoder, EncodeThresholdsAtHalf) {
  const BinaryEncoder enc(kDim, 11);
  EXPECT_EQ(enc.encode(0.0), enc.zero_vector());
  EXPECT_EQ(enc.encode(0.4), enc.zero_vector());
  EXPECT_EQ(enc.encode(0.5), enc.one_vector());
  EXPECT_EQ(enc.encode(1.0), enc.one_vector());
}

TEST(BinaryEncoder, BothVectorsBalanced) {
  const BinaryEncoder enc(kDim, 12);
  EXPECT_EQ(enc.zero_vector().popcount(), kDim / 2);
  EXPECT_EQ(enc.one_vector().popcount(), kDim / 2);
}

TEST(BinaryEncoder, RejectsBadDimensions) {
  EXPECT_THROW(BinaryEncoder(0, 1), std::invalid_argument);
  EXPECT_THROW(BinaryEncoder(10, 1), std::invalid_argument);  // not mult of 4
}

TEST(CategoricalEncoder, SameCategorySameVector) {
  const CategoricalEncoder enc(kDim, 13);
  EXPECT_EQ(enc.encode(3.0), enc.encode(3.0));
  EXPECT_EQ(enc.encode(3.2), enc.encode(2.9));  // rounds to 3
}

TEST(CategoricalEncoder, DistinctCategoriesQuasiOrthogonal) {
  const CategoricalEncoder enc(kDim, 14);
  EXPECT_NEAR(enc.encode(0.0).hamming_fraction(enc.encode(1.0)), 0.5, 0.05);
  EXPECT_NEAR(enc.encode(1.0).hamming_fraction(enc.encode(7.0)), 0.5, 0.05);
}

TEST(CategoricalEncoder, RejectsValuesWithoutACategory) {
  const CategoricalEncoder enc(kDim, 15);
  BitVector out;
  for (const double v : {std::nan(""), kInf, -kInf, 0x1p63, -0x1p63, 1e300,
                         -1e300}) {
    SCOPED_TRACE(v);
    EXPECT_THROW((void)enc.encode(v), std::invalid_argument);
    EXPECT_THROW(enc.encode_into(v, out), std::invalid_argument);
    EXPECT_THROW((void)enc.memo_key(v), std::invalid_argument);
  }
  EXPECT_EQ(enc.item_memory_size(), 0u);
  // The doubles nearest ±2^63 from inside are integers that fit a long long.
  const double big = std::nextafter(0x1p63, 0.0);
  EXPECT_EQ(enc.memo_key(big).value(),
            static_cast<std::uint64_t>(static_cast<long long>(big)));
  EXPECT_EQ(enc.memo_key(-big).value(),
            static_cast<std::uint64_t>(static_cast<long long>(-big)));
  EXPECT_EQ(enc.encode(-big), CategoricalEncoder(kDim, 15).encode(-big));
}

TEST(CategoricalEncoder, ItemMemoryStopsAtCapWithoutChangingVectors) {
  const CategoricalEncoder enc(kSmallDim, 16);
  const std::size_t categories = kMaxMemoEntries + 100;
  for (std::size_t c = 0; c < categories; ++c) {
    (void)enc.encode(static_cast<double>(c));
  }
  EXPECT_EQ(enc.item_memory_size(), kMaxMemoEntries);
  // Memoised and regenerated categories alike equal a fresh encoder's first
  // (generated) vector, through both entry points.
  BitVector out;
  for (std::size_t c = 0; c < categories; c += 7) {
    const BitVector fresh =
        CategoricalEncoder(kSmallDim, 16).encode(static_cast<double>(c));
    EXPECT_EQ(enc.encode(static_cast<double>(c)), fresh) << c;
    enc.encode_into(static_cast<double>(c), out);
    EXPECT_EQ(out, fresh) << c;
  }
  EXPECT_EQ(enc.item_memory_size(), kMaxMemoEntries);
}

TEST(RecordEncoder, ScratchMemoStopsAtCapWithoutChangingEncodings) {
  const auto make = [] {
    RecordEncoder rec(kSmallDim);
    rec.add_feature(std::make_unique<CategoricalEncoder>(kSmallDim, 30));
    rec.add_feature(std::make_unique<BinaryEncoder>(kSmallDim, 31));
    rec.add_feature(std::make_unique<LevelEncoder>(kSmallDim, 0.0, 1.0, 32));
    return rec;
  };
  const RecordEncoder rec = make();
  RecordEncoder::Scratch scratch;
  const std::size_t rows = kMaxMemoEntries + 100;
  // Each category is seen twice: once new, once again after the memo filled.
  for (std::size_t pass = 0; pass < 2; ++pass) {
    for (std::size_t c = 0; c < rows; ++c) {
      const double row[] = {static_cast<double>(c), static_cast<double>(c % 2),
                            static_cast<double>(c % 10) / 10.0};
      const BitVector encoded = rec.encode(row, scratch);
      if (c % 13 == 0) {
        EXPECT_EQ(encoded, make().encode(row)) << pass << "/" << c;
      }
    }
  }
  ASSERT_EQ(scratch.memo.size(), 3u);
  EXPECT_EQ(scratch.memo[0].size(), kMaxMemoEntries);
  EXPECT_EQ(scratch.memo[1].size(), 2u);
  EXPECT_LE(scratch.memo[2].size(), kSmallDim / 4 + 1);  // level keys: never capped
}

TEST(RecordEncoder, BundlesFeatures) {
  RecordEncoder rec(kDim);
  rec.add_feature(std::make_unique<LevelEncoder>(kDim, 0.0, 1.0, 20));
  rec.add_feature(std::make_unique<LevelEncoder>(kDim, 0.0, 1.0, 21));
  rec.add_feature(std::make_unique<BinaryEncoder>(kDim, 22));
  EXPECT_EQ(rec.feature_count(), 3u);
  const std::vector<double> row = {0.5, 0.7, 1.0};
  const BitVector patient = rec.encode(row);
  EXPECT_EQ(patient.size(), kDim);
  // Patient vector is closer to each of its feature vectors than to an
  // unrelated feature space.
  const BitVector f0 = rec.feature(0).encode(0.5);
  const LevelEncoder outsider(kDim, 0.0, 1.0, 99);
  EXPECT_LT(patient.hamming(f0), patient.hamming(outsider.encode(0.5)));
}

TEST(RecordEncoder, SimilarRowsProduceCloserPatients) {
  RecordEncoder rec(kDim);
  for (int j = 0; j < 5; ++j) {
    rec.add_feature(std::make_unique<LevelEncoder>(kDim, 0.0, 1.0, 30 + j));
  }
  const std::vector<double> base = {0.1, 0.2, 0.3, 0.4, 0.5};
  std::vector<double> near = base;
  near[0] = 0.15;
  std::vector<double> far = {0.9, 0.95, 0.85, 0.99, 0.92};
  const BitVector vb = rec.encode(base);
  EXPECT_LT(vb.hamming(rec.encode(near)), vb.hamming(rec.encode(far)));
}

TEST(RecordEncoder, ArityMismatchThrows) {
  RecordEncoder rec(kDim);
  rec.add_feature(std::make_unique<BinaryEncoder>(kDim, 40));
  const std::vector<double> row = {1.0, 0.0};
  EXPECT_THROW((void)rec.encode(row), std::invalid_argument);
}

TEST(RecordEncoder, NoFeaturesThrows) {
  RecordEncoder rec(kDim);
  const std::vector<double> row;
  EXPECT_THROW((void)rec.encode(row), std::logic_error);
}

TEST(RecordEncoder, MismatchedEncoderDimThrows) {
  RecordEncoder rec(kDim);
  EXPECT_THROW(rec.add_feature(std::make_unique<BinaryEncoder>(kDim / 2, 41)),
               std::invalid_argument);
}

TEST(RecordEncoder, RandomTiePolicyRejected) {
  RecordEncoder rec(kDim, TiePolicy::kRandom);
  rec.add_feature(std::make_unique<BinaryEncoder>(kDim, 42));
  rec.add_feature(std::make_unique<BinaryEncoder>(kDim, 43));
  const std::vector<double> row = {0.0, 1.0};
  EXPECT_THROW((void)rec.encode(row), std::logic_error);
}

// Property sweep: linearity of the level encoder across dimensionalities.
class LevelEncoderDimSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LevelEncoderDimSweep, OrthogonalEndpointsAtAnyDim) {
  const std::size_t dim = GetParam();
  const LevelEncoder enc(dim, -5.0, 5.0, 50);
  EXPECT_EQ(enc.encode(-5.0).hamming(enc.encode(5.0)), dim / 2);
}

TEST_P(LevelEncoderDimSweep, MonotoneDistanceFromSeed) {
  const std::size_t dim = GetParam();
  const LevelEncoder enc(dim, 0.0, 1.0, 51);
  const BitVector seed = enc.encode(0.0);
  std::size_t prev = 0;
  for (const double t : {0.2, 0.4, 0.6, 0.8, 1.0}) {
    const std::size_t d = seed.hamming(enc.encode(t));
    EXPECT_GE(d, prev);
    prev = d;
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, LevelEncoderDimSweep,
                         ::testing::Values(128, 1000, 10000, 20000));

}  // namespace
}  // namespace hdc::hv
