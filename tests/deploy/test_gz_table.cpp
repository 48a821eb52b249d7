#include "deploy/gz_table.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "deploy/gz.h"
#include "geom/vec2.h"
#include "util/assert.h"

namespace lad {
namespace {

TEST(GzTable, AgreesWithExactAtTablePoints) {
  const GzParams params{50.0, 50.0};
  const GzTable table(params, 64);
  const double hi = table.support_radius();
  for (int i = 0; i <= 64; ++i) {
    const double z = hi * i / 64.0;
    EXPECT_NEAR(table(z), gz_exact(z, params), 1e-12) << "z = " << z;
  }
}

TEST(GzTable, InterpolationErrorSmallAtDefaultResolution) {
  const GzParams params{50.0, 50.0};
  const GzTable table(params);
  // Section 3.3: "omega does not need to be very large" - the default 256
  // already interpolates to ~1e-5 absolute error.
  EXPECT_LT(table.max_abs_error(), 5e-5);
}

TEST(GzTable, ErrorDecreasesWithOmega) {
  const GzParams params{50.0, 50.0};
  const GzTable coarse(params, 16);
  const GzTable fine(params, 512);
  EXPECT_LT(fine.max_abs_error(500), coarse.max_abs_error(500) / 50.0);
}

TEST(GzTable, ZeroBeyondSupport) {
  const GzTable table(GzParams{50.0, 50.0}, 64);
  EXPECT_DOUBLE_EQ(table(table.support_radius()), 0.0);
  EXPECT_DOUBLE_EQ(table(1e9), 0.0);
}

TEST(GzTable, NegativeInputClampsToZeroDistance) {
  const GzParams params{50.0, 50.0};
  const GzTable table(params, 64);
  EXPECT_DOUBLE_EQ(table(-5.0), table(0.0));
}

TEST(GzTable, AtComputesPointDistances) {
  const GzParams params{50.0, 50.0};
  const GzTable table(params, 256);
  const Vec2 dp{100, 100};
  EXPECT_DOUBLE_EQ(table.at({100, 100}, dp), table(0.0));
  EXPECT_NEAR(table.at({130, 140}, dp), table(50.0), 1e-12);
}

// The serial sampling loop the table shipped with, kept as the oracle of
// the threaded build: point i is gz_exact(lo + step * i).
std::vector<double> serial_samples(const GzParams& params, int omega) {
  const double lo = 0.0;
  const double hi = gz_support_radius(params);
  std::vector<double> values(static_cast<std::size_t>(omega) + 1);
  const double step = (hi - lo) / omega;
  for (int i = 0; i <= omega; ++i) {
    values[static_cast<std::size_t>(i)] = gz_exact(lo + step * i, params);
  }
  return values;
}

TEST(GzTable, ThreadedBuildIsBitIdenticalToTheSerialLoop) {
  for (const GzParams params :
       {GzParams{50.0, 50.0}, GzParams{45.0, 25.0}, GzParams{100.0, 20.0}}) {
    for (int omega : {8, 64, 256, 1000}) {
      SCOPED_TRACE("R " + std::to_string(params.radio_range) + ", sigma " +
                   std::to_string(params.sigma) + ", omega " +
                   std::to_string(omega));
      const std::vector<double> oracle = serial_samples(params, omega);
      for (int threads : {1, 2, 4}) {
        const GzTable table(params, omega, threads);
        // EXPECT_EQ on the vectors compares doubles with ==: bit-equal
        // for the finite values g takes.
        EXPECT_EQ(table.values(), oracle) << "threads " << threads;
      }
    }
  }
}

TEST(GzTable, BadOmegaRaisesTheSameNamedErrorAtEveryThreadCount) {
  const auto message = [](int omega, int threads) -> std::string {
    try {
      const GzTable table(GzParams{50.0, 50.0}, omega, threads);
    } catch (const AssertionError& e) {
      return e.what();
    }
    return "no error";
  };
  for (int threads : {1, 2, 4}) {
    for (int omega : {-1, 0}) {
      EXPECT_NE(message(omega, threads).find("need at least one sub-range"),
                std::string::npos)
          << "omega " << omega << ", threads " << threads;
    }
    EXPECT_NE(message(7, threads).find("omega < 8"), std::string::npos)
        << "threads " << threads;
  }
}

TEST(GzTable, RejectsUselessOmega) {
  EXPECT_THROW(GzTable(GzParams{50.0, 50.0}, 4), AssertionError);
}

}  // namespace
}  // namespace lad
