#include "stats/interp.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/assert.h"

namespace lad {
namespace {

TEST(InterpTable, ExactAtSamplePoints) {
  auto f = [](double x) { return x * x; };
  const InterpTable t(f, 0.0, 10.0, 10);
  for (int i = 0; i <= 10; ++i) {
    EXPECT_DOUBLE_EQ(t(static_cast<double>(i)), f(i));
  }
}

TEST(InterpTable, LinearBetweenSamples) {
  auto f = [](double x) { return x * x; };
  const InterpTable t(f, 0.0, 10.0, 10);
  // Between 2 and 3 the table stores 4 and 9: midpoint is 6.5, not 6.25.
  EXPECT_DOUBLE_EQ(t(2.5), 6.5);
}

TEST(InterpTable, ClampsOutsideRange) {
  auto f = [](double x) { return 3 * x; };
  const InterpTable t(f, 1.0, 2.0, 4);
  EXPECT_DOUBLE_EQ(t(0.0), 3.0);
  EXPECT_DOUBLE_EQ(t(5.0), 6.0);
}

TEST(InterpTable, LinearFunctionIsReproducedExactly) {
  auto f = [](double x) { return 2.5 * x - 1.0; };
  const InterpTable t(f, -3.0, 7.0, 16);
  for (double x = -3.0; x <= 7.0; x += 0.37) {
    EXPECT_NEAR(t(x), f(x), 1e-12);
  }
}

TEST(InterpTable, ErrorShrinksWithResolution) {
  auto f = [](double x) { return std::sin(x); };
  const InterpTable coarse(f, 0.0, M_PI, 8);
  const InterpTable fine(f, 0.0, M_PI, 256);
  const double ce = coarse.max_abs_error(f, 500);
  const double fe = fine.max_abs_error(f, 500);
  EXPECT_LT(fe, ce / 100.0);  // linear interpolation error is O(h^2)
  EXPECT_LT(fe, 1e-4);
}

TEST(InterpTable, FromPrecomputedValues) {
  const InterpTable t(std::vector<double>{0.0, 1.0, 4.0}, 0.0, 2.0);
  EXPECT_EQ(t.omega(), 2);
  EXPECT_DOUBLE_EQ(t(0.5), 0.5);
  EXPECT_DOUBLE_EQ(t(1.5), 2.5);
}

TEST(InterpTable, RejectsBadConstruction) {
  auto f = [](double x) { return x; };
  EXPECT_THROW(InterpTable(f, 1.0, 1.0, 4), AssertionError);
  EXPECT_THROW(InterpTable(f, 0.0, 1.0, 0), AssertionError);
  EXPECT_THROW(InterpTable(std::vector<double>{1.0}, 0.0, 1.0), AssertionError);
}

TEST(InterpTable, ThreadedSamplingMatchesTheSerialBuild) {
  auto f = [](double x) { return std::exp(-x) * std::sin(3.0 * x); };
  const InterpTable serial(f, -1.0, 2.5, 97);
  for (int threads : {2, 4}) {
    const InterpTable threaded(f, -1.0, 2.5, 97, threads);
    EXPECT_EQ(threaded.values(), serial.values()) << "threads " << threads;
  }
}

TEST(InterpTable, ThreadedErrorProbesMatchTheSerialOnes) {
  auto f = [](double x) { return std::exp(-x) * std::sin(3.0 * x); };
  const InterpTable t(f, -1.0, 2.5, 13);
  const double serial = t.max_abs_error(f, 777);
  for (int threads : {2, 4}) {
    EXPECT_EQ(t.max_abs_error(f, 777, threads), serial)
        << "threads " << threads;
  }
}

TEST(InterpTable, RejectsANonPositiveThreadCount) {
  auto f = [](double x) { return x; };
  EXPECT_THROW(InterpTable(f, 0.0, 1.0, 4, 0), AssertionError);
  EXPECT_THROW(InterpTable(f, 0.0, 1.0, 4, -2), AssertionError);
  const InterpTable t(f, 0.0, 1.0, 4);
  EXPECT_THROW(t.max_abs_error(f, 10, 0), AssertionError);
}

}  // namespace
}  // namespace lad
