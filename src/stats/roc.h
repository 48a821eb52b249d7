// Receiver Operating Characteristic curves.
//
// The paper evaluates every metric with ROC curves (Figs. 4-6): detection
// rate (fraction of attacked samples whose anomaly score exceeds the
// threshold) against false-positive rate (fraction of benign samples that
// exceed it), swept over all thresholds.  Scores follow the library-wide
// convention "higher = more anomalous".
#pragma once

#include <vector>

namespace lad {

// lad-lint: allow(dead-public) -- the element type of RocCurve::points()
struct RocPoint {
  double threshold;
  double false_positive_rate;
  double detection_rate;
};

class RocCurve {
 public:
  /// Builds the curve from benign and attacked score samples.  Thresholds
  /// are the distinct score values; points are sorted by ascending FP rate.
  RocCurve(const std::vector<double>& benign_scores,
           const std::vector<double>& attack_scores);

  const std::vector<RocPoint>& points() const { return points_; }

  /// Area under the curve via trapezoidal rule; 0.5 = chance, 1 = perfect.
  double auc() const;

  /// Detection rate at the largest threshold whose FP rate is <= fp_budget
  /// (the paper's "detection rate at 1% false positives").
  double detection_rate_at_fp(double fp_budget) const;

  /// Smallest achievable FP rate at which the detection rate is >= dr_floor;
  /// returns 1.0 if unreachable.
  double fp_at_detection_rate(double dr_floor) const;

 private:
  std::vector<RocPoint> points_;
};

}  // namespace lad
