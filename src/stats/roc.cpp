#include "stats/roc.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/assert.h"

namespace lad {

RocCurve::RocCurve(const std::vector<double>& benign_scores,
                   const std::vector<double>& attack_scores) {
  LAD_REQUIRE_MSG(!benign_scores.empty(), "ROC needs benign samples");
  LAD_REQUIRE_MSG(!attack_scores.empty(), "ROC needs attack samples");

  // Candidate thresholds: every distinct observed score.  Evaluating "score
  // > t" on sorted copies turns each rate into a suffix count.
  std::vector<double> benign = benign_scores;
  std::vector<double> attack = attack_scores;
  std::sort(benign.begin(), benign.end());
  std::sort(attack.begin(), attack.end());

  std::vector<double> thresholds;
  thresholds.reserve(benign.size() + attack.size() + 2);
  thresholds.insert(thresholds.end(), benign.begin(), benign.end());
  thresholds.insert(thresholds.end(), attack.begin(), attack.end());
  std::sort(thresholds.begin(), thresholds.end());
  thresholds.erase(std::unique(thresholds.begin(), thresholds.end()),
                   thresholds.end());

  const double nb = static_cast<double>(benign.size());
  const double na = static_cast<double>(attack.size());

  auto frac_above = [](const std::vector<double>& sorted, double t) {
    // Count of elements strictly greater than t.
    return static_cast<double>(sorted.end() -
                               std::upper_bound(sorted.begin(), sorted.end(), t));
  };

  // Include a threshold below every score (FP = DR = 1) so curves span the
  // full range, then one point per distinct score.
  points_.push_back({-std::numeric_limits<double>::infinity(), 1.0, 1.0});
  for (double t : thresholds) {
    points_.push_back({t, frac_above(benign, t) / nb, frac_above(attack, t) / na});
  }
  std::sort(points_.begin(), points_.end(),
            [](const RocPoint& a, const RocPoint& b) {
              if (a.false_positive_rate != b.false_positive_rate)
                return a.false_positive_rate < b.false_positive_rate;
              return a.detection_rate < b.detection_rate;
            });
}

double RocCurve::auc() const {
  double area = 0.0;
  for (std::size_t i = 1; i < points_.size(); ++i) {
    const double dx =
        points_[i].false_positive_rate - points_[i - 1].false_positive_rate;
    area += dx * (points_[i].detection_rate + points_[i - 1].detection_rate) / 2.0;
  }
  return area;
}

double RocCurve::detection_rate_at_fp(double fp_budget) const {
  LAD_REQUIRE_MSG(fp_budget >= 0.0 && fp_budget <= 1.0,
                  "false-positive budget must be in [0,1]");
  double best = 0.0;
  for (const RocPoint& p : points_) {
    if (p.false_positive_rate <= fp_budget) {
      best = std::max(best, p.detection_rate);
    }
  }
  return best;
}

double RocCurve::fp_at_detection_rate(double dr_floor) const {
  double best = 1.0;
  for (const RocPoint& p : points_) {
    if (p.detection_rate >= dr_floor) {
      best = std::min(best, p.false_positive_rate);
    }
  }
  return best;
}

}  // namespace lad
