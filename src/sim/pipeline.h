// The Monte-Carlo sample pipeline implementing Section 7.1's methodology:
//
//  benign samples:  deploy a network, pick sensors, let the localization
//                   scheme estimate Le, compute the metric score of the
//                   (untainted) observation against Le;
//  attack samples:  pick sensors, plant Le at distance D (the D-anomaly),
//                   craft the tainted observation with the greedy
//                   metric-minimizing procedure for the attack class and
//                   compromise budget, score the tainted observation.
//
// The attack sub-stream ignores the metric, the attack class and x: only D
// moves it.  So one attack batch per D draws the victims and planted Les
// once, observes each victim and computes mu at its Le once, then runs
// every requested (metric, class, x) cell's taint and scorers against
// them.  Cells that share (metric, class) share one greedy walk, a budget
// ladder over their x values (attack/greedy.h), and every Prob taint and
// scorer of a victim reads one ProbTable.  A cell's scores are the same
// whether it runs alone or in a batch with others.
//
// Networks are generated once per pipeline (deterministically from the
// seed) and shared read-only across threads; each sampling pass derives
// per-network Philox sub-streams, so results do not depend on thread count
// or scheduling.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "attack/adversary.h"
#include "core/metric.h"
#include "core/serialize.h"
#include "deploy/config.h"
#include "deploy/deployment_model.h"
#include "deploy/gz_table.h"
#include "deploy/network.h"
#include "geom/vec2.h"
#include "loc/localizer.h"

namespace lad {

struct PipelineConfig {
  DeploymentConfig deploy;
  int networks = 10;             ///< deployed networks in the pool
  int victims_per_network = 200; ///< sensors sampled per network per pass
  std::uint64_t seed = 1;        ///< master seed (everything derives from it)
  int gz_omega = 256;            ///< g(z) lookup-table resolution
  int threads = 0;               ///< 0 = default parallelism
  /// Sample victims among sensors that landed inside the deployment field.
  /// Gaussian scatter puts ~5% of boundary-group nodes outside the
  /// 1000x1000 plane where neighborhoods are sparse and a Dec-Bounded
  /// attacker can mimic any expected observation; the paper's evaluation
  /// (100% DR at D=160) is consistent with in-field victims only.
  bool victims_in_field_only = true;

  /// Deployment-point layout (Section 3.1 extensions): grid (the paper's
  /// evaluation), hexagonal, or random-but-known points.
  DeploymentShape shape = DeploymentShape::kGrid;

  // --- deployment-knowledge mismatch (the paper's Section 8 future work:
  //     "the accuracy of the deployment knowledge model") -----------------
  /// Actual scatter std-dev used when deploying networks; 0 means "equal to
  /// the knowledge model's sigma" (no mismatch).  Detection always uses the
  /// knowledge sigma.
  double actual_sigma = 0.0;
  /// Std-dev of a Gaussian offset applied to the *actual* deployment points
  /// (e.g. the airplane released groups off-target); the knowledge model
  /// keeps the nominal points.
  double deployment_jitter = 0.0;
};

/// Creates a per-network localizer; `seed` varies per network so stochastic
/// localizers (truth+noise) stay deterministic and uncorrelated.
using LocalizerFactory =
    std::function<std::unique_ptr<Localizer>(std::uint64_t seed)>;

/// A factory for the paper's default scheme (beaconless MLE, ref. [8]).
LocalizerFactory beaconless_mle_factory(const DeploymentModel& model,
                                        const GzTable& gz);

struct AttackSpec {
  MetricKind metric = MetricKind::kDiff;
  AttackClass attack_class = AttackClass::kDecBounded;
  double damage = 120.0;          ///< D: |Le - La|
  double compromised_frac = 0.1;  ///< x as a fraction of the neighborhood
};

/// One cell of an attack batch: the taint minimizes `metric` for
/// `attack_class` at compromise fraction `compromised_frac`, and each
/// tainted observation is scored by every metric in `scorers`.
struct AttackCell {
  MetricKind metric = MetricKind::kDiff;
  AttackClass attack_class = AttackClass::kDecBounded;
  double compromised_frac = 0.1;
  std::vector<MetricKind> scorers;

  bool operator==(const AttackCell&) const = default;
};

/// Per-group threshold training knobs for train_bundle.
struct GroupTrainingSpec {
  bool per_group = false;  ///< fit boundary groups separately
  /// Benign-bucket floor below which a group falls back to the global
  /// threshold (recorded as such in the bundle's provenance rows).
  int min_samples = 100;
};

class Pipeline {
 public:
  explicit Pipeline(const PipelineConfig& config);

  const PipelineConfig& config() const { return config_; }
  /// The knowledge model: what sensors believe about the deployment (and
  /// what the detector/localizer use).
  const DeploymentModel& model() const { return model_; }
  /// The actual model networks were deployed with; differs from model()
  /// only when actual_sigma / deployment_jitter configure a mismatch.
  const DeploymentModel& actual_model() const { return actual_model_; }
  const GzTable& gz() const { return gz_; }
  const std::vector<std::unique_ptr<Network>>& networks() const {
    return networks_;
  }

  /// Benign score samples for each requested metric (one pass: the
  /// localization estimate is shared across metrics, as in training).
  /// `victim_groups` (optional) receives each sample's victim group - the
  /// knowledge model's nearest deployment group to the victim's true
  /// position - index-aligned with every metric's score vector.  Filling
  /// it never perturbs the rng stream, so scores are identical either way.
  std::map<MetricKind, std::vector<double>> benign_scores(
      const LocalizerFactory& factory, const std::vector<MetricKind>& metrics,
      std::vector<int>* victim_groups = nullptr);

  /// The attack pass at damage D for a list of cells: one victim draw, one
  /// fan-out, and per victim one observation and one mu, shared by every
  /// cell.  Returns scores[cell][scorer][sample], index-aligned with
  /// `cells` and each cell's `scorers`.  As in benign_scores,
  /// `victim_groups` optionally receives the per-sample victim groups
  /// without perturbing the stream.
  std::vector<std::vector<std::vector<double>>> attack_batch(
      double damage, const std::vector<AttackCell>& cells,
      std::vector<int>* victim_groups = nullptr);

  /// Attacked score samples for one attack specification (a one-cell
  /// attack_batch scored by the attacked metric).
  std::vector<double> attack_scores(const AttackSpec& spec,
                                    std::vector<int>* victim_groups = nullptr);

  /// Mean localization error of a scheme over the benign pass (diagnostic;
  /// drives the Fig. 9 density discussion).
  double mean_localization_error(const LocalizerFactory& factory);

  /// Trains one detector section per metric on a single shared benign pass
  /// (the localization estimate is shared across metrics, as in training)
  /// and captures them in a bundle: the unit of deployment the CLI writes
  /// and RuntimeDetector materializes.  `taus` is the threshold table
  /// (deduplicated, sorted; `active_tau` is added when missing) and
  /// `active_tau` selects each section's active threshold.
  ///
  /// With `grouped.per_group`, the same benign pass is additionally
  /// bucketed by victim group and every boundary group (see
  /// boundary_groups) is fitted separately at `active_tau`; the resulting
  /// override rows - trained, or recorded fallbacks to the global
  /// threshold for buckets under `grouped.min_samples` - land in every
  /// section, fusion components included.
  DetectorBundle train_bundle(const LocalizerFactory& factory,
                              const std::vector<MetricKind>& metrics,
                              std::vector<double> taus, double active_tau,
                              const GroupTrainingSpec& grouped = {});

 private:
  /// The shared sequential rng phase of the benign-side passes: replays
  /// every network's historical stream order (localizer seed, then the k
  /// victim draws, filling `victims[ni*k + v]`), builds one localizer per
  /// network, and runs prepare() in parallel.  After this returns, no pass
  /// rng remains to be consumed — the per-victim fan-out is free to run
  /// in any schedule.
  std::vector<std::unique_ptr<Localizer>> benign_localizers(
      const LocalizerFactory& factory, std::vector<std::size_t>& victims);

  /// The attack batch's sequential rng phase: victim and planted-Le draws
  /// in the historical per-network order.
  void draw_attack_victims(double damage, std::vector<std::size_t>& victims,
                           std::vector<Vec2>& les);

  /// True when every per-network localizer supports order-independent
  /// concurrent localize() — the gate for the flat per-victim fan-out.
  static bool concurrent_localize_all(
      const std::vector<std::unique_ptr<Localizer>>& localizers);

  PipelineConfig config_;
  DeploymentModel model_;         ///< knowledge model
  DeploymentModel actual_model_;  ///< deployment reality
  GzTable gz_;
  std::vector<std::unique_ptr<Network>> networks_;
};

}  // namespace lad
