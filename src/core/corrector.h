// Location correction - the paper's stated ultimate goal (Section 8):
// "Our ultimate goal is not only to detect the anomalies, but also to
// correct the errors caused by the anomalies."  The paper leaves this as
// future work; this module implements a best-effort corrector and the
// correction bench measures honestly where it succeeds and where the
// Dec-Bounded adversary defeats it.
//
// Approach: robust (winsorized) maximum-likelihood re-estimation from the
// (possibly tainted) observation.  At a candidate location theta each
// group contributes log Binom(o_i; m, g_i(theta)), but the contribution is
// capped from below at -penalty_cap: a group the attacker forged or
// silenced can cost at most the cap, so the optimum is decided by how MANY
// groups are implausible rather than by how extreme the worst one is.
// (A hard trim of the k worst terms fails here: a concentrated observation
// has only ~10 informative groups, and trimming them all makes every
// location look perfect.)  The search is multi-start (the observation-
// weighted centroid plus the deployment points of the highest-count
// groups) because a tainted observation is bimodal: one bump of surviving
// truth around La, one forged bump around the planted Le.
//
// Expected behaviour (measured by
// `lad_cli run --scenario bench/scenarios/tab_correction.scn`):
//  * Dec-Only attacks only silence, so the surviving bump dominates and
//    correction recovers La to within the scheme's benign error;
//  * Dec-Bounded attacks can forge an arbitrarily convincing bump at Le,
//    so correction degrades as x grows - consistent with the paper
//    calling correction an open problem.
//
// A per-group-trained detector bundle (core/serialize.h) can additionally
// condition the cap per group: boundary groups whose benign score spread
// is legitimately wider get a proportionally looser cap, so the
// capped_groups diagnostic stops mistaking edge-truncated neighborhoods
// for tainted ones (apply_group_spread).
#pragma once

#include <vector>

#include "deploy/deployment_model.h"
#include "deploy/group_likelihood.h"
#include "deploy/gz_table.h"
#include "deploy/observation.h"
#include "geom/vec2.h"

namespace lad {

struct DetectorBundle;

struct CorrectionResult {
  Vec2 corrected;     ///< the re-estimated location
  double robust_ll;   ///< capped log-likelihood at the estimate
  /// Groups whose penalty hit the cap at the optimum - under attack these
  /// are typically the forged / silenced ones (diagnostics).
  std::vector<int> capped_groups;
};

class LocationCorrector {
 public:
  /// penalty_cap: lower bound (in -log-likelihood units) on any single
  /// group's contribution.  Benign per-group terms stay below ~10 even in
  /// 4-sigma tails, so the default 25 never caps honest evidence.
  /// seeds: number of highest-count groups whose deployment points seed
  /// the multi-start search (in addition to the weighted centroid).
  LocationCorrector(const DeploymentModel& model, const GzTable& gz,
                    double penalty_cap = 25.0, int seeds = 5,
                    double tol_meters = 0.5);

  /// Conditions the penalty cap on the bundle's per-group benign spread: a
  /// group override row in the primary section scales that group's cap by
  /// threshold_g / threshold_global, so boundary groups whose benign
  /// scores legitimately run wider (truncated neighborhoods) get
  /// proportionally more slack before they read as forged/silenced in
  /// `capped_groups`.  Groups without an override keep the base cap.
  /// Requires positive global and per-group thresholds.
  void apply_group_spread(const DetectorBundle& bundle);

  /// The penalty cap in force for `group` (base, or bundle-conditioned).
  double cap_for_group(int group) const;

  CorrectionResult correct(const Observation& obs) const;

  /// Capped log-likelihood of obs at theta (exposed for tests).
  double robust_log_likelihood(const Observation& obs, Vec2 theta) const;

  /// The deployment point where the deployment-density prior is highest -
  /// what correct() returns for an observation with every group silenced
  /// (ties break toward the lowest group id).
  Vec2 max_prior_deployment_point() const;

 private:
  const DeploymentModel* model_;
  GroupLikelihood likelihood_;
  double penalty_cap_;
  int seeds_;
  double tol_meters_;
  /// Per-group caps: penalty_cap_ until apply_group_spread conditions them.
  std::vector<double> group_caps_;
};

}  // namespace lad
