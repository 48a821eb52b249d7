// The Echo location-verification protocol (Sastry, Shankar, Wagner - the
// paper's ref. [34]), simulated at the timing level.  Section 2.2 uses it
// as the contrast for LAD: "the Echo protocol only verifies whether a node
// is inside a region ... relies on the existence of a very fast (e.g.
// radio frequency) and a relatively slow (e.g., ultrasound) signal".
//
// Protocol: the verifier sends a nonce over RF (effectively instant) and
// the prover echoes it over ultrasound.  Sound cannot be outrun, so the
// echo's elapsed time lower-bounds the prover's distance: a prover can
// *delay* its reply (appear farther) but never appear closer.  The
// verifier accepts an in-region claim iff the echo returns within the time
// budget of the claimed position (plus a processing allowance).
//
// The comparison bench (tab_echo_comparison) shows the asymmetry the paper
// exploits: Echo rejects claims closer to a verifier than the prover
// really is, but accepts claims farther away, and needs verifier hardware
// coverage - LAD detects displacement in any direction with no ranging
// hardware at all.
#pragma once

#include <vector>

#include "geom/aabb.h"
#include "geom/vec2.h"

namespace lad {

/// Speed of sound used by the simulated ultrasound channel (m/s).
inline constexpr double kUltrasoundSpeed = 343.0;

// lad-lint: allow(dead-public) -- the element type of
// EchoProtocol::verifiers()
struct EchoVerifier {
  Vec2 position;
  /// Maximum ultrasound range; claims outside are unverifiable by this
  /// verifier (Echo needs in-range coverage).
  double range;
};

class EchoProtocol {
 public:
  /// processing_slack: receiver-side allowance in seconds added to the
  /// acceptance deadline (the original paper's delta_p).
  EchoProtocol(std::vector<EchoVerifier> verifiers,
               double processing_slack = 1e-4);

  /// kx * ky verifiers on a grid over the field.
  static EchoProtocol grid(const Aabb& field, int kx, int ky, double range,
                           double processing_slack = 1e-4);

  const std::vector<EchoVerifier>& verifiers() const { return verifiers_; }

  /// Simulates one verification round for a prover whose radio actually
  /// sits at `actual`, claiming to be at `claimed`, replying after
  /// `attacker_delay` seconds (0 = honest immediate echo).
  /// Returns:
  ///   +1  accepted  (some in-range verifier's deadline was met)
  ///    0  unverifiable (no verifier covers the claimed position)
  ///   -1  rejected  (every covering verifier timed the echo out)
  int verify(Vec2 claimed, Vec2 actual, double attacker_delay = 0.0) const;

  /// Fraction of the field covered by at least one verifier (sampled).
  double coverage(const Aabb& field, int samples_per_axis = 40) const;

 private:
  std::vector<EchoVerifier> verifiers_;
  double processing_slack_;
};

}  // namespace lad
