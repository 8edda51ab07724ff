// The EnsembleSpec wire/option types, split from analysis/ensemble.h so the
// service envelope codec (io/envelope.cpp — semsim_io, which semsim_analysis
// links, not the reverse) can carry the spec without pulling the simulation
// headers or a link-time cycle into the io layer. Everything here is
// header-only, validate() included, so the codec rejects a bad spec with
// the same rules run_ensemble applies.
//
// for_each_field (below) is the one list of the spec's scalar fields: their
// JSON name, CLI flag and fingerprint position are written there and
// nowhere else. See analysis/ensemble.h for the full ensemble contract.
#pragma once

#include <cmath>
#include <concepts>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>

#include "base/error.h"

namespace semsim {

/// One perturbed parameter: the distribution the per-replica draw comes
/// from and its width. For the relative parameters (R, C, temperature) the
/// draw z scales the nominal value by max(1 + spread * z, floor); for the
/// background charge it adds spread * z electrons of offset.
struct PerturbationSpec {
  enum class Dist : std::uint8_t { kGaussian = 0, kUniform = 1 };

  double spread = 0.0;  ///< sigma (gaussian) or half-width (uniform); >= 0
  Dist dist = Dist::kGaussian;

  bool active() const noexcept { return spread > 0.0; }
};

/// Wire spelling of a perturbation distribution ("gaussian" / "uniform").
inline const char* perturbation_dist_name(PerturbationSpec::Dist dist) noexcept {
  return dist == PerturbationSpec::Dist::kUniform ? "uniform" : "gaussian";
}
/// Inverse of perturbation_dist_name; returns false on an unknown spelling.
inline bool perturbation_dist_from(const std::string& name,
                                   PerturbationSpec::Dist* out) noexcept {
  if (name == "gaussian") {
    *out = PerturbationSpec::Dist::kGaussian;
    return true;
  }
  if (name == "uniform") {
    *out = PerturbationSpec::Dist::kUniform;
    return true;
  }
  return false;
}

struct EnsembleSpec {
  /// Presence flag: a request without an ensemble section is exactly a
  /// disabled spec, and a disabled spec contributes nothing to the run
  /// fingerprint or the result document (v2 compatibility).
  bool enabled = false;

  std::uint32_t replicas = 1;
  /// Ensemble seed; 0 = derive the replica streams from the run seed.
  std::uint64_t seed = 0;

  PerturbationSpec bg_charge;    ///< absolute offset, units of e
  PerturbationSpec resistance;   ///< relative junction-R spread
  PerturbationSpec capacitance;  ///< relative junction-C + capacitor spread
  PerturbationSpec temperature;  ///< relative operating-temperature spread

  /// Yield window on |observable| (the mean current of a measurement run;
  /// the peak |I| of a sweep replica). A replica counts toward the yield
  /// fraction when it completed ok AND yield_min <= |obs| <= yield_max;
  /// the defaults make yield == ok-fraction.
  double yield_min = 0.0;
  double yield_max = std::numeric_limits<double>::infinity();

  bool has_yield_window() const noexcept {
    return yield_min > 0.0 || std::isfinite(yield_max);
  }

  /// Throws Error on structural nonsense (0 replicas, negative or
  /// non-finite spreads, inverted yield window).
  void validate() const;
};

inline void validate_spread(const PerturbationSpec& p, const char* name) {
  require(std::isfinite(p.spread) && p.spread >= 0.0,
          std::string("ensemble: ") + name +
              " spread must be finite and >= 0");
}

inline void EnsembleSpec::validate() const {
  require(replicas >= 1, "ensemble: replicas must be >= 1");
  validate_spread(bg_charge, "bg_charge");
  validate_spread(resistance, "resistance");
  validate_spread(capacitance, "capacitance");
  validate_spread(temperature, "temperature");
  require(std::isfinite(yield_min) && yield_min >= 0.0,
          "ensemble: yield_min must be finite and >= 0");
  require(yield_max > 0.0 && !std::isnan(yield_max),
          "ensemble: yield_max must be > 0");
  require(yield_min <= yield_max,
          "ensemble: yield window is inverted (yield_min > yield_max)");
}

/// The scalar fields of an EnsembleSpec, listed once: calls
/// f(json_name, cli_flag, member) per field. The JSON names live inside the
/// "ensemble" object of the submit envelope and of the v3 result document;
/// passing any of the flags enables the ensemble. The order is the run
/// fingerprint's byte layout (the checkpoint and result-cache key), so it
/// is FROZEN: append only. `enabled` is not listed; it is derived (section
/// present / any flag given) and fingerprinted as the leading u8.
template <class Spec, class F>
  requires std::same_as<std::remove_const_t<Spec>, EnsembleSpec>
void for_each_field(Spec& s, F&& f) {
  f("replicas", "--ensemble", s.replicas);
  f("seed", "--ensemble-seed", s.seed);
  f("bg_spread", "--ensemble-bg-spread", s.bg_charge.spread);
  f("bg_dist", "--ensemble-bg-dist", s.bg_charge.dist);
  f("resistance_spread", "--ensemble-r-spread", s.resistance.spread);
  f("resistance_dist", "--ensemble-r-dist", s.resistance.dist);
  f("capacitance_spread", "--ensemble-c-spread", s.capacitance.spread);
  f("capacitance_dist", "--ensemble-c-dist", s.capacitance.dist);
  f("temperature_spread", "--ensemble-t-spread", s.temperature.spread);
  f("temperature_dist", "--ensemble-t-dist", s.temperature.dist);
  f("yield_min", "--ensemble-yield-min", s.yield_min);
  f("yield_max", "--ensemble-yield-max", s.yield_max);
}

/// The seed every replica stream of this run derives from.
inline std::uint64_t ensemble_effective_seed(const EnsembleSpec& spec,
                                             std::uint64_t run_seed) noexcept {
  return spec.seed != 0 ? spec.seed : run_seed;
}

}  // namespace semsim
