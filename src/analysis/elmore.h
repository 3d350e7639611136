#pragma once

#include <vector>

#include "rctree/extract.h"

namespace contango {

/// First-order (Elmore) analysis of a stage-local RC tree.
///
/// Elmore delay at tap t is  sum over path edges e of  R_e * Cdown(e),
/// plus the driver term  R_drv * Ctotal.  The 50% point of a single-pole
/// response is ln2 * tau; we report ln2-scaled delays so Elmore numbers are
/// directly comparable with the transient engine.  Slew is estimated PERI-
/// style: the stage's own 10-90% response (ln9 * tau_tap) combined with the
/// input slew in quadrature.
///
/// The paper uses closed-form models like this one only for construction
/// (DME, initial buffering); they underestimate resistive shielding and
/// slew effects, which is exactly why the flow switches to the transient
/// engine for optimization.
class ElmoreStage {
 public:
  explicit ElmoreStage(const Stage& stage);

  /// Raw Elmore time constant from the driver output to RC node `rc`,
  /// excluding the driver resistance term.
  Ps tau(int rc) const { return tau_[static_cast<std::size_t>(rc)]; }

  /// Total grounded capacitance of the stage.
  Ff total_cap() const { return total_cap_; }

  /// Downstream capacitance seen at RC node `rc` (including its own cap).
  Ff downstream_cap(int rc) const { return cdown_[static_cast<std::size_t>(rc)]; }

  /// 50%-to-50% stage delay estimate for a driver of resistance r_drv.
  Ps delay(int rc, KOhm r_drv) const;

  /// 10-90% slew estimate at the tap given the input slew at the driver.
  Ps slew(int rc, KOhm r_drv, Ps input_slew) const;

 private:
  const Stage& stage_;
  std::vector<Ps> tau_;    ///< Elmore tau per RC node (driver term excluded)
  std::vector<Ff> cdown_;  ///< downstream cap per RC node
  Ff total_cap_ = 0.0;
};

}  // namespace contango
