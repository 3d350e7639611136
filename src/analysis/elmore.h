#pragma once

#include <cstdint>
#include <memory>
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

  /// Contiguous per-node tau array (one entry per RC node).  The batched
  /// transient kernel borrows cached sweeps through this instead of
  /// re-running them per (corner x transition) combination.
  const Ps* tau_data() const { return tau_.data(); }

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

/// \brief Per-stage cache of ElmoreStage sweeps, keyed by RcNetlist slot
/// version.
///
/// The bottom-up load (cdown) and top-down tau sweeps of an ElmoreStage
/// depend only on the stage's RC contents, so they stay valid until the
/// stage is re-extracted.  The incremental evaluator keeps one cache per
/// netlist and rebuilds entries only along dirty paths; a sweep without
/// reuse (full evaluation, Monte-Carlo trial) has the kernel rebuild them
/// per stage instead, with the same accumulation order, so cached and
/// fresh sweeps are bit-identical.
class ElmoreCache {
 public:
  /// Returns the cached sweep for `slot`, rebuilding it from `stage` when
  /// `version` differs from the cached one.  `stage` must be the slot's
  /// stage object (its address must stay valid while the entry is used —
  /// RcNetlist keeps slot storage in place until a full rebuild, which
  /// moves every version).
  const ElmoreStage& get(int slot, std::uint64_t version, const Stage& stage) {
    if (static_cast<std::size_t>(slot) >= entries_.size()) {
      entries_.resize(static_cast<std::size_t>(slot) + 1);
    }
    Entry& e = entries_[static_cast<std::size_t>(slot)];
    if (!e.elmore || e.version != version) {
      e.elmore = std::make_unique<ElmoreStage>(stage);
      e.version = version;
    }
    return *e.elmore;
  }

  /// Sizes the cache for slots [0, n) so that get() on distinct slots
  /// never reallocates — concurrent get() calls are then safe as long as
  /// no two of them share a slot.
  void reserve_slots(std::size_t n) {
    if (entries_.size() < n) entries_.resize(n);
  }

  void clear() { entries_.clear(); }

 private:
  struct Entry {
    std::unique_ptr<ElmoreStage> elmore;
    std::uint64_t version = 0;
  };
  std::vector<Entry> entries_;
};

}  // namespace contango
