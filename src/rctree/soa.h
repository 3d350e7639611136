#pragma once

#include <cstddef>

#include "rctree/extract.h"

namespace contango {

/// \file soa.h
/// \brief Kept only for the benchmark driver (perfbench/driver.cpp), which
/// still builds one of these per final tree and hands view(i) to the
/// transient kernel.  The kernel reads Stage itself, so build() stores a
/// pointer and view(i) is stage i.  Like EvalWork::scalar_stage_evals, it
/// goes with the next change to perfbench/; nothing else includes it.
class NetlistSoa {
 public:
  /// `net` must outlive every view().
  void build(const StagedNetlist& net) { net_ = &net; }
  const Stage& view(int slot) const {
    return net_->stages.at(static_cast<std::size_t>(slot));
  }

 private:
  const StagedNetlist* net_ = nullptr;
};

}  // namespace contango
