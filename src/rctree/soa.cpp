#include "rctree/soa.h"

#include <stdexcept>
#include <string>

#include "rctree/extract.h"

namespace contango {
namespace {

/// Node slices are sized to the next power of two (floor 4) so freed
/// slices land in exact buckets and a stage that shrinks and regrows a few
/// nodes keeps rewriting the same slice instead of churning allocations.
constexpr std::size_t kMinCapacity = 4;

std::size_t pow2_capacity(std::size_t need) {
  std::size_t cap = kMinCapacity;
  while (cap < need) cap <<= 1;
  return cap;
}

bool recyclable(std::size_t cap) {
  // Dense (build()) slices are tight, not power-of-two; they are never
  // individually freed — clear()/build() drops the whole arena instead.
  return cap >= kMinCapacity && (cap & (cap - 1)) == 0;
}

std::size_t bucket_of(std::size_t cap) {
  std::size_t b = 0;
  while ((kMinCapacity << b) < cap) ++b;
  return b;
}

}  // namespace

void NetlistSoa::build(const StagedNetlist& net) {
  clear();
  std::size_t total_nodes = 0, total_taps = 0;
  for (const Stage& s : net.stages) {
    total_nodes += s.nodes.size();
    total_taps += s.taps.size();
  }
  cap_.reserve(total_nodes);
  res_.reserve(total_nodes);
  parent_.reserve(total_nodes);
  tap_rc_.reserve(total_taps);
  tap_sink_.reserve(total_taps);
  tap_pin_cap_.reserve(total_taps);
  slots_.resize(net.stages.size());

  for (std::size_t si = 0; si < net.stages.size(); ++si) {
    const Stage& stage = net.stages[si];
    SlotRef& r = slots_[si];
    r.node_off = cap_.size();
    r.node_cap = r.num_nodes = stage.nodes.size();
    r.tap_off = tap_rc_.size();
    r.num_taps = stage.taps.size();
    r.driver_pin_cap = stage.driver_pin_cap;
    r.live = true;
    for (const RcNode& n : stage.nodes) {
      cap_.push_back(n.cap);
      res_.push_back(n.res);
      parent_.push_back(n.parent);
    }
    for (const Tap& t : stage.taps) {
      tap_rc_.push_back(t.rc_index);
      tap_sink_.push_back(t.is_sink ? t.sink_index : -1);
      tap_pin_cap_.push_back(t.pin_cap);
    }
  }
}

std::size_t NetlistSoa::acquire_nodes(std::size_t need) {
  const std::size_t cap = pow2_capacity(need);
  const std::size_t bucket = bucket_of(cap);
  if (bucket < free_nodes_.size() && !free_nodes_[bucket].empty()) {
    const std::size_t off = free_nodes_[bucket].back();
    free_nodes_[bucket].pop_back();
    return off;
  }
  const std::size_t off = cap_.size();
  cap_.resize(off + cap);
  res_.resize(off + cap);
  parent_.resize(off + cap);
  return off;
}

void NetlistSoa::recycle_nodes(std::size_t off, std::size_t cap) {
  if (!recyclable(cap)) return;
  const std::size_t bucket = bucket_of(cap);
  if (bucket >= free_nodes_.size()) free_nodes_.resize(bucket + 1);
  free_nodes_[bucket].push_back(off);
}

void NetlistSoa::write_slot(int slot, const Stage& stage) {
  if (slot < 0) throw std::invalid_argument("NetlistSoa: negative slot");
  if (static_cast<std::size_t>(slot) >= slots_.size()) {
    slots_.resize(static_cast<std::size_t>(slot) + 1);
  }
  SlotRef& r = slots_[static_cast<std::size_t>(slot)];
  const std::size_t need_taps = stage.taps.size();
  if (r.live && r.num_taps != need_taps) {
    throw std::logic_error("NetlistSoa: slot " + std::to_string(slot) +
                           " rewritten with " + std::to_string(need_taps) +
                           " taps, not " + std::to_string(r.num_taps));
  }

  const std::size_t need_nodes = stage.nodes.size();
  if (!r.live || r.node_cap < need_nodes) {
    if (r.live) recycle_nodes(r.node_off, r.node_cap);
    r.node_cap = pow2_capacity(need_nodes);
    r.node_off = acquire_nodes(need_nodes);
  }
  r.num_nodes = need_nodes;

  if (!r.live) {
    r.tap_off = tap_rc_.size();
    r.num_taps = need_taps;
    tap_rc_.resize(r.tap_off + need_taps);
    tap_sink_.resize(r.tap_off + need_taps);
    tap_pin_cap_.resize(r.tap_off + need_taps);
  }

  r.driver_pin_cap = stage.driver_pin_cap;
  r.live = true;

  for (std::size_t i = 0; i < need_nodes; ++i) {
    const RcNode& n = stage.nodes[i];
    cap_[r.node_off + i] = n.cap;
    res_[r.node_off + i] = n.res;
    parent_[r.node_off + i] = n.parent;
  }
  for (std::size_t k = 0; k < need_taps; ++k) {
    const Tap& t = stage.taps[k];
    tap_rc_[r.tap_off + k] = t.rc_index;
    tap_sink_[r.tap_off + k] = t.is_sink ? t.sink_index : -1;
    tap_pin_cap_[r.tap_off + k] = t.pin_cap;
  }
}

void NetlistSoa::clear() {
  slots_.clear();
  cap_.clear();
  res_.clear();
  parent_.clear();
  tap_rc_.clear();
  tap_sink_.clear();
  tap_pin_cap_.clear();
  free_nodes_.clear();
}

NetlistSoa::View NetlistSoa::view(int slot) const {
  if (!has_slot(slot)) {
    throw std::logic_error("NetlistSoa: view of an unwritten slot");
  }
  const SlotRef& r = slots_[static_cast<std::size_t>(slot)];
  View v;
  v.cap = cap_.data() + r.node_off;
  v.res = res_.data() + r.node_off;
  v.parent = parent_.data() + r.node_off;
  v.num_nodes = r.num_nodes;
  v.tap_rc = tap_rc_.data() + r.tap_off;
  v.tap_sink = tap_sink_.data() + r.tap_off;
  v.tap_pin_cap = tap_pin_cap_.data() + r.tap_off;
  v.num_taps = r.num_taps;
  v.driver_pin_cap = r.driver_pin_cap;
  return v;
}

NetlistSoa::Span NetlistSoa::span(int slot) {
  if (!has_slot(slot)) {
    throw std::logic_error("NetlistSoa: span of an unwritten slot");
  }
  SlotRef& r = slots_[static_cast<std::size_t>(slot)];
  Span s;
  s.cap = cap_.data() + r.node_off;
  s.res = res_.data() + r.node_off;
  s.num_nodes = r.num_nodes;
  s.tap_rc = tap_rc_.data() + r.tap_off;
  s.tap_sink = tap_sink_.data() + r.tap_off;
  s.tap_pin_cap = tap_pin_cap_.data() + r.tap_off;
  s.num_taps = r.num_taps;
  s.driver_pin_cap = r.driver_pin_cap;
  return s;
}

}  // namespace contango
