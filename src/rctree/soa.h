#pragma once

#include <cstddef>
#include <vector>

#include "util/units.h"

namespace contango {

struct Stage;          // rctree/extract.h
struct StagedNetlist;  // rctree/extract.h

/// \file soa.h
/// \brief Arena-backed structure-of-arrays mirror of a staged RC netlist.
///
/// Stage/RcNode store the netlist as vectors-of-structs, which is the right
/// shape for extraction and editing but the wrong one for the evaluation
/// hot loop: the transient kernel touches only {cap, res, parent} of every
/// node and {rc_index} of every tap, and an AoS walk drags the unused
/// fields through the cache on every sweep.  NetlistSoa keeps exactly the
/// kernel-visible plane of every stage in contiguous per-field arrays, one
/// slice per stage slot, so a batched evaluation streams each stage's data
/// once for all (corner x transition) right-hand sides.
///
/// Two fill modes share one layout:
///   * build(net)        — dense: one tight slice per StagedNetlist stage,
///                         slot id == stage index, for callers that hold
///                         an extract_stages() result (the test oracle,
///                         the kernel benches).
///   * write_slot(...)   — arena: slices carry power-of-two capacity and
///                         live in stable offsets, so the incremental
///                         engine's dirty-stage re-extraction rewrites a
///                         slice in place whenever the new contents fit its
///                         capacity; grown slices recycle through per-bucket
///                         free lists.  RcNetlist maintains this mirror
///                         across refresh() — slot ids match its own.
///
/// Values are copied field-by-field from the AoS stage, so a slice is
/// bit-identical to its Stage and any kernel consuming the slice sees
/// exactly the numbers the Stage holds.
class NetlistSoa {
 public:
  /// Dense rebuild from a complete staged netlist: slot i mirrors
  /// net.stages[i], slices are tight (capacity == size).
  void build(const StagedNetlist& net);

  /// Writes `stage` into `slot`'s slice, in place when the current
  /// capacity fits, else through a power-of-two arena (re)allocation.
  /// Unknown slots are created; slot ids may be sparse.
  void write_slot(int slot, const Stage& stage);

  /// Returns `slot`'s slices to the free lists.  No-op for unknown or
  /// already-released slots.
  void release_slot(int slot);

  /// Drops every slice and free list (e.g. before a full netlist rebuild).
  void clear();

  bool has_slot(int slot) const {
    return slot >= 0 && static_cast<std::size_t>(slot) < slots_.size() &&
           slots_[static_cast<std::size_t>(slot)].live;
  }
  std::size_t slot_count() const { return slots_.size(); }

  // --- per-slot views ---------------------------------------------------
  /// Read-only kernel-plane view of one live slot.  Pointers stay valid
  /// until the next write_slot/build/clear (arena growth reallocates).
  struct View {
    const Ff* cap = nullptr;
    const KOhm* res = nullptr;
    const int* parent = nullptr;
    std::size_t num_nodes = 0;
    const int* tap_rc = nullptr;
    const int* tap_sink = nullptr;  ///< sink index; -1 for buffer taps
    const Ff* tap_pin_cap = nullptr;
    std::size_t num_taps = 0;
    Ff driver_pin_cap = 0.0;
  };
  View view(int slot) const;

  /// Mutable numeric plane of one live slot (cap/res writable; topology
  /// read-only).  The Monte-Carlo engine scales trial copies through this.
  struct Span {
    Ff* cap = nullptr;
    KOhm* res = nullptr;
    std::size_t num_nodes = 0;
    const int* tap_rc = nullptr;
    const int* tap_sink = nullptr;
    const Ff* tap_pin_cap = nullptr;
    std::size_t num_taps = 0;
    Ff driver_pin_cap = 0.0;
  };
  Span span(int slot);

  // --- introspection (tests, allocator invariants) ----------------------
  std::size_t node_offset(int slot) const {
    return slots_[static_cast<std::size_t>(slot)].node_off;
  }
  std::size_t node_capacity(int slot) const {
    return slots_[static_cast<std::size_t>(slot)].node_cap;
  }
  std::size_t tap_offset(int slot) const {
    return slots_[static_cast<std::size_t>(slot)].tap_off;
  }
  std::size_t tap_capacity(int slot) const {
    return slots_[static_cast<std::size_t>(slot)].tap_cap;
  }
  /// Total arena length of the node-plane arrays (live + free slices).
  std::size_t arena_nodes() const { return cap_.size(); }
  std::size_t arena_taps() const { return tap_rc_.size(); }

 private:
  struct SlotRef {
    std::size_t node_off = 0, node_cap = 0, num_nodes = 0;
    std::size_t tap_off = 0, tap_cap = 0, num_taps = 0;
    Ff driver_pin_cap = 0.0;
    bool live = false;
  };

  std::size_t acquire_nodes(std::size_t need);
  std::size_t acquire_taps(std::size_t need);
  void recycle_nodes(std::size_t off, std::size_t cap);
  void recycle_taps(std::size_t off, std::size_t cap);

  std::vector<SlotRef> slots_;
  // node plane (parallel arrays, one slice per slot)
  std::vector<Ff> cap_;
  std::vector<KOhm> res_;
  std::vector<int> parent_;
  // tap plane
  std::vector<int> tap_rc_;
  std::vector<int> tap_sink_;
  std::vector<Ff> tap_pin_cap_;
  // free slices by power-of-two bucket (index = log2 capacity)
  std::vector<std::vector<std::size_t>> free_nodes_;
  std::vector<std::vector<std::size_t>> free_taps_;
};

}  // namespace contango
