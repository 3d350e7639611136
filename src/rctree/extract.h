#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "netlist/benchmark.h"
#include "rctree/clocktree.h"
#include "rctree/soa.h"

namespace contango {

/// One node of a stage-local RC tree.  Node 0 is the driver output; every
/// other node connects to its parent (parent index < own index) through a
/// series resistance.  Grounded capacitance sits at the node.
struct RcNode {
  Ff cap = 0.0;
  int parent = -1;
  KOhm res = 0.0;  ///< resistance to parent; unused for node 0
};

/// A measurement point inside a stage: a clock sink or the input pin of a
/// downstream buffer.
struct Tap {
  NodeId tree_node = kNoNode;
  int rc_index = 0;
  bool is_sink = false;
  int sink_index = -1;  ///< valid when is_sink
  /// Pin capacitance folded into nodes[rc_index].cap (sink pin cap or
  /// downstream buffer input cap).  The Monte-Carlo variation engine uses
  /// this to scale wire and pin capacitance independently.
  Ff pin_cap = 0.0;
};

/// A buffered clock tree splits into stages at every buffer: each stage is
/// the RC tree between one driver (clock source or buffer output) and the
/// next row of buffer inputs / sinks.  Circuit evaluation works stage by
/// stage, propagating arrival events through buffers.
struct Stage {
  NodeId driver = kNoNode;  ///< tree node acting as the driver (source/buffer)
  std::vector<RcNode> nodes;
  std::vector<Tap> taps;
  /// Stages driven from this one.  In a StagedNetlist these are indices
  /// into StagedNetlist::stages; in an RcNetlist they are slot ids
  /// (RcNetlist::stage).  Either way the k-th non-sink tap pairs with the
  /// k-th entry.
  std::vector<int> downstream_stages;
  /// Driver pin capacitance folded into nodes[0].cap (the composite
  /// buffer's output cap; 0 for the clock-source stage).  Kept separate so
  /// wire-capacitance scaling leaves pin caps alone.
  Ff driver_pin_cap = 0.0;

  /// Nominal electrical view of the stage driver, resolved at extraction
  /// time so analysis never needs the ClockTree: the clock source's series
  /// resistance, or the composite buffer's output resistance + intrinsic
  /// delay.  Inverting drivers flip the transition direction.
  bool driver_inverts = false;
  KOhm driver_res_nom = 0.0;
  Ps driver_intrinsic_nom = 0.0;

  Ff total_cap() const {
    Ff c = 0.0;
    for (const RcNode& n : nodes) c += n.cap;
    return c;
  }
};

struct StagedNetlist {
  std::vector<Stage> stages;  ///< stage 0 is rooted at the clock source

  std::size_t node_count() const {
    std::size_t n = 0;
    for (const Stage& s : stages) n += s.nodes.size();
    return n;
  }
};

/// Extraction options.  Long wires are discretized into pi-segments of at
/// most `max_segment_um` so resistive shielding is represented (closed-form
/// Elmore misses it; the transient engine needs the laddering anyway).
struct ExtractOptions {
  Um max_segment_um = 50.0;
};

/// Builds the staged RC netlist of a routed, buffered clock tree.
StagedNetlist extract_stages(const ClockTree& tree, const Benchmark& bench,
                             const ExtractOptions& options = {});

/// \brief Persistent staged RC netlist that follows a ClockTree through
/// edits.
///
/// extract_stages() rebuilds the whole netlist from scratch — O(n) per
/// call, which dominates the Improvement- & Violation-Checking loops where
/// a candidate is usually a one-edge perturbation.  RcNetlist keeps the
/// stage set alive across edits instead: callers (normally a
/// TreeEditSession) mark the stages an edit touches as *dirty*, and
/// refresh() re-extracts exactly those stages from the bound tree.
///
/// Supported edit notifications map tree edits to dirty-stage sets:
///   * mark_edge_dirty(v)    — width / snake / reroute of the edge above v
///                             dirties the one stage containing that edge;
///   * mark_buffer_dirty(b)  — resizing buffer b dirties its parent stage
///                             (input-pin tap cap) and its own stage
///                             (output cap + driver view);
///   * mark_structural(v)    — a stage-boundary change around the edge
///                             above v (buffer inserted/removed, internal
///                             node converted to a buffer or back): the
///                             containing stage is re-extracted and the
///                             stage graph is repaired — new buffer taps
///                             open fresh stages, vanished drivers are
///                             swept.  No full rebuild.
///
/// Per-stage re-extraction replays exactly the arithmetic of
/// extract_stages() in exactly the order a full extraction would visit the
/// stage's nodes (topological_order() is breadth-first, and a BFS
/// restricted to one stage equals a pruned local BFS from its driver), so
/// every refreshed stage is **bit-identical** to its full-extraction
/// counterpart.  The incremental evaluator (analysis/evaluate.h) relies on
/// this for bit-identical results.
///
/// Stages live in stable *slots*; a slot's `version()` bumps every time its
/// stage is re-extracted (or the slot is freed/reused), which is how
/// downstream caches detect staleness without callbacks.  A full rebuild
/// numbers the slots in extract_stages() order, so slot i holds stage i of
/// a full extraction until later edits allocate or free slots.
class RcNetlist {
 public:
  RcNetlist() = default;

  /// Binds to `tree`/`bench` and performs a full build.  The referenced
  /// tree and benchmark must outlive the netlist (FlowContext owns both).
  void build(const ClockTree& tree, const Benchmark& bench,
             const ExtractOptions& options = {});
  bool built() const { return bench_ != nullptr; }

  // --- edit notifications (the tree must already reflect the edit) ---
  void mark_edge_dirty(NodeId node);
  void mark_buffer_dirty(NodeId node);
  void mark_structural(NodeId node);
  /// Unknown/global change: the next refresh() rebuilds everything.
  void mark_all_dirty() { full_rebuild_ = true; }

  /// Re-extracts every dirty stage from the bound tree and repairs the
  /// stage graph (new buffers open stages, dead drivers are swept).
  /// No-op when nothing is dirty.
  void refresh();

  // --- read access (evaluator side) ---
  /// Slot of the clock-source stage (always 0 once built).
  int root_slot() const { return 0; }
  /// Total slot count, live or free; valid slot ids are [0, slot_count()).
  std::size_t slot_count() const { return slots_.size(); }
  bool slot_live(int slot) const { return slots_[static_cast<std::size_t>(slot)]->live; }
  const Stage& stage(int slot) const { return slots_[static_cast<std::size_t>(slot)]->stage; }
  /// Monotonically increasing per-slot change stamp; never repeats, even
  /// across free/reuse, so `version` equality certifies unchanged contents.
  std::uint64_t version(int slot) const {
    return slots_[static_cast<std::size_t>(slot)]->version;
  }
  /// Live slots in breadth-first order (root stage first), so every slot
  /// follows its parent and each depth level is a contiguous range.
  const std::vector<int>& topo_slots() const { return topo_slots_; }
  /// Depth-level boundaries of topo_slots(): level d spans positions
  /// [topo_levels()[d], topo_levels()[d + 1]).  A slot's parent lies in the
  /// level above it, so the slots of one level are mutually independent.
  /// Empty when no stage is live.
  const std::vector<std::size_t>& topo_levels() const { return topo_levels_; }
  /// Number of stages re-extracted by refresh() calls so far.
  long stages_extracted() const { return stages_extracted_; }

  /// Arena-backed SoA mirror of every live slot, maintained across
  /// refresh(): a dirty stage's re-extraction rewrites its slice in place
  /// (rctree/soa.h).  Slot ids match this netlist's; the batched
  /// evaluation kernels read stages through here instead of the AoS
  /// Stage.  Slices are bit-identical to stage(slot) by construction.
  const NetlistSoa& soa() const { return soa_; }

 private:
  struct Slot {
    Stage stage;
    std::uint64_t version = 0;
    bool live = false;
  };

  int slot_containing_edge(NodeId node) const;
  int allocate_slot(NodeId driver);
  void free_slot(int slot);
  void extract_slot(int slot, std::vector<int>& worklist);
  void sweep_and_order();

  const ClockTree* tree_ = nullptr;
  const Benchmark* bench_ = nullptr;
  ExtractOptions options_;

  std::vector<std::unique_ptr<Slot>> slots_;  ///< stable addresses for caches
  std::vector<int> free_slots_;
  std::unordered_map<NodeId, int> slot_of_driver_;
  std::vector<int> topo_slots_;
  std::vector<std::size_t> topo_levels_;  ///< level starts + end sentinel

  std::vector<int> dirty_;  ///< slots to re-extract on refresh
  bool full_rebuild_ = false;
  std::uint64_t next_version_ = 1;
  long stages_extracted_ = 0;
  NetlistSoa soa_;  ///< SoA mirror of live slots (see soa())
};

/// \brief Journaled edit transaction over a ClockTree, wired to an
/// RcNetlist's dirty tracking.
///
/// The refinement passes describe candidates as *edit deltas* against the
/// incumbent tree instead of whole-tree copies: a session applies edits in
/// place, notifies the netlist, and either commit()s (keep) or rollback()s
/// (undo every edit in reverse order, re-marking the touched stages dirty).
/// Accept/rollback therefore costs O(dirty), not O(tree).
///
/// Edit kinds and their rollback guarantees:
///   * set_wire_width / add_snake / set_buffer / make_buffer /
///     unmake_buffer — exact: rollback restores the tree bit-identically,
///     so a rejected candidate leaves the incumbent untouched
///     (SaveSolution semantics, matching the historical tree-copy path);
///   * insert_buffer_electrical — structurally exact: rollback splices the
///     inserted buffer back out, which restores the live topology but may
///     perturb the split edge's route/snake partition at ULP level;
///   * remove_buffer — irreversible: a session containing one cannot be
///     rolled back (rollback() throws std::logic_error).
///
/// The session does not roll back on destruction; an abandoned session
/// behaves like commit().
class TreeEditSession {
 public:
  /// `net` may be null (no incremental engine attached): edits then only
  /// touch the tree.
  explicit TreeEditSession(ClockTree& tree, RcNetlist* net = nullptr)
      : tree_(tree), net_(net) {}

  const ClockTree& tree() const { return tree_; }

  /// Sets the wire-width index of the edge above `node`.
  void set_wire_width(NodeId node, int width);
  /// Adds serpentine length to the edge above `node` (delta may be
  /// negative as long as the resulting snake stays >= 0).
  void add_snake(NodeId node, Um delta);
  /// Replaces the composite of buffer `node` (resize / retype).
  void set_buffer(NodeId node, const CompositeBuffer& buffer);
  /// Converts a non-sink, non-root node into a buffer (polarity flip of
  /// its subtree).
  void make_buffer(NodeId node, const CompositeBuffer& buffer);
  /// Converts buffer `node` back into a plain internal node.
  void unmake_buffer(NodeId node);
  /// Inserts a buffer on the edge above `node` at electrical arc position
  /// `elec_distance`; returns the new buffer node.
  NodeId insert_buffer_electrical(NodeId node, Um elec_distance,
                                  const CompositeBuffer& buffer);
  /// Splices buffer `node` out of the tree; returns the child that
  /// absorbed its edge.  Irreversible (see class comment).
  NodeId remove_buffer(NodeId node);

  /// Number of edits journaled so far.
  int edit_count() const { return static_cast<int>(journal_.size()); }
  /// False once the session contains an irreversible edit.
  bool can_rollback() const { return reversible_; }

  /// Keeps the edits: clears the journal (dirty marks stay pending in the
  /// netlist until its next refresh).
  void commit() { journal_.clear(); }
  /// Undoes every journaled edit in reverse order, re-marking the touched
  /// stages dirty.  \throws std::logic_error when !can_rollback()
  void rollback();

 private:
  struct Record {
    enum class Kind {
      kWireWidth,
      kSnake,
      kBuffer,
      kMakeBuffer,
      kUnmakeBuffer,
      kInsert,
      kRemove,
    };
    Kind kind;
    NodeId node = kNoNode;
    int old_width = 0;
    Um old_snake = 0.0;
    CompositeBuffer old_buffer{0, 1};
  };

  ClockTree& tree_;
  RcNetlist* net_ = nullptr;
  std::vector<Record> journal_;
  bool reversible_ = true;
};

}  // namespace contango
