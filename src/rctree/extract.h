#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "netlist/benchmark.h"
#include "rctree/clocktree.h"

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
/// value edits.
///
/// extract_stages() rebuilds the whole netlist from scratch — O(n) per
/// call, which dominates the Improvement- & Violation-Checking loops where
/// a candidate is usually a one-edge perturbation.  RcNetlist keeps the
/// stage set alive across edits instead: callers (normally a
/// TreeEditSession) mark the stages an edit touches as *dirty*, and
/// refresh() re-extracts exactly those stages from the bound tree.
///
/// The stage graph is fixed between full rebuilds.  The edits marked here
/// change values, never which nodes are buffers:
///   * mark_edge_dirty(v)    — width / snake of the edge above v dirties
///                             the one stage containing that edge;
///   * mark_buffer_dirty(b)  — resizing buffer b dirties its parent stage
///                             (input-pin tap cap) and its own stage
///                             (output cap + driver view).
/// Anything that changes the structure (construction passes, an accepted
/// whole-tree candidate) goes through
/// mark_all_dirty(), and the next refresh() rebuilds every slot and the
/// level order.  Edits marked while that rebuild is pending are ignored:
/// the rebuild covers them.  A structural edit marked as a value edit is
/// caught where it shows: a re-extracted stage whose tap or downstream
/// stage count differs from its slot's throws std::logic_error.
///
/// Per-stage re-extraction replays exactly the arithmetic of
/// extract_stages() in exactly the order a full extraction would visit the
/// stage's nodes (topological_order() is breadth-first, and a BFS
/// restricted to one stage equals a pruned local BFS from its driver), so
/// every refreshed stage is **bit-identical** to its full-extraction
/// counterpart.  The incremental evaluator (analysis/evaluate.h) relies on
/// this for bit-identical results.
///
/// A full rebuild numbers the slots in extract_stages() order, so slot i
/// holds stage i of a full extraction.  A slot's `version()` bumps every
/// time its stage is re-extracted, which is how downstream caches detect
/// staleness without callbacks.
///
/// An edit session (TreeEditSession) is a transaction over the netlist:
/// begin_session() records each slot's version at its first dirty mark,
/// and rollback_session() re-extracts the slots the session refreshed from
/// the restored tree and gives them back those versions.  A re-extracted
/// stage is bit-identical to the one its old version was issued for, so
/// version equality still certifies unchanged contents, and every cache
/// entry keyed by a pre-session version is valid again.
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
  /// Unknown/global change: the next refresh() rebuilds everything.
  void mark_all_dirty() { full_rebuild_ = true; }

  // --- edit transactions (TreeEditSession drives these) ---
  /// Opens a session and returns its id (never 0); an open one is committed
  /// first.  Dirty marks still pending are refreshed first, so every mark
  /// inside the session is the session's own.
  std::uint64_t begin_session();
  /// Id of the open session, 0 when none is open.
  std::uint64_t session() const { return session_; }
  /// Closes the open session keeping its edits: their marks stay pending
  /// until the next refresh().
  void commit_session();
  /// Closes the open session after the tree edits were undone: every slot
  /// the session re-extracted is re-extracted from the restored tree and
  /// gets its pre-session version back, and the session's dirty marks are
  /// dropped (a slot never refreshed in the session still holds its
  /// pre-session stage).  A full rebuild marked inside the session stays
  /// pending instead.
  void rollback_session();

  /// Re-extracts every dirty stage from the bound tree, or rebuilds every
  /// slot and the level order after mark_all_dirty().  No-op when nothing
  /// is dirty.
  void refresh();

  // --- read access (evaluator side) ---
  /// Slot of the clock-source stage (always 0 once built).
  int root_slot() const { return 0; }
  /// Slot count; valid slot ids are [0, slot_count()).
  std::size_t slot_count() const { return stages_.size(); }
  const Stage& stage(int slot) const { return stages_[static_cast<std::size_t>(slot)]; }
  /// Every slot's stage, indexed by slot id: what the evaluation kernels
  /// read (analysis/evaluate.h).
  const std::vector<Stage>& stages() const { return stages_; }
  /// Monotonically increasing per-slot change stamp; never repeats, even
  /// across rebuilds, so `version` equality certifies unchanged contents.
  std::uint64_t version(int slot) const {
    return versions_[static_cast<std::size_t>(slot)];
  }
  /// Slots in breadth-first order (root stage first), so every slot
  /// follows its parent and each depth level is a contiguous range.
  const std::vector<int>& topo_slots() const { return topo_slots_; }
  /// Depth-level boundaries of topo_slots(): level d spans positions
  /// [topo_levels()[d], topo_levels()[d + 1]).  A slot's parent lies in the
  /// level above it, so the slots of one level are mutually independent.
  /// Empty for an empty tree.
  const std::vector<std::size_t>& topo_levels() const { return topo_levels_; }

 private:
  int slot_containing_edge(NodeId node) const;
  void mark_dirty(int slot);
  void extract_slot(int slot, std::uint64_t version);
  void order_levels();

  const ClockTree* tree_ = nullptr;
  const Benchmark* bench_ = nullptr;
  ExtractOptions options_;

  std::vector<Stage> stages_;             ///< per slot
  std::vector<std::uint64_t> versions_;  ///< per slot; 0 = never extracted
  std::unordered_map<NodeId, int> slot_of_driver_;
  std::vector<int> topo_slots_;
  std::vector<std::size_t> topo_levels_;  ///< level starts + end sentinel

  std::vector<int> dirty_;  ///< slots to re-extract on refresh
  bool full_rebuild_ = false;
  std::uint64_t next_version_ = 1;

  std::uint64_t session_ = 0;       ///< open session id, 0 = none
  std::uint64_t next_session_ = 1;
  /// (slot, version at its first dirty mark) of the open session.
  std::vector<std::pair<int, std::uint64_t>> session_versions_;
  std::vector<char> session_marked_;  ///< per slot: in session_versions_
};

/// \brief Journaled edit transaction over a ClockTree, wired to an
/// RcNetlist's dirty tracking.
///
/// The refinement passes describe candidates as *edit deltas* against the
/// incumbent tree instead of whole-tree copies: a session applies edits in
/// place, notifies the netlist, and either commit()s (keep) or rollback()s
/// (undo every edit in reverse order).  Accept/rollback therefore costs
/// O(dirty), not O(tree).
///
/// The edits are the three the refinement passes make — wire width,
/// snake and buffer size — and each rolls back exactly: rollback restores
/// the tree bit-identically, so a rejected candidate leaves the incumbent
/// untouched (SaveSolution semantics).  Structural rewrites go through
/// whole-tree candidates instead (see RcNetlist).
///
/// With a built netlist the session is also a netlist transaction
/// (RcNetlist::begin_session): rollback() hands every stage it touched
/// back under its pre-session version, so the incremental evaluator's
/// cache entries for the incumbent stay valid and the next evaluation
/// re-simulates nothing the candidate changed.  A session that was never
/// evaluated just drops its dirty marks.  The evaluator's own cache
/// journal is closed separately (IncrementalEvaluator::rollback_session).
///
/// The session does not roll back on destruction; an abandoned session
/// behaves like commit().
class TreeEditSession {
 public:
  /// `net` may be null (no incremental engine attached): edits then only
  /// touch the tree.
  explicit TreeEditSession(ClockTree& tree, RcNetlist* net = nullptr);
  ~TreeEditSession();
  TreeEditSession(const TreeEditSession&) = delete;
  TreeEditSession& operator=(const TreeEditSession&) = delete;

  const ClockTree& tree() const { return tree_; }

  /// Sets the wire-width index of the edge above `node`.
  void set_wire_width(NodeId node, int width);
  /// Adds serpentine length to the edge above `node` (delta may be
  /// negative as long as the resulting snake stays >= 0).
  void add_snake(NodeId node, Um delta);
  /// Replaces the composite of buffer `node` (resize / retype).
  void set_buffer(NodeId node, const CompositeBuffer& buffer);

  /// Number of edits journaled so far.
  int edit_count() const { return static_cast<int>(journal_.size()); }

  /// Keeps the edits: clears the journal and closes the netlist
  /// transaction (dirty marks stay pending in the netlist until its next
  /// refresh).
  void commit();
  /// Undoes every journaled edit in reverse order and rolls the netlist
  /// transaction back: the touched stages are exactly as before the
  /// session, versions included.  Edits made after a commit() or
  /// rollback() are plain dirty marks and roll back by re-marking.
  void rollback();

 private:
  struct Record {
    enum class Kind {
      kWireWidth,
      kSnake,
      kBuffer,
    };
    Kind kind;
    NodeId node = kNoNode;
    int old_width = 0;
    Um old_snake = 0.0;
    CompositeBuffer old_buffer{0, 1};
  };

  /// Whether this session's netlist transaction is still the open one.
  bool owns_netlist_session() const {
    return session_ != 0 && net_->session() == session_;
  }

  ClockTree& tree_;
  RcNetlist* net_ = nullptr;
  std::uint64_t session_ = 0;  ///< netlist session id, 0 = none
  std::vector<Record> journal_;
};

}  // namespace contango
