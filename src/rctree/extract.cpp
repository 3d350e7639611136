#include "rctree/extract.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace contango {
namespace {

/// Builds the one-node seed stage of a driver (clock source or buffer
/// output).  Shared by full extraction and RcNetlist refresh so the driver
/// view is resolved identically in both.
Stage make_driver_stage(const ClockTree& tree, NodeId driver,
                        const Benchmark& bench) {
  Stage s;
  s.driver = driver;
  if (driver == tree.root()) {
    s.driver_res_nom = bench.source_res;
    s.nodes.push_back(RcNode{0.0, -1, 0.0});
  } else {
    const CompositeElectrical e = bench.tech.electrical(tree.node(driver).buffer);
    s.driver_pin_cap = e.output_cap;
    s.driver_inverts = true;
    s.driver_res_nom = e.output_res;
    s.driver_intrinsic_nom = e.intrinsic_delay;
    s.nodes.push_back(RcNode{e.output_cap, -1, 0.0});
  }
  return s;
}

/// Appends the pi-ladder of the edge above `id` to `stage` starting at RC
/// node `from_rc`, folds in the sink/buffer pin cap and tap, and returns
/// the edge's end RC node.  This is the one place edge-discretization
/// arithmetic lives: full extraction and RcNetlist per-stage refresh both
/// run exactly this code in exactly the same visit order, which is what
/// makes incrementally refreshed stages bit-identical to a from-scratch
/// extraction.
int extract_edge(Stage& stage, int from_rc, const ClockTree& tree, NodeId id,
                 const Benchmark& bench, const ExtractOptions& options) {
  const TreeNode& n = tree.node(id);
  const Um len = tree.edge_length(id);
  const WireType& wire = bench.tech.wires.at(static_cast<std::size_t>(n.wire_width));
  const KOhm total_r = std::max(wire.r_per_um * len, 1e-9);
  const Ff total_c = wire.c_per_um * len;
  const int segs = std::max(1, static_cast<int>(std::ceil(len / options.max_segment_um)));
  int prev = from_rc;
  for (int k = 0; k < segs; ++k) {
    const Ff seg_c = total_c / segs;
    // pi-model: half the segment cap at each end.
    stage.nodes[static_cast<std::size_t>(prev)].cap += seg_c / 2.0;
    RcNode rc;
    rc.parent = prev;
    rc.res = total_r / segs;
    rc.cap = seg_c / 2.0;
    prev = static_cast<int>(stage.nodes.size());
    stage.nodes.push_back(rc);
  }
  const int end_rc = prev;

  switch (n.kind) {
    case NodeKind::kSink: {
      const Ff pin = bench.sinks.at(static_cast<std::size_t>(n.sink_index)).cap;
      stage.nodes[static_cast<std::size_t>(end_rc)].cap += pin;
      stage.taps.push_back(Tap{id, end_rc, true, n.sink_index, pin});
      break;
    }
    case NodeKind::kBuffer: {
      const CompositeElectrical e = bench.tech.electrical(n.buffer);
      stage.nodes[static_cast<std::size_t>(end_rc)].cap += e.input_cap;
      stage.taps.push_back(Tap{id, end_rc, false, -1, e.input_cap});
      break;
    }
    case NodeKind::kInternal:
      break;
    case NodeKind::kSource:
      throw std::logic_error("extract: source below root");
  }
  return end_rc;
}

}  // namespace

StagedNetlist extract_stages(const ClockTree& tree, const Benchmark& bench,
                             const ExtractOptions& options) {
  StagedNetlist net;
  if (tree.empty()) return net;

  struct Location {
    int stage = -1;
    int rc = -1;
  };
  std::unordered_map<NodeId, Location> where;  ///< tree node -> its RC node

  net.stages.push_back(make_driver_stage(tree, tree.root(), bench));
  where[tree.root()] = Location{0, 0};

  for (NodeId id : tree.topological_order()) {
    if (id == tree.root()) continue;
    const TreeNode& n = tree.node(id);
    const Location up = where.at(n.parent);
    const int end_rc = extract_edge(net.stages[static_cast<std::size_t>(up.stage)],
                                    up.rc, tree, id, bench, options);

    if (n.kind == NodeKind::kBuffer) {
      // Open a new stage rooted at this buffer's output.
      const int next_index = static_cast<int>(net.stages.size());
      net.stages.push_back(make_driver_stage(tree, id, bench));
      net.stages[static_cast<std::size_t>(up.stage)].downstream_stages.push_back(next_index);
      where[id] = Location{next_index, 0};
    } else {
      where[id] = Location{up.stage, end_rc};
    }
  }
  return net;
}

// ------------------------------------------------------------- RcNetlist --

void RcNetlist::build(const ClockTree& tree, const Benchmark& bench,
                      const ExtractOptions& options) {
  tree_ = &tree;
  bench_ = &bench;
  options_ = options;
  full_rebuild_ = true;
  refresh();
}

int RcNetlist::slot_containing_edge(NodeId node) const {
  if (node == tree_->root() || !tree_->live(node)) return -1;
  // Walk up to the nearest driver the netlist already knows about.  A
  // buffer missing from the map is a pending structural discovery: its
  // stage will be freshly extracted anyway, so the edit is covered by
  // whichever known ancestor stage re-extracts.
  for (NodeId p = tree_->node(node).parent; p != kNoNode;
       p = tree_->node(p).parent) {
    if (p == tree_->root() || tree_->node(p).is_buffer()) {
      const auto it = slot_of_driver_.find(p);
      if (it != slot_of_driver_.end()) return it->second;
      if (p == tree_->root()) return -1;
    }
  }
  return -1;
}

void RcNetlist::mark_edge_dirty(NodeId node) {
  const int slot = slot_containing_edge(node);
  if (slot >= 0) dirty_.push_back(slot);
}

void RcNetlist::mark_buffer_dirty(NodeId node) {
  // Input pin cap lives in the parent stage; output cap + driver view in
  // the buffer's own stage.
  mark_edge_dirty(node);
  const auto it = slot_of_driver_.find(node);
  if (it != slot_of_driver_.end()) dirty_.push_back(it->second);
}

void RcNetlist::mark_structural(NodeId node) {
  // The stage owning the edge above `node` re-extracts; refresh() repairs
  // the stage graph below it (new buffer taps open stages, vanished
  // drivers are swept).
  const int slot = slot_containing_edge(node);
  if (slot >= 0) {
    dirty_.push_back(slot);
  } else {
    // No known ancestor stage (e.g. first edit after the tree was rebuilt
    // around us): fall back to a full rebuild.
    full_rebuild_ = true;
  }
}

int RcNetlist::allocate_slot(NodeId driver) {
  int slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<int>(slots_.size());
    slots_.push_back(std::make_unique<Slot>());
  }
  Slot& s = *slots_[static_cast<std::size_t>(slot)];
  s.stage = Stage{};
  s.stage.driver = driver;
  s.version = next_version_++;
  s.live = true;
  slot_of_driver_[driver] = slot;
  return slot;
}

void RcNetlist::free_slot(int slot) {
  Slot& s = *slots_[static_cast<std::size_t>(slot)];
  const auto it = slot_of_driver_.find(s.stage.driver);
  if (it != slot_of_driver_.end() && it->second == slot) {
    slot_of_driver_.erase(it);
  }
  s.stage = Stage{};
  s.version = next_version_++;
  s.live = false;
  soa_.release_slot(slot);
  free_slots_.push_back(slot);
}

void RcNetlist::extract_slot(int slot, std::vector<int>& worklist) {
  Slot& s = *slots_[static_cast<std::size_t>(slot)];
  const NodeId driver = s.stage.driver;
  // A dirty slot whose driver vanished from the tree (e.g. resized, then
  // removed, in one session) is left stale; the sweep frees it.
  if (!tree_->live(driver) ||
      (driver != tree_->root() && !tree_->node(driver).is_buffer())) {
    return;
  }

  Stage stage = make_driver_stage(*tree_, driver, *bench_);
  std::vector<int> child_slots;

  // Pruned local BFS from the driver.  Edges are processed in exactly the
  // order a global breadth-first extraction would reach them (a BFS
  // restricted to one stage's nodes is the stage-local pruned BFS), so the
  // floating-point accumulation order — and therefore every cap/res value —
  // matches extract_stages() bit for bit.
  struct Entry {
    NodeId node;
    int rc;
  };
  std::vector<Entry> queue{{driver, 0}};
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const Entry e = queue[i];
    for (NodeId c : tree_->node(e.node).children) {
      const int end_rc = extract_edge(stage, e.rc, *tree_, c, *bench_, options_);
      const NodeKind kind = tree_->node(c).kind;
      if (kind == NodeKind::kInternal) {
        queue.push_back(Entry{c, end_rc});
      } else if (kind == NodeKind::kBuffer) {
        const auto it = slot_of_driver_.find(c);
        int child;
        if (it != slot_of_driver_.end()) {
          child = it->second;  // unchanged subtree: reuse as-is
        } else {
          child = allocate_slot(c);
          worklist.push_back(child);  // new stage: extract this refresh
        }
        child_slots.push_back(child);
      }
    }
  }
  stage.downstream_stages = std::move(child_slots);
  s.stage = std::move(stage);
  s.version = next_version_++;
  // Mirror the refreshed contents into the SoA arena: in place when the
  // slice capacity fits, so steady-state IVC refine loops never allocate.
  soa_.write_slot(slot, s.stage);
  ++stages_extracted_;
}

void RcNetlist::sweep_and_order() {
  topo_slots_.clear();
  topo_levels_.clear();
  std::vector<char> reached(slots_.size(), 0);
  if (!slots_.empty() && slots_[0]->live) {
    topo_slots_.push_back(0);
    reached[0] = 1;
    // Breadth-first, one depth level at a time: the children of level d,
    // appended in order, form level d + 1.
    std::size_t level_begin = 0;
    while (level_begin < topo_slots_.size()) {
      const std::size_t level_end = topo_slots_.size();
      topo_levels_.push_back(level_begin);
      for (std::size_t i = level_begin; i < level_end; ++i) {
        const Stage& stage = slots_[static_cast<std::size_t>(topo_slots_[i])]->stage;
        for (int child : stage.downstream_stages) {
          if (!reached[static_cast<std::size_t>(child)]) {
            reached[static_cast<std::size_t>(child)] = 1;
            topo_slots_.push_back(child);
          }
        }
      }
      level_begin = level_end;
    }
    topo_levels_.push_back(topo_slots_.size());
  }
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i]->live && !reached[i]) free_slot(static_cast<int>(i));
  }
}

void RcNetlist::refresh() {
  if (!built()) throw std::logic_error("RcNetlist: refresh before build");
  if (!full_rebuild_ && dirty_.empty()) return;

  std::vector<int> worklist;
  if (full_rebuild_) {
    slots_.clear();
    free_slots_.clear();
    slot_of_driver_.clear();
    topo_slots_.clear();
    topo_levels_.clear();
    soa_.clear();
    if (tree_->empty()) {
      dirty_.clear();
      full_rebuild_ = false;
      return;
    }
    // Slots in extract_stages() order — the root, then every buffer in
    // topological_order() — so slot i of a fresh build is stage i of a full
    // extraction, the numbering per-stage Monte-Carlo supply offsets use.
    for (NodeId id : tree_->topological_order()) {
      if (id == tree_->root() || tree_->node(id).is_buffer()) {
        worklist.push_back(allocate_slot(id));
      }
    }
  } else {
    worklist = dirty_;
  }

  std::vector<char> done;
  for (std::size_t i = 0; i < worklist.size(); ++i) {
    const int slot = worklist[i];
    if (static_cast<std::size_t>(slot) >= done.size()) {
      done.resize(slots_.size(), 0);  // allocate_slot keeps slot < slots_.size()
    }
    if (done[static_cast<std::size_t>(slot)]) continue;
    done[static_cast<std::size_t>(slot)] = 1;
    if (!slots_[static_cast<std::size_t>(slot)]->live) continue;
    extract_slot(slot, worklist);
  }
  sweep_and_order();
  dirty_.clear();
  full_rebuild_ = false;
}

// -------------------------------------------------------- TreeEditSession --

void TreeEditSession::set_wire_width(NodeId node, int width) {
  Record r;
  r.kind = Record::Kind::kWireWidth;
  r.node = node;
  r.old_width = tree_.node(node).wire_width;
  tree_.node(node).wire_width = width;
  journal_.push_back(r);
  if (net_ && net_->built()) net_->mark_edge_dirty(node);
}

void TreeEditSession::add_snake(NodeId node, Um delta) {
  Record r;
  r.kind = Record::Kind::kSnake;
  r.node = node;
  r.old_snake = tree_.node(node).snake;
  const Um next = r.old_snake + delta;
  if (next < 0.0) {
    throw std::logic_error("TreeEditSession: snake would become negative");
  }
  tree_.node(node).snake = next;
  journal_.push_back(r);
  if (net_ && net_->built()) net_->mark_edge_dirty(node);
}

void TreeEditSession::set_buffer(NodeId node, const CompositeBuffer& buffer) {
  if (!tree_.node(node).is_buffer()) {
    throw std::logic_error("TreeEditSession: set_buffer on a non-buffer node");
  }
  Record r;
  r.kind = Record::Kind::kBuffer;
  r.node = node;
  r.old_buffer = tree_.node(node).buffer;
  tree_.node(node).buffer = buffer;
  journal_.push_back(r);
  if (net_ && net_->built()) net_->mark_buffer_dirty(node);
}

void TreeEditSession::make_buffer(NodeId node, const CompositeBuffer& buffer) {
  if (tree_.node(node).kind != NodeKind::kInternal) {
    throw std::logic_error("TreeEditSession: make_buffer needs an internal node");
  }
  Record r;
  r.kind = Record::Kind::kMakeBuffer;
  r.node = node;
  r.old_buffer = tree_.node(node).buffer;
  tree_.make_buffer(node, buffer);
  journal_.push_back(r);
  if (net_ && net_->built()) net_->mark_structural(node);
}

void TreeEditSession::unmake_buffer(NodeId node) {
  if (!tree_.node(node).is_buffer()) {
    throw std::logic_error("TreeEditSession: unmake_buffer on a non-buffer node");
  }
  Record r;
  r.kind = Record::Kind::kUnmakeBuffer;
  r.node = node;
  r.old_buffer = tree_.node(node).buffer;
  tree_.node(node).kind = NodeKind::kInternal;
  journal_.push_back(r);
  if (net_ && net_->built()) net_->mark_structural(node);
}

NodeId TreeEditSession::insert_buffer_electrical(NodeId node, Um elec_distance,
                                                 const CompositeBuffer& buffer) {
  const NodeId inserted = tree_.insert_buffer_electrical(node, elec_distance, buffer);
  Record r;
  r.kind = Record::Kind::kInsert;
  r.node = inserted;
  journal_.push_back(r);
  if (net_ && net_->built()) net_->mark_structural(inserted);
  return inserted;
}

NodeId TreeEditSession::remove_buffer(NodeId node) {
  if (!tree_.node(node).is_buffer()) {
    throw std::logic_error("TreeEditSession: remove_buffer on a non-buffer node");
  }
  const NodeId child = tree_.splice_out(node);
  Record r;
  r.kind = Record::Kind::kRemove;
  r.node = child;
  journal_.push_back(r);
  reversible_ = false;
  if (net_ && net_->built()) net_->mark_structural(child);
  return child;
}

void TreeEditSession::rollback() {
  if (!reversible_) {
    throw std::logic_error(
        "TreeEditSession: cannot roll back a session containing "
        "remove_buffer");
  }
  const bool mark = net_ && net_->built();
  for (auto it = journal_.rbegin(); it != journal_.rend(); ++it) {
    const Record& r = *it;
    switch (r.kind) {
      case Record::Kind::kWireWidth:
        tree_.node(r.node).wire_width = r.old_width;
        if (mark) net_->mark_edge_dirty(r.node);
        break;
      case Record::Kind::kSnake:
        tree_.node(r.node).snake = r.old_snake;
        if (mark) net_->mark_edge_dirty(r.node);
        break;
      case Record::Kind::kBuffer:
        tree_.node(r.node).buffer = r.old_buffer;
        if (mark) net_->mark_buffer_dirty(r.node);
        break;
      case Record::Kind::kMakeBuffer:
        tree_.node(r.node).kind = NodeKind::kInternal;
        tree_.node(r.node).buffer = r.old_buffer;
        if (mark) net_->mark_structural(r.node);
        break;
      case Record::Kind::kUnmakeBuffer:
        tree_.node(r.node).kind = NodeKind::kBuffer;
        tree_.node(r.node).buffer = r.old_buffer;
        if (mark) net_->mark_structural(r.node);
        break;
      case Record::Kind::kInsert: {
        const NodeId child = tree_.splice_out(r.node);
        if (mark) net_->mark_structural(child);
        break;
      }
      case Record::Kind::kRemove:
        throw std::logic_error("TreeEditSession: unreachable rollback");
    }
  }
  journal_.clear();
}

}  // namespace contango
