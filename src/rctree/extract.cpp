#include "rctree/extract.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
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
  // The stage of the nearest driver above; every driver has a slot, since
  // value edits never add one.
  NodeId p = tree_->node(node).parent;
  while (p != tree_->root() && !tree_->node(p).is_buffer()) {
    p = tree_->node(p).parent;
  }
  return slot_of_driver_.at(p);
}

void RcNetlist::mark_dirty(int slot) {
  dirty_.push_back(slot);
  const auto s = static_cast<std::size_t>(slot);
  if (session_ != 0 && !session_marked_[s]) {
    session_marked_[s] = 1;
    session_versions_.emplace_back(slot, versions_[s]);
  }
}

void RcNetlist::mark_edge_dirty(NodeId node) {
  // The root has no edge above it, so nothing it carries is extracted.
  if (full_rebuild_ || node == tree_->root()) return;
  mark_dirty(slot_containing_edge(node));
}

void RcNetlist::mark_buffer_dirty(NodeId node) {
  if (full_rebuild_) return;
  // Input pin cap lives in the parent stage; output cap + driver view in
  // the buffer's own stage.
  mark_dirty(slot_containing_edge(node));
  mark_dirty(slot_of_driver_.at(node));
}

std::uint64_t RcNetlist::begin_session() {
  if (!built()) throw std::logic_error("RcNetlist: session before build");
  commit_session();
  refresh();
  session_marked_.assign(stages_.size(), 0);
  session_ = next_session_++;
  return session_;
}

void RcNetlist::commit_session() {
  session_ = 0;
  session_versions_.clear();
}

void RcNetlist::rollback_session() {
  if (session_ == 0) return;
  if (!full_rebuild_) {
    for (const auto& [slot, version] : session_versions_) {
      // A slot still at its pre-session version was never re-extracted,
      // so its stage is the pre-session one already.
      if (versions_[static_cast<std::size_t>(slot)] != version) {
        extract_slot(slot, version);
      }
    }
    dirty_.clear();
  }
  commit_session();
}

void RcNetlist::extract_slot(int slot, std::uint64_t version) {
  const auto s = static_cast<std::size_t>(slot);
  const NodeId driver = stages_[s].driver;
  Stage stage = make_driver_stage(*tree_, driver, *bench_);

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
        stage.downstream_stages.push_back(slot_of_driver_.at(c));
      }
    }
  }
  // Value edits keep the stage graph: a slot extracted before must come
  // back with as many taps and downstream stages, or a structural edit was
  // marked as a value edit and only a full rebuild is right.
  const Stage& old = stages_[s];
  if (versions_[s] != 0 && (stage.taps.size() != old.taps.size() ||
                            stage.downstream_stages.size() !=
                                old.downstream_stages.size())) {
    throw std::logic_error(
        "RcNetlist: slot " + std::to_string(slot) + " re-extracted with " +
        std::to_string(stage.taps.size()) + " taps and " +
        std::to_string(stage.downstream_stages.size()) +
        " downstream stages, not " + std::to_string(old.taps.size()) + " and " +
        std::to_string(old.downstream_stages.size()) +
        "; a structural edit needs mark_all_dirty()");
  }
  stages_[s] = std::move(stage);
  versions_[s] = version;
}

void RcNetlist::order_levels() {
  topo_slots_.assign(1, root_slot());
  topo_levels_.clear();
  // Breadth-first, one depth level at a time: the children of level d,
  // appended in order, form level d + 1.  Each stage has one parent, so
  // every slot is appended exactly once.
  std::size_t level_begin = 0;
  while (level_begin < topo_slots_.size()) {
    const std::size_t level_end = topo_slots_.size();
    topo_levels_.push_back(level_begin);
    for (std::size_t i = level_begin; i < level_end; ++i) {
      const Stage& stage = stages_[static_cast<std::size_t>(topo_slots_[i])];
      topo_slots_.insert(topo_slots_.end(), stage.downstream_stages.begin(),
                         stage.downstream_stages.end());
    }
    level_begin = level_end;
  }
  topo_levels_.push_back(topo_slots_.size());
}

void RcNetlist::refresh() {
  if (!built()) throw std::logic_error("RcNetlist: refresh before build");
  if (full_rebuild_) {
    // Every version moves, so an open session has nothing left to restore:
    // it closes, and its TreeEditSession rolls back by re-marking.
    commit_session();
    full_rebuild_ = false;
    dirty_.clear();
    stages_.clear();
    versions_.clear();
    slot_of_driver_.clear();
    topo_slots_.clear();
    topo_levels_.clear();
    if (tree_->empty()) return;
    // Slots in extract_stages() order — the root, then every buffer in
    // topological_order() — so slot i of a fresh build is stage i of a full
    // extraction, the numbering per-stage Monte-Carlo supply offsets use.
    // Every slot exists before any is extracted, so a stage finds each
    // child's slot by its driver.
    for (NodeId id : tree_->topological_order()) {
      if (id == tree_->root() || tree_->node(id).is_buffer()) {
        slot_of_driver_.emplace(id, static_cast<int>(stages_.size()));
        stages_.emplace_back();
        stages_.back().driver = id;
      }
    }
    versions_.assign(stages_.size(), 0);
    for (std::size_t i = 0; i < stages_.size(); ++i) {
      extract_slot(static_cast<int>(i), next_version_++);
    }
    order_levels();
    return;
  }
  // Value edits leave the stage graph, and so the level order, as it is.
  if (dirty_.empty()) return;
  std::vector<char> done(stages_.size(), 0);
  for (const int slot : dirty_) {
    if (done[static_cast<std::size_t>(slot)]) continue;
    done[static_cast<std::size_t>(slot)] = 1;
    extract_slot(slot, next_version_++);
  }
  dirty_.clear();
}

// -------------------------------------------------------- TreeEditSession --

TreeEditSession::TreeEditSession(ClockTree& tree, RcNetlist* net)
    : tree_(tree), net_(net && net->built() ? net : nullptr) {
  if (net_) session_ = net_->begin_session();
}

TreeEditSession::~TreeEditSession() {
  if (owns_netlist_session()) net_->commit_session();
}

void TreeEditSession::commit() {
  journal_.clear();
  if (owns_netlist_session()) net_->commit_session();
}

void TreeEditSession::set_wire_width(NodeId node, int width) {
  Record r;
  r.kind = Record::Kind::kWireWidth;
  r.node = node;
  r.old_width = tree_.node(node).wire_width;
  tree_.node(node).wire_width = width;
  journal_.push_back(r);
  if (net_) net_->mark_edge_dirty(node);
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
  if (net_) net_->mark_edge_dirty(node);
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
  if (net_) net_->mark_buffer_dirty(node);
}

void TreeEditSession::rollback() {
  // Inside this session's netlist transaction the netlist restores the
  // touched stages itself; otherwise the undone edits are re-marked dirty.
  const bool own = owns_netlist_session();
  const bool mark = net_ && !own;
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
    }
  }
  journal_.clear();
  if (own) net_->rollback_session();
}

}  // namespace contango
