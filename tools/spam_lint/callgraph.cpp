#include "callgraph.hpp"

#include <unordered_map>
#include <unordered_set>

#include "rules.hpp"

namespace spam::lint {

void CallGraph::add_file(const LexedFile* file, std::vector<FunctionSym> syms) {
  for (FunctionSym& s : syms) {
    GraphNode node;
    node.sym = std::move(s);
    node.file = file;
    nodes_.push_back(std::move(node));
  }
}

void CallGraph::finalize() {
  std::unordered_map<std::string, std::vector<int>> by_name;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    by_name[nodes_[i].sym.name].push_back(static_cast<int>(i));
  }

  for (GraphNode& node : nodes_) {
    std::unordered_set<int> edge_set;
    for (const CallSite& call : node.sym.calls) {
      if (call.std_qual) continue;  // `std::name(...)`: external by spelling
      auto defs = by_name.find(call.name);
      if (defs == by_name.end()) continue;
      for (int d : defs->second) {
        // A definition with no overload taking this many arguments is a
        // name collision (`ptr.get()` vs a 7-arg Endpoint::get), not an
        // edge.
        const FunctionSym& target = nodes_[static_cast<std::size_t>(d)].sym;
        const bool arity_ok =
            target.param_max < 0 ||
            (call.argc >= target.param_min && call.argc <= target.param_max);
        if (arity_ok && edge_set.insert(d).second) node.callees.push_back(d);
      }
    }
  }

  // Fixpoint: hot / det flow caller -> callee.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      GraphNode& node = nodes_[i];
      const bool hot_src = node.sym.spam_hot || node.hot_reach;
      const bool det_src =
          node.det_reach || in_sim_scope(node.sym.file);
      if (!hot_src && !det_src) continue;
      for (int e : node.callees) {
        GraphNode& c = nodes_[static_cast<std::size_t>(e)];
        if (hot_src && !c.hot_reach && !c.sym.spam_hot) {
          c.hot_reach = true;
          c.hot_from = static_cast<int>(i);
          changed = true;
        }
        if (det_src && !c.det_reach && !in_sim_scope(c.sym.file)) {
          c.det_reach = true;
          c.det_from = static_cast<int>(i);
          changed = true;
        }
      }
    }
  }
}

namespace {

std::string climb_chain(const std::vector<GraphNode>& nodes, int node,
                        int GraphNode::*from) {
  std::vector<std::string> names;
  int cur = node;
  for (int hops = 0; cur >= 0 && hops < 8; ++hops) {
    const GraphNode& n = nodes[static_cast<std::size_t>(cur)];
    names.push_back(n.sym.qual.empty() ? n.sym.name : n.sym.qual);
    cur = n.*from;
  }
  std::string out;
  for (std::size_t i = names.size(); i-- > 0;) {
    if (!out.empty()) out += " -> ";
    out += names[i];
  }
  return out;
}

}  // namespace

std::string CallGraph::hot_chain(int node) const {
  return climb_chain(nodes_, node, &GraphNode::hot_from);
}

std::string CallGraph::det_chain(int node) const {
  return climb_chain(nodes_, node, &GraphNode::det_from);
}

bool CallGraph::def_line_allows(const GraphNode& n,
                                const std::string& rule) const {
  if (n.file == nullptr) return false;
  const std::string marker = "allow(" + rule + ")";
  for (int l : {n.sym.line, n.sym.line - 1, n.sym.line - 2}) {
    auto it = n.file->markers.find(l);
    if (it != n.file->markers.end() && it->second.count(marker) != 0) {
      return true;
    }
  }
  return false;
}

std::vector<Violation> CallGraph::transitive_violations() const {
  std::vector<Violation> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const GraphNode& node = nodes_[i];
    const FunctionSym& sym = node.sym;
    if (node.file == nullptr) continue;
    if (sym.body_begin == 0 && sym.body_end == 0) continue;

    std::vector<Violation> local;
    if (node.hot_reach && !sym.spam_hot) {
      // Alloc/growth in a function the hot path reaches; SPAM_HOT bodies
      // themselves are covered by the direct per-body pass.
      scan_hot_body(*node.file, sym.body_begin, sym.body_end,
                    " [on the hot path: " + hot_chain(static_cast<int>(i)) +
                        "]",
                    &local);
    }
    if (node.hot_reach || sym.spam_hot) {
      // Charge-in-loop anywhere the hot path reaches; src/apps and
      // src/splitc files are already swept whole-file by the direct pass.
      const std::string& f = sym.file;
      const bool direct_swept = f.rfind("src/apps/", 0) == 0 ||
                                f.rfind("src/splitc/", 0) == 0;
      if (!direct_swept) {
        scan_charge_loop_body(
            *node.file, sym.body_begin, sym.body_end,
            " [on the hot path: " + hot_chain(static_cast<int>(i)) + "]",
            &local);
      }
    }
    if (node.det_reach && !in_sim_scope(sym.file)) {
      scan_det_body(*node.file, sym.body_begin, sym.body_end,
                    " [reachable from the simulation: " +
                        det_chain(static_cast<int>(i)) + "]",
                    &local);
    }
    for (Violation& v : local) {
      if (def_line_allows(node, v.rule)) continue;
      v.file = sym.file;
      out.push_back(std::move(v));
    }
  }
  return out;
}

}  // namespace spam::lint
