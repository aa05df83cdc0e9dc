// spam_lint call graph: cross-TU linking of the per-file symbol tables
// and hot/det reachability propagation.
//
// Edges are resolved by callee *name* (filtered by argument count) against
// every function definition seen across the lint run — no types, no
// overload resolution.  A call spelled `std::name(...)` never links, and
// a call through a value (`handlers_[h](...)`, a std::function) links to
// no definition and adds no edge.
//
// Propagation is a fixpoint over the whole graph: hot (from SPAM_HOT
// roots) and det (from sim-scope definitions) flow caller -> callee.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lexer.hpp"
#include "symbols.hpp"

namespace spam::lint {

struct Violation;

struct GraphNode {
  FunctionSym sym;
  const LexedFile* file = nullptr;  // owning lexed file (markers, body scans)

  std::vector<int> callees;  // resolved in-repo edges

  bool hot_reach = false;  // reachable from a SPAM_HOT root
  int hot_from = -1;       // caller node that made it hot (-1: is a root)
  bool det_reach = false;  // reachable from a sim-scope definition
  int det_from = -1;
};

class CallGraph {
 public:
  /// Registers one lexed file's symbols.  `file` must outlive the graph.
  void add_file(const LexedFile* file, std::vector<FunctionSym> syms);

  /// Resolves edges and runs the hot/det reachability fixpoint.
  void finalize();

  /// Chain of names from a SPAM_HOT root down to `node` ("a -> b -> c").
  std::string hot_chain(int node) const;
  /// Chain from a sim-scope definition down to `node`.
  std::string det_chain(int node) const;

  /// Rule findings only the graph can see: hot-alloc/hot-growth and
  /// hot-charge-loop in functions reachable from SPAM_HOT roots,
  /// det-* in out-of-scope functions reachable from sim-scope code.
  /// Suppression markers are honored at the offending line (the usual
  /// window) and at the reachable function's definition line.
  std::vector<Violation> transitive_violations() const;

 private:
  bool def_line_allows(const GraphNode& n, const std::string& rule) const;

  std::vector<GraphNode> nodes_;
};

}  // namespace spam::lint
