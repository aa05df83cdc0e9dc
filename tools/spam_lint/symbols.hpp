// spam_lint symbol extraction: function definitions and the calls inside
// them, recovered from the lexer's flat token stream.
//
// This is the layer that turns spam_lint from a per-body linter into a
// whole-program analyzer: each lexed file yields a list of FunctionSym
// records (name, body token range, SPAM_HOT-ness, outgoing calls), and
// callgraph.hpp links them across translation units by name.
//
// The extractor is a single forward pass with a scope stack.  Every `{`
// is classified — namespace, class/enum, function body, lambda body,
// brace initializer, or plain block — from the "head" tokens accumulated
// since the last statement boundary.  That classification is deliberately
// lexical: no templates are instantiated, no overloads resolved, no
// types known.  docs/static-analysis.md spells out what this can and
// cannot see.
//
// Lambdas contribute their calls to the enclosing function (a lambda
// defined and invoked on a hot path runs on the hot path).  The exception
// is a lambda bound to a local (`auto name = [..](..) {`): it becomes a
// named definition so later calls to `name` resolve.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lexer.hpp"

namespace spam::lint {

/// One call site inside a function body.
struct CallSite {
  std::string name;       // callee identifier (last component: `x.f()` -> "f")
  bool std_qual = false;  // spelled `std::name(...)`: never an in-repo def
  int argc = 0;           // top-level argument count
};

/// One function definition (or named local lambda).
struct FunctionSym {
  std::string name;  // unqualified name
  std::string qual;  // display name with enclosing class/namespace scopes
  std::string file;  // path relative to the lint root
  int line = 0;      // 1-based line of the definition

  bool spam_hot = false;  // SPAM_HOT in the declaration head

  // Parameter-count range for call/definition arity matching: a call with
  // argc in [param_min, param_max] may target this definition.
  // param_max == -1 means "matches any count" (variadic, or a lambda
  // whose list was not parsed).
  int param_min = 0;
  int param_max = -1;

  std::size_t body_begin = 0;  // token index of the body '{'
  std::size_t body_end = 0;    // token index of the matching '}'

  std::vector<CallSite> calls;
};

/// Extracts every function definition (including named local lambdas)
/// and the calls inside each from one lexed file.
std::vector<FunctionSym> extract_symbols(const LexedFile& file,
                                         const std::string& rel_path);

}  // namespace spam::lint
