#include "symbols.hpp"

#include <cstddef>
#include <string>
#include <unordered_set>
#include <vector>

namespace spam::lint {
namespace {

// Keywords that look like `ident (` but never name a callee.
const std::unordered_set<std::string>& call_skip_words() {
  static const std::unordered_set<std::string> set = {
      "if",       "for",      "while",    "switch",        "catch",
      "return",   "sizeof",   "alignof",  "alignas",       "decltype",
      "noexcept", "throw",    "new",      "delete",        "goto",
      "typeid",   "requires", "defined",  "static_assert", "co_return",
      "co_await", "co_yield", "typename",
  };
  return set;
}

// Keywords after which `ident (` is still a call expression, not the
// start of a declaration (`Foo bar(...)`).
bool call_after_ident_ok(const std::string& p) {
  return p == "return" || p == "else" || p == "do" || p == "case" ||
         p == "throw" || p == "co_return" || p == "co_await" ||
         p == "co_yield";
}

bool qualifier_ident(const std::string& s) {
  return s == "const" || s == "noexcept" || s == "override" || s == "final" ||
         s == "mutable" || s == "try";
}

struct Scope {
  enum Kind { kNamespace, kClass, kFunction, kBlock, kInit };
  Kind kind;
  int sym;           // index into the output for kFunction scopes, else -1
  std::string name;  // qualification component for kNamespace/kClass
};

class Extractor {
 public:
  Extractor(const LexedFile& file, const std::string& rel)
      : file_(file), rel_(rel) {
    for (std::size_t i = 0; i < file.tokens.size(); ++i) {
      if (!file.tokens[i].in_directive) idx_.push_back(i);
    }
  }

  std::vector<FunctionSym> run();

 private:
  const Token& tok(std::size_t k) const { return file_.tokens[idx_[k]]; }
  std::size_t n() const { return idx_.size(); }

  // Matching ')' for the '(' at k, over the filtered stream; n() if
  // unbalanced.
  std::size_t match_paren(std::size_t k) const {
    int depth = 0;
    for (std::size_t j = k; j < n(); ++j) {
      if (tok(j).text == "(") ++depth;
      if (tok(j).text == ")" && --depth == 0) return j;
    }
    return n();
  }

  struct ArgCount {
    int count = 0;      // comma-separated top-level entries
    int defaults = 0;   // `=` at top level (parameter default values)
    bool ellipsis = false;
  };

  // Lexical argument/parameter count for the list opened by '(' at k.
  // Angle brackets are tracked heuristically (`ident <` opens) so that
  // template-argument commas don't inflate the count.
  ArgCount count_args(std::size_t k) const {
    ArgCount out;
    const std::size_t close = match_paren(k);
    if (close >= n() || close == k + 1) return out;
    out.count = 1;
    int depth = 0, angle = 0;
    for (std::size_t j = k + 1; j < close; ++j) {
      const std::string& t = tok(j).text;
      if (t == "(" || t == "{" || t == "[") ++depth;
      if (t == ")" || t == "}" || t == "]") --depth;
      if (t == "<" && j > 0 && tok(j - 1).kind == TokKind::kIdent) ++angle;
      if (t == ">" && angle > 0 && tok(j - 1).text != "-") --angle;
      if (depth != 0 || angle != 0) continue;
      if (t == ",") ++out.count;
      if (t == "=") ++out.defaults;
      if (t == "." && j + 2 < close && tok(j + 1).text == "." &&
          tok(j + 2).text == ".") {
        out.ellipsis = true;
      }
    }
    return out;
  }

  // Joins the enclosing namespace/class names.
  std::string scope_prefix() const {
    std::string out;
    for (const Scope& s : scopes_) {
      if (s.name.empty()) continue;
      if (!out.empty()) out += "::";
      out += s.name;
    }
    return out;
  }

  int innermost_function() const {
    for (std::size_t i = scopes_.size(); i-- > 0;) {
      if (scopes_[i].kind == Scope::kFunction) return scopes_[i].sym;
      if (scopes_[i].kind == Scope::kClass ||
          scopes_[i].kind == Scope::kNamespace) {
        break;  // a class/namespace nested in a body shadows the body
      }
    }
    return -1;
  }

  bool in_definition_scope() const {
    for (std::size_t i = scopes_.size(); i-- > 0;) {
      switch (scopes_[i].kind) {
        case Scope::kNamespace:
        case Scope::kClass:
          return true;
        case Scope::kFunction:
        case Scope::kBlock:
          return false;
        case Scope::kInit:
          continue;  // transparent: look through initializers
      }
    }
    return true;  // file scope
  }

  // True when the '{' at k closes a lambda introducer: `] {` or
  // `](params) quals {`.
  bool is_lambda_brace(std::size_t k) const;
  std::size_t lambda_intro(std::size_t k) const;

  // Head classification for a '{' at filtered index k with head
  // [head_start_, k).
  Scope classify_brace(std::size_t k);

  void open_scope(std::size_t k);

  const LexedFile& file_;
  const std::string& rel_;
  std::vector<std::size_t> idx_;
  std::vector<Scope> scopes_;
  std::vector<FunctionSym> out_;
  std::size_t head_start_ = 0;
};

bool Extractor::is_lambda_brace(std::size_t k) const {
  std::size_t j = k;
  while (j-- > head_start_) {
    const std::string& t = tok(j).text;
    if (tok(j).kind == TokKind::kIdent || t == ">" || t == "-" || t == ":" ||
        t == "*" || t == "&") {
      continue;  // trailing-return / qualifier tokens
    }
    if (t == "]") return j == 0 || tok(j - 1).text != "]";  // not `]]` attr
    if (t == ")") {
      int depth = 0;
      for (std::size_t m = j + 1; m-- > 0;) {
        if (tok(m).text == ")") ++depth;
        if (tok(m).text == "(" && --depth == 0) {
          return m > 0 && tok(m - 1).text == "]" &&
                 (m < 2 || tok(m - 2).text != "]");
        }
      }
      return false;
    }
    return false;
  }
  return false;
}

// Index of the lambda introducer '[' for the lambda whose body brace is at
// k (mirrors is_lambda_brace's back-scan), or n() when not found.
std::size_t Extractor::lambda_intro(std::size_t k) const {
  std::size_t rb = n();  // the introducer's closing ']'
  std::size_t j = k;
  while (j-- > head_start_) {
    const std::string& t = tok(j).text;
    if (tok(j).kind == TokKind::kIdent || t == ">" || t == "-" || t == ":" ||
        t == "*" || t == "&") {
      continue;
    }
    if (t == "]") {
      rb = j;
    } else if (t == ")") {
      int depth = 0;
      for (std::size_t m = j + 1; m-- > 0;) {
        if (tok(m).text == ")") ++depth;
        if (tok(m).text == "(" && --depth == 0) {
          if (m > 0 && tok(m - 1).text == "]") rb = m - 1;
          break;
        }
      }
    }
    break;
  }
  if (rb == n()) return n();
  int depth = 0;
  for (std::size_t m = rb + 1; m-- > 0;) {
    if (tok(m).text == "]") ++depth;
    if (tok(m).text == "[" && --depth == 0) return m;
  }
  return n();
}

Scope Extractor::classify_brace(std::size_t k) {
  const std::string prev = k > 0 ? tok(k - 1).text : std::string();

  if (prev == "do" || prev == "else" || prev == "try") {
    return Scope{Scope::kBlock, -1, ""};
  }
  if (prev == "=" || prev == "," || prev == "(" || prev == "[" ||
      prev == "{" || prev == "return") {
    return Scope{Scope::kInit, -1, ""};
  }
  if (is_lambda_brace(k)) {
    // Lambdas are transparent blocks: their calls belong to the enclosing
    // function (a lambda built and run on a hot path runs on the hot path).
    // A named local lambda (`auto name = [..](..) {`) becomes its own
    // definition so later calls to `name` resolve.  Parameters are not
    // parsed — wildcard arity.
    const std::size_t lb = lambda_intro(k);
    if (lb != n() && lb >= 2 && tok(lb - 1).text == "=" &&
        tok(lb - 2).kind == TokKind::kIdent) {
      FunctionSym sym;
      sym.name = tok(lb - 2).text;
      sym.qual = scope_prefix();
      if (!sym.qual.empty()) sym.qual += "::";
      sym.qual += sym.name;
      sym.file = rel_;
      sym.line = tok(k).line;
      sym.param_min = 0;
      sym.param_max = -1;
      out_.push_back(sym);
      return Scope{Scope::kFunction, static_cast<int>(out_.size() - 1), ""};
    }
    return Scope{Scope::kBlock, -1, ""};
  }

  // Head keyword scan: namespaces and classes.
  bool saw_namespace = false;
  std::size_t class_kw = n();
  for (std::size_t j = head_start_; j < k; ++j) {
    const std::string& t = tok(j).text;
    if (t == "namespace") saw_namespace = true;
    if (class_kw == n() &&
        (t == "class" || t == "struct" || t == "union" || t == "enum")) {
      class_kw = j;
    }
  }
  if (saw_namespace || (k == head_start_ + 1 && tok(head_start_).text == "extern")) {
    std::string name;
    for (std::size_t j = head_start_; j < k; ++j) {
      if (tok(j).kind != TokKind::kIdent || tok(j).text == "namespace" ||
          tok(j).text == "inline" || tok(j).text == "extern") {
        continue;
      }
      if (!name.empty()) name += "::";
      name += tok(j).text;
    }
    return Scope{Scope::kNamespace, -1, name};
  }

  // Function definition: first `ident (` in the head with a matching ')'
  // before the brace.
  if (in_definition_scope()) {
    for (std::size_t c = head_start_; c + 1 < k; ++c) {
      if (tok(c).kind != TokKind::kIdent || tok(c + 1).text != "(") continue;
      if (call_skip_words().count(tok(c).text) != 0) continue;
      const std::size_t close = match_paren(c + 1);
      if (close >= k) continue;  // unbalanced: not this candidate

      // Decide body vs. ctor member-brace-initializer from the tokens
      // between the parameter list and the brace.
      const std::string& last = tok(k - 1).text;
      bool is_body = last == ")" || last == "}";
      if (!is_body && (tok(k - 1).kind == TokKind::kIdent || last == ">")) {
        if (qualifier_ident(last)) {
          is_body = true;
        } else {
          bool arrow = false, colon = false;
          int depth = 0;
          for (std::size_t j = close + 1; j < k; ++j) {
            const std::string& t = tok(j).text;
            if (t == "(") ++depth;
            if (t == ")") --depth;
            if (depth != 0) continue;
            if (t == ">" && j > 0 && tok(j - 1).text == "-") arrow = true;
            if (t == ":" && (j == 0 || tok(j - 1).text != ":") &&
                (j + 1 >= k || tok(j + 1).text != ":")) {
              colon = true;
            }
          }
          if (colon && !arrow) {
            return Scope{Scope::kInit, -1, ""};  // `: a_{x}` member init
          }
          is_body = true;
        }
      } else if (!is_body) {
        is_body = true;  // `) const {`-style punctuation already consumed
      }
      if (!is_body) break;

      FunctionSym sym;
      sym.name = tok(c).text;
      if (c > head_start_ && tok(c - 1).text == "~") sym.name = "~" + sym.name;
      // Explicit `Cls::name` qualifiers in the head.
      std::string explicit_qual;
      for (std::size_t j = c; j >= head_start_ + 3; j -= 3) {
        if (tok(j - 1).text != ":" || tok(j - 2).text != ":" ||
            tok(j - 3).kind != TokKind::kIdent) {
          break;
        }
        explicit_qual = tok(j - 3).text +
                        (explicit_qual.empty() ? "" : "::") + explicit_qual;
        if (j < 3) break;
      }
      sym.qual = scope_prefix();
      if (!explicit_qual.empty()) {
        sym.qual += sym.qual.empty() ? explicit_qual : "::" + explicit_qual;
      }
      sym.qual += sym.qual.empty() ? sym.name : "::" + sym.name;
      sym.file = rel_;
      sym.line = tok(c).line;
      const ArgCount params = count_args(c + 1);
      if (!params.ellipsis) {
        sym.param_min = params.count - params.defaults;
        sym.param_max = params.count;
      }
      for (std::size_t j = head_start_; j < k; ++j) {
        if (tok(j).text == "SPAM_HOT") sym.spam_hot = true;
      }
      out_.push_back(sym);
      return Scope{Scope::kFunction, static_cast<int>(out_.size() - 1), ""};
    }
  }

  if (class_kw != n()) {
    // Class name: the last identifier before the brace or the base-clause
    // ':' (skips attributes, alignas(...) arguments, `final`).
    std::string name;
    int depth = 0;
    for (std::size_t j = class_kw + 1; j < k; ++j) {
      const std::string& t = tok(j).text;
      if (t == "(") ++depth;
      if (t == ")") --depth;
      if (depth != 0) continue;
      if (t == ":" && tok(j - 1).text != ":" &&
          (j + 1 >= k || tok(j + 1).text != ":")) {
        break;
      }
      if (tok(j).kind == TokKind::kIdent && t != "class" && t != "final") {
        name = t;
      }
    }
    return Scope{Scope::kClass, -1, name};
  }

  const Token* p = k > 0 ? &tok(k - 1) : nullptr;
  if (p != nullptr && (p->kind == TokKind::kIdent || p->text == ">")) {
    return Scope{Scope::kInit, -1, ""};  // braced initializer `Type{...}`
  }
  return Scope{Scope::kBlock, -1, ""};
}

void Extractor::open_scope(std::size_t k) {
  Scope s = classify_brace(k);
  if (s.kind == Scope::kFunction && s.sym >= 0) {
    out_[static_cast<std::size_t>(s.sym)].body_begin = idx_[k];
  }
  scopes_.push_back(s);
  if (s.kind != Scope::kInit) head_start_ = k + 1;
}

std::vector<FunctionSym> Extractor::run() {
  for (std::size_t k = 0; k < n(); ++k) {
    const Token& t = tok(k);

    if (t.text == ";") {
      head_start_ = k + 1;
    } else if (t.text == "{") {
      open_scope(k);
      continue;
    } else if (t.text == "}") {
      if (!scopes_.empty()) {
        const Scope s = scopes_.back();
        scopes_.pop_back();
        if (s.kind == Scope::kFunction && s.sym >= 0) {
          out_[static_cast<std::size_t>(s.sym)].body_end = idx_[k];
        }
        if (s.kind != Scope::kInit) head_start_ = k + 1;
      } else {
        head_start_ = k + 1;
      }
      continue;
    }

    if (t.kind != TokKind::kIdent) continue;

    // Call collection for the innermost function body.
    const int fn = innermost_function();
    if (fn < 0) continue;
    if (k + 1 >= n() || tok(k + 1).text != "(") continue;
    if (call_skip_words().count(t.text) != 0) continue;

    CallSite site;
    site.name = t.text;
    if (k > 0) {
      const Token& p = tok(k - 1);
      if (p.kind == TokKind::kIdent) {
        if (!call_after_ident_ok(p.text)) continue;  // a declaration
      } else if (p.text == ">") {
        if (k < 2 || tok(k - 2).text != "-") continue;  // template-type decl
      } else if (p.text == "~") {
        continue;
      } else if (p.text == ":") {
        site.std_qual =
            k >= 3 && tok(k - 1).text == ":" && tok(k - 2).text == ":" &&
            tok(k - 3).text == "std";
      }
    }
    site.argc = count_args(k + 1).count;
    out_[static_cast<std::size_t>(fn)].calls.push_back(site);
  }

  return out_;
}

}  // namespace

std::vector<FunctionSym> extract_symbols(const LexedFile& file,
                                         const std::string& rel_path) {
  return Extractor(file, rel_path).run();
}

}  // namespace spam::lint
