// spam_lint: the repo's determinism & hot-path invariant checker.
//
// v2 is a whole-program analyzer: after the per-file rule pass, every
// function definition is extracted into a cross-TU call graph and the
// transitive rules (hot-*/det-* in functions merely *reachable* from
// SPAM_HOT roots or simulation code) are applied.
//
// Violations print relative to --root (default: the current directory),
// which is also the base for rule scoping.  Exit codes: 0 clean, 1 at
// least one violation (or a stale allowlist entry under --stale=error),
// 2 usage or I/O error — CI treats both nonzero codes as failure but can
// distinguish "found problems" from "broken invocation".
//
// This is a host-side tool: it may read the filesystem and allocate
// freely.  It is not part of the simulation and none of the determinism
// rules apply to it — but its *output* is deterministic (files and
// findings are sorted; no timestamps) so CI diffs are stable.

#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "allowlist.hpp"
#include "callgraph.hpp"
#include "lexer.hpp"
#include "report.hpp"
#include "rules.hpp"
#include "symbols.hpp"

namespace fs = std::filesystem;

namespace {

struct Options {
  fs::path root = fs::current_path();
  std::string allowlist_path;
  bool use_default_allowlist = true;
  std::string format = "text";  // text | json | sarif
  std::string stale = "warn";   // warn | error
  bool help = false;
  std::vector<fs::path> inputs;
};

// One row per flag; value flags accept both `--flag VALUE` and
// `--flag=VALUE`.  `set` returns false when the value is invalid.
struct Flag {
  const char* name;
  bool takes_value;
  const char* help;
  std::function<bool(Options&, const std::string&)> set;
};

const std::vector<Flag>& flag_table() {
  static const std::vector<Flag> flags = {
      {"--root", true, "DIR    base for relative paths and rule scoping",
       [](Options& o, const std::string& v) {
         o.root = fs::path(v);
         return true;
       }},
      {"--allowlist", true, "FILE   audited-violation list (see allowlist.hpp)",
       [](Options& o, const std::string& v) {
         o.allowlist_path = v;
         return true;
       }},
      {"--no-default-allowlist", false,
       "  skip ROOT/tools/spam_lint/allowlist.txt",
       [](Options& o, const std::string&) {
         o.use_default_allowlist = false;
         return true;
       }},
      {"--format", true, "FMT    output format: text (default), json, sarif",
       [](Options& o, const std::string& v) {
         if (v != "text" && v != "json" && v != "sarif") return false;
         o.format = v;
         return true;
       }},
      {"--stale", true,
       "MODE   stale allowlist entries: warn (default) or error (exit 1)",
       [](Options& o, const std::string& v) {
         if (v != "warn" && v != "error") return false;
         o.stale = v;
         return true;
       }},
      {"--help", false, "             print this help and exit 0",
       [](Options& o, const std::string&) {
         o.help = true;
         return true;
       }},
  };
  return flags;
}

void print_help(std::FILE* to, const char* argv0) {
  std::fprintf(to, "usage: %s [options] <file-or-dir>...\n\noptions:\n",
               argv0);
  for (const Flag& f : flag_table()) {
    std::fprintf(to, "  %s %s\n", f.name, f.help);
  }
  std::fprintf(to,
               "\nLints every .hpp/.h/.cpp/.cc under the given paths; "
               "builds a cross-TU call\ngraph for transitive hot/det "
               "rules.\nExit codes: 0 clean, 1 violations (or stale "
               "allowlist under --stale=error),\n2 usage or I/O error.\n");
}

int usage(const char* argv0) {
  print_help(stderr, argv0);
  return 2;
}

bool parse_args(int argc, char** argv, Options* opts, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.empty() || arg[0] != '-') {
      opts->inputs.emplace_back(arg);
      continue;
    }
    if (arg == "-h") {
      opts->help = true;
      continue;
    }
    const Flag* match = nullptr;
    std::string value;
    bool has_value = false;
    for (const Flag& f : flag_table()) {
      if (arg == f.name) {
        match = &f;
        break;
      }
      const std::string prefix = std::string(f.name) + "=";
      if (f.takes_value && arg.rfind(prefix, 0) == 0) {
        match = &f;
        value = arg.substr(prefix.size());
        has_value = true;
        break;
      }
    }
    if (match == nullptr) {
      *error = "unknown option '" + arg + "'";
      return false;
    }
    if (match->takes_value && !has_value) {
      if (++i >= argc) {
        *error = std::string("missing value for ") + match->name;
        return false;
      }
      value = argv[i];
    }
    if (!match->set(*opts, value)) {
      *error = std::string("invalid value for ") + match->name + ": '" +
               value + "'";
      return false;
    }
  }
  return true;
}

bool has_lintable_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".h" || ext == ".cpp" || ext == ".cc";
}

std::string to_rel(const fs::path& p, const fs::path& root) {
  std::error_code ec;
  fs::path rel = fs::relative(p, root, ec);
  if (ec || rel.empty()) rel = p;
  return rel.generic_string();
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  {
    std::string error;
    if (!parse_args(argc, argv, &opts, &error)) {
      std::fprintf(stderr, "spam_lint: %s\n", error.c_str());
      return usage(argv[0]);
    }
  }
  if (opts.help) {
    print_help(stdout, argv[0]);
    return 0;
  }
  if (opts.inputs.empty()) return usage(argv[0]);

  std::error_code ec;
  opts.root = fs::canonical(opts.root, ec);
  if (ec) {
    std::fprintf(stderr, "spam_lint: bad --root: %s\n", ec.message().c_str());
    return 2;
  }

  spam::lint::Allowlist allowlist;
  if (opts.allowlist_path.empty() && opts.use_default_allowlist) {
    const fs::path def = opts.root / "tools" / "spam_lint" / "allowlist.txt";
    if (fs::exists(def, ec)) opts.allowlist_path = def.string();
  }
  if (!opts.allowlist_path.empty()) {
    std::string error;
    if (!allowlist.load(opts.allowlist_path, &error)) {
      std::fprintf(stderr, "spam_lint: %s\n", error.c_str());
      return 2;
    }
  }

  // Expand inputs into a sorted, de-duplicated file list: deterministic
  // output regardless of directory enumeration order.
  std::vector<fs::path> files;
  for (const fs::path& in : opts.inputs) {
    if (fs::is_directory(in, ec)) {
      for (fs::recursive_directory_iterator it(in, ec), end; !ec && it != end;
           it.increment(ec)) {
        if (it->is_regular_file(ec) && has_lintable_extension(it->path())) {
          files.push_back(fs::canonical(it->path(), ec));
        }
      }
    } else if (fs::is_regular_file(in, ec)) {
      files.push_back(fs::canonical(in, ec));
    } else {
      std::fprintf(stderr, "spam_lint: no such file or directory: %s\n",
                   in.string().c_str());
      return 2;
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  // Lex everything up front: the call graph holds pointers into this deque
  // (stable addresses), and the allowlist filter needs line text later.
  std::deque<spam::lint::LexedFile> lexed;
  std::vector<std::string> rels;
  std::unordered_map<std::string, const spam::lint::LexedFile*> by_rel;
  for (const fs::path& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "spam_lint: cannot read %s\n",
                   file.string().c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    lexed.push_back(spam::lint::lex(buf.str()));
    rels.push_back(to_rel(file, opts.root));
    by_rel[rels.back()] = &lexed.back();
  }

  // Pass 1: per-file rules.
  std::vector<spam::lint::Violation> all;
  for (std::size_t i = 0; i < lexed.size(); ++i) {
    for (spam::lint::Violation v : spam::lint::run_rules(lexed[i], rels[i])) {
      v.file = rels[i];
      all.push_back(std::move(v));
    }
  }

  // Pass 2: cross-TU call graph and the transitive rules.
  spam::lint::CallGraph graph;
  for (std::size_t i = 0; i < lexed.size(); ++i) {
    graph.add_file(&lexed[i], spam::lint::extract_symbols(lexed[i], rels[i]));
  }
  graph.finalize();
  for (spam::lint::Violation& v : graph.transitive_violations()) {
    all.push_back(std::move(v));
  }

  // Merge: sort by (file, line, rule); a direct and a transitive finding
  // at the same site collapse into one, the direct (first) message winning
  // because the sort is stable and pass 1 ran first.
  std::stable_sort(all.begin(), all.end(),
                   [](const spam::lint::Violation& a,
                      const spam::lint::Violation& b) {
                     if (a.file != b.file) return a.file < b.file;
                     if (a.line != b.line) return a.line < b.line;
                     return a.rule < b.rule;
                   });
  all.erase(std::unique(all.begin(), all.end(),
                        [](const spam::lint::Violation& a,
                           const spam::lint::Violation& b) {
                          return a.file == b.file && a.line == b.line &&
                                 a.rule == b.rule;
                        }),
            all.end());

  // Allowlist filter (needs the offending line's text).
  std::vector<spam::lint::Finding> findings;
  for (const spam::lint::Violation& v : all) {
    std::string line_text;
    const auto it = by_rel.find(v.file);
    if (it != by_rel.end()) {
      const std::size_t idx = static_cast<std::size_t>(v.line - 1);
      if (idx < it->second->lines.size()) line_text = it->second->lines[idx];
    }
    if (allowlist.covers(v, v.file, line_text)) continue;
    findings.push_back(
        spam::lint::Finding{v.file, v.line, v.rule, v.message});
  }

  const std::vector<spam::lint::AllowEntry> stale = allowlist.unused();

  if (opts.format == "text") {
    for (const spam::lint::Finding& f : findings) {
      std::printf("%s:%d: %s %s\n", f.file.c_str(), f.line, f.rule.c_str(),
                  f.message.c_str());
    }
  } else if (opts.format == "json") {
    const std::string doc = spam::lint::render_json(
        findings, static_cast<int>(lexed.size()), stale);
    std::fwrite(doc.data(), 1, doc.size(), stdout);
  } else {  // sarif
    const std::string doc = spam::lint::render_sarif(findings);
    std::fwrite(doc.data(), 1, doc.size(), stdout);
  }

  for (const spam::lint::AllowEntry& e : stale) {
    std::fprintf(stderr, "spam_lint: %s: unused allowlist entry: %s %s %s\n",
                 opts.stale == "error" ? "error" : "note", e.rule.c_str(),
                 e.path_suffix.c_str(), e.line_substring.c_str());
  }
  std::fprintf(stderr, "spam_lint: %d file(s), %d violation(s)\n",
               static_cast<int>(lexed.size()),
               static_cast<int>(findings.size()));
  if (!findings.empty()) return 1;
  if (!stale.empty() && opts.stale == "error") return 1;
  return 0;
}
