// spam_lint report rendering: machine-readable output formats.
//
//   render_json    — the full lint result (findings + stale allowlist
//                    entries + counts) as one JSON document, for scripting
//                    against CI runs;
//   render_sarif   — the same findings as SARIF 2.1.0, the code-scanning
//                    interchange format GitHub ingests.
//
// All renderers emit deterministic output (inputs are pre-sorted by the
// caller; no timestamps, no absolute paths) so CI diffs are stable.
#pragma once

#include <string>
#include <vector>

#include "allowlist.hpp"

namespace spam::lint {

/// One post-suppression finding, fully qualified with its file.
struct Finding {
  std::string file;  // relative to --root
  int line = 0;      // 1-based
  std::string rule;
  std::string message;
};

/// Escapes a string for embedding in a JSON string literal (no quotes).
std::string json_escape(const std::string& s);

/// Full lint result as JSON: schema documented in docs/static-analysis.md.
std::string render_json(const std::vector<Finding>& findings,
                        int files_linted,
                        const std::vector<AllowEntry>& stale);

/// Findings as a SARIF 2.1.0 log (single run, tool.driver.name "spam_lint").
std::string render_sarif(const std::vector<Finding>& findings);

}  // namespace spam::lint
