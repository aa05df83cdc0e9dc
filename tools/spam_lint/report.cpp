#include "report.hpp"

#include <cstdio>
#include <set>
#include <string>
#include <vector>

namespace spam::lint {
namespace {

std::string itoa(int v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%d", v);
  return buf;
}

std::string q(const std::string& s) { return "\"" + json_escape(s) + "\""; }

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string render_json(const std::vector<Finding>& findings,
                        int files_linted,
                        const std::vector<AllowEntry>& stale) {
  std::string out = "{\n";
  out += "  \"tool\": \"spam_lint\",\n";
  out += "  \"files_linted\": " + itoa(files_linted) + ",\n";
  out += "  \"violation_count\": " +
         itoa(static_cast<int>(findings.size())) + ",\n";
  out += "  \"violations\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"file\": " + q(f.file) + ", \"line\": " + itoa(f.line) +
           ", \"rule\": " + q(f.rule) + ", \"message\": " + q(f.message) +
           "}";
  }
  out += findings.empty() ? "],\n" : "\n  ],\n";
  out += "  \"stale_allowlist_entries\": [";
  for (std::size_t i = 0; i < stale.size(); ++i) {
    const AllowEntry& e = stale[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"rule\": " + q(e.rule) + ", \"path_suffix\": " +
           q(e.path_suffix) + ", \"line_substring\": " + q(e.line_substring) +
           "}";
  }
  out += stale.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

std::string render_sarif(const std::vector<Finding>& findings) {
  // One rule descriptor per distinct ruleId, sorted for stable output.
  std::set<std::string> rule_ids;
  for (const Finding& f : findings) rule_ids.insert(f.rule);

  std::string out = "{\n";
  out += "  \"version\": \"2.1.0\",\n";
  out +=
      "  \"$schema\": "
      "\"https://json.schemastore.org/sarif-2.1.0.json\",\n";
  out += "  \"runs\": [\n    {\n";
  out += "      \"tool\": {\n        \"driver\": {\n";
  out += "          \"name\": \"spam_lint\",\n";
  out +=
      "          \"informationUri\": "
      "\"docs/static-analysis.md\",\n";
  out += "          \"rules\": [";
  std::size_t ri = 0;
  for (const std::string& id : rule_ids) {
    out += ri++ == 0 ? "\n" : ",\n";
    out += "            {\"id\": " + q(id) + "}";
  }
  out += rule_ids.empty() ? "]\n" : "\n          ]\n";
  out += "        }\n      },\n";
  out += "      \"results\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out += i == 0 ? "\n" : ",\n";
    out += "        {\n";
    out += "          \"ruleId\": " + q(f.rule) + ",\n";
    out += "          \"level\": \"error\",\n";
    out += "          \"message\": {\"text\": " + q(f.message) + "},\n";
    out += "          \"locations\": [{\"physicalLocation\": {";
    out += "\"artifactLocation\": {\"uri\": " + q(f.file) + "}, ";
    out += "\"region\": {\"startLine\": " + itoa(f.line) + "}}}]\n";
    out += "        }";
  }
  out += findings.empty() ? "]\n" : "\n      ]\n";
  out += "    }\n  ]\n}\n";
  return out;
}

}  // namespace spam::lint
