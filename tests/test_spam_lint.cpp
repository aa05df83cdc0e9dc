// End-to-end tests for tools/spam_lint against tests/lint_fixtures/.
//
// The fixtures are self-describing: every line the linter must flag ends
// with `// EXPECT: <rule-id>`.  Each test parses that expectation set out
// of the fixture source and compares it — exactly, line numbers and rule
// ids both — against the tool's stdout, so a rule that stops firing, fires
// on the wrong line, or fires where it should not is a concrete diff in
// the failure message.
//
// SPAM_LINT_BIN, SPAM_LINT_FIXTURES and SPAM_LINT_SRC_ROOT are injected by
// tests/CMakeLists.txt.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;
};

// Runs the lint binary with `args`; captures stdout (and stderr too when
// `merge_stderr`).  popen gives us exactly the CI-facing interface: argv,
// streams, exit code.
RunResult run_lint(const std::string& args, bool merge_stderr = false) {
  std::string cmd = std::string(SPAM_LINT_BIN) + " " + args;
  cmd += merge_stderr ? " 2>&1" : " 2>/dev/null";
  RunResult r;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) {
    r.output.append(buf, n);
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

std::string fixture(const std::string& rel) {
  return std::string(SPAM_LINT_FIXTURES) + "/" + rel;
}

std::string lint_args(const std::string& rel) {
  return "--root " + std::string(SPAM_LINT_FIXTURES) +
         " --no-default-allowlist " + fixture(rel);
}

using LineRule = std::pair<int, std::string>;

// Parses `// EXPECT: <rule-id>` markers out of a fixture file.
std::vector<LineRule> expected_violations(const std::string& rel) {
  std::ifstream in(fixture(rel));
  EXPECT_TRUE(in.is_open()) << "missing fixture " << rel;
  std::vector<LineRule> out;
  std::string line;
  const std::string key = "// EXPECT: ";
  for (int lineno = 1; std::getline(in, line); ++lineno) {
    const std::size_t at = line.find(key);
    if (at == std::string::npos) continue;
    std::string rule = line.substr(at + key.size());
    while (!rule.empty() && (rule.back() == ' ' || rule.back() == '\r')) {
      rule.pop_back();
    }
    out.emplace_back(lineno, rule);
  }
  return out;
}

// Parses spam_lint stdout (`rel:line: rule message`) into (line, rule),
// asserting every line refers to the expected file.
std::vector<LineRule> reported_violations(const std::string& out,
                                          const std::string& rel) {
  std::vector<LineRule> parsed;
  std::istringstream in(out);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::size_t c1 = line.find(':');
    const std::size_t c2 =
        c1 == std::string::npos ? std::string::npos : line.find(':', c1 + 1);
    if (c2 == std::string::npos) {
      ADD_FAILURE() << "unparseable lint output line: " << line;
      continue;
    }
    EXPECT_EQ(line.substr(0, c1), rel) << line;
    const int lineno = std::stoi(line.substr(c1 + 1, c2 - c1 - 1));
    std::istringstream rest(line.substr(c2 + 1));
    std::string rule;
    rest >> rule;
    parsed.emplace_back(lineno, rule);
  }
  return parsed;
}

// One fixture file, full expectation match, nonzero exit.
void check_fixture(const std::string& rel) {
  const std::vector<LineRule> want = expected_violations(rel);
  ASSERT_FALSE(want.empty()) << rel << " has no EXPECT markers";
  const RunResult r = run_lint(lint_args(rel));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(reported_violations(r.output, rel), want) << r.output;
}

TEST(SpamLint, DeterminismRules) {
  check_fixture("src/sim/det_violations.cpp");
}

TEST(SpamLint, HotPathRules) { check_fixture("src/sim/hot_violations.cpp"); }

TEST(SpamLint, FiberRules) { check_fixture("src/sim/fiber_violations.cpp"); }

TEST(SpamLint, ChargeLoopRules) {
  check_fixture("src/splitc/charge_violations.cpp");
}

TEST(SpamLint, HeaderRules) { check_fixture("src/sim/bad_header.hpp"); }

TEST(SpamLint, CleanFileExitsZero) {
  const RunResult r = run_lint(lint_args("src/sim/clean.cpp"));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output, "");
}

TEST(SpamLint, AllowlistCoversAuditedViolation) {
  const RunResult r =
      run_lint("--root " + std::string(SPAM_LINT_FIXTURES) + " --allowlist " +
                   fixture("allowlist.txt") + " " +
                   fixture("src/sim/allowlisted.cpp"),
               /*merge_stderr=*/true);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("fiber-tls"), std::string::npos) << r.output;
  // The deliberately-stale entry must be called out.
  EXPECT_NE(r.output.find("unused allowlist entry: det-rand"),
            std::string::npos)
      << r.output;
}

TEST(SpamLint, WithoutAllowlistViolationResurfaces) {
  const RunResult r = run_lint(lint_args("src/sim/allowlisted.cpp"));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("fiber-tls"), std::string::npos) << r.output;
}

TEST(SpamLint, WholeTreeSweepAggregates) {
  std::size_t expected = 0;
  for (const char* rel :
       {"src/sim/det_violations.cpp", "src/sim/hot_violations.cpp",
        "src/sim/fiber_violations.cpp", "src/sim/bad_header.hpp",
        "src/sim/transitive_hot.cpp", "src/driver/xhelper.cpp",
        "src/sphw/payload_escape.cpp", "src/splitc/charge_violations.cpp",
        "src/splitc/debt_now.cpp"}) {
    expected += expected_violations(rel).size();
  }
  expected += 1;  // allowlisted.cpp's fiber-tls (no allowlist in this run)
  const RunResult r = run_lint("--root " + std::string(SPAM_LINT_FIXTURES) +
                               " --no-default-allowlist " +
                               std::string(SPAM_LINT_FIXTURES));
  EXPECT_EQ(r.exit_code, 1);
  std::size_t lines = 0;
  for (char c : r.output) lines += c == '\n' ? 1u : 0u;
  EXPECT_EQ(lines, expected) << r.output;
}

TEST(SpamLint, MissingInputExitsTwo) {
  const RunResult r = run_lint(lint_args("src/sim/no_such_file.cpp"));
  EXPECT_EQ(r.exit_code, 2);
}

// --- v2: call graph and transitive rules ----------------------------------

// Every finding in this fixture exists only through the call graph, so
// each carries the chain suffix.  A direct finding at the same site would
// win the merge and drop the suffix.
TEST(SpamLint, TransitiveHotRules) {
  const std::string rel = "src/sim/transitive_hot.cpp";
  check_fixture(rel);
  const RunResult r = run_lint(lint_args(rel));
  std::istringstream in(r.output);
  std::string line;
  while (std::getline(in, line)) {
    EXPECT_NE(line.find(" [on the hot path: "), std::string::npos) << line;
  }
}

TEST(SpamLint, PayloadEscapeRules) {
  check_fixture("src/sphw/payload_escape.cpp");
}

TEST(SpamLint, DebtEngineNowRules) { check_fixture("src/splitc/debt_now.cpp"); }

// Hot/det taints cross the TU boundary: xhelper.cpp's findings fire only
// when the file holding the roots is linted in the same run.
TEST(SpamLint, CrossTuReachability) {
  const std::string rel = "src/driver/xhelper.cpp";
  const std::vector<LineRule> want = expected_violations(rel);
  ASSERT_FALSE(want.empty());

  const RunResult solo = run_lint(lint_args(rel));
  EXPECT_EQ(solo.exit_code, 0) << solo.output;
  EXPECT_EQ(solo.output, "");

  const RunResult pair =
      run_lint(lint_args(rel) + " " + fixture("src/sim/xcaller.cpp"));
  EXPECT_EQ(pair.exit_code, 1) << pair.output;
  EXPECT_EQ(reported_violations(pair.output, rel), want) << pair.output;
}

// Minimal JSON value extraction, enough for the documents spam_lint emits
// (no nested strings with unescaped quotes in the probed fields).
int count_occurrences(const std::string& hay, const std::string& needle) {
  int n = 0;
  for (std::size_t at = hay.find(needle); at != std::string::npos;
       at = hay.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

// The real tree lints clean, within CI's 2 s budget (tools/check.sh
// asserts the same bound on the tool alone), and the JSON report is
// byte-identical across runs.
TEST(SpamLint, RealTreeCleanWithinBudget) {
  const std::string root(SPAM_LINT_SRC_ROOT);
  const std::string args = "--format=json --root " + root + " " + root +
                           "/src " + root + "/bench " + root + "/tools";
  const auto t0 = std::chrono::steady_clock::now();
  const RunResult r = run_lint(args);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            2000);
  EXPECT_EQ(r.output, run_lint(args).output);
}

// --- v2: CLI contract ------------------------------------------------------

TEST(SpamLint, JsonFormat) {
  const RunResult r =
      run_lint("--format=json " + lint_args("src/sim/hot_violations.cpp"));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("\"tool\": \"spam_lint\""), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"rule\": \"hot-alloc\""), std::string::npos)
      << r.output;
  EXPECT_EQ(count_occurrences(r.output, "\"rule\": "),
            static_cast<int>(
                expected_violations("src/sim/hot_violations.cpp").size()))
      << r.output;
}

TEST(SpamLint, SarifFormat) {
  const RunResult r =
      run_lint("--format=sarif " + lint_args("src/sim/hot_violations.cpp"));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("\"version\": \"2.1.0\""), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"name\": \"spam_lint\""), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"ruleId\": \"hot-alloc\""), std::string::npos)
      << r.output;
}

TEST(SpamLint, BogusFormatExitsTwo) {
  const RunResult r =
      run_lint("--format=bogus " + lint_args("src/sim/clean.cpp"));
  EXPECT_EQ(r.exit_code, 2);
}

// A stale allowlist entry is advisory by default (the audited-violation
// test above relies on exit 0) but fails the run under --stale=error.
TEST(SpamLint, StaleAllowlistEntryFailsUnderStaleError) {
  const RunResult r =
      run_lint("--stale=error --root " + std::string(SPAM_LINT_FIXTURES) +
                   " --allowlist " + fixture("allowlist.txt") + " " +
                   fixture("src/sim/allowlisted.cpp"),
               /*merge_stderr=*/true);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("error: unused allowlist entry: det-rand"),
            std::string::npos)
      << r.output;
}

TEST(SpamLint, HelpExitsZero) {
  const RunResult r = run_lint("--help", /*merge_stderr=*/true);
  EXPECT_EQ(r.exit_code, 0);
  for (const char* flag : {"--root", "--allowlist", "--no-default-allowlist",
                           "--format", "--stale"}) {
    EXPECT_NE(r.output.find(flag), std::string::npos) << "help lacks " << flag;
  }
}

}  // namespace
