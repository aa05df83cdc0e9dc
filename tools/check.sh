#!/usr/bin/env bash
# The repo gate: lint, build, and test across every analysis configuration.
#
#   tools/check.sh            # run everything available on this host
#   JOBS=4 tools/check.sh     # cap build/test parallelism
#   SPAM_CHECK_SKIP="asan ubsan" tools/check.sh   # skip named stages
#
# Stages (in order):
#   lint           spam_lint over src/ bench/ tools/ with the audited
#                  allowlist — determinism, hot-path, fiber, header rules
#                  and the cross-TU transitive passes (artifacts under
#                  build-rwdi/lint/); stale allowlist entries are errors,
#                  and the full-tree run must finish inside a 2 s budget
#   lint-self      spam_lint over its own sources, plus a standalone
#                  -fsyntax-only compile of each tool header (the tool is
#                  not covered by the src/ header-hygiene object library)
#   build          default (RelWithDebInfo) build + full ctest suite; it
#                  pins the virtual-time anchors, exact host counts and
#                  zero steady-state allocations (tests/test_host_counts)
#   perfbench      perfbench/run.py --ablation at seed 42; fails if any
#                  workload's pinned virtual results move in the default
#                  mode or either reference mode (network_fastpath=false,
#                  local_clock=false); wall-time columns are printed only
#                  (table left in build-rwdi/perfbench_ablation.md)
#   asan           -fsanitize=address build + full suite
#   ubsan          -fsanitize=undefined (no recovery) build + full suite
#   tsan           ThreadSanitizer build + the `driver` label tests (the
#                  race check for driver::SweepRunner's worker threads)
#   clang-tidy     .clang-tidy over src/ and tools/ (skipped when
#                  clang-tidy is not installed)
#
# The toolchain-gated stage (clang-tidy) *skips with a notice* rather than
# fails so the gate is runnable on a gcc-only box; CI images with
# clang-tidy get full coverage.
# Any stage that runs and fails aborts the script with a nonzero exit.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"
SKIP=" ${SPAM_CHECK_SKIP:-} "

note() { printf '\n==> %s\n' "$*"; }

skipped() {
  case "$SKIP" in *" $1 "*) return 0 ;; *) return 1 ;; esac
}

run_preset_suite() {  # <preset> [ctest-preset]
  local preset="$1" test_preset="${2:-$1}"
  cmake --preset "$preset" >/dev/null
  cmake --build --preset "$preset" -j "$JOBS"
  ctest --preset "$test_preset" -j "$JOBS"
}

if ! skipped lint; then
  note "spam_lint (per-file rules + call graph)"
  cmake --preset relwithdebinfo >/dev/null
  cmake --build --preset relwithdebinfo -j "$JOBS" --target spam_lint
  LINT=./build-rwdi/tools/spam_lint/spam_lint
  LINT_OUT=build-rwdi/lint
  mkdir -p "$LINT_OUT"
  # Machine-readable artifacts first (|| true: they must exist for CI
  # upload even when the gating run below fails).
  "$LINT" --root . --format=sarif src bench tools \
    > "$LINT_OUT/spam_lint.sarif" 2>/dev/null || true
  "$LINT" --root . --format=json src bench tools \
    > "$LINT_OUT/spam_lint.json" 2>/dev/null || true
  # The gating run: violations and stale allowlist entries both fail, and
  # the whole-tree walk (lex + rules + call graph) must stay under the 2 s
  # latency budget that keeps the lint viable as a pre-commit hook.
  start_ms=$(date +%s%3N)
  "$LINT" --root . --stale=error src bench tools
  lint_ms=$(( $(date +%s%3N) - start_ms ))
  if [ "$lint_ms" -ge 2000 ]; then
    echo "lint gate: full-tree spam_lint took ${lint_ms} ms (budget 2000 ms)"
    exit 1
  fi
  echo "spam_lint: full tree in ${lint_ms} ms (budget 2000 ms)"
fi

if ! skipped lint-self; then
  note "spam_lint self-lint + tool header hygiene"
  # The linter holds itself to its own rules (hdr-* apply to every header;
  # the analyzer passes run over its sources like any others)...
  # (--no-default-allowlist: the audited exceptions are all src/-side, and
  # a subtree run would report every one of them stale)
  ./build-rwdi/tools/spam_lint/spam_lint --root . --no-default-allowlist \
    tools/spam_lint
  # ...and each tool header must compile standalone — the src/ hygiene
  # object library in tests/ does not cover tools/.
  for hdr in tools/spam_lint/*.hpp; do
    tu="$(mktemp --suffix=.cpp)"
    printf '#include "%s"\n#include "%s"\n' "$PWD/$hdr" "$PWD/$hdr" > "$tu"
    c++ -std=c++20 -fsyntax-only -I tools/spam_lint "$tu" ||
      { echo "lint-self: $hdr is not self-contained"; rm -f "$tu"; exit 1; }
    rm -f "$tu"
  done
fi

if ! skipped build; then
  note "default build + full test suite"
  run_preset_suite relwithdebinfo
fi

if ! skipped perfbench; then
  note "perfbench --ablation (golden virtual results in all three modes)"
  mkdir -p build-rwdi
  ABLATION=build-rwdi/perfbench_ablation.md
  python3 perfbench/run.py --ablation --seed 42 --seconds 1 | tee "$ABLATION"
  # Rows: | workload | mode | p1 | p50 | exec/pkt | switches/pkt |
  # elided/pkt | failed |.  Only the last column is judged: it counts the
  # repetitions whose virtual results missed their seed-42 golden pins.
  row='^[|] [a-z_]+ [|] (default|[a-z_]+=false) [|]'
  rows=$(grep -Ec "$row" "$ABLATION" || true)
  bad=$(awk -F'|' -v row="$row" \
    '$0 ~ row { line = $0; gsub(/ /, "", $9); if ($9 != "0") print line }' \
    "$ABLATION")
  if [ "$rows" -eq 0 ] || [ -n "$bad" ]; then
    echo "perfbench gate: ${rows} rows; failed checks in:"
    echo "$bad"
    exit 1
  fi
fi

if ! skipped asan; then
  note "AddressSanitizer build + full test suite"
  run_preset_suite asan
fi

if ! skipped ubsan; then
  note "UndefinedBehaviorSanitizer build + full test suite"
  run_preset_suite ubsan
fi

if ! skipped tsan; then
  note "ThreadSanitizer build + driver tests"
  run_preset_suite tsan tsan-driver
fi

if ! skipped clang-tidy; then
  if command -v clang-tidy >/dev/null 2>&1; then
    note "clang-tidy over src/ and tools/"
    cmake --preset relwithdebinfo -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
      >/dev/null
    find src tools -name '*.cpp' -print0 |
      xargs -0 -n 8 -P "$JOBS" clang-tidy -p build-rwdi --quiet
  else
    note "clang-tidy: not installed, skipping"
  fi
fi

note "all checks passed"
