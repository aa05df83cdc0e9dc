// Fixture: transitive hot-path rules.  None of the flagged functions is
// SPAM_HOT itself — each is *reachable* from a SPAM_HOT root through the
// call graph, one or two call levels deep.  A per-body scan sees nothing
// here, so every finding carries the `[on the hot path: ...]` chain;
// tests/test_spam_lint.cpp asserts that.
//
// This file is linted, never compiled.
#include <vector>

#define SPAM_HOT [[gnu::hot]]

namespace fixture {

// One level below a hot root.
inline int* tvh_level1_alloc() {
  return new int(1);  // EXPECT: hot-alloc
}

// Two levels below a hot root.
inline void tvh_level2_inner(std::vector<int>& v) {
  v.push_back(7);  // EXPECT: hot-growth
}

inline void tvh_level2_outer(std::vector<int>& v) { tvh_level2_inner(v); }

SPAM_HOT inline int* tvh_hot_root_one() { return tvh_level1_alloc(); }

SPAM_HOT inline void tvh_hot_root_two(std::vector<int>& v) {
  tvh_level2_outer(v);
}

// Definition-line suppression: the marker on the *definition* covers the
// whole hot-reachable body, unlike the per-line markers above.
// spam-lint: allow(hot-alloc) fixture: pooled at startup
inline int* tvh_audited_def() { return new int(2); }

SPAM_HOT inline int* tvh_hot_root_three() { return tvh_audited_def(); }

// Not reachable from any SPAM_HOT root: allocation is fine here.
inline int* tvh_cold_helper() { return new int(3); }

}  // namespace fixture
