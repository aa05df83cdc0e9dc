// Self-tests of the benchmark's own arithmetic, run before every benchmark
// run by perfbench/run.py (perfbench --self-test).  No simulation runs
// here; each rule is checked on hand-made inputs.
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "self-test FAILED: %s\n", what);
    ++g_failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-9 * (1 + std::fabs(b)); }

std::vector<double> one_to(int n) {
  std::vector<double> xs;
  for (int i = n; i >= 1; --i) xs.push_back(i);  // unsorted on purpose
  return xs;
}

void test_percentiles() {
  expect(percentile(one_to(100), 50) == 50, "p50 of 1..100 is 50");
  expect(percentile(one_to(100), 99) == 99, "p99 of 1..100 is 99");
  expect(percentile(one_to(100), 100) == 100, "p100 is the maximum");
  expect(median({3, 1, 2}) == 2, "median of three");
  expect(median({4, 1, 3, 2}) == 2, "median is nearest-rank, a sample");
  expect(median({}) == 0, "median of nothing is 0");

  const Tail t = tail(one_to(100));
  expect(t.valid && t.value == 90, "tail of 1..100 leaves 91..100 beyond");
  expect(near(t.percentile, 90), "tail of 100 samples is p90");
  expect(t.samples == 100, "tail reports its sample count");
  const Tail t1000 = tail(one_to(1000));
  expect(t1000.value == 990 && near(t1000.percentile, 99), "tail of 1000 is p99");
  const Tail t11 = tail(one_to(11));
  expect(t11.valid && t11.value == 1, "11 samples: the minimum has 10 beyond");
  expect(!tail(one_to(10)).valid, "10 samples have no tail");
  // Ties: "beyond" counts samples ranked above, so the rule still holds.
  const Tail tie = tail(std::vector<double>(30, 7.0));
  expect(tie.valid && tie.value == 7.0, "tail of equal samples");
}

void test_span_classification() {
  expect(classify({100, 5, 5, 0}) == SpanClass::kSelf, "no switch: self time");
  expect(classify({100, 5, 6, 0}) == SpanClass::kWaiting, "a switch: waiting");
  const SpanSummary s = summarize({
      {100, 1, 1, 30},   // self, 70 ns after its child
      {50, 2, 2, 0},     // self
      {1000, 3, 5, 0},   // blocked while other nodes ran
  });
  expect(s.calls == 3 && s.self_calls == 2, "waiting span not self time");
  expect(s.self_ns_p50 == 50, "self p50 over self spans only, minus children");
  expect(near(s.switches_per_call, 2.0 / 3), "switches per call counts all");
  expect(s.total_ns == 1150, "total covers every span");
  expect(summarize({{10, 4, 9, 0}}).self_calls == 0, "all-waiting spans");

  // Nesting on one node: the inner span's time is the outer span's child.
  Tracer tr(2);
  tr.begin(0);
  tr.begin(1);  // another node's span does not nest under node 0's
  tr.end(1, SpanKind::kSend);
  tr.begin(0);
  tr.end(0, SpanKind::kSend);
  tr.end(0, SpanKind::kHandler);
  const SpanSummary h = tr.summary(SpanKind::kHandler);
  const SpanSummary snd = tr.summary(SpanKind::kSend);
  expect(h.calls == 1 && snd.calls == 2, "tracer counts calls per kind");
  expect(h.self_calls == 1 && h.self_ns_p50 >= 0 &&
             h.self_ns_p50 <= h.total_ns,
         "nested span subtracted from its parent only");
}

void test_per_packet() {
  expect(per_packet(1000, 4) == 250, "ns per packet");
  expect(per_packet(1000, 0) == 0, "a sample without packets costs 0");
  Sample s;
  s.wall_ns = 5000;
  s.delta[kTxPkts] = 10;
  s.delta[kRxPkts] = 1000;  // only adapter tx packets are the denominator
  expect(s.pkt_wall_ns() == 500, "sample normalized by tx packets");
  Counters c{};
  c[kTxPkts] = 4;
  c[kExecuted] = 54;
  c[kResumes] = 50;
  c[kElided] = 8;
  const std::vector<Metric> m = sim_counts(c);
  expect(m.size() == 3 && m[0].value == 13.5 && m[1].value == 12.5 &&
             m[2].value == 2,
         "sim counts per packet; elided kept apart from executed");
}

void test_metric_names() {
  expect(valid_metric_name("sim.exec_events_per_pkt"), "dotted name");
  expect(valid_metric_name("a-b_c.9"), "all allowed characters");
  expect(!valid_metric_name(""), "empty name");
  expect(!valid_metric_name(".x"), "must start with a letter or digit");
  expect(!valid_metric_name("a b"), "no spaces");
  expect(!valid_metric_name("a/b"), "no slashes");
  expect(!valid_metric_name(std::string(65, 'a')), "at most 64 characters");
  expect(!valid_metric_name("caf\xc3\xa9"), "ASCII only");

  // Every name the benchmark emits, from a synthetic traced run.
  RunResult r;
  r.tracer = std::make_unique<Tracer>(1);
  Sample s;
  s.wall_ns = 1e6;
  s.delta[kTxPkts] = 100;
  r.untraced.samples.assign(20, s);
  r.untraced.total[kTxPkts] = 2000;
  r.untraced.wall_ns = 2e7;
  r.traced = r.untraced;
  r.setups.push_back(SetupTimes{1e9, 2e9, 3e9, 4e9});
  r.setups.push_back(SetupTimes{4e9, 1e9, 2e9, 0.5e9});
  r.setups.push_back(SetupTimes{5e9, 5e9, 5e9, 5e9});
  std::vector<Metric> all = end_to_end(r);
  const std::vector<Metric> extra = reported(r);
  const std::vector<Metric> layer = per_layer(r);
  expect(all.size() == 3 && extra.size() == 4 && layer.size() == 32,
         "metric counts");
  all.insert(all.end(), extra.begin(), extra.end());
  all.insert(all.end(), layer.begin(), layer.end());
  std::set<std::string> seen;
  for (const Metric& m : all) {
    expect(valid_metric_name(m.name), "emitted metric name is valid");
    expect(seen.insert(m.name).second, "emitted metric names are unique");
    expect(std::isfinite(m.value), "emitted metric value is finite");
  }
  expect(all[0].value == 10000, "pkt_wall_ns_p1 = ns per packet");
  expect(near(all[1].value, 7.5), "setup_s = the fastest round's set-up");
  auto layer_value = [&](const char* name) {
    for (const Metric& m : layer) {
      if (m.name == name) return m.value;
    }
    return -1.0;
  };
  expect(layer_value("setup.world_ns") == 4e9 &&
             layer_value("setup.warmup_ns") == 0.5e9,
         "setup.* are the phases of the fastest round");
  expect(layer_value("am.send_self_frac") == 0 &&
             layer_value("am.send_ns_p50") == 0,
         "no send span: no self time, and a self fraction of 0 says so");
  expect(extra[0].value == 100000, "sim_pkts_per_s = packets / wall seconds");
  expect(extra[1].value == 10000, "pkt_wall_ns_p50 = median ns per packet");
}

void test_golden_negative() {
  for (const char* w : kWorkloads) {
    const GoldenTable& g = golden_for(w);
    expect(g.size() > 0, "every workload has pinned values");
    if (g.size() == 0) continue;
    // The pinned rows, replayed as observations, all pass...
    auto failed = [&](const GoldenTable& table) {
      std::uint64_t n = 0;
      for (std::size_t i = 0; i < g.size(); ++i) {
        Fingerprint fp;
        for (std::size_t k = 0; k < g.width; ++k) fp.add(g.rows[i * g.width + k]);
        if (!matches_golden(table, i, fp)) ++n;
      }
      return n;
    };
    expect(failed(g) == 0, "golden rows match themselves");
    // ...and a perturbed copy of the table fails exactly the changed index.
    GoldenTable bad = g;
    bad.rows[bad.rows.size() / 2] ^= 1;
    expect(failed(bad) == 1, "perturbed golden value fails one sample");
    expect(failed_frac(failed(bad), g.size()) > 0, "perturbation raises failed_frac");
  }
  const GoldenTable t{1, {10, 20}};
  Fingerprint f20;
  f20.add(20);
  expect(matches_golden(t, 1, f20), "pinned index");
  expect(!matches_golden(t, 0, f20), "another index's value fails");
  expect(matches_golden(t, 7, f20), "unpinned index past the table");
  Fingerprint wide = f20;
  wide.add(20);
  expect(!matches_golden(t, 1, wide), "a fingerprint of the wrong width fails");
  expect(failed_frac(0, 0) == 0 && failed_frac(1, 4) == 0.25, "failed_frac");
}

}  // namespace

int run_self_tests() {
  test_percentiles();
  test_span_classification();
  test_per_packet();
  test_metric_names();
  test_golden_negative();
  return g_failures;
}

}  // namespace perfbench
