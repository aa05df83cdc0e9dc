// The repo benchmark: host cost per simulated packet, end to end and per
// layer.  See perfbench/README.md for the workloads and metric table.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --ablation [--workload <name>] [--seed <n>] [--seconds <s>]
//   perfbench --dump-golden --workload <name> [--seconds <s>]
//   perfbench --self-test
//
// The last stdout line of a measuring run is one JSON object with the keys
// correct, attempted, failed and metrics; lines before it start with '#'.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
int run_self_tests();
}

namespace {

using namespace perfbench;

void print_result(const RunResult& r, const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += r.failed == 0 ? "true" : "false";
  char buf[256];
  std::snprintf(buf, sizeof buf, ", \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"metrics\": {", r.attempted, r.failed);
  json += buf;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit);
    json += buf;
  }
  json += "}}";
  std::puts(json.c_str());
}

void print_header(const Options& o, const RunResult& r) {
  const Tail t = tail(pkt_wall_ns(r.untraced));
  std::printf("# workload=%s seed=%" PRIu64 " seconds=%g trace=%d golden=%s\n",
              o.workload.c_str(), o.seed, o.seconds, o.trace ? 1 : 0,
              o.seed == kDefaultSeed ? "pinned" : "intrinsic-only");
  std::printf("# rounds=%zu samples=%zu traced_samples=%zu attempted=%" PRIu64
              " failed=%" PRIu64 "\n",
              r.setups.size(), r.untraced.samples.size(),
              r.traced.samples.size(), r.attempted, r.failed);
  std::vector<double> setup;
  for (const SetupTimes& st : r.setups) setup.push_back(st.total_s());
  std::printf("# setup_s is the fastest of %zu rounds; median %.6g s, "
              "slowest %.6g s\n",
              setup.size(), median(setup), percentile(setup, 100));
  std::printf("# pkt_wall_ns_tail is p%.2f of %zu samples (%s)\n", t.percentile,
              t.samples, t.valid ? "10 beyond" : "too few samples");
}

int run_ablation(Options o) {
  std::vector<std::string> workloads;
  if (o.workload.empty()) {
    for (const char* w : kWorkloads) workloads.emplace_back(w);
  } else {
    workloads.push_back(o.workload);
  }
  std::printf("| workload | mode | pkt_wall_ns_p1 | pkt_wall_ns_p50 | "
              "exec_events/pkt | switches/pkt | elided/pkt | failed |\n");
  std::printf("|---|---|---:|---:|---:|---:|---:|---:|\n");
  for (const std::string& w : workloads) {
    struct Mode {
      const char* name;
      bool fastpath, localclock;
    };
    for (const Mode& mode : {Mode{"default", true, true},
                             Mode{"network_fastpath=false", false, true},
                             Mode{"local_clock=false", true, false}}) {
      o.workload = w;
      o.fastpath = mode.fastpath;
      o.localclock = mode.localclock;
      const RunResult r = run_workload(o);
      const std::vector<double> ns = pkt_wall_ns(r.untraced);
      const std::vector<Metric> c = sim_counts(r.untraced.total);
      std::printf("| %s | %s | %.1f | %.1f | %.3f | %.3f | %.3f | %" PRIu64
                  " |\n",
                  w.c_str(), mode.name, percentile(ns, 1), median(ns),
                  c[0].value, c[1].value, c[2].value, r.failed);
      std::fflush(stdout);
    }
  }
  return 0;
}

int dump_golden(const Options& o) {
  const RunResult r = run_workload(o);
  std::printf("// %s, seed %" PRIu64 ": %zu repetitions of one world\n",
              o.workload.c_str(), o.seed, r.fingerprints.size());
  for (const Fingerprint& fp : r.fingerprints) {
    std::printf("   ");
    for (std::size_t i = 0; i < fp.n; ++i) {
      std::printf(" 0x%016" PRIx64 "ULL,", fp.v[i]);
    }
    std::printf("\n");
  }
  return 0;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\n"
               "       %s --ablation [--workload <name>] [--seed <n>] "
               "[--seconds <s>]\n"
               "       %s --dump-golden --workload <name> [--seconds <s>]\n"
               "       %s --self-test\n",
               argv0, argv0, argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  o.workload.clear();
  bool ablation = false, self_test = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return usage(argv[0]);
      o.trace = v == "1";
      have_trace = true;
    } else if (a == "--ablation") {
      ablation = true;
    } else if (a == "--dump-golden") {
      o.dump_golden = true;
    } else if (a == "--self-test") {
      self_test = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (self_test) return run_self_tests() == 0 ? 0 : 1;
  if (!o.workload.empty() && !known_workload(o.workload)) {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  if (!(o.seconds > 0 && o.seconds <= 120)) return usage(argv[0]);
  if (ablation) return run_ablation(o);
  if (o.workload.empty()) return usage(argv[0]);
  if (o.dump_golden) return dump_golden(o);
  if (!have_trace) return usage(argv[0]);

  const RunResult r = run_workload(o);
  print_header(o, r);
  if (o.trace) {
    for (auto [name, kind] : {std::pair{"send", SpanKind::kSend},
                              std::pair{"poll", SpanKind::kPoll},
                              std::pair{"handler", SpanKind::kHandler}}) {
      const SpanSummary s = r.tracer->summary(kind);
      std::printf("# am %s spans: %" PRIu64 " calls, %" PRIu64
                  " without a fiber switch (self time)\n",
                  name, s.calls, s.self_calls);
    }
  }
  const std::vector<Metric> metrics = o.trace ? per_layer(r) : end_to_end(r);
  std::vector<Metric> printed = metrics;
  if (!o.trace) {
    const std::vector<Metric> extra = reported(r);
    printed.insert(printed.end(), extra.begin(), extra.end());
  }
  for (const Metric& m : printed) {
    if (!valid_metric_name(m.name)) {
      std::fprintf(stderr, "invalid metric name '%s'\n", m.name.c_str());
      return 1;
    }
    std::printf("# %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  print_result(r, metrics);
  return 0;
}
