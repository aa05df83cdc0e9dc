// Reproduces paper Table 5 (absolute Split-C benchmark times, 8 processors)
// and Figure 4 (times split into cpu and network phases, normalized to the
// SP AM column): blocked matrix multiply in two blockings, sample sort and
// radix sort in small-message and bulk variants, across five machines:
// SP AM, SP MPL, CM-5, Meiko CS-2, U-Net/ATM.
//
// Sort sizes are scaled to 64K keys (the scan of the paper garbles its key
// counts); shapes, not absolute seconds, are the reproduction target.
#include <cstdio>
#include <functional>

#include "apps/splitc_apps.hpp"
#include "harness.hpp"
#include "micro.hpp"

namespace {

using spam::apps::PhaseTimes;
using spam::apps::SortVariant;
using spam::splitc::Backend;
using spam::splitc::SplitCConfig;
using spam::splitc::SplitCWorld;

constexpr int kProcs = 8;
constexpr std::size_t kKeys = 64 * 1024;

struct MachineCfg {
  std::string name;
  SplitCConfig cfg;
};

std::vector<MachineCfg> machines() {
  std::vector<MachineCfg> v;
  SplitCConfig am;
  am.nodes = kProcs;
  am.backend = Backend::kSpAm;
  v.push_back({"SP AM", am});
  SplitCConfig mpl = am;
  mpl.backend = Backend::kSpMpl;
  v.push_back({"SP MPL", mpl});
  for (auto lp : {spam::logp::LogGpParams::cm5(),
                  spam::logp::LogGpParams::meiko_cs2(),
                  spam::logp::LogGpParams::unet_atm()}) {
    SplitCConfig c = am;
    c.backend = Backend::kLogGp;
    c.loggp = lp;
    v.push_back({lp.name, c});
  }
  return v;
}

struct BenchDef {
  const char* name;
  std::function<PhaseTimes(SplitCWorld&)> run;
};

std::vector<BenchDef> bench_defs() {
  return {
      {"mm 4x4 blocks of 128x128",
       [](SplitCWorld& w) { return spam::apps::run_matmul(w, 4, 128); }},
      {"mm 16x16 blocks of 16x16",
       [](SplitCWorld& w) { return spam::apps::run_matmul(w, 16, 16); }},
      {"smpsort small-msg 64K",
       [](SplitCWorld& w) {
         return spam::apps::run_sample_sort(w, kKeys,
                                            SortVariant::kSmallMessage);
       }},
      {"smpsort bulk 64K",
       [](SplitCWorld& w) {
         return spam::apps::run_sample_sort(w, kKeys, SortVariant::kBulk);
       }},
      {"rdxsort small-msg 64K",
       [](SplitCWorld& w) {
         return spam::apps::run_radix_sort(w, kKeys,
                                           SortVariant::kSmallMessage);
       }},
      {"rdxsort bulk 64K",
       [](SplitCWorld& w) {
         return spam::apps::run_radix_sort(w, kKeys, SortVariant::kBulk);
       }},
  };
}

}  // namespace

int main(int argc, char** argv) {
  spam::bench::harness_init(argc, argv);

  const auto mach = machines();
  const auto defs = bench_defs();
  // results[bench][machine], filled by the parallel sweep below.
  std::vector<std::vector<PhaseTimes>> results(
      defs.size(), std::vector<PhaseTimes>(mach.size()));

  spam::driver::SweepRunner(spam::bench::options().jobs)
      .run_indexed(defs.size() * mach.size(), [&](std::size_t i) {
        const std::size_t b = i / mach.size();
        const std::size_t m = i % mach.size();
        SplitCWorld w(mach[m].cfg);
        results[b][m] = defs[b].run(w);
      });

  spam::report::Table tab(
      "Table 5 — Split-C benchmark times on 8 processors (seconds)");
  {
    std::vector<std::string> hdr{"benchmark"};
    for (const auto& m : mach) hdr.push_back(m.name);
    tab.set_header(hdr);
  }
  for (std::size_t b = 0; b < defs.size(); ++b) {
    std::vector<std::string> row{defs[b].name};
    for (std::size_t m = 0; m < mach.size(); ++m) {
      row.push_back(spam::report::fmt(results[b][m].total_s, 3) +
                    (results[b][m].valid ? "" : " (INVALID)"));
    }
    tab.add_row(row);
  }
  spam::bench::emit(tab);

  spam::report::Table fig(
      "Figure 4 — cpu / net split, normalized to the SP AM total");
  {
    std::vector<std::string> hdr{"benchmark"};
    for (const auto& m : mach) hdr.push_back(m.name);
    fig.set_header(hdr);
  }
  for (std::size_t b = 0; b < defs.size(); ++b) {
    std::vector<std::string> row{defs[b].name};
    const double base = results[b][0].total_s;
    for (std::size_t m = 0; m < mach.size(); ++m) {
      row.push_back("cpu " + spam::report::fmt(results[b][m].cpu_s / base, 2) +
                    " net " +
                    spam::report::fmt(results[b][m].comm_s / base, 2));
    }
    fig.add_row(row);
  }
  spam::bench::emit(fig);

  std::printf(
      "\nShape checks (paper): MPL >> AM on small-message sorts; MPL ~= AM "
      "on bulk runs;\nSP cpu phases shortest of all machines; SP AM net "
      "phase competitive with CM-5/CS-2\ndespite higher latency.\n");
  return spam::bench::harness_finish();
}
