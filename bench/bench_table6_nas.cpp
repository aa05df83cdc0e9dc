// Reproduces paper Table 6: NAS benchmark run-times on 16 thin SP nodes,
// MPI-F vs MPICH-over-AM.  Problem sizes are reduced from class A (the
// simulation runs every byte of communication); the reproduction target is
// the *ratio* between the two MPI implementations per kernel and the FT
// gap caused by MPICH's naive alltoall.
#include <cstdio>
#include <functional>

#include "apps/nas.hpp"
#include "harness.hpp"
#include "micro.hpp"

namespace {

using spam::apps::NasResult;
using spam::mpi::MpiImpl;
using spam::mpi::MpiWorldConfig;

constexpr int kNodes = 16;

MpiWorldConfig cfg_of(MpiImpl impl) {
  MpiWorldConfig cfg;
  cfg.impl = impl;
  cfg.nodes = kNodes;
  if (impl == MpiImpl::kMpiF) cfg.f_cfg = spam::mpif::MpiFConfig::thin();
  return cfg;
}

struct Kernel {
  const char* name;
  double paper_mpif_s;
  double paper_mpiam_s;
  std::function<NasResult(spam::mpi::MpiWorld&)> run;
};

std::vector<Kernel> kernels() {
  return {
      {"BT", 39.0, 39.16,
       [](spam::mpi::MpiWorld& w) { return spam::apps::run_bt(w, 48, 4); }},
      {"FT", 31.87, 35.49,
       [](spam::mpi::MpiWorld& w) { return spam::apps::run_ft(w, 64, 4); }},
      {"LU", 16.6, 20.9,
       [](spam::mpi::MpiWorld& w) { return spam::apps::run_lu(w, 256, 4); }},
      {"MG", 7.9, 8.19,
       [](spam::mpi::MpiWorld& w) { return spam::apps::run_mg(w, 64, 4); }},
      {"SP", 40.37, 49.08,
       [](spam::mpi::MpiWorld& w) { return spam::apps::run_sp(w, 48, 4); }},
  };
}

}  // namespace

int main(int argc, char** argv) {
  spam::bench::harness_init(argc, argv);

  const auto ks = kernels();
  // (kernel x impl) results, filled by the parallel sweep.
  std::vector<NasResult> am_res(ks.size()), f_res(ks.size());

  spam::driver::SweepRunner(spam::bench::options().jobs)
      .run_indexed(ks.size() * 2, [&](std::size_t j) {
        const std::size_t i = j / 2;
        if (j % 2 == 0) {
          spam::mpi::MpiWorld w(cfg_of(MpiImpl::kMpiF));
          f_res[i] = ks[i].run(w);
        } else {
          spam::mpi::MpiWorld w(cfg_of(MpiImpl::kAmOptimized));
          am_res[i] = ks[i].run(w);
        }
      });

  spam::report::Table tab(
      "Table 6 — NAS kernels on 16 thin nodes (reduced size)");
  tab.set_header({"kernel", "paper MPI-F (s)", "paper MPI-AM (s)",
                  "paper ratio", "measured MPI-F (s)", "measured MPI-AM (s)",
                  "measured ratio", "checksums match"});
  for (std::size_t i = 0; i < ks.size(); ++i) {
    tab.add_row({ks[i].name, spam::report::fmt(ks[i].paper_mpif_s, 2),
                 spam::report::fmt(ks[i].paper_mpiam_s, 2),
                 spam::report::fmt(ks[i].paper_mpiam_s / ks[i].paper_mpif_s, 2),
                 spam::report::fmt(f_res[i].time_s, 3),
                 spam::report::fmt(am_res[i].time_s, 3),
                 spam::report::fmt(am_res[i].time_s / f_res[i].time_s, 2),
                 am_res[i].checksum == f_res[i].checksum ? "yes" : "NO"});
  }
  spam::bench::emit(tab);

  std::printf(
      "\nShape checks (paper): MPI-AM within a few %% of MPI-F on BT/MG, "
      "~10%% slower on FT\n(MPICH generic alltoall hot spot) and slower on "
      "LU/SP (MPICH nonblocking path).\nAbsolute seconds differ: kernels "
      "are reduced from class A.\n");
  return spam::bench::harness_finish();
}
