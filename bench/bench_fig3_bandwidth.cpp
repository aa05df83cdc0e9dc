// Reproduces paper Figure 3: one-way bandwidth of blocking and non-blocking
// bulk transfers, 16 B .. 1 MB — six curves: sync store, sync get, MPL
// send/reply (blocking), pipelined async store, pipelined async get,
// pipelined MPL send.
#include <cstdio>

#include "harness.hpp"
#include "micro.hpp"

int main(int argc, char** argv) {
  spam::bench::harness_init(argc, argv);

  const auto sizes = spam::bench::figure3_sizes();
  spam::bench::emit(spam::bench::fig3_table(
      sizes, spam::bench::fig3_sweep(sizes, spam::bench::options().jobs)));

  std::printf(
      "\nShape checks (paper): async >= sync below one chunk and equal "
      "above 8064 B;\nsync get trails sync store at small sizes; all curves "
      "converge to ~34-35 MB/s.\n");
  return spam::bench::harness_finish();
}
