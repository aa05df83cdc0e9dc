// Ablation: the hybrid protocol's eager-prefix size (paper uses 4 KB).
// Measures MPI bandwidth around the protocol-switch region for several
// prefix sizes, including 0 (pure rendez-vous).
#include <cstdio>
#include <iterator>

#include "harness.hpp"
#include "micro.hpp"

namespace {

using spam::mpi::MpiAmConfig;
using spam::mpi::MpiImpl;
using spam::mpi::MpiWorldConfig;

MpiWorldConfig cfg_with_prefix(std::size_t prefix) {
  MpiWorldConfig cfg;
  cfg.impl = MpiImpl::kAmOptimized;
  cfg.am_cfg = MpiAmConfig::opt();
  cfg.am_cfg.eager_max = 0;  // force the large-message path everywhere
  cfg.am_cfg.hybrid = prefix > 0;
  if (prefix > 0) cfg.am_cfg.hybrid_prefix = prefix;
  return cfg;
}

const std::size_t kPrefixes[] = {0, 1024, 2048, 4096, 7168};
const std::size_t kSizes[] = {4096, 8192, 12288, 16384, 24576, 32768, 65536};

}  // namespace

int main(int argc, char** argv) {
  spam::bench::harness_init(argc, argv);

  // Points: (size, prefix), size-major, in table order.
  std::vector<std::function<double()>> points;
  for (std::size_t s : kSizes) {
    for (std::size_t p : kPrefixes) {
      points.push_back([p, s] {
        return spam::bench::mpi_bandwidth_mbps(cfg_with_prefix(p), s);
      });
    }
  }
  const std::vector<double> mbps = spam::bench::sweep(points);

  spam::report::Table tab(
      "Hybrid-prefix ablation — MPI bandwidth (MB/s) by prefix size");
  std::vector<std::string> hdr{"bytes"};
  for (std::size_t p : kPrefixes) {
    hdr.push_back(p == 0 ? "pure rdv" : std::to_string(p) + "B prefix");
  }
  tab.set_header(hdr);
  std::size_t k = 0;
  for (std::size_t s : kSizes) {
    std::vector<std::string> row{std::to_string(s)};
    for (std::size_t p = 0; p < std::size(kPrefixes); ++p) {
      row.push_back(spam::report::fmt(mbps[k++]));
    }
    tab.add_row(row);
  }
  spam::bench::emit(tab);
  std::printf(
      "\nDesign-choice reading: the prefix keeps the pipe full during the "
      "rendez-vous\nhandshake; gains should saturate near the paper's 4 KB "
      "choice.\n");
  return spam::bench::harness_finish();
}
