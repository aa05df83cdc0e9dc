// Reproduces paper Table 2: cost of am_request_N / am_reply_N calls,
// plus the poll costs quoted in section 2.5.
#include "harness.hpp"
#include "micro.hpp"

int main(int argc, char** argv) {
  spam::bench::harness_init(argc, argv);

  // Points: request_N and reply_N for N = 1..4, then the two poll costs.
  std::vector<std::function<double()>> points;
  for (int n = 1; n <= 4; ++n) {
    points.push_back([n] { return spam::bench::am_request_cost_us(n); });
    points.push_back([n] { return spam::bench::am_reply_cost_us(n); });
  }
  points.push_back([] { return spam::bench::am_poll_empty_us(); });
  points.push_back([] { return spam::bench::am_poll_one_msg_us(); });
  const std::vector<double> us = spam::bench::sweep(points);
  const double poll_empty = us[8];
  const double poll_one_msg = us[9];

  spam::report::PaperComparison cmp(
      "Table 2 — cost of am_request_N / am_reply_N (thin nodes)");
  const double paper_req[] = {7.7, 7.9, 8.0, 8.2};
  const double paper_rep[] = {4.0, 4.1, 4.3, 4.4};
  for (int n = 1; n <= 4; ++n) {
    cmp.add("am_request_" + std::to_string(n),
            spam::report::fmt_us(paper_req[n - 1]),
            spam::report::fmt_us(us[2 * (n - 1)]), "includes one empty poll");
    cmp.add("am_reply_" + std::to_string(n),
            spam::report::fmt_us(paper_rep[n - 1]),
            spam::report::fmt_us(us[2 * (n - 1) + 1]));
  }
  cmp.add("am_poll (empty network)", spam::report::fmt_us(1.3),
          spam::report::fmt_us(poll_empty));
  cmp.add("per received message", spam::report::fmt_us(1.8),
          spam::report::fmt_us(poll_one_msg - poll_empty));
  spam::bench::emit(cmp);
  return spam::bench::harness_finish();
}
