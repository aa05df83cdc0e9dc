#include "splitc/runtime.hpp"

#include <bit>

namespace spam::splitc {

namespace {

int ceil_log2(int n) {
  int r = 0;
  while ((1 << r) < n) ++r;
  return r;
}

}  // namespace

Runtime::Runtime(sim::NodeCtx& ctx, Transport& transport, SplitCNet& net,
                 CpuCost cost)
    : ctx_(ctx), transport_(transport), net_(net), cost_(cost) {
  const int rounds = std::max(1, ceil_log2(transport.size()));
  barrier_flags_.assign(static_cast<std::size_t>(rounds), 0);
  redux_vals_.assign(static_cast<std::size_t>(transport.size()) + 1, 0);
  redux_gens_.assign(static_cast<std::size_t>(transport.size()) + 1, 0);
}

void Runtime::sync() {
  CommScope cs(*this);
  // Interaction point: outstanding() and the flags below may be advanced
  // by engine events (LogGP backend), so materialize charge debt before
  // the first read.
  ctx_.settle();
  while (transport_.outstanding() > 0) transport_.wait_poll();
}

void Runtime::barrier() {
  const int p = procs();
  if (p == 1) return;
  CommScope cs(*this);
  ctx_.settle();
  const std::uint64_t gen = ++barrier_gen_;
  const int rounds = ceil_log2(p);
  const int me = my_proc();
  for (int r = 0; r < rounds; ++r) {
    const int to = (me + (1 << r)) % p;
    Runtime& peer = *net_.runtimes_[static_cast<std::size_t>(to)];
    transport_.put_small(to, &peer.barrier_flags_[static_cast<std::size_t>(r)],
                         gen, 8);
    while (barrier_flags_[static_cast<std::size_t>(r)] < gen) {
      transport_.wait_poll();
    }
  }
}

std::uint64_t Runtime::bcast(std::uint64_t value, int root) {
  const int p = procs();
  if (p == 1) return value;
  CommScope cs(*this);
  ctx_.settle();
  const std::uint64_t gen = ++redux_gen_;
  const auto slot = static_cast<std::size_t>(p);  // result slot
  if (my_proc() == root) {
    for (int i = 0; i < p; ++i) {
      if (i == root) {
        redux_vals_[slot] = value;
        redux_gens_[slot] = gen;
        continue;
      }
      Runtime& peer = *net_.runtimes_[static_cast<std::size_t>(i)];
      transport_.put_small(i, &peer.redux_vals_[slot], value, 8);
      transport_.put_small(i, &peer.redux_gens_[slot], gen, 8);
    }
  }
  while (redux_gens_[slot] < gen) transport_.wait_poll();
  const std::uint64_t result = redux_vals_[slot];
  // The closing barrier keeps a fast peer's *next* collective from
  // overwriting the slots before everyone has read this round's result.
  barrier();
  return result;
}

namespace {
template <typename Combine>
std::uint64_t reduce_impl(Runtime& rt, SplitCNet& net, Transport& transport,
                          std::vector<std::uint64_t>& vals,
                          std::vector<std::uint64_t>& gens,
                          std::uint64_t& gen_counter, std::uint64_t bits,
                          Combine combine) {
  const int p = transport.size();
  if (p == 1) return bits;
  rt.ctx().settle();
  const std::uint64_t gen = ++gen_counter;
  const int me = transport.rank();
  constexpr int kRoot = 0;

  if (me == kRoot) {
    vals[0] = bits;
    gens[0] = gen;
    // Wait for every contribution, combine in rank order (deterministic),
    // then push the result to everyone.
    for (int i = 1; i < p; ++i) {
      while (gens[static_cast<std::size_t>(i)] < gen) transport.wait_poll();
    }
    std::uint64_t acc = vals[0];
    for (int i = 1; i < p; ++i) {
      acc = combine(acc, vals[static_cast<std::size_t>(i)]);
    }
    return rt.bcast(acc, kRoot);
  }
  // Contributor: deposit value then generation marker (ordered delivery on
  // all backends makes the marker a valid ready flag).
  Runtime& root_rt = net.rt(kRoot);
  transport.put_small(kRoot, root_rt.redux_val_slot(me), bits, 8);
  transport.put_small(kRoot, root_rt.redux_gen_slot(me), gen, 8);
  return rt.bcast(0, kRoot);
}
}  // namespace

std::uint64_t Runtime::all_reduce_add(std::uint64_t local) {
  CommScope cs(*this);
  return reduce_impl(
      *this, net_, transport_, redux_vals_, redux_gens_, redux_gen_, local,
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
}

double Runtime::all_reduce_add(double local) {
  CommScope cs(*this);
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(local);
  const std::uint64_t r = reduce_impl(
      *this, net_, transport_, redux_vals_, redux_gens_, redux_gen_, bits,
      [](std::uint64_t a, std::uint64_t b) {
        return std::bit_cast<std::uint64_t>(std::bit_cast<double>(a) +
                                            std::bit_cast<double>(b));
      });
  return std::bit_cast<double>(r);
}

std::uint64_t Runtime::all_reduce_max(std::uint64_t local) {
  CommScope cs(*this);
  return reduce_impl(
      *this, net_, transport_, redux_vals_, redux_gens_, redux_gen_, local,
      [](std::uint64_t a, std::uint64_t b) { return a > b ? a : b; });
}

void Runtime::share_ptr(int key, void* ptr) {
  auto& dir = net_.ptr_directory_[key];
  if (dir.empty()) dir.assign(static_cast<std::size_t>(procs()), nullptr);
  dir[static_cast<std::size_t>(my_proc())] = ptr;
  barrier();
}

void* Runtime::peer_ptr(int key, int proc) const {
  const auto it = net_.ptr_directory_.find(key);
  assert(it != net_.ptr_directory_.end());
  return it->second.at(static_cast<std::size_t>(proc));
}

SplitCNet::SplitCNet(sim::World& world, std::vector<Transport*> transports,
                     CpuCost cost) {
  runtimes_.reserve(transports.size());
  for (std::size_t i = 0; i < transports.size(); ++i) {
    runtimes_.push_back(std::make_unique<Runtime>(
        world.node(static_cast<int>(i)), *transports[i], *this, cost));
  }
}

}  // namespace spam::splitc
