// E16 (extension of §7) — combining on a direct-connection machine: the
// cosmic-cube-style hypercube where each node is processor + memory +
// router. Hot-spot sweep with combining on/off; link-hop counts show the
// traffic reduction; every run checked serializable.
#include <cstdio>
#include <memory>
#include <vector>

#include "core/fetch_theta.hpp"
#include "sim/hypercube_machine.hpp"
#include "verify/memory_checker.hpp"
#include "workload/workloads.hpp"

using namespace krs;
using core::FetchAdd;

namespace {

struct Row {
  double latency;
  double throughput;
  std::uint64_t combines;
  std::uint64_t hops;
};

Row run(unsigned dims, double hot, net::CombinePolicy policy) {
  sim::HypercubeConfig<FetchAdd> cfg;
  cfg.dimensions = dims;
  cfg.policy = policy;
  const std::uint32_t n = 1u << dims;
  std::vector<std::unique_ptr<proc::TrafficSource<FetchAdd>>> src;
  for (std::uint32_t u = 0; u < n; ++u) {
    workload::HotSpotSource<FetchAdd>::Params params;
    params.total = 192;
    params.hot_fraction = hot;
    params.hot_addr = 3;
    params.addr_space = 1u << 16;
    src.push_back(std::make_unique<workload::HotSpotSource<FetchAdd>>(
        params, [](util::Xoshiro256& r) { return FetchAdd(r.below(100)); },
        0xD1CE + u));
  }
  sim::HypercubeMachine<FetchAdd> m(cfg, std::move(src));
  if (!m.run(50'000'000)) {
    std::fprintf(stderr, "hypercube did not drain\n");
    std::exit(1);
  }
  const auto check = verify::check_machine(m, 0);
  if (!check.ok) {
    std::fprintf(stderr, "CHECKER FAILED: %s\n", check.error.c_str());
    std::exit(1);
  }
  const auto s = m.stats();
  return {s.latency.mean(), s.throughput_ops_per_cycle, s.combines,
          s.request_messages};
}

}  // namespace

int main() {
  std::printf("== E16: §7 — combining on a cosmic-cube-style hypercube ==\n");
  std::printf("(processors act as switches; node memories form the "
              "distributed shared memory)\n\n");
  for (const unsigned dims : {3u, 4u, 5u}) {
    std::printf("---- %u-cube (%u nodes) ----\n", dims, 1u << dims);
    std::printf("%7s | %24s | %24s\n", "", "no combining", "combining");
    std::printf("%7s | %9s %9s %9s | %9s %9s %9s\n", "hot %", "lat",
                "ops/cyc", "hops", "lat", "ops/cyc", "hops");
    for (const double hot : {0.0, 0.05, 0.2, 0.5, 1.0}) {
      const Row a = run(dims, hot, net::CombinePolicy::kNone);
      const Row b = run(dims, hot, net::CombinePolicy::kUnlimited);
      std::printf("%6.0f%% | %9.1f %9.3f %9llu | %9.1f %9.3f %9llu\n",
                  hot * 100, a.latency, a.throughput,
                  static_cast<unsigned long long>(a.hops), b.latency,
                  b.throughput, static_cast<unsigned long long>(b.hops));
    }
    std::printf("\n");
  }
  std::printf("(same shape as the Omega machine: combining flattens the "
              "hot-spot latency curve AND cuts link traffic — the §7 claim "
              "that the mechanism carries over to direct networks)\n");
  return 0;
}
