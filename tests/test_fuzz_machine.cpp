// Configuration fuzzing: random shapes of all three machines (size, queue
// capacities, latencies, service intervals, policies, wait-buffer bounds,
// reversal, module combining, windows) under random workloads — every run
// must drain and pass the Theorem 4.2 checker. This is the widest net for
// interaction bugs between the switch, router, module and processor models.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/any_rmw.hpp"
#include "core/fetch_theta.hpp"
#include "core/load_store_swap.hpp"
#include "sim/bus_machine.hpp"
#include "sim/hypercube_machine.hpp"
#include "sim/machine.hpp"
#include "verify/memory_checker.hpp"
#include "workload/workloads.hpp"

namespace {

using namespace krs;
using core::FetchAdd;
using core::LssOp;

class FuzzConfig : public ::testing::TestWithParam<int> {};

TEST_P(FuzzConfig, OmegaMachineAlwaysSerializable) {
  util::Xoshiro256 cfg_rng(GetParam() * 7919);
  for (int round = 0; round < 6; ++round) {
    sim::MachineConfig<LssOp> cfg;
    cfg.log2_procs = 1 + static_cast<unsigned>(cfg_rng.below(4));
    cfg.switch_cfg.policy = static_cast<net::CombinePolicy>(cfg_rng.below(3));
    cfg.switch_cfg.queue_capacity = 1 + cfg_rng.below(6);
    cfg.switch_cfg.wait_buffer_capacity = 1 + cfg_rng.below(32);
    cfg.switch_cfg.allow_order_reversal = cfg_rng.chance(0.5);
    cfg.mem_cfg.queue_capacity = 1 + cfg_rng.below(8);
    cfg.mem_cfg.latency = cfg_rng.below(5);
    cfg.mem_cfg.service_interval = 1 + cfg_rng.below(3);
    cfg.mem_cfg.combine_in_queue = cfg_rng.chance(0.5);
    cfg.window = 1 + static_cast<unsigned>(cfg_rng.below(6));
    const std::uint32_t n = 1u << cfg.log2_procs;

    std::vector<std::unique_ptr<proc::TrafficSource<LssOp>>> src;
    for (std::uint32_t p = 0; p < n; ++p) {
      workload::HotSpotSource<LssOp>::Params params;
      params.total = 20 + cfg_rng.below(40);
      params.hot_fraction = cfg_rng.uniform();
      params.hot_addr = cfg_rng.below(8);
      params.addr_space = 1 + cfg_rng.below(512);
      params.issue_probability = 0.3 + 0.7 * cfg_rng.uniform();
      src.push_back(std::make_unique<workload::HotSpotSource<LssOp>>(
          params,
          [](util::Xoshiro256& r) {
            switch (r.below(3)) {
              case 0:
                return LssOp::load();
              case 1:
                return LssOp::store(r.below(500));
              default:
                return LssOp::swap(r.below(500));
            }
          },
          cfg_rng.next()));
    }
    sim::Machine<LssOp> m(cfg, std::move(src));
    ASSERT_TRUE(m.run(5'000'000)) << "round " << round;
    const auto res = verify::check_machine(m, 0);
    ASSERT_TRUE(res.ok) << "round " << round << ": " << res.error;
  }
}

TEST_P(FuzzConfig, OmegaMachineFetchAddAlwaysSerializable) {
  util::Xoshiro256 cfg_rng(GetParam() * 104729);
  for (int round = 0; round < 6; ++round) {
    sim::MachineConfig<FetchAdd> cfg;
    cfg.log2_procs = 1 + static_cast<unsigned>(cfg_rng.below(4));
    cfg.switch_cfg.policy = static_cast<net::CombinePolicy>(cfg_rng.below(3));
    cfg.switch_cfg.queue_capacity = 1 + cfg_rng.below(4);
    cfg.switch_cfg.wait_buffer_capacity = 1 + cfg_rng.below(8);
    cfg.mem_cfg.queue_capacity = 1 + cfg_rng.below(4);
    cfg.mem_cfg.latency = cfg_rng.below(4);
    cfg.mem_cfg.service_interval = 1 + cfg_rng.below(4);
    cfg.mem_cfg.combine_in_queue = cfg_rng.chance(0.5);
    cfg.window = 1 + static_cast<unsigned>(cfg_rng.below(8));
    const std::uint32_t n = 1u << cfg.log2_procs;
    std::vector<std::unique_ptr<proc::TrafficSource<FetchAdd>>> src;
    for (std::uint32_t p = 0; p < n; ++p) {
      workload::HotSpotSource<FetchAdd>::Params params;
      params.total = 20 + cfg_rng.below(60);
      params.hot_fraction = cfg_rng.uniform();
      params.addr_space = 1 + cfg_rng.below(256);
      src.push_back(std::make_unique<workload::HotSpotSource<FetchAdd>>(
          params, [](util::Xoshiro256& r) { return FetchAdd(r.below(100)); },
          cfg_rng.next()));
    }
    sim::Machine<FetchAdd> m(cfg, std::move(src));
    ASSERT_TRUE(m.run(5'000'000)) << "round " << round;
    const auto res = verify::check_machine(m, 0);
    ASSERT_TRUE(res.ok) << "round " << round << ": " << res.error;
  }
}

TEST_P(FuzzConfig, BusMachineAlwaysSerializable) {
  util::Xoshiro256 cfg_rng(GetParam() * 31337);
  for (int round = 0; round < 6; ++round) {
    sim::BusMachineConfig<FetchAdd> cfg;
    cfg.processors = 1 + static_cast<std::uint32_t>(cfg_rng.below(12));
    cfg.banks = 1 + static_cast<std::uint32_t>(cfg_rng.below(6));
    cfg.bank_cfg.queue_capacity = 1 + cfg_rng.below(8);
    cfg.bank_cfg.latency = cfg_rng.below(4);
    cfg.bank_cfg.service_interval = 1 + cfg_rng.below(6);
    cfg.bank_cfg.combine_in_queue = cfg_rng.chance(0.5);
    cfg.window = 1 + static_cast<unsigned>(cfg_rng.below(4));
    cfg.bus_width = 1 + static_cast<unsigned>(cfg_rng.below(3));
    std::vector<std::unique_ptr<proc::TrafficSource<FetchAdd>>> src;
    for (std::uint32_t p = 0; p < cfg.processors; ++p) {
      workload::HotSpotSource<FetchAdd>::Params params;
      params.total = 15 + cfg_rng.below(50);
      params.hot_fraction = cfg_rng.uniform();
      params.addr_space = 1 + cfg_rng.below(128);
      src.push_back(std::make_unique<workload::HotSpotSource<FetchAdd>>(
          params, [](util::Xoshiro256& r) { return FetchAdd(r.below(50)); },
          cfg_rng.next()));
    }
    sim::BusMachine<FetchAdd> m(cfg, std::move(src));
    ASSERT_TRUE(m.run(5'000'000)) << "round " << round;
    const auto res = verify::check_machine(m, 0);
    ASSERT_TRUE(res.ok) << "round " << round << ": " << res.error;
  }
}

TEST_P(FuzzConfig, HypercubeAlwaysSerializable) {
  util::Xoshiro256 cfg_rng(GetParam() * 65537);
  for (int round = 0; round < 6; ++round) {
    sim::HypercubeConfig<LssOp> cfg;
    cfg.dimensions = 1 + static_cast<unsigned>(cfg_rng.below(4));
    cfg.policy = static_cast<net::CombinePolicy>(cfg_rng.below(3));
    cfg.link_queue_capacity = 1 + cfg_rng.below(6);
    cfg.wait_buffer_capacity = 1 + cfg_rng.below(16);
    cfg.mem_cfg.queue_capacity = 1 + cfg_rng.below(8);
    cfg.mem_cfg.latency = cfg_rng.below(4);
    cfg.mem_cfg.service_interval = 1 + cfg_rng.below(3);
    cfg.mem_cfg.combine_in_queue = cfg_rng.chance(0.5);
    cfg.window = 1 + static_cast<unsigned>(cfg_rng.below(6));
    const std::uint32_t n = 1u << cfg.dimensions;
    std::vector<std::unique_ptr<proc::TrafficSource<LssOp>>> src;
    for (std::uint32_t p = 0; p < n; ++p) {
      workload::HotSpotSource<LssOp>::Params params;
      params.total = 20 + cfg_rng.below(40);
      params.hot_fraction = cfg_rng.uniform();
      params.hot_addr = cfg_rng.below(8);
      params.addr_space = 1 + cfg_rng.below(256);
      params.issue_probability = 0.3 + 0.7 * cfg_rng.uniform();
      src.push_back(std::make_unique<workload::HotSpotSource<LssOp>>(
          params,
          [](util::Xoshiro256& r) {
            switch (r.below(3)) {
              case 0:
                return LssOp::load();
              case 1:
                return LssOp::store(r.below(500));
              default:
                return LssOp::swap(r.below(500));
            }
          },
          cfg_rng.next()));
    }
    sim::HypercubeMachine<LssOp> m(cfg, std::move(src));
    ASSERT_TRUE(m.run(5'000'000)) << "round " << round;
    const auto res = verify::check_machine(m, 0);
    ASSERT_TRUE(res.ok) << "round " << round << ": " << res.error;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzConfig,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
