// Golden transcripts: each simulated machine, at fixed seeds and fixed
// configurations, must reproduce the exact run it produced when the
// digests below were recorded. A digest covers the completed-op table
// (id, issued, completed, reply), the combine log (representative,
// absorbed, address, reversed), every module's serial access log and the
// final clock, so any change to arbitration, combining, decombination or
// reply order shows up as a mismatch.
//
// The benchmark runs only the Omega machine at its default switch and
// module settings; this suite (with the Theorem 4.2 checker) is what pins
// the bus machine, the hypercube, queue combining at memory and the §5.1
// order-reversal path. On a deliberate behaviour change, re-record the
// digests from the failure messages and say why in the change.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
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
using core::AnyRmw;
using core::FetchAdd;
using core::LssOp;

template <core::Rmw M>
using SourceVec = std::vector<std::unique_ptr<proc::TrafficSource<M>>>;

constexpr core::Tick kMaxCycles = 2'000'000;

/// FNV-1a over 64-bit words.
class Digest {
 public:
  void add(std::uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (w >> (8 * i)) & 0xFF;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(core::ReqId id) {
    add((std::uint64_t{id.proc} << 32) | id.seq);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

template <typename MachineT>
std::uint64_t transcript_digest(const MachineT& m, std::uint32_t modules) {
  Digest d;
  d.add(m.now());
  d.add(m.completed().size());
  for (const auto& op : m.completed()) {
    d.add(op.id);
    d.add(op.issued);
    d.add(op.completed);
    d.add(op.reply);
  }
  d.add(m.combine_log().size());
  for (const auto& ev : m.combine_log()) {
    d.add(ev.representative);
    d.add(ev.absorbed);
    d.add(ev.addr);
    d.add(ev.reversed ? 1 : 0);
  }
  for (std::uint32_t i = 0; i < modules; ++i) {
    const auto& log = m.module(i).access_log();
    d.add(log.size());
    for (const auto& rec : log) {
      d.add(rec.addr);
      d.add(rec.id);
    }
  }
  return d.value();
}

/// Run to completion, require a Theorem 4.2 pass, and compare the digest.
template <typename MachineT>
void expect_golden(MachineT& m, std::uint32_t modules, std::uint64_t golden,
                   bool expect_combines) {
  ASSERT_TRUE(m.run(kMaxCycles));
  const auto res = verify::check_machine(m, 0);
  ASSERT_TRUE(res.ok) << res.error;
  if (expect_combines) {
    EXPECT_FALSE(m.combine_log().empty()) << "the case must exercise combining";
  }
  const std::uint64_t got = transcript_digest(m, modules);
  EXPECT_EQ(got, golden) << "recorded digest 0x" << std::hex << golden
                         << ", this run 0x" << got;
}

template <core::Rmw M>
SourceVec<M> hotspot_sources(std::uint32_t n, std::uint64_t total,
                             double hot, std::uint64_t addr_space,
                             std::function<M(util::Xoshiro256&)> make,
                             std::uint64_t seed) {
  SourceVec<M> src;
  for (std::uint32_t p = 0; p < n; ++p) {
    typename workload::HotSpotSource<M>::Params params;
    params.total = total;
    params.hot_fraction = hot;
    params.hot_addr = 5;
    params.addr_space = addr_space;
    src.push_back(std::make_unique<workload::HotSpotSource<M>>(
        params, make, seed * 7919 + p));
  }
  return src;
}

FetchAdd random_add(util::Xoshiro256& r) { return FetchAdd(r.below(100)); }

LssOp random_lss(util::Xoshiro256& r) {
  switch (r.below(3)) {
    case 0:
      return LssOp::load();
    case 1:
      return LssOp::store(r.below(500));
    default:
      return LssOp::swap(r.below(500));
  }
}

AnyRmw random_any(util::Xoshiro256& r) {
  switch (r.below(5)) {
    case 0:
      return AnyRmw(FetchAdd(r.below(100)));
    case 1:
      return AnyRmw(LssOp::load());
    case 2:
      return AnyRmw(LssOp::swap(r.below(100)));
    case 3:
      return AnyRmw(core::FetchOr(r.below(16)));
    default:
      return AnyRmw(core::Affine(1 + r.below(3), r.below(50)));
  }
}

// --- Omega machine ---------------------------------------------------------

TEST(GoldenTranscript, OmegaFetchAddHotSpot) {
  sim::MachineConfig<FetchAdd> cfg;
  cfg.log2_procs = 4;
  cfg.window = 8;
  sim::Machine<FetchAdd> m(
      cfg, hotspot_sources<FetchAdd>(16, 120, 0.4, 256, random_add, 1));
  expect_golden(m, m.processors(), 0xe680e87b746e18a9ULL, true);
}

TEST(GoldenTranscript, OmegaLssOrderReversal) {
  sim::MachineConfig<LssOp> cfg;
  cfg.log2_procs = 4;
  cfg.window = 6;
  cfg.switch_cfg.allow_order_reversal = true;
  sim::Machine<LssOp> m(
      cfg, hotspot_sources<LssOp>(16, 100, 0.5, 128, random_lss, 2));
  expect_golden(m, m.processors(), 0xc8cb8b692480333eULL, true);
  bool reversed = false;
  for (const auto& ev : m.combine_log()) reversed = reversed || ev.reversed;
  EXPECT_TRUE(reversed) << "the case must exercise §5.1 reversal";
}

TEST(GoldenTranscript, OmegaMixedAnyRmw) {
  sim::MachineConfig<AnyRmw> cfg;
  cfg.log2_procs = 4;
  cfg.window = 4;
  sim::Machine<AnyRmw> m(
      cfg, hotspot_sources<AnyRmw>(16, 80, 0.5, 64, random_any, 3));
  expect_golden(m, m.processors(), 0x12ec6eb3018f4ca7ULL, true);
}

TEST(GoldenTranscript, OmegaQueueCombiningAtMemory) {
  sim::MachineConfig<FetchAdd> cfg;
  cfg.log2_procs = 3;
  cfg.window = 6;
  cfg.switch_cfg.policy = net::CombinePolicy::kPairwise;
  cfg.mem_cfg.combine_in_queue = true;
  cfg.mem_cfg.service_interval = 3;
  sim::Machine<FetchAdd> m(
      cfg, hotspot_sources<FetchAdd>(8, 100, 0.6, 64, random_add, 4));
  expect_golden(m, m.processors(), 0xbae8f9ce8abf943aULL, true);
  std::uint64_t queue_combines = 0;
  for (std::uint32_t i = 0; i < m.processors(); ++i) {
    queue_combines += m.module(i).stats().queue_combines;
  }
  EXPECT_GT(queue_combines, 0u) << "the case must combine in a module FIFO";
}

// --- bus machine -----------------------------------------------------------

sim::BusMachine<FetchAdd> make_bus(unsigned bus_width) {
  sim::BusMachineConfig<FetchAdd> cfg;
  cfg.processors = 12;
  cfg.banks = 4;
  cfg.bank_cfg.combine_in_queue = true;
  cfg.bank_cfg.service_interval = 4;
  cfg.window = 4;
  cfg.bus_width = bus_width;
  return {cfg, hotspot_sources<FetchAdd>(12, 60, 0.6, 64, random_add,
                                         10 + bus_width)};
}

TEST(GoldenTranscript, BusModuleCombiningWidth1) {
  auto m = make_bus(1);
  expect_golden(m, 4, 0x4fb65126c36feff8ULL, true);
}

TEST(GoldenTranscript, BusModuleCombiningWidth2) {
  auto m = make_bus(2);
  expect_golden(m, 4, 0xe8abb6dbd693e744ULL, true);
}

// --- hypercube -------------------------------------------------------------

sim::HypercubeMachine<FetchAdd> make_cube(net::CombinePolicy policy,
                                          std::size_t wait_buffer,
                                          bool module_combining,
                                          std::uint64_t seed) {
  sim::HypercubeConfig<FetchAdd> cfg;
  cfg.dimensions = 4;
  cfg.window = 6;
  cfg.policy = policy;
  cfg.wait_buffer_capacity = wait_buffer;
  cfg.mem_cfg.combine_in_queue = module_combining;
  cfg.mem_cfg.service_interval = module_combining ? 3 : 1;
  return {cfg,
          hotspot_sources<FetchAdd>(16, 80, 0.5, 128, random_add, seed)};
}

TEST(GoldenTranscript, HypercubeNoCombining) {
  auto m = make_cube(net::CombinePolicy::kNone, 64, false, 20);
  expect_golden(m, m.processors(), 0xa24799e6d6d6eaa1ULL, false);
  EXPECT_TRUE(m.combine_log().empty());
}

TEST(GoldenTranscript, HypercubePairwise) {
  auto m = make_cube(net::CombinePolicy::kPairwise, 64, false, 21);
  expect_golden(m, m.processors(), 0x116e752dff69e973ULL, true);
}

TEST(GoldenTranscript, HypercubeUnlimited) {
  auto m = make_cube(net::CombinePolicy::kUnlimited, 64, false, 22);
  expect_golden(m, m.processors(), 0xd3541728439ae3ddULL, true);
}

TEST(GoldenTranscript, HypercubeTwoRecordWaitBufferAndModuleCombining) {
  auto m = make_cube(net::CombinePolicy::kUnlimited, 2, true, 23);
  expect_golden(m, m.processors(), 0x4e4d5e7b8f0e3e41ULL, true);
}

}  // namespace
