// The simulated Omega machine (k = 8, 256 processors, combining switches,
// default window) fed the workload's shape, one generated stream per
// simulated processor, and driven through run_parallel in fixed chunks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/any_rmw.hpp"
#include "harness.hpp"
#include "sim/machine.hpp"
#include "verify/memory_checker.hpp"
#include "workload.hpp"

namespace perfbench {

using Machine = krs::sim::Machine<krs::core::AnyRmw>;

inline constexpr unsigned kLog2Procs = 8;
inline constexpr krs::core::Tick kChunkCycles = 4096;
inline constexpr krs::core::Tick kMaxCycles = 200'000'000;

/// Plays one pre-generated stream; the machine owns the source, the
/// benchmark owns the stream.
class StreamSource final : public krs::proc::TrafficSource<krs::core::AnyRmw> {
 public:
  explicit StreamSource(std::span<const SimOp> ops) : ops_(ops) {}

  std::optional<std::pair<krs::core::Addr, krs::core::AnyRmw>> next(
      krs::core::Tick, unsigned) override {
    if (i_ == ops_.size()) return std::nullopt;
    const SimOp& op = ops_[i_++];
    return std::make_pair(op.addr, op.f);
  }
  [[nodiscard]] bool finished() const override { return i_ == ops_.size(); }

 private:
  std::span<const SimOp> ops_;
  std::size_t i_ = 0;
};

/// The machine reads `streams` while it runs: they must outlive it.
inline std::unique_ptr<Machine> build_machine(
    const std::vector<std::vector<SimOp>>& streams) {
  krs::sim::MachineConfig<krs::core::AnyRmw> cfg;
  cfg.log2_procs = kLog2Procs;
  std::vector<std::unique_ptr<krs::proc::TrafficSource<krs::core::AnyRmw>>> src;
  src.reserve(streams.size());
  for (const auto& s : streams) {
    src.push_back(std::make_unique<StreamSource>(s));
  }
  return std::make_unique<Machine>(cfg, std::move(src));
}

/// Run to completion in kChunkCycles chunks (`workers` ≤ 1: the sequential
/// engine); one span per chunk. Returns wall seconds, or a negative value
/// if the machine did not drain within kMaxCycles.
inline double run_chunked(Machine& m, unsigned workers, SpanLog& log,
                          std::uint64_t parent) {
  const std::int64_t t0 = now_ns();
  bool drained = false;
  while (!drained && m.now() < kMaxCycles) {
    const std::int64_t c0 = now_ns();
    const krs::core::Tick until = m.now() + kChunkCycles;
    drained = workers > 1 ? m.run_parallel(until, workers) : m.run(until);
    log.add(workers > 1 ? "sim.run_parallel" : "sim.run", parent, c0, now_ns());
  }
  const double wall = 1e-9 * static_cast<double>(now_ns() - t0);
  return drained ? wall : -1.0;
}

/// Completed operations (plus one for any other divergence: clock, combine
/// transcript, final memory) that differ between two runs of one seed.
inline std::uint64_t run_mismatches(const Machine& a, const Machine& b) {
  const auto& x = a.completed();
  const auto& y = b.completed();
  std::uint64_t bad = absdiff(x.size(), y.size());
  for (std::size_t i = 0; i < std::min(x.size(), y.size()); ++i) {
    bad += !(x[i].id == y[i].id && x[i].addr == y[i].addr &&
             x[i].reply == y[i].reply && x[i].issued == y[i].issued &&
             x[i].completed == y[i].completed);
  }
  bool same = a.now() == b.now() &&
              a.combine_log().size() == b.combine_log().size();
  for (std::size_t i = 0; same && i < a.combine_log().size(); ++i) {
    const auto& p = a.combine_log()[i];
    const auto& q = b.combine_log()[i];
    same = p.representative == q.representative && p.absorbed == q.absorbed &&
           p.reversed == q.reversed;
  }
  for (const auto& op : x) {
    same = same && a.value_at(op.addr) == b.value_at(op.addr);
  }
  return bad + (same ? 0 : 1);
}

/// The paper's unloaded round trip: 2·⌈lg n⌉ + 1 + memory latency.
inline double model_cycles() {
  return 2.0 * kLog2Procs + 1.0 +
         static_cast<double>(krs::mem::ModuleConfig{}.latency);
}

/// Machine-level per-layer figures of one finished run.
inline Layer machine_layers(const Machine& m) {
  const auto st = m.stats();
  const double ops = static_cast<double>(st.ops_completed);
  std::uint64_t served = 0, hottest = 0, idle = 0;
  for (std::uint32_t i = 0; i < m.processors(); ++i) {
    const auto& ms = m.module(i).stats();
    served += ms.rmw_ops;
    hottest = std::max(hottest, ms.rmw_ops);
    idle += ms.idle_cycles;
  }
  const double module_cycles =
      static_cast<double>(m.processors()) * static_cast<double>(st.cycles);
  return {
      {"net.combines_per_op", ratio(st.combines, ops), "per_op"},
      {"net.stall_cycles_per_op", ratio(st.switch_stall_cycles, ops), "per_op"},
      {"net.msgs_per_op", ratio(st.request_messages, ops), "per_op"},
      {"mem.hot_module_share", ratio(hottest, served), "fraction"},
      {"mem.idle_share", ratio(idle, module_cycles), "fraction"}};
}

/// Issue→reply latencies of every completed operation, sorted.
inline std::vector<krs::core::Tick> sorted_latencies(const Machine& m) {
  std::vector<krs::core::Tick> lat;
  lat.reserve(m.completed().size());
  for (const auto& op : m.completed()) lat.push_back(op.completed - op.issued);
  std::sort(lat.begin(), lat.end());
  return lat;
}

}  // namespace perfbench
