// Deterministic cycle engines shared by the simulated machines.
//
// A machine models its cycle as a fixed sequence of SUB-PHASES over a set
// of SHARDS. Within one sub-phase, distinct shards touch disjoint state:
// every cross-shard channel is a single-slot link with exactly one writer
// sub-phase and one reader sub-phase, so a sub-phase reads only snapshots
// the previous sub-phase published. That makes the shard loop order
// immaterial — the sequential engine and the parallel engine (any worker
// count, any interleaving) produce bit-identical machine states, which is
// what lets the determinism suite diff transcripts across thread counts.
//
// The parallel engine is the dogfooding exercise: the workers synchronize
// with the repo's own combining-tree barrier (§6 software shape), three
// phase waves per simulated cycle.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/rmw.hpp"
#include "core/types.hpp"
#include "mem/module.hpp"
#include "net/combiner.hpp"
#include "proc/processor.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/tree_barrier.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"

namespace krs::sim {

/// What a machine must expose to be driven by the engines. `engine_subphase`
/// must be safe to call concurrently for distinct shards of the SAME
/// sub-phase; `engine_end_cycle` runs serially between cycles (merge
/// per-shard logs in shard order, advance the clock).
template <typename MachineT>
concept CycleSharded = requires(MachineT& m, const MachineT& cm) {
  { cm.engine_shards() } -> std::convertible_to<std::uint32_t>;
  { cm.engine_subphases() } -> std::convertible_to<unsigned>;
  m.engine_subphase(0u, std::uint32_t{0});
  m.engine_end_cycle();
  { cm.drained() } -> std::convertible_to<bool>;
  { cm.now() } -> std::convertible_to<core::Tick>;
};

/// Reference engine: one thread, shards in index order. This is the
/// specification the parallel engine is tested against.
struct SequentialEngine {
  /// One cycle: every sub-phase over the shards in index order, then the
  /// serial end-of-cycle step.
  template <CycleSharded MachineT>
  static void step(MachineT& m) {
    const std::uint32_t shards = m.engine_shards();
    const unsigned phases = m.engine_subphases();
    for (unsigned ph = 0; ph < phases; ++ph) {
      for (std::uint32_t sh = 0; sh < shards; ++sh) m.engine_subphase(ph, sh);
    }
    m.engine_end_cycle();
  }

  template <CycleSharded MachineT>
  static bool run(MachineT& m, core::Tick max_cycles) {
    while (m.now() < max_cycles) {
      step(m);
      if (m.drained()) return true;
    }
    return m.drained();
  }
};

/// Worker-pool engine: shards are split into contiguous static ranges, one
/// per worker; a tree barrier separates sub-phases and the serial
/// end-of-cycle step. Because sub-phases only communicate through
/// single-writer/single-reader links, the result is bit-identical to
/// SequentialEngine at every worker count.
class ParallelEngine {
 public:
  explicit ParallelEngine(unsigned workers)
      : workers_(std::max(1u, workers)) {}

  template <CycleSharded MachineT>
  bool run(MachineT& m, core::Tick max_cycles) {
    const std::uint32_t shards = m.engine_shards();
    const unsigned workers =
        static_cast<unsigned>(std::min<std::uint64_t>(workers_, shards));
    if (workers <= 1) return SequentialEngine::run(m, max_cycles);
    if (m.now() >= max_cycles) return m.drained();

    const unsigned phases = m.engine_subphases();
    runtime::TreeBarrier barrier(workers);
    // Written by worker 0 only, between two barrier waves; the barrier's
    // release/acquire chain publishes it to every worker.
    bool stop = false;

    auto body = [&](unsigned w) {
      const auto lo =
          static_cast<std::uint32_t>(std::uint64_t{shards} * w / workers);
      const auto hi =
          static_cast<std::uint32_t>(std::uint64_t{shards} * (w + 1) / workers);
      for (;;) {
        for (unsigned ph = 0; ph < phases; ++ph) {
          for (std::uint32_t sh = lo; sh < hi; ++sh) {
            m.engine_subphase(ph, sh);
          }
          barrier.arrive_and_wait(w);
        }
        if (w == 0) {
          m.engine_end_cycle();
          stop = m.drained() || m.now() >= max_cycles;
        }
        barrier.arrive_and_wait(w);
        if (stop) return;
      }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (unsigned w = 1; w < workers; ++w) {
      pool.emplace_back(body, w);
    }
    body(0);
    for (auto& t : pool) t.join();
    return m.drained();
  }

 private:
  unsigned workers_;
};

/// The one statistics record of the simulated machines. Fields a machine
/// has no component for stay 0.
struct MachineStats {
  core::Tick cycles = 0;
  std::uint64_t ops_completed = 0;
  /// Combines in the interconnect: switch combines (Omega), bank-FIFO
  /// combines (bus), router combines (hypercube).
  std::uint64_t combines = 0;
  std::uint64_t switch_stall_cycles = 0;
  /// Request messages that occupied a link, queue slot or bus transfer:
  /// switch forwards (Omega), bus transfers (bus), link hops (hypercube).
  /// Combining shows up as a reduction relative to ops × path length.
  std::uint64_t request_messages = 0;
  std::uint64_t request_bytes = 0;
  util::LogHistogram latency;
  double throughput_ops_per_cycle = 0.0;

  /// Fold another accumulator into this one. Counters add and the latency
  /// histogram merges bucket-exact, so per-shard (or per-worker) partials
  /// reduce to the same result a single global accumulator would have
  /// seen — no shared counters needed on the hot path. `cycles` takes the
  /// max (partials observe the same clock); throughput is recomputed.
  void merge(const MachineStats& o) {
    cycles = std::max(cycles, o.cycles);
    ops_completed += o.ops_completed;
    combines += o.combines;
    switch_stall_cycles += o.switch_stall_cycles;
    request_messages += o.request_messages;
    request_bytes += o.request_bytes;
    latency.merge(o.latency);
    throughput_ops_per_cycle =
        cycles > 0 ? static_cast<double>(ops_completed) /
                         static_cast<double>(cycles)
                   : 0.0;
  }
};

/// Processors, memory modules, transcript and run loop, shared by the
/// machines through CRTP. `Derived` supplies the interconnect:
/// module_of(addr), interconnect_drained(), interconnect_stats(), and either
/// consume(shard)/produce(shard) for the default two sub-phases or its own
/// engine_subphases()/engine_subphase().
///
/// The transcript holds what the §4.3 correctness argument needs: every
/// combine event in chronological order and each completed operation's
/// original mapping and observed reply (each module keeps its own serial
/// access order). Shards append to their own ShardLog; engine_end_cycle
/// merges the logs in shard order, so the global transcript is identical
/// at every worker count.
template <typename Derived, core::Rmw M>
class MachineBase {
 public:
  using rmw_type = M;
  using Value = typename M::value_type;
  using Sources = std::vector<std::unique_ptr<proc::TrafficSource<M>>>;

  /// Advance one cycle (sequential shard order).
  void tick() { SequentialEngine::step(self()); }

  /// Run until every processor is quiescent and the machine has drained,
  /// or `max_cycles` elapse. Returns true iff fully drained.
  bool run(core::Tick max_cycles) {
    return SequentialEngine::run(self(), max_cycles);
  }

  /// Same semantics — and bit-identical results — on a worker pool.
  /// `workers` is clamped to the shard count; 0/1 falls back to run().
  bool run_parallel(core::Tick max_cycles, unsigned workers) {
    return ParallelEngine(workers).run(self(), max_cycles);
  }

  // --- engine concept (sim/engine.hpp) ------------------------------------

  [[nodiscard]] std::uint32_t engine_shards() const noexcept {
    return static_cast<std::uint32_t>(logs_.size());
  }
  [[nodiscard]] unsigned engine_subphases() const noexcept { return 2; }

  /// CONSUME drains the links into each shard's components, PRODUCE fills
  /// the links from them.
  void engine_subphase(unsigned ph, std::uint32_t shard) {
    if (ph == 0) {
      self().consume(shard);
    } else {
      self().produce(shard);
    }
  }

  void engine_end_cycle() {
    for (auto& log : logs_) {
      combine_log_.insert(combine_log_.end(), log.events.begin(),
                          log.events.end());
      log.events.clear();
      completed_.insert(completed_.end(), log.completed.begin(),
                        log.completed.end());
      log.completed.clear();
    }
    ++now_;
  }

  [[nodiscard]] bool drained() const {
    for (const auto& p : procs_) {
      if (!p.quiescent()) return false;
    }
    for (const auto& m : modules_) {
      if (!m.idle()) return false;
    }
    return self().interconnect_drained();
  }

  // --- transcript and checker interface -----------------------------------

  [[nodiscard]] core::Tick now() const noexcept { return now_; }
  [[nodiscard]] const std::vector<proc::CompletedOp<M>>& completed() const {
    return completed_;
  }
  [[nodiscard]] const std::vector<net::CombineEvent>& combine_log() const {
    return combine_log_;
  }
  /// Memory modules, which the checker iterates (one per processor on the
  /// Omega machine and the hypercube; the banks on the bus machine).
  [[nodiscard]] std::uint32_t processors() const noexcept {
    return static_cast<std::uint32_t>(modules_.size());
  }
  [[nodiscard]] const mem::MemoryModule<M>& module(std::uint32_t i) const {
    return modules_[i];
  }
  [[nodiscard]] Value value_at(core::Addr addr) const {
    return modules_[self().module_of(addr)].value_at(addr);
  }

  /// The interconnect's counters plus the transcript's clock, completed
  /// ops and latency histogram.
  [[nodiscard]] MachineStats stats() const {
    MachineStats s = self().interconnect_stats();
    MachineStats ops;
    ops.cycles = now_;
    ops.ops_completed = completed_.size();
    for (const auto& op : completed_) ops.latency.add(op.completed - op.issued);
    s.merge(ops);
    return s;
  }

 protected:
  /// Per-shard transcript segment, merged (and cleared) every cycle by
  /// engine_end_cycle. Padded: adjacent shards append concurrently.
  struct alignas(runtime::kCacheLine) ShardLog {
    std::vector<net::CombineEvent> events;
    std::vector<proc::CompletedOp<M>> completed;
  };

  /// One processor per source (`procs` of them) and `modules` memory
  /// modules; the engine runs `shards` shards.
  MachineBase(Sources sources, std::uint32_t procs, std::uint32_t modules,
              const mem::ModuleConfig& mem_cfg, Value initial,
              unsigned window, bool processor_side, std::uint32_t shards)
      : sources_(std::move(sources)), logs_(shards) {
    KRS_EXPECTS(sources_.size() == procs);
    procs_.reserve(procs);
    for (std::uint32_t p = 0; p < procs; ++p) {
      procs_.emplace_back(p, window, processor_side, sources_[p].get());
    }
    modules_.reserve(modules);
    for (std::uint32_t i = 0; i < modules; ++i) {
      modules_.emplace_back(mem_cfg, initial);
    }
  }

  Sources sources_;  ///< declared first: outlives the processors reading it
  std::vector<proc::Processor<M>> procs_;
  std::vector<mem::MemoryModule<M>> modules_;
  std::vector<ShardLog> logs_;
  core::Tick now_ = 0;

 private:
  [[nodiscard]] Derived& self() { return static_cast<Derived&>(*this); }
  [[nodiscard]] const Derived& self() const {
    return static_cast<const Derived&>(*this);
  }

  std::vector<proc::CompletedOp<M>> completed_;
  std::vector<net::CombineEvent> combine_log_;
};

}  // namespace krs::sim
