// E14 — the fetch-and-add coordination repertoire ([10]) on real threads:
// barrier, readers-writers, counting semaphore, and the parallel FIFO
// queue, each against a mutex/condition-variable baseline. The paper's
// point: these algorithms have no serial critical section, so they scale
// with the memory system rather than with lock hand-offs.
//
// E17 — the same repertoire's hot-path RMW patterns on the simulated
// Omega machine (BM_SimCoordination/*): costs in NETWORK CYCLES PER
// OPERATION rather than host wall-clock. One benchmark iteration = one
// round of the primitive's §6 traffic pattern injected as simultaneous
// waves via SimBackend::run_wave, so the reported cycles_per_op is a pure
// function of the pattern — bit-identical at every --workers count and on
// every host, comparable against the paper's analytic O(lg n) formulas.
#include <benchmark/benchmark.h>

#include <barrier>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "core/any_rmw.hpp"
#include "core/fetch_theta.hpp"
#include "core/load_store_swap.hpp"
#include "net/switch.hpp"
#include "runtime/combining_backend.hpp"
#include "runtime/coordination.hpp"
#include "runtime/local_spin_locks.hpp"
#include "runtime/parallel_queue.hpp"
#include "runtime/rmw_backend.hpp"
#include "runtime/sim_backend.hpp"
#include "util/stats.hpp"
#include "workload/workloads.hpp"

using namespace krs::runtime;

namespace {

// --- the backend dimension ---------------------------------------------------
//
// The same hotspot fetch-and-add and the same barrier, once per RmwBackend:
// "atomic" is the hardware fetch-and-θ instruction, "combining" funnels the
// hot cell through the software combining tree. The normalized output pairs
// BM_<X>/atomic against BM_<X>/combining per thread count into the
// `combining_vs_atomic_ops_ratio` series — the §4.2 crossover curve on this
// host. (On a single-core runner combining mostly measures its constant
// factor; the series exists so multi-core runs track the crossover.)

AtomicBackend g_atomic_backend;
CombiningBackend g_combining_backend(8);

AtomicBackend::Cell g_atomic_counter(g_atomic_backend, 0);
CombiningBackend::Cell g_combining_counter(g_combining_backend, 0);

template <typename B>
void backend_counter_loop(benchmark::State& state, B& backend,
                          typename B::Cell& cell) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(backend.fetch_add(cell, 1));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_BackendCounter_Atomic(benchmark::State& state) {
  backend_counter_loop(state, g_atomic_backend, g_atomic_counter);
}
BENCHMARK(BM_BackendCounter_Atomic)
    ->Name("BM_BackendCounter/atomic")
    ->Threads(1)->Threads(4)->Threads(8)->UseRealTime();

void BM_BackendCounter_Combining(benchmark::State& state) {
  backend_counter_loop(state, g_combining_backend, g_combining_counter);
  if (state.thread_index() == 0) {
    // Partial-combining telemetry (§7) for the hot cell, cumulative over
    // the run: how much traffic folded below the root vs. serialized at
    // it. A mixed-family regression shows up as served_at_root → 1.0 long
    // before the wall-clock numbers move on a small host.
    const CombiningTreeStats ts =
        g_combining_backend.cell_stats(g_combining_counter);
    state.counters["combine_rate"] = ts.combine_rate();
    state.counters["served_at_root_fraction"] = ts.served_at_root_fraction();
  }
}
BENCHMARK(BM_BackendCounter_Combining)
    ->Name("BM_BackendCounter/combining")
    ->Threads(1)->Threads(4)->Threads(8)->UseRealTime();

BasicBarrier<AtomicBackend> g_atomic_backend_barrier(4, g_atomic_backend);
BasicBarrier<CombiningBackend> g_combining_backend_barrier(
    4, g_combining_backend);

void BM_BackendBarrier_Atomic(benchmark::State& state) {
  for (auto _ : state) {
    g_atomic_backend_barrier.arrive_and_wait();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BackendBarrier_Atomic)
    ->Name("BM_BackendBarrier/atomic")
    ->Threads(4)->UseRealTime();

void BM_BackendBarrier_Combining(benchmark::State& state) {
  for (auto _ : state) {
    g_combining_backend_barrier.arrive_and_wait();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BackendBarrier_Combining)
    ->Name("BM_BackendBarrier/combining")
    ->Threads(4)->UseRealTime();

// The rest of the §6 repertoire as backend twins: the same read-mostly
// rw-lock, P/V semaphore, and producer/consumer queue traffic once per
// RmwBackend, completing the bench matrix beyond counter + barrier.

BasicRwLock<AtomicBackend> g_atomic_rwlock(g_atomic_backend);
BasicRwLock<CombiningBackend> g_combining_rwlock(g_combining_backend);
long g_backend_rw_value = 0;

template <typename B>
void backend_rwlock_loop(benchmark::State& state, BasicRwLock<B>& lock) {
  for (auto _ : state) {
    if (state.thread_index() == 0) {
      lock.write_lock();
      ++g_backend_rw_value;
      lock.write_unlock();
    } else {
      lock.read_lock();
      benchmark::DoNotOptimize(g_backend_rw_value);
      lock.read_unlock();
    }
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_BackendRwLock_Atomic(benchmark::State& state) {
  backend_rwlock_loop(state, g_atomic_rwlock);
}
BENCHMARK(BM_BackendRwLock_Atomic)
    ->Name("BM_BackendRwLock/atomic")
    ->Threads(4)->UseRealTime();

void BM_BackendRwLock_Combining(benchmark::State& state) {
  backend_rwlock_loop(state, g_combining_rwlock);
}
BENCHMARK(BM_BackendRwLock_Combining)
    ->Name("BM_BackendRwLock/combining")
    ->Threads(4)->UseRealTime();

BasicSemaphore<AtomicBackend> g_atomic_sem(2, g_atomic_backend);
BasicSemaphore<CombiningBackend> g_combining_sem(2, g_combining_backend);

template <typename B>
void backend_semaphore_loop(benchmark::State& state, BasicSemaphore<B>& sem) {
  for (auto _ : state) {
    sem.p();
    benchmark::ClobberMemory();
    sem.v();
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_BackendSemaphore_Atomic(benchmark::State& state) {
  backend_semaphore_loop(state, g_atomic_sem);
}
BENCHMARK(BM_BackendSemaphore_Atomic)
    ->Name("BM_BackendSemaphore/atomic")
    ->Threads(4)->UseRealTime();

void BM_BackendSemaphore_Combining(benchmark::State& state) {
  backend_semaphore_loop(state, g_combining_sem);
}
BENCHMARK(BM_BackendSemaphore_Combining)
    ->Name("BM_BackendSemaphore/combining")
    ->Threads(4)->UseRealTime();

ParallelQueue<std::uint64_t, krs::analysis::DefaultInstrument, AtomicBackend>
    g_atomic_queue(1024, g_atomic_backend);
ParallelQueue<std::uint64_t, krs::analysis::DefaultInstrument,
              CombiningBackend>
    g_combining_queue(1024, g_combining_backend);

template <typename Q>
void backend_queue_loop(benchmark::State& state, Q& q) {
  // Even threads produce, odd threads consume (as BM_ParallelQueue).
  const bool producer = state.thread_index() % 2 == 0;
  std::uint64_t v = 0;
  for (auto _ : state) {
    if (producer) {
      q.enqueue(++v);
    } else {
      benchmark::DoNotOptimize(q.dequeue());
    }
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_BackendQueue_Atomic(benchmark::State& state) {
  backend_queue_loop(state, g_atomic_queue);
}
BENCHMARK(BM_BackendQueue_Atomic)
    ->Name("BM_BackendQueue/atomic")
    ->Threads(4)->UseRealTime();

void BM_BackendQueue_Combining(benchmark::State& state) {
  backend_queue_loop(state, g_combining_queue);
}
BENCHMARK(BM_BackendQueue_Combining)
    ->Name("BM_BackendQueue/combining")
    ->Threads(4)->UseRealTime();

// --- the sim dimension (E17) -------------------------------------------------
//
// Each primitive's hot-path RMW pattern on the simulated Omega machine
// (n = 8 processors), injected as full waves so the cost is deterministic.
// Reported counters are PAPER UNITS:
//   cycles_per_op       — network cycles per completed RMW (cf. the §6
//                         O(lg n) claims; one uncontended round trip on
//                         this machine is 2·lg n + 1 + memory latency)
//   combine_rate        — switch combine events per network op (§4.2)
//   mean_latency_cycles — mean issue→reply latency
//   sim_cycles          — total simulated cycles (scales with iterations)
// The `workers` arg is the ENGINE worker count: it must not change any
// counter (the parallel engine is bit-identical) — pinned by
// test_sim_backend.cpp and visible in the JSON as identical rows.

using krs::core::AnyRmw;
using krs::core::FetchAdd;
using krs::core::LssOp;

constexpr unsigned kSimLogProcs = 3;  // n = 8

SimBackend make_sim_backend(benchmark::State& state) {
  return SimBackend(SimBackendConfig{
      .log2_procs = kSimLogProcs,
      .engine_workers = static_cast<unsigned>(state.range(0))});
}

std::vector<SimBackend::WaveOp> full_wave(const SimBackend& b,
                                          const SimBackend::Cell& cell,
                                          const AnyRmw& op) {
  return std::vector<SimBackend::WaveOp>(b.processors(),
                                         SimBackend::WaveOp{&cell, op});
}

void report_sim_counters(benchmark::State& state, const SimBackend& b) {
  const SimBackendStats st = b.stats();
  state.counters["cycles_per_op"] = st.cycles_per_op();
  state.counters["combine_rate"] = st.combine_rate();
  state.counters["mean_latency_cycles"] = st.mean_latency();
  state.counters["sim_cycles"] = static_cast<double>(st.cycles);
  state.SetItemsProcessed(static_cast<std::int64_t>(st.ops()));
}

void BM_SimCounter(benchmark::State& state) {
  // The hotspot counter: every processor fetch-adds the same cell at once.
  SimBackend b = make_sim_backend(state);
  SimBackend::Cell cell(b, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.run_wave(full_wave(b, cell, AnyRmw(FetchAdd(1)))));
  }
  report_sim_counters(state, b);
}
BENCHMARK(BM_SimCounter)
    ->Name("BM_SimCoordination/counter")
    ->ArgNames({"workers"})->Arg(1)->Arg(2);

void BM_SimBarrier(benchmark::State& state) {
  // One barrier episode: all n increment the arrival count, all n read the
  // phase word while waiting, the last arriver advances the phase.
  SimBackend b = make_sim_backend(state);
  SimBackend::Cell count(b, 0);
  SimBackend::Cell phase(b, 0);
  for (auto _ : state) {
    (void)b.run_wave(full_wave(b, count, AnyRmw(FetchAdd(1))));
    (void)b.run_wave(full_wave(b, phase, AnyRmw(LssOp::load())));
    (void)b.run_wave({{&phase, AnyRmw(FetchAdd(1))}});
  }
  report_sim_counters(state, b);
}
BENCHMARK(BM_SimBarrier)
    ->Name("BM_SimCoordination/barrier")
    ->ArgNames({"workers"})->Arg(1)->Arg(2);

void BM_SimRwLock(benchmark::State& state) {
  // Read-mostly acquire/release: all n join the reader count, all n leave.
  // (The writer path is the same fetch-add traffic on the same word with a
  // writer-weight operand, so the reader wave is the cost-carrying shape.)
  SimBackend b = make_sim_backend(state);
  SimBackend::Cell word(b, 0);
  for (auto _ : state) {
    (void)b.run_wave(full_wave(b, word, AnyRmw(FetchAdd(1))));
    (void)b.run_wave(full_wave(b, word, AnyRmw(FetchAdd(Word(0) - 1))));
  }
  report_sim_counters(state, b);
}
BENCHMARK(BM_SimRwLock)
    ->Name("BM_SimCoordination/rwlock")
    ->ArgNames({"workers"})->Arg(1)->Arg(2);

void BM_SimSemaphore(benchmark::State& state) {
  // P then V from every processor: decrement wave, increment wave.
  SimBackend b = make_sim_backend(state);
  SimBackend::Cell sem(b, 8);
  for (auto _ : state) {
    (void)b.run_wave(full_wave(b, sem, AnyRmw(FetchAdd(Word(0) - 1))));
    (void)b.run_wave(full_wave(b, sem, AnyRmw(FetchAdd(1))));
  }
  report_sim_counters(state, b);
}
BENCHMARK(BM_SimSemaphore)
    ->Name("BM_SimCoordination/semaphore")
    ->ArgNames({"workers"})->Arg(1)->Arg(2);

void BM_SimQueue(benchmark::State& state) {
  // The parallel FIFO's traffic: a tail-ticket wave (hot), one swap per
  // processor into its own slot (conflict-free), then a head-ticket wave.
  SimBackend b = make_sim_backend(state);
  SimBackend::Cell tail(b, 0);
  SimBackend::Cell head(b, 0);
  std::vector<std::unique_ptr<SimBackend::Cell>> slots;  // cells don't move
  for (std::uint32_t p = 0; p < b.processors(); ++p) {
    slots.push_back(std::make_unique<SimBackend::Cell>(b, 0));
  }
  for (auto _ : state) {
    (void)b.run_wave(full_wave(b, tail, AnyRmw(FetchAdd(1))));
    std::vector<SimBackend::WaveOp> deposit;
    for (std::uint32_t p = 0; p < b.processors(); ++p) {
      deposit.push_back({slots[p].get(), AnyRmw(LssOp::swap(p + 1))});
    }
    (void)b.run_wave(deposit);
    (void)b.run_wave(full_wave(b, head, AnyRmw(FetchAdd(1))));
  }
  report_sim_counters(state, b);
}
BENCHMARK(BM_SimQueue)
    ->Name("BM_SimCoordination/queue")
    ->ArgNames({"workers"})->Arg(1)->Arg(2);

// --- stochastic arrival scenarios (the workload dimension) ------------------
//
// The wave rows above cost the primitives under SIMULTANEOUS arrivals —
// the §4.2 best case. These rows cost the same machine under the paper's
// stochastic arrival models instead, via SimBackend::run_traffic: each
// simulated processor is fed by a src/workload generator (hot-spot
// mixture, on/off bursty, closed-loop with think times), so cycles_per_op
// gains a `scenario` dimension and the per-op latency distribution comes
// out in machine cycles (latency_p50/p99_cycles). Deterministic like the
// waves: fixed seeds, fixed poll order, engine-independent.

template <typename MakeSource>
void sim_scenario_loop(benchmark::State& state, MakeSource make_source) {
  SimBackend b = make_sim_backend(state);
  std::vector<std::unique_ptr<SimBackend::Cell>> cells;  // cells don't move
  for (unsigned i = 0; i < 8; ++i) {
    cells.push_back(std::make_unique<SimBackend::Cell>(b, 0));
  }
  std::uint64_t ops = 0;
  std::uint64_t cycles = 0;
  krs::util::LogHistogram lat;
  for (auto _ : state) {
    std::vector<std::unique_ptr<krs::proc::TrafficSource<AnyRmw>>> sources;
    std::vector<krs::proc::TrafficSource<AnyRmw>*> generators;
    for (std::uint32_t p = 0; p < b.processors(); ++p) {
      sources.push_back(make_source(p));
      generators.push_back(sources.back().get());
    }
    const SimBackend::TrafficResult res = b.run_traffic(generators, 1 << 20);
    ops += res.ops;
    cycles += res.cycles;
    lat.merge(res.latency);
  }
  state.counters["cycles_per_op"] =
      ops > 0 ? static_cast<double>(cycles) / static_cast<double>(ops) : 0.0;
  state.counters["latency_p50_cycles"] = lat.percentile(0.50);
  state.counters["latency_p99_cycles"] = lat.percentile(0.99);
  state.counters["combine_rate"] = b.stats().combine_rate();
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}

constexpr std::uint64_t kScenarioOpsPerProc = 256;

AnyRmw make_add(krs::util::Xoshiro256&) { return AnyRmw(FetchAdd(1)); }

void BM_SimScenarioHotspot(benchmark::State& state) {
  // 90% of arrivals hit cell 0, full rate: the Pfister–Norton mixture.
  sim_scenario_loop(state, [](std::uint32_t p) {
    return std::make_unique<krs::workload::HotSpotSource<AnyRmw>>(
        krs::workload::HotSpotSource<AnyRmw>::Params{
            .total = kScenarioOpsPerProc, .hot_fraction = 0.9,
            .hot_addr = 0, .addr_space = 8},
        make_add, 0x5eed0000u + p);
  });
}
BENCHMARK(BM_SimScenarioHotspot)
    ->Name("BM_SimCoordination/scenario_hotspot")
    ->ArgNames({"workers"})->Arg(1);

void BM_SimScenarioUniform(benchmark::State& state) {
  // h = 0: uniform traffic across all eight cells, the contention floor.
  sim_scenario_loop(state, [](std::uint32_t p) {
    return std::make_unique<krs::workload::HotSpotSource<AnyRmw>>(
        krs::workload::HotSpotSource<AnyRmw>::Params{
            .total = kScenarioOpsPerProc, .hot_fraction = 0.0,
            .hot_addr = 0, .addr_space = 8},
        make_add, 0x5eed1000u + p);
  });
}
BENCHMARK(BM_SimScenarioUniform)
    ->Name("BM_SimCoordination/scenario_uniform")
    ->ArgNames({"workers"})->Arg(1);

void BM_SimScenarioBursty(benchmark::State& state) {
  // On/off arrivals, thinned to half rate inside a burst: mean load is
  // modest but the ON-period spikes queue at the hot module — the shape
  // that separates the latency tail from the throughput mean.
  sim_scenario_loop(state, [](std::uint32_t p) {
    return std::make_unique<krs::workload::BurstySource<AnyRmw>>(
        krs::workload::BurstySource<AnyRmw>::Params{
            .total = kScenarioOpsPerProc, .hot_fraction = 0.9,
            .hot_addr = 0, .addr_space = 8, .rate = 0.5,
            .mean_on = 64.0, .mean_off = 64.0},
        make_add, 0x5eed2000u + p);
  });
}
BENCHMARK(BM_SimScenarioBursty)
    ->Name("BM_SimCoordination/scenario_bursty")
    ->ArgNames({"workers"})->Arg(1);

void BM_SimScenarioClosed(benchmark::State& state) {
  // Four logical clients per processor, exponential think times: offered
  // load self-limits with the machine's service time.
  sim_scenario_loop(state, [](std::uint32_t p) {
    return std::make_unique<krs::workload::ClosedLoopSource<AnyRmw>>(
        krs::workload::ClosedLoopSource<AnyRmw>::Params{
            .total = kScenarioOpsPerProc, .clients = 4, .think_mean = 16.0,
            .hot_fraction = 0.9, .hot_addr = 0, .addr_space = 8},
        make_add, 0x5eed3000u + p);
  });
}
BENCHMARK(BM_SimScenarioClosed)
    ->Name("BM_SimCoordination/scenario_closed")
    ->ArgNames({"workers"})->Arg(1);

void BM_SimCounterScale(benchmark::State& state) {
  // The counter hotspot swept over machine size k ∈ {6, 8, 10}
  // (n = 64 … 1024 processors) × combine policy on/off. With combining
  // disabled the switches forward every request unmerged and the hot
  // module serializes all n, so a processor's issue→reply latency grows
  // LINEARLY in n (mean_latency_cycles ≈ n/2 + network transit — the §1
  // hot-spot cost); with it on, requests merge in lg n stages and the
  // latency stays at the 2·lg n + O(1) pipe while cycles_per_op drops by
  // the absorbed fraction. The normalized series rows
  // "counter_scale/k=K/combine={0,1}" pin both curves; §4.2's claim is
  // their widening gap as k grows.
  const auto k = static_cast<unsigned>(state.range(0));
  const bool combine = state.range(1) != 0;
  krs::net::SwitchConfig sw;
  sw.policy = combine ? krs::net::CombinePolicy::kUnlimited
                      : krs::net::CombinePolicy::kNone;
  SimBackend b(SimBackendConfig{
      .log2_procs = k, .engine_workers = 1, .switch_cfg = sw});
  SimBackend::Cell cell(b, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        b.run_wave(full_wave(b, cell, AnyRmw(FetchAdd(1)))));
  }
  report_sim_counters(state, b);
}
BENCHMARK(BM_SimCounterScale)
    ->Name("BM_SimCoordination/counter_scale")
    ->ArgNames({"k", "combine"})
    ->Args({6, 0})->Args({6, 1})
    ->Args({8, 0})->Args({8, 1})
    ->Args({10, 0})->Args({10, 1});

// --- barriers ---------------------------------------------------------------

BasicBarrier<> g_faa_barrier(4);

void BM_FaaBarrier(benchmark::State& state) {
  for (auto _ : state) {
    g_faa_barrier.arrive_and_wait();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FaaBarrier)->Threads(4)->UseRealTime();

std::barrier<> g_std_barrier(4);

void BM_StdBarrier(benchmark::State& state) {
  for (auto _ : state) {
    g_std_barrier.arrive_and_wait();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StdBarrier)->Threads(4)->UseRealTime();

// --- readers-writers ----------------------------------------------------------

BasicRwLock<> g_faa_rw;
long g_rw_value = 0;

void BM_FaaRwLockReadMostly(benchmark::State& state) {
  for (auto _ : state) {
    if (state.thread_index() == 0) {
      g_faa_rw.write_lock();
      ++g_rw_value;
      g_faa_rw.write_unlock();
    } else {
      g_faa_rw.read_lock();
      benchmark::DoNotOptimize(g_rw_value);
      g_faa_rw.read_unlock();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FaaRwLockReadMostly)->Threads(4)->UseRealTime();

std::shared_mutex g_shared_mutex;

void BM_SharedMutexReadMostly(benchmark::State& state) {
  for (auto _ : state) {
    if (state.thread_index() == 0) {
      std::unique_lock lk(g_shared_mutex);
      ++g_rw_value;
    } else {
      std::shared_lock lk(g_shared_mutex);
      benchmark::DoNotOptimize(g_rw_value);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SharedMutexReadMostly)->Threads(4)->UseRealTime();

// --- semaphore ----------------------------------------------------------------

BasicSemaphore<> g_sem(2);

void BM_FaaSemaphore(benchmark::State& state) {
  for (auto _ : state) {
    g_sem.p();
    benchmark::ClobberMemory();
    g_sem.v();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FaaSemaphore)->Threads(4)->UseRealTime();

// --- locks ---------------------------------------------------------------------

TicketLock g_ticket;
long g_locked_counter = 0;

void BM_TicketLock(benchmark::State& state) {
  for (auto _ : state) {
    g_ticket.lock();
    benchmark::DoNotOptimize(++g_locked_counter);
    g_ticket.unlock();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TicketLock)
    ->Threads(1)->Threads(4)->Threads(8)->UseRealTime();

std::mutex g_plain_mutex;

void BM_StdMutexLock(benchmark::State& state) {
  for (auto _ : state) {
    std::scoped_lock lk(g_plain_mutex);
    benchmark::DoNotOptimize(++g_locked_counter);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StdMutexLock)
    ->Threads(1)->Threads(4)->Threads(8)->UseRealTime();

// --- queues --------------------------------------------------------------------

ParallelQueue<std::uint64_t> g_pqueue(1024);

void BM_ParallelQueue(benchmark::State& state) {
  // Even threads produce, odd threads consume.
  const bool producer = state.thread_index() % 2 == 0;
  std::uint64_t v = 0;
  for (auto _ : state) {
    if (producer) {
      g_pqueue.enqueue(++v);
    } else {
      benchmark::DoNotOptimize(g_pqueue.dequeue());
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ParallelQueue)->Threads(2)->Threads(4)->UseRealTime();

class MutexQueue {
 public:
  void enqueue(std::uint64_t v) {
    std::unique_lock lk(m_);
    not_full_.wait(lk, [&] { return q_.size() < 1024; });
    q_.push_back(v);
    not_empty_.notify_one();
  }
  std::uint64_t dequeue() {
    std::unique_lock lk(m_);
    not_empty_.wait(lk, [&] { return !q_.empty(); });
    const auto v = q_.front();
    q_.pop_front();
    not_full_.notify_one();
    return v;
  }

 private:
  std::mutex m_;
  std::condition_variable not_full_, not_empty_;
  std::deque<std::uint64_t> q_;
};

MutexQueue g_mqueue;

void BM_MutexQueue(benchmark::State& state) {
  const bool producer = state.thread_index() % 2 == 0;
  std::uint64_t v = 0;
  for (auto _ : state) {
    if (producer) {
      g_mqueue.enqueue(++v);
    } else {
      benchmark::DoNotOptimize(g_mqueue.dequeue());
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MutexQueue)->Threads(2)->Threads(4)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
