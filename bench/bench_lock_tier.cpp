// The lock tier, measured honestly against combining: one hot counter
// driven through six RMW substrates —
//
//   spin      — BasicParkingLock<SpinWait> behind LockBackend: the same
//               3-state mutex as `futex`, busy-waiting. The BASELINE every
//               ratio divides by.
//   ticket    — the FIFO fetch-and-add ticket lock (proportional backoff).
//   mcs       — the MCS queue lock: each waiter spins on its own
//               stack-resident node, O(1) remote references per handoff.
//   clh       — the CLH implicit-queue lock: spin on the predecessor's
//               node, release is one local store.
//   futex     — BasicParkingLock<FutexWait>: the same algorithm as `spin`
//               with contended waiters PARKED in the kernel. The spin/futex
//               pair isolates the parking decision from everything else.
//   combining — the software combining tree (CombiningBackend), the
//               paper's substrate, for scale.
//
// Thread counts sweep threads < cores, = cores, and 4×cores — the
// oversubscribed regime is where parking pays: a spinning waiter burns
// the quantum the lock HOLDER needs to release, while a parked waiter
// hands it over. normalize.py folds the rows into the
// `lock_tier_ops_ratio` series (ops of each impl over ops of `spin`, per
// thread count; > 1.0 beats pure spinning) — read it against host_cpus.
//
// Wait-side telemetry rides along: every thread samples its
// thread_wait_stats() delta across the measured loop and reports
// wait_spins / wait_yields / wait_parks / wait_wakes counters (summed
// over threads), so the futex rows SHOW the spin→park transition that
// explains their throughput.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "runtime/combining_backend.hpp"
#include "runtime/local_spin_locks.hpp"
#include "runtime/rmw_backend.hpp"
#include "runtime/wait_policy.hpp"

using namespace krs::runtime;

namespace {

template <typename B>
void lock_tier_loop(benchmark::State& state, B& backend,
                    typename B::Cell& cell) {
  const WaitStats before = thread_wait_stats();
  for (auto _ : state) {
    benchmark::DoNotOptimize(backend.fetch_add(cell, 1));
  }
  const WaitStats delta = thread_wait_stats() - before;
  state.SetItemsProcessed(state.iterations());
  using benchmark::Counter;
  state.counters["wait_spins"] = Counter(static_cast<double>(delta.spins));
  state.counters["wait_yields"] = Counter(static_cast<double>(delta.yields));
  state.counters["wait_parks"] = Counter(static_cast<double>(delta.parks));
  state.counters["wait_wakes"] = Counter(static_cast<double>(delta.wakes));
}

// One rig per substrate, shared across thread counts like the other
// cross-substrate benches. The combining tree is sized to the largest
// thread count in the sweep.
LockBackend<BasicParkingLock<SpinWait>> g_spin;
LockBackend<TicketLock> g_ticket;
LockBackend<McsLock> g_mcs;
LockBackend<ClhLock> g_clh;
LockBackend<ParkingLock> g_futex;
CombiningBackend g_combining{16};

LockBackend<BasicParkingLock<SpinWait>>::Cell g_spin_cell(g_spin, 0);
LockBackend<TicketLock>::Cell g_ticket_cell(g_ticket, 0);
LockBackend<McsLock>::Cell g_mcs_cell(g_mcs, 0);
LockBackend<ClhLock>::Cell g_clh_cell(g_clh, 0);
LockBackend<ParkingLock>::Cell g_futex_cell(g_futex, 0);
CombiningBackend::Cell g_combining_cell(g_combining, 0);

/// threads < cores, = cores, ≫ cores (4×), deduplicated and sorted so a
/// 1-CPU host still sweeps {1, 2, 4} and an 8-CPU host {1, 2, 8, 32}.
void lock_tier_threads(benchmark::internal::Benchmark* b) {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  std::vector<unsigned> counts{1u, 2u, cores, 4u * cores};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  for (const unsigned t : counts) b->Threads(static_cast<int>(t));
  b->UseRealTime();
}

#define KRS_LOCK_TIER_BENCH(fn, rig, cell, bench_name)          \
  void fn(benchmark::State& state) {                            \
    lock_tier_loop(state, rig, cell);                           \
  }                                                             \
  BENCHMARK(fn)->Name(bench_name)->Apply(lock_tier_threads)

KRS_LOCK_TIER_BENCH(BM_LockTierSpin, g_spin, g_spin_cell,
                    "BM_LockTier/spin");
KRS_LOCK_TIER_BENCH(BM_LockTierTicket, g_ticket, g_ticket_cell,
                    "BM_LockTier/ticket");
KRS_LOCK_TIER_BENCH(BM_LockTierMcs, g_mcs, g_mcs_cell,
                    "BM_LockTier/mcs");
KRS_LOCK_TIER_BENCH(BM_LockTierClh, g_clh, g_clh_cell,
                    "BM_LockTier/clh");
KRS_LOCK_TIER_BENCH(BM_LockTierFutex, g_futex, g_futex_cell,
                    "BM_LockTier/futex");
KRS_LOCK_TIER_BENCH(BM_LockTierCombining, g_combining, g_combining_cell,
                    "BM_LockTier/combining");

#undef KRS_LOCK_TIER_BENCH

}  // namespace

BENCHMARK_MAIN();
