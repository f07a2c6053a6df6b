// Real-thread runtime: fetch-and-op wrappers, the software combining tree,
// full/empty cells, and the fetch-and-add coordination algorithms, all
// stress-tested for the invariants the paper's formalism promises
// (serializability of RMW: distinct tickets, conserved sums, FIFO order).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "core/any_rmw.hpp"
#include "runtime/backoff.hpp"
#include "runtime/combining_backend.hpp"
#include "runtime/coordination.hpp"
#include "runtime/rmw_backend.hpp"
#include "runtime/full_empty_cell.hpp"
#include "runtime/parallel_queue.hpp"
#include "runtime/group_lock.hpp"
#include "runtime/local_spin_locks.hpp"
#include "runtime/tree_barrier.hpp"
#include "runtime/wait_policy.hpp"

namespace {

using namespace krs::runtime;

unsigned hw_threads() {
  return std::max(2u, std::min(8u, std::thread::hardware_concurrency()));
}

// --- busy-wait pacing policies ----------------------------------------------

// The one wait schedule, pinned through SpinYieldWait and read back from
// the thread's wait telemetry (a policy flushes on reset and destruction).
WaitStats spin_yield_rounds(int rounds) {
  const WaitStats before = thread_wait_stats();
  {
    SpinYieldWait pol;
    for (int i = 0; i < rounds; ++i) pol.pause();
  }
  return thread_wait_stats() - before;
}

TEST(Backoff, ExpBackoffDoublesToCapThenSaturates) {
  // Round r spins 2^r pauses while r < kSpinRounds, doubling to kSpinCap.
  for (int k = 1; k <= static_cast<int>(SpinYieldWait::kSpinRounds); ++k) {
    const WaitStats d = spin_yield_rounds(k);
    EXPECT_EQ(d.spins, (1u << k) - 1);
    EXPECT_EQ(d.yields, 0u);
  }
  static_assert(SpinYieldWait::kSpinCap == 64);
  // Past the cap every round is one yield and the spin total stays put.
  const WaitStats d = spin_yield_rounds(10);
  EXPECT_EQ(d.spins, 127u);
  EXPECT_EQ(d.yields, 3u);
  EXPECT_EQ(d.parks, 0u);
}

TEST(Backoff, ExpBackoffResetRestartsTheSchedule) {
  SpinYieldWait pol;
  for (int i = 0; i < 10; ++i) pol.pause();
  pol.reset();  // flushes the ten rounds and re-arms the schedule
  const WaitStats before = thread_wait_stats();
  pol.pause();
  pol.reset();
  WaitStats d = thread_wait_stats() - before;
  EXPECT_EQ(d.spins, 1u);  // back at the first round's single pause
  EXPECT_EQ(d.yields, 0u);
  pol.pause();
  pol.pause();
  pol.reset();
  d = thread_wait_stats() - before;
  EXPECT_EQ(d.spins, 1u + 1u + 2u);
  EXPECT_EQ(d.yields, 0u);
}

TEST(Backoff, ProportionalScheduleIsLinearUntilYieldThreshold) {
  // ahead == 0 (served next): no wait at all.
  EXPECT_EQ(proportional_spin_count(0), 0u);
  EXPECT_EQ(proportional_spin_count(1), kProportionalSpinsPerWaiter);
  EXPECT_EQ(proportional_spin_count(5), 5 * kProportionalSpinsPerWaiter);
  EXPECT_EQ(proportional_spin_count(kProportionalYieldAhead - 1),
            (kProportionalYieldAhead - 1) * kProportionalSpinsPerWaiter);
  // At the threshold and beyond the waiter yields instead of spinning.
  EXPECT_EQ(proportional_spin_count(kProportionalYieldAhead), 0u);
  EXPECT_EQ(proportional_spin_count(1'000'000), 0u);
}

TEST(Backoff, ProportionalBackoffRunsInAllRegimes) {
  // The pure schedule above pins the behavior; this just exercises the
  // side-effecting wrapper in its three regimes (no-op, spin, yield).
  proportional_backoff(0);
  proportional_backoff(3);
  proportional_backoff(kProportionalYieldAhead + 1);
}

// --- the §5 fetch-and-θ repertoire on hardware atomics ----------------------

TEST(FetchAndOp, Basics) {
  AtomicBackend b;
  AtomicBackend::Cell x(b, 10);
  EXPECT_EQ(b.fetch_add(x, 5), 10u);
  EXPECT_EQ(b.fetch_or(x, 0xF0), 15u);
  EXPECT_EQ(b.fetch_and(x, 0x0F), 0xFFu);
  EXPECT_EQ(b.fetch_xor(x, 0xFF), 0x0Fu);
  EXPECT_EQ(b.load(x), 0xF0u);
  EXPECT_EQ(b.exchange(x, 3), 0xF0u);
  EXPECT_EQ(b.load(x), 3u);
}

TEST(FetchAndOp, TestAndSet) {
  // test-and-set(X) ≡ fetch-and-OR(X, 1) (§5.2).
  AtomicBackend b;
  AtomicBackend::Cell x(b, 0);
  EXPECT_EQ(b.fetch_or(x, 1) & 1, 0u);
  EXPECT_EQ(b.fetch_or(x, 1) & 1, 1u);
  EXPECT_EQ(b.load(x), 1u);
}

TEST(FetchAndOp, MinMax) {
  using krs::core::AnyRmw;
  using krs::core::FetchMax;
  using krs::core::FetchMin;
  AtomicBackend b;
  AtomicBackend::Cell x(b, 50);
  EXPECT_EQ(b.fetch_rmw(x, AnyRmw(FetchMin(30))), 50u);
  EXPECT_EQ(b.load(x), 30u);
  EXPECT_EQ(b.fetch_rmw(x, AnyRmw(FetchMin(40))), 30u);
  EXPECT_EQ(b.load(x), 30u);
  EXPECT_EQ(b.fetch_rmw(x, AnyRmw(FetchMax(99))), 30u);
  EXPECT_EQ(b.load(x), 99u);
}

TEST(FetchAndOp, ConcurrentAddsAreTickets) {
  AtomicBackend b;
  AtomicBackend::Cell x(b, 0);
  constexpr unsigned kPer = 2000;
  const unsigned nt = hw_threads();
  std::vector<std::vector<Word>> tickets(nt);
  {
    std::vector<std::jthread> ts;
    for (unsigned t = 0; t < nt; ++t) {
      ts.emplace_back([&, t] {
        for (unsigned i = 0; i < kPer; ++i)
          tickets[t].push_back(b.fetch_add(x, 1));
      });
    }
  }
  std::set<Word> all;
  for (const auto& v : tickets) all.insert(v.begin(), v.end());
  EXPECT_EQ(all.size(), static_cast<std::size_t>(nt) * kPer);
  EXPECT_EQ(b.load(x), static_cast<Word>(nt) * kPer);
}

TEST(FetchAndOp, GeneralTheta) {
  // A mapping with no hardware instruction (x ↦ 3x + 1) takes the CAS-loop
  // fetch_rmw path.
  AtomicBackend b;
  AtomicBackend::Cell x(b, 7);
  EXPECT_EQ(b.fetch_rmw(x, krs::core::AnyRmw(krs::core::Affine(3, 1))), 7u);
  EXPECT_EQ(b.load(x), 22u);
}

// --- combining tree, served through CombiningBackend ---------------------------
//
// No explicit slots: each thread's leaf comes from thread_ordinal(). The
// explicit-slot surface (MappingCombiningTree) is covered in
// test_lockfree_combining.cpp.

TEST(CombiningTree, SingleThreadSequence) {
  CombiningBackend b(4);
  CombiningBackend::Cell c(b, 100);
  EXPECT_EQ(b.fetch_add(c, 5), 100u);
  EXPECT_EQ(b.fetch_add(c, 7), 105u);
  EXPECT_EQ(b.fetch_add(c, 1), 112u);
  EXPECT_EQ(b.load(c), 113u);
}

TEST(CombiningTree, ConcurrentIncrementsGiveDistinctTickets) {
  const unsigned width = 8;
  CombiningBackend b(width);
  CombiningBackend::Cell c(b, 0);
  constexpr unsigned kPer = 300;
  std::vector<std::vector<Word>> got(width);
  {
    std::vector<std::jthread> ts;
    for (unsigned t = 0; t < width; ++t) {
      ts.emplace_back([&, t] {
        for (unsigned i = 0; i < kPer; ++i)
          got[t].push_back(b.fetch_add(c, 1));
      });
    }
  }
  std::set<Word> all;
  for (const auto& v : got) {
    // Per-thread tickets strictly increase (M2.3 at the tree level).
    EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
    all.insert(v.begin(), v.end());
  }
  EXPECT_EQ(all.size(), static_cast<std::size_t>(width) * kPer);
  EXPECT_EQ(*all.begin(), 0u);
  EXPECT_EQ(*all.rbegin(), Word{width} * kPer - 1);
  EXPECT_EQ(b.load(c), Word{width} * kPer);
}

TEST(CombiningTree, ArbitraryAddendsConserveSum) {
  const unsigned width = 8;
  CombiningBackend b(width);
  CombiningBackend::Cell c(b, 0);
  constexpr unsigned kPer = 200;
  std::atomic<Word> expected{0};
  {
    std::vector<std::jthread> ts;
    for (unsigned t = 0; t < width; ++t) {
      ts.emplace_back([&, t] {
        Word local = 0;
        for (unsigned i = 0; i < kPer; ++i) {
          const Word v = (t * kPer + i) % 17 + 1;
          b.fetch_add(c, v);
          local += v;
        }
        expected.fetch_add(local);
      });
    }
  }
  EXPECT_EQ(b.load(c), expected.load());
}

TEST(CombiningTree, TwoThreadsPerLeafShareCorrectly) {
  // Width 2: one leaf, so every pair of concurrent ops meets there — the
  // most combining-prone configuration.
  CombiningBackend b(2);
  CombiningBackend::Cell c(b, 0);
  constexpr unsigned kPer = 500;
  {
    std::jthread t0([&] {
      for (unsigned i = 0; i < kPer; ++i) b.fetch_add(c, 1);
    });
    std::jthread t1([&] {
      for (unsigned i = 0; i < kPer; ++i) b.fetch_add(c, 1);
    });
  }
  EXPECT_EQ(b.load(c), 2 * Word{kPer});
}

// --- full/empty cell ---------------------------------------------------------

TEST(FullEmptyCell, PutTakeBasics) {
  FullEmptyCell<int> cell;
  EXPECT_FALSE(cell.full());
  EXPECT_FALSE(cell.try_take().has_value());
  EXPECT_TRUE(cell.try_put(42));
  EXPECT_TRUE(cell.full());
  EXPECT_FALSE(cell.try_put(43));  // nack on full (store-if-clear)
  EXPECT_EQ(cell.try_read(), 42);
  EXPECT_TRUE(cell.full());  // read leaves it full
  EXPECT_EQ(cell.try_take(), 42);
  EXPECT_FALSE(cell.full());
}

TEST(FullEmptyCell, InitiallyFullConstructor) {
  FullEmptyCell<int> cell(7);
  EXPECT_TRUE(cell.full());
  EXPECT_EQ(cell.take(), 7);
}

TEST(FullEmptyCell, OverwriteIsUnconditional) {
  FullEmptyCell<int> cell;
  cell.overwrite(1);
  EXPECT_TRUE(cell.full());
  cell.overwrite(2);  // store-and-set on a full cell
  EXPECT_EQ(cell.take(), 2);
}

TEST(FullEmptyCell, ProducerConsumerHandsOffEveryValue) {
  FullEmptyCell<int> cell;
  constexpr int kN = 5000;
  std::vector<int> received;
  {
    std::jthread producer([&] {
      for (int i = 0; i < kN; ++i) cell.put(i);
    });
    std::jthread consumer([&] {
      for (int i = 0; i < kN; ++i) received.push_back(cell.take());
    });
  }
  ASSERT_EQ(received.size(), static_cast<std::size_t>(kN));
  for (int i = 0; i < kN; ++i) EXPECT_EQ(received[i], i);
}

TEST(FullEmptyCell, ManyProducersManyConsumers) {
  FullEmptyCell<int> cell;
  const unsigned np = 4, nc = 4;
  constexpr int kPer = 500;
  std::atomic<long> sum{0};
  {
    std::vector<std::jthread> ts;
    for (unsigned p = 0; p < np; ++p) {
      ts.emplace_back([&] {
        for (int i = 1; i <= kPer; ++i) cell.put(i);
      });
    }
    for (unsigned c = 0; c < nc; ++c) {
      ts.emplace_back([&] {
        long local = 0;
        for (int i = 0; i < kPer; ++i) local += cell.take();
        sum.fetch_add(local);
      });
    }
  }
  EXPECT_EQ(sum.load(), static_cast<long>(np) * (kPer * (kPer + 1) / 2));
  EXPECT_FALSE(cell.full());
}

// --- barrier -----------------------------------------------------------------

TEST(FaaBarrier, PhasesStayAligned) {
  const unsigned nt = hw_threads();
  BasicBarrier<> barrier(nt);
  constexpr int kPhases = 200;
  std::vector<int> counters(kPhases, 0);
  std::atomic<bool> torn{false};
  {
    std::vector<std::jthread> ts;
    for (unsigned t = 0; t < nt; ++t) {
      ts.emplace_back([&] {
        for (int ph = 0; ph < kPhases; ++ph) {
          // Non-atomic increment: safe only if barrier separates phases.
          __atomic_fetch_add(&counters[ph], 1, __ATOMIC_RELAXED);
          barrier.arrive_and_wait();
          if (counters[ph] != static_cast<int>(nt)) torn = true;
        }
      });
    }
  }
  EXPECT_FALSE(torn.load());
  for (int ph = 0; ph < kPhases; ++ph) EXPECT_EQ(counters[ph], static_cast<int>(nt));
}

// --- combining-tree barrier ----------------------------------------------------

TEST(TreeBarrier, PhasesStayAlignedPowerOfTwo) {
  const unsigned nt = 4;
  krs::runtime::TreeBarrier barrier(nt);
  constexpr int kPhases = 300;
  std::vector<int> counters(kPhases, 0);
  {
    std::vector<std::jthread> ts;
    for (unsigned t = 0; t < nt; ++t) {
      ts.emplace_back([&, t] {
        for (int ph = 0; ph < kPhases; ++ph) {
          __atomic_fetch_add(&counters[ph], 1, __ATOMIC_RELAXED);
          barrier.arrive_and_wait(t);
          EXPECT_EQ(counters[ph], static_cast<int>(nt));
        }
      });
    }
  }
}

TEST(TreeBarrier, WorksForOddPartyCounts) {
  for (const unsigned nt : {1u, 3u, 5u, 7u}) {
    krs::runtime::TreeBarrier barrier(nt);
    constexpr int kPhases = 100;
    std::atomic<int> sum{0};
    {
      std::vector<std::jthread> ts;
      for (unsigned t = 0; t < nt; ++t) {
        ts.emplace_back([&, t] {
          for (int ph = 0; ph < kPhases; ++ph) {
            sum.fetch_add(1);
            barrier.arrive_and_wait(t);
            // After the barrier, everyone's arrival for this phase is in.
            EXPECT_GE(sum.load(), (ph + 1) * static_cast<int>(nt));
          }
        });
      }
    }
    EXPECT_EQ(sum.load(), kPhases * static_cast<int>(nt));
  }
}

// --- arrival order: a barrier owns its phase state ------------------------------
//
// Party 1 arrives alone and must not return until party 0 arrives, in the
// first phase and in the next one. A barrier whose phase state starts out
// already "released" for one of its callers lets party 1 walk through.

template <typename Arrive>
void second_party_arrives_first(Arrive arrive) {
  using namespace std::chrono_literals;
  for (int phase = 0; phase < 2; ++phase) {
    std::atomic<bool> party0_arrived{false};
    std::atomic<bool> left_alone{false};
    std::atomic<bool> party1_left{false};
    std::jthread party1([&] {
      arrive(1u);
      if (!party0_arrived.load()) left_alone = true;
      party1_left = true;
    });
    std::this_thread::sleep_for(100ms);
    EXPECT_FALSE(party1_left.load()) << "phase " << phase;
    party0_arrived = true;
    arrive(0u);
    party1.join();
    EXPECT_FALSE(left_alone.load()) << "phase " << phase;
  }
}

TEST(SecondPartyArrivesFirst, TreeBarrier) {
  TreeBarrier barrier(2);
  second_party_arrives_first(
      [&](unsigned slot) { barrier.arrive_and_wait(slot); });
}

TEST(SecondPartyArrivesFirst, AtomicBarrierSpinYield) {
  BasicBarrier<AtomicBackend, krs::analysis::DefaultInstrument, SpinYieldWait>
      barrier(2);
  second_party_arrives_first([&](unsigned) { barrier.arrive_and_wait(); });
}

TEST(SecondPartyArrivesFirst, AtomicBarrierFutex) {
  BasicBarrier<AtomicBackend, krs::analysis::DefaultInstrument, FutexWait>
      barrier(2);
  second_party_arrives_first([&](unsigned) { barrier.arrive_and_wait(); });
}

TEST(SecondPartyArrivesFirst, CombiningBarrier) {
  BasicBarrier<CombiningBackend> barrier(2, CombiningBackend(2));
  second_party_arrives_first([&](unsigned) { barrier.arrive_and_wait(); });
}

// --- readers-writers ---------------------------------------------------------

TEST(FaaRwLock, WritersAreExclusive) {
  BasicRwLock<> lock;
  long shared_value = 0;
  const unsigned nw = 4;
  constexpr int kPer = 2000;
  {
    std::vector<std::jthread> ts;
    for (unsigned w = 0; w < nw; ++w) {
      ts.emplace_back([&] {
        for (int i = 0; i < kPer; ++i) {
          lock.write_lock();
          ++shared_value;  // plain increment: lock must be exclusive
          lock.write_unlock();
        }
      });
    }
  }
  EXPECT_EQ(shared_value, static_cast<long>(nw) * kPer);
}

TEST(FaaRwLock, ReadersSeeConsistentSnapshots) {
  BasicRwLock<> lock;
  // Writer keeps a two-word invariant a == b; readers must never see a
  // torn pair.
  volatile long a = 0, b = 0;
  std::atomic<bool> stop{false};
  std::atomic<bool> torn{false};
  {
    std::jthread writer([&] {
      for (int i = 1; i <= 5000; ++i) {
        lock.write_lock();
        a = i;
        b = i;
        lock.write_unlock();
      }
      stop = true;
    });
    std::vector<std::jthread> readers;
    for (int r = 0; r < 3; ++r) {
      readers.emplace_back([&] {
        while (!stop.load()) {
          lock.read_lock();
          if (a != b) torn = true;
          lock.read_unlock();
        }
      });
    }
  }
  EXPECT_FALSE(torn.load());
}

// --- semaphore ---------------------------------------------------------------

TEST(FaaSemaphore, LimitsConcurrency) {
  constexpr std::int64_t kLimit = 3;
  BasicSemaphore<> sem(kLimit);
  std::atomic<int> inside{0};
  std::atomic<int> max_inside{0};
  const unsigned nt = hw_threads();
  {
    std::vector<std::jthread> ts;
    for (unsigned t = 0; t < nt; ++t) {
      ts.emplace_back([&] {
        for (int i = 0; i < 500; ++i) {
          sem.p();
          const int now = inside.fetch_add(1) + 1;
          int m = max_inside.load();
          while (now > m && !max_inside.compare_exchange_weak(m, now)) {
          }
          inside.fetch_sub(1);
          sem.v();
        }
      });
    }
  }
  EXPECT_LE(max_inside.load(), kLimit);
  EXPECT_EQ(sem.value(), kLimit);
}

TEST(FaaSemaphore, TryP) {
  BasicSemaphore<> sem(1);
  EXPECT_TRUE(sem.try_p());
  EXPECT_FALSE(sem.try_p());
  sem.v();
  EXPECT_TRUE(sem.try_p());
  sem.v();
}

// --- group lock (GLR [10]) -----------------------------------------------------

TEST(GroupLock, SameGroupOverlapsDifferentGroupsExclude) {
  krs::runtime::GroupLock lock;
  std::atomic<int> in_group[2] = {0, 0};
  std::atomic<bool> violation{false};
  std::atomic<int> max_same_group{0};
  const unsigned nt = hw_threads();
  {
    std::vector<std::jthread> ts;
    for (unsigned t = 0; t < nt; ++t) {
      ts.emplace_back([&, t] {
        const std::uint16_t g = t % 2;
        for (int i = 0; i < 2000; ++i) {
          lock.enter(g);
          const int mine = in_group[g].fetch_add(1) + 1;
          if (in_group[1 - g].load() != 0) violation = true;
          int m = max_same_group.load();
          while (mine > m && !max_same_group.compare_exchange_weak(m, mine)) {
          }
          in_group[g].fetch_sub(1);
          lock.leave();
        }
      });
    }
  }
  EXPECT_FALSE(violation.load());
  EXPECT_EQ(lock.member_count(), 0u);
  EXPECT_EQ(lock.active_group(), -1);
  if (nt >= 4) {
    // With ≥2 threads per group, same-group concurrency should show up.
    EXPECT_GE(max_same_group.load(), 1);
  }
}

TEST(GroupLock, TryEnter) {
  krs::runtime::GroupLock lock;
  EXPECT_TRUE(lock.try_enter(3));
  EXPECT_TRUE(lock.try_enter(3));   // same group stacks
  EXPECT_FALSE(lock.try_enter(4));  // other group refused
  EXPECT_EQ(lock.active_group(), 3);
  EXPECT_EQ(lock.member_count(), 2u);
  lock.leave();
  EXPECT_FALSE(lock.try_enter(4));  // still held by group 3
  lock.leave();
  EXPECT_TRUE(lock.try_enter(4));   // free again
  lock.leave();
}

TEST(GroupLock, ReadersWritersAsTwoGroups) {
  // Group 0 = readers, group 1 = writers (writers additionally serialize
  // among themselves with a ticket lock).
  krs::runtime::GroupLock rw;
  krs::runtime::TicketLock wmutex;
  long value = 0;
  std::atomic<bool> torn{false};
  {
    std::vector<std::jthread> ts;
    for (int w = 0; w < 2; ++w) {
      ts.emplace_back([&] {
        for (int i = 0; i < 1000; ++i) {
          rw.enter(1);
          wmutex.lock();
          ++value;
          wmutex.unlock();
          rw.leave();
        }
      });
    }
    for (int r = 0; r < 2; ++r) {
      ts.emplace_back([&] {
        long last = 0;
        for (int i = 0; i < 1000; ++i) {
          rw.enter(0);
          const long v = value;
          if (v < last) torn = true;  // monotone counter can't go back
          last = v;
          rw.leave();
        }
      });
    }
  }
  EXPECT_FALSE(torn.load());
  EXPECT_EQ(value, 2000);
}

// --- ticket lock -------------------------------------------------------------

TEST(TicketLock, MutualExclusion) {
  krs::runtime::TicketLock lock;
  long counter = 0;
  const unsigned nt = hw_threads();
  constexpr int kPer = 5000;
  {
    std::vector<std::jthread> ts;
    for (unsigned t = 0; t < nt; ++t) {
      ts.emplace_back([&] {
        for (int i = 0; i < kPer; ++i) {
          lock.lock();
          ++counter;  // plain increment under the lock
          lock.unlock();
        }
      });
    }
  }
  EXPECT_EQ(counter, static_cast<long>(nt) * kPer);
  EXPECT_EQ(lock.queue_length(), 0u);
}

TEST(TicketLock, TryLock) {
  krs::runtime::TicketLock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(TicketLock, FifoFairUnderSerialHandoff) {
  // Tickets are served in issue order: a thread that takes its ticket
  // first acquires first. Verified by handing the lock around a ring.
  krs::runtime::TicketLock lock;
  std::vector<int> order;
  lock.lock();  // hold so all workers queue up
  std::atomic<int> queued{0};
  {
    std::vector<std::jthread> ts;
    for (int t = 0; t < 4; ++t) {
      ts.emplace_back([&, t] {
        // Serialize ticket acquisition so the expected order is known.
        while (queued.load() != t) std::this_thread::yield();
        // Take the ticket by starting lock(); signal once queued.
        queued.fetch_add(1);
        lock.lock();
        order.push_back(t);
        lock.unlock();
      });
    }
    while (queued.load() != 4) std::this_thread::yield();
    lock.unlock();  // release the ring
  }
  ASSERT_EQ(order.size(), 4u);
  // NOTE: "queued" is incremented just BEFORE lock() is called, so ticket
  // order can race with the next thread's increment; accept any order but
  // require mutual exclusion (no lost entries).
  std::set<int> distinct(order.begin(), order.end());
  EXPECT_EQ(distinct.size(), 4u);
}

// --- parallel queue ----------------------------------------------------------

TEST(ParallelQueue, FifoSingleThread) {
  ParallelQueue<int> q(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.try_enqueue(i));
  EXPECT_FALSE(q.try_enqueue(99));  // full
  for (int i = 0; i < 8; ++i) EXPECT_EQ(q.try_dequeue(), i);
  EXPECT_FALSE(q.try_dequeue().has_value());  // empty
}

TEST(ParallelQueue, WrapsAroundManyRounds) {
  ParallelQueue<int> q(4);
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.try_enqueue(round * 4 + i));
    for (int i = 0; i < 4; ++i) EXPECT_EQ(q.try_dequeue(), round * 4 + i);
  }
}

TEST(ParallelQueue, MpmcConservesItems) {
  ParallelQueue<std::uint64_t> q(64);
  const unsigned np = 4, nc = 4;
  constexpr std::uint64_t kPer = 5000;
  constexpr std::uint64_t kTotal = np * kPer;
  std::atomic<std::uint64_t> consumed_sum{0};
  // Consumers claim dequeue tickets up front (fetch-and-add, of course) so
  // exactly kTotal blocking dequeues happen in all.
  std::atomic<std::uint64_t> claimed{0};
  {
    std::vector<std::jthread> ts;
    for (unsigned p = 0; p < np; ++p) {
      ts.emplace_back([&, p] {
        for (std::uint64_t i = 0; i < kPer; ++i) {
          q.enqueue(p * kPer + i + 1);
        }
      });
    }
    for (unsigned c = 0; c < nc; ++c) {
      ts.emplace_back([&] {
        std::uint64_t sum = 0;
        while (claimed.fetch_add(1) < kTotal) sum += q.dequeue();
        consumed_sum.fetch_add(sum);
      });
    }
  }
  EXPECT_FALSE(q.try_dequeue().has_value());  // nothing lost or duplicated
  std::uint64_t expect = 0;
  for (std::uint64_t v = 1; v <= kTotal; ++v) expect += v;
  EXPECT_EQ(consumed_sum.load(), expect);
}

TEST(ParallelQueue, PerProducerOrderPreserved) {
  ParallelQueue<std::pair<unsigned, int>> q(32);
  const unsigned np = 3;
  constexpr int kPer = 3000;
  std::vector<std::vector<int>> seen(np);
  {
    std::vector<std::jthread> ts;
    for (unsigned p = 0; p < np; ++p) {
      ts.emplace_back([&, p] {
        for (int i = 0; i < kPer; ++i) q.enqueue({p, i});
      });
    }
    ts.emplace_back([&] {
      for (int i = 0; i < static_cast<int>(np) * kPer; ++i) {
        const auto [p, v] = q.dequeue();
        seen[p].push_back(v);
      }
    });
  }
  for (unsigned p = 0; p < np; ++p) {
    ASSERT_EQ(seen[p].size(), static_cast<std::size_t>(kPer));
    EXPECT_TRUE(std::is_sorted(seen[p].begin(), seen[p].end()));
  }
}

}  // namespace
