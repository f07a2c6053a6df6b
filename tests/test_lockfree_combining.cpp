// The lock-free combining tree (runtime/lock_free_combining_tree.hpp)
// used as a fetch-and-θ counter with explicit slots, i.e.
// MappingCombiningTree<core::AnyRmw>: the serializability invariants
// (distinct tickets, conserved sums, per-thread monotonicity, a serial
// chain for a non-commutative family) at 2/4/8 threads, the barrier on
// the same tree through CombiningBackend, the instrumented happens-before
// edges, and a deterministic race_explorer model of the protocol's
// deposit/distribute handshake.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "analysis/instrument.hpp"
#include "analysis/race_detector.hpp"
#include "core/any_rmw.hpp"
#include "runtime/combining_backend.hpp"
#include "runtime/coordination.hpp"
#include "runtime/lock_free_combining_tree.hpp"
#include "verify/race_explorer.hpp"

namespace {

using namespace krs::runtime;
using krs::core::AnyRmw;
using krs::core::FetchAdd;
using krs::core::LssOp;

template <typename Instrument = krs::analysis::DefaultInstrument>
using Counter = MappingCombiningTree<AnyRmw, Instrument>;

// The instrumentation policy must add no per-object state.
static_assert(sizeof(Counter<krs::analysis::NoInstrument>) ==
              sizeof(Counter<krs::analysis::GlobalInstrument>));

Word add(Counter<>& tree, unsigned slot, Word v) {
  return tree.fetch_rmw(slot, AnyRmw(FetchAdd(v)));
}

TEST(LockFreeCombiningTree, SingleThreadSequence) {
  Counter<> tree(4, 100);
  EXPECT_EQ(add(tree, 0, 5), 100u);
  EXPECT_EQ(add(tree, 1, 7), 105u);
  EXPECT_EQ(add(tree, 3, 1), 112u);
  EXPECT_EQ(tree.read(), 113u);
  EXPECT_EQ(tree.width(), 4u);
}

TEST(LockFreeCombiningTree, ConcurrentIncrementsGiveDistinctTickets) {
  for (const unsigned nt : {2u, 4u, 8u}) {
    Counter<> tree(8, 0);
    constexpr unsigned kPer = 300;
    std::vector<std::vector<Word>> got(nt);
    {
      std::vector<std::jthread> ts;
      for (unsigned slot = 0; slot < nt; ++slot) {
        ts.emplace_back([&, slot] {
          for (unsigned i = 0; i < kPer; ++i)
            got[slot].push_back(add(tree, slot, 1));
        });
      }
    }
    std::set<Word> all;
    for (const auto& v : got) {
      // Per-thread tickets strictly increase (M2.3 at the tree level).
      EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
      all.insert(v.begin(), v.end());
    }
    EXPECT_EQ(all.size(), static_cast<std::size_t>(nt) * kPer);
    EXPECT_EQ(*all.begin(), 0u);
    EXPECT_EQ(*all.rbegin(), Word{nt} * kPer - 1);
    EXPECT_EQ(tree.read(), Word{nt} * kPer);
  }
}

TEST(LockFreeCombiningTree, ArbitraryAddendsConserveSum) {
  for (const unsigned nt : {2u, 4u, 8u}) {
    Counter<> tree(8, 0);
    constexpr unsigned kPer = 200;
    std::atomic<Word> expected{0};
    {
      std::vector<std::jthread> ts;
      for (unsigned slot = 0; slot < nt; ++slot) {
        ts.emplace_back([&, slot] {
          Word local = 0;
          for (unsigned i = 0; i < kPer; ++i) {
            const Word v = (slot * kPer + i) % 17 + 1;
            add(tree, slot, v);
            local += v;
          }
          expected.fetch_add(local);
        });
      }
    }
    EXPECT_EQ(tree.read(), expected.load());
  }
}

TEST(LockFreeCombiningTree, TwoThreadsPerLeafShareCorrectly) {
  // Slots 0 and 1 share the root leaf — the most combining-prone shape.
  Counter<> tree(2, 0);
  constexpr unsigned kPer = 500;
  {
    std::jthread a([&] {
      for (unsigned i = 0; i < kPer; ++i) add(tree, 0, 1);
    });
    std::jthread b([&] {
      for (unsigned i = 0; i < kPer; ++i) add(tree, 1, 1);
    });
  }
  EXPECT_EQ(tree.read(), 2 * Word{kPer});
}

TEST(LockFreeCombiningTree, ReadSnapshotsWhileContended) {
  // read() must return monotonically non-decreasing snapshots while eight
  // incrementers are in flight (it is one acquire load of the root word,
  // never a node).
  Counter<> tree(8, 0);
  constexpr unsigned kPer = 400;
  std::atomic<bool> torn{false};
  {
    std::vector<std::jthread> ts;
    for (unsigned slot = 0; slot < 8; ++slot) {
      ts.emplace_back([&, slot] {
        for (unsigned i = 0; i < kPer; ++i) add(tree, slot, 1);
      });
    }
    ts.emplace_back([&] {
      Word last = 0;
      for (unsigned i = 0; i < 500; ++i) {
        const Word v = tree.read();
        if (v < last) torn = true;
        last = v;
      }
    });
  }
  EXPECT_FALSE(torn.load());
  EXPECT_EQ(tree.read(), 8 * Word{kPer});
}

TEST(LockFreeCombiningTree, NonCommutativeOpKeepsSerialOrderPerNode) {
  // swap is not commutative: the final value and every reply depend on
  // the order the tree serialized the ops in. Each swap's reply is the
  // value it replaced, so the replies must link the initial value through
  // every written value to the final one as ONE chain — some serial order
  // — and that chain must run each thread's own writes in program order.
  constexpr unsigned kThreads = 4;
  constexpr Word kPer = 300;
  constexpr Word kInitial = 0;
  Counter<> tree(kThreads, kInitial);
  std::vector<std::vector<Word>> replies(kThreads);
  {
    std::vector<std::jthread> ts;
    for (unsigned slot = 0; slot < kThreads; ++slot) {
      ts.emplace_back([&, slot] {
        for (Word i = 1; i <= kPer; ++i) {
          replies[slot].push_back(
              tree.fetch_rmw(slot, AnyRmw(LssOp::swap(slot * 1000 + i))));
        }
      });
    }
  }
  std::map<Word, Word> next;  // replaced value → the value that replaced it
  for (unsigned slot = 0; slot < kThreads; ++slot) {
    for (Word i = 1; i <= kPer; ++i) {
      const bool fresh =
          next.emplace(replies[slot][i - 1], slot * 1000 + i).second;
      EXPECT_TRUE(fresh) << "two swaps replaced the same value";
    }
  }
  std::vector<Word> last_seen(kThreads, 0);
  Word cur = kInitial;
  std::size_t links = 0;
  for (auto it = next.find(cur); it != next.end(); it = next.find(cur)) {
    cur = it->second;
    const auto slot = static_cast<unsigned>(cur / 1000);
    EXPECT_GT(cur % 1000, last_seen[slot]) << "thread " << slot
                                           << " reordered";
    last_seen[slot] = cur % 1000;
    ++links;
  }
  EXPECT_EQ(links, kThreads * kPer);
  EXPECT_EQ(cur, tree.read());
}

// --- the barrier on the combining tree ----------------------------------------

TEST(CombiningBarrier, PhasesAlignedOverLockFreeTree) {
  // BasicBarrier<CombiningBackend>: every arrival's ticket is a fetch_add
  // through the lock-free tree, slots derived from thread_ordinal().
  constexpr unsigned kThreads = 4;
  BasicBarrier<CombiningBackend> barrier(kThreads, CombiningBackend(kThreads));
  constexpr int kPhases = 100;
  std::vector<int> counters(kPhases, 0);
  std::atomic<bool> torn{false};
  {
    std::vector<std::jthread> ts;
    for (unsigned t = 0; t < kThreads; ++t) {
      ts.emplace_back([&] {
        for (int ph = 0; ph < kPhases; ++ph) {
          __atomic_fetch_add(&counters[ph], 1, __ATOMIC_RELAXED);
          barrier.arrive_and_wait();
          if (counters[ph] != static_cast<int>(kThreads)) torn = true;
        }
      });
    }
  }
  EXPECT_FALSE(torn.load());
  EXPECT_EQ(barrier.phase(), static_cast<std::uint32_t>(kPhases));
}

// --- instrumented happens-before edges ---------------------------------------

using krs::analysis::ForkHandle;
using krs::analysis::GlobalInstrument;

TEST(LockFreeCombiningTreeAnalysis, TemporallySeparatedOpsAreOrdered) {
  // Both fork edges are snapshotted BEFORE either thread runs, so the only
  // detector-visible ordering between t0's payload write and t1's read is
  // the tree's own entry-acquire/exit-release edge. The atomic flag gives
  // real-time separation without telling the detector anything.
  krs::analysis::RaceDetector det;
  krs::analysis::ScopedDetector guard(det);
  Counter<GlobalInstrument> tree(4, 0);
  std::atomic<int> payload{0};
  std::atomic<bool> done{false};

  ForkHandle f0;
  ForkHandle f1;
  std::thread t0([&] {
    f0.adopt();
    payload.store(7, std::memory_order_relaxed);
    krs::analysis::shadow_write(&payload, KRS_SITE);
    tree.fetch_rmw(0, AnyRmw(FetchAdd(1)));  // exit releases t0's history
    done.store(true, std::memory_order_release);
  });
  std::thread t1([&] {
    f1.adopt();
    while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
    tree.fetch_rmw(1, AnyRmw(FetchAdd(1)));  // entry acquires the history
    krs::analysis::shadow_read(&payload, KRS_SITE);
  });
  t0.join();
  f0.join();
  t1.join();
  f1.join();

  EXPECT_EQ(tree.read(), 2u);
  EXPECT_TRUE(det.clean()) << det.races()[0].to_string();
}

TEST(LockFreeCombiningTreeAnalysis, WithoutTheTreeEdgeTheSameShapeRaces) {
  // Control experiment: identical structure, no tree operations — the
  // detector must flag it, proving the clean verdict above came from the
  // tree's edge and not from some accidental ordering.
  krs::analysis::RaceDetector det;
  krs::analysis::ScopedDetector guard(det);
  std::atomic<int> payload{0};
  std::atomic<bool> done{false};

  ForkHandle f0;
  ForkHandle f1;
  std::thread t0([&] {
    f0.adopt();
    payload.store(7, std::memory_order_relaxed);
    krs::analysis::shadow_write(&payload, KRS_SITE);
    done.store(true, std::memory_order_release);
  });
  std::thread t1([&] {
    f1.adopt();
    while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
    krs::analysis::shadow_read(&payload, KRS_SITE);
  });
  t0.join();
  f0.join();
  t1.join();
  f1.join();

  EXPECT_EQ(det.race_count(), 1u);
}

// --- deterministic race_explorer model of the node handshake -----------------

using krs::verify::EAcquire;
using krs::verify::ERead;
using krs::verify::ERelease;
using krs::verify::EventProgram;
using krs::verify::EWrite;
using krs::verify::explore_races;

TEST(LockFreeCombiningTreeModel, NodeHandshakeIsRaceFreeUnderAllSchedules) {
  // Abstract model of one combine at one node. Var 0 = second_value slot,
  // var 1 = result slot; lock 0 = the node's status word, whose CAS
  // transitions carry the release/acquire edges. The first (thread 0)
  // reads the deposit and writes the reply; the second (thread 1) deposits
  // then picks the reply up. Every edge is mediated by the status word —
  // no schedule may report a race.
  EventProgram prog;
  prog.threads = {
      // first: combine (acquire status, read deposit) → distribute
      // (write result, release status)
      {EAcquire{0}, ERead{0}, EWrite{1}, ERelease{0}},
      // second: deposit (write operand, release status) → await
      // (acquire status, read result)
      {EAcquire{0}, EWrite{0}, ERelease{0}, EAcquire{0}, ERead{1},
       ERelease{0}},
  };
  const auto res = explore_races(prog);
  EXPECT_GT(res.schedules, 0u);
  EXPECT_TRUE(res.never_racy())
      << res.racy_schedules << " of " << res.schedules << " schedules racy";
}

TEST(LockFreeCombiningTreeModel, DepositWithoutStatusEdgeAlwaysRaces) {
  // Drop the status-word edges entirely: the second deposits and reads
  // the reply with no synchronization. With no release/acquire pair there
  // is no cross-thread happens-before edge at all, so the detector must
  // flag EVERY schedule (the defining property over lockset or sampling
  // detectors — the race is visible even in schedules where the accesses
  // did not physically collide). Note the second may not touch lock 0
  // even once: a single trailing release would order a schedule where it
  // runs entirely first, and that schedule would then be clean.
  EventProgram prog;
  prog.threads = {
      {EAcquire{0}, ERead{0}, EWrite{1}, ERelease{0}},
      {EWrite{0}, ERead{1}},  // naked deposit + naked reply pickup
  };
  const auto res = explore_races(prog);
  EXPECT_GT(res.schedules, 0u);
  EXPECT_TRUE(res.always_racy())
      << res.racy_schedules << " of " << res.schedules << " schedules racy";
}

}  // namespace
