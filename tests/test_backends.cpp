// The RmwBackend seam (runtime/rmw_backend.hpp, runtime/combining_backend.hpp)
// and the mapping-generalized combining tree underneath it:
//
//  * concept/layout contracts for both backends;
//  * the MappingCombiningTree combining NON-add families end to end —
//    fetch-and-or tickets, AnyRmw swaps with §3 decombination, and a
//    mixed-family stream whose cross-family compositions DECLINE at the
//    nodes (§7 partial combining);
//  * cross-backend equivalence: the same workload through AtomicBackend,
//    CombiningBackend, FlatCombiningBackend, and SimBackend (cells in the
//    simulated Omega machine) yields identical priors and sum/ticket-set
//    invariants at 2/4/8 threads (mirroring test_lockfree_combining.cpp);
//  * every §6 primitive (barrier, rw-lock, semaphore, queue, full/empty
//    cell, group lock) run against ALL FOUR backends;
//  * partial-combining telemetry (§7): a deterministic single-threaded
//    drive of the four-phase protocol through CombiningTreeTestPeer pins
//    the fold/decline counters and the declined second's root-served
//    reply, value by value;
//  * a deterministic race_explorer model of the declined-composition
//    fetch_rmw path, with a control showing the verdict comes from the
//    modeled edges;
//  * the direct root path (DirectPath.*): an uncontended op applies at the
//    root without touching a node, a waiting climber's bit sends ops up
//    the tree, and reads and mixed-family tickets stay linearizable while
//    direct and climbing ops interleave;
//  * a store-buffering litmus (StoreBuffering.*) pinning the RmwBackend
//    ordering contract: an update is ordered before its caller's next
//    load of another cell, on every real-thread substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "analysis/instrument.hpp"
#include "core/any_rmw.hpp"
#include "core/dls.hpp"
#include "core/fetch_theta.hpp"
#include "core/load_store_swap.hpp"
#include "runtime/combining_backend.hpp"
#include "runtime/coordination.hpp"
#include "runtime/flat_combining.hpp"
#include "runtime/full_empty_cell.hpp"
#include "runtime/group_lock.hpp"
#include "runtime/local_spin_locks.hpp"
#include "runtime/lock_free_combining_tree.hpp"
#include "runtime/parallel_queue.hpp"
#include "runtime/rmw_backend.hpp"
#include "runtime/sharded_backend.hpp"
#include "runtime/sim_backend.hpp"
#include "runtime/wait_policy.hpp"
#include "verify/race_explorer.hpp"
#include "workload/path_scenarios.hpp"

namespace krs::runtime {

// Test-only peer: drives the private four-phase protocol single-threaded
// so fold/decline telemetry is deterministic (under real concurrency the
// First→combine window is too narrow to hit reliably on a 1-CPU host).
struct CombiningTreeTestPeer {
  template <typename Tree>
  static bool precombine(Tree& t, unsigned n) {
    return t.precombine(n);
  }
  template <typename Tree, typename M>
  static M combine(Tree& t, unsigned n, M c) {
    return t.combine(n, std::move(c));
  }
  template <typename Tree, typename M>
  static typename Tree::value_type apply_at_root(Tree& t, const M& c) {
    return t.apply_at_root(c);
  }
  /// The non-waiting first half of deposit_and_await: plant the second's
  /// mapping and flip the node to SecondReady.
  template <typename Tree, typename M>
  static void deposit_second(Tree& t, unsigned n, M c) {
    auto& nd = t.nodes_[n];
    const std::uint64_t w = nd.status.load(std::memory_order_relaxed);
    ASSERT_EQ(Tree::tag_of(w), Tree::kSecondPending);
    nd.second_map = std::move(c);
    nd.status.store(Tree::retag(w, Tree::kSecondReady),
                    std::memory_order_release);
  }
  template <typename Tree>
  static void distribute(Tree& t, unsigned n,
                         const typename Tree::value_type& prior) {
    t.distribute(n, prior);
  }
  /// The second's reply pickup (the tail of deposit_and_await).
  template <typename Tree>
  static typename Tree::value_type take_result(Tree& t, unsigned n) {
    auto& nd = t.nodes_[n];
    const std::uint64_t w = nd.status.load(std::memory_order_acquire);
    EXPECT_EQ(Tree::tag_of(w), Tree::kResult);
    const auto r = nd.result;
    nd.status.store(Tree::idle_next_gen(w), std::memory_order_release);
    return r;
  }
  /// A node's raw status word (0 = Idle at generation 0: never occupied).
  template <typename Tree>
  static std::uint64_t status(const Tree& t, unsigned n) {
    return t.nodes_[n].status.load(std::memory_order_acquire);
  }
  /// Mark a climber waiting at the idle root, as lock_root does.
  template <typename Tree>
  static void mark_root_waiter(Tree& t) {
    t.root_lock_.store(Tree::kRootWaiter, std::memory_order_release);
  }
  template <typename Tree>
  static std::uint32_t root_lock_word(const Tree& t) {
    return t.root_lock_.load(std::memory_order_acquire);
  }
};

}  // namespace krs::runtime

namespace {

using namespace krs::runtime;
using krs::analysis::GlobalInstrument;
using krs::analysis::NoInstrument;
using krs::core::AnyRmw;
using krs::core::FetchAdd;
using krs::core::FetchOr;
using krs::core::LssOp;

// --- concept and layout contracts -------------------------------------------

static_assert(RmwBackend<AtomicBackend>);
static_assert(RmwBackend<CombiningBackend>);
static_assert(RmwBackend<FlatCombiningBackend>);
static_assert(RmwBackend<SimBackend>);
static_assert(RmwBackend<ShardedBackend<AtomicBackend>>);
static_assert(RmwBackend<ShardedBackend<CombiningBackend>>);
static_assert(RmwBackend<ShardedBackend<FlatCombiningBackend>>);
static_assert(RmwBackend<ShardedBackend<SimBackend>>);
static_assert(RmwBackend<BasicAtomicBackend<GlobalInstrument>>);
static_assert(RmwBackend<BasicCombiningBackend<GlobalInstrument>>);
static_assert(RmwBackend<BasicFlatCombiningBackend<GlobalInstrument>>);
static_assert(RmwBackend<BasicSimBackend<GlobalInstrument>>);

// The instrumentation policy must add no per-object state, to the backend
// or to the primitives built on it.
static_assert(sizeof(BasicAtomicBackend<NoInstrument>) ==
              sizeof(BasicAtomicBackend<GlobalInstrument>));
static_assert(sizeof(BasicCombiningBackend<NoInstrument>) ==
              sizeof(BasicCombiningBackend<GlobalInstrument>));
static_assert(sizeof(BasicFlatCombiningBackend<NoInstrument>) ==
              sizeof(BasicFlatCombiningBackend<GlobalInstrument>));
static_assert(sizeof(BasicSimBackend<NoInstrument>) ==
              sizeof(BasicSimBackend<GlobalInstrument>));
static_assert(sizeof(BasicBarrier<AtomicBackend, NoInstrument>) ==
              sizeof(BasicBarrier<AtomicBackend, GlobalInstrument>));
static_assert(sizeof(BasicRwLock<AtomicBackend, NoInstrument>) ==
              sizeof(BasicRwLock<AtomicBackend, GlobalInstrument>));
static_assert(sizeof(BasicSemaphore<AtomicBackend, NoInstrument>) ==
              sizeof(BasicSemaphore<AtomicBackend, GlobalInstrument>));

// --- single-thread backend semantics ----------------------------------------

// Run the same scripted op sequence through any backend and collect every
// returned prior: the backends must be observationally identical.
template <typename B>
std::vector<Word> scripted_run(B& b) {
  typename B::Cell c(b, 10);
  std::vector<Word> out;
  out.push_back(b.fetch_add(c, 5));                    // 10 → 15
  out.push_back(b.fetch_or(c, 0xF0));                  // 15 → 0xFF
  out.push_back(b.fetch_and(c, 0x0F));                 // 0xFF → 0x0F
  out.push_back(b.fetch_xor(c, 0xFF));                 // 0x0F → 0xF0
  out.push_back(b.exchange(c, 3));                     // 0xF0 → 3
  out.push_back(b.fetch_rmw(c, AnyRmw(FetchAdd(4))));  // 3 → 7
  out.push_back(b.fetch_rmw(c, AnyRmw(LssOp::swap(40))));  // 7 → 40
  Word expect = 41;  // mismatch: must fail and reload expect
  EXPECT_FALSE(b.compare_exchange(c, expect, 99));
  out.push_back(expect);  // reloaded prior: 40
  EXPECT_TRUE(b.compare_exchange(c, expect, 99));  // 40 → 99
  out.push_back(b.load(c));                        // 99
  b.store(c, 7);
  out.push_back(b.load(c));  // 7
  return out;
}

TEST(Backends, ScriptedSequenceIdenticalAcrossBackends) {
  // The 4-way matrix: hardware atomics, software combining tree, flat
  // combiner, and the simulated Omega machine must be observationally
  // identical.
  AtomicBackend ab;
  CombiningBackend cb(4);
  FlatCombiningBackend fb(4);
  SimBackend sb(SimBackendConfig{.log2_procs = 2});
  const auto a = scripted_run(ab);
  const auto c = scripted_run(cb);
  const auto f = scripted_run(fb);
  const auto s = scripted_run(sb);
  EXPECT_EQ(a, c);
  EXPECT_EQ(a, f);
  EXPECT_EQ(a, s);
  const std::vector<Word> expect{10, 15, 0xFF, 0x0F, 0xF0, 3, 7, 40, 99, 7};
  EXPECT_EQ(a, expect);
  // The sim run really went through the network: 10 of the 12 scripted
  // ops are packets (the two compare_exchange serialize at the module).
  const SimBackendStats st = sb.stats();
  EXPECT_EQ(st.network_ops, 10u);
  EXPECT_EQ(st.root_serialized_ops, 2u);
  EXPECT_GT(st.cycles, 0u);
  EXPECT_GT(st.cycles_per_op(), 0.0);
}

TEST(Backends, ScriptedSequenceIdenticalShardedOverEveryInner) {
  // The fifth substrate, the 5-way equivalence row: sharding over the
  // hardware-atomic, combining-tree, and flat-combining inners (plus the
  // hashed-routing variant) against the unsharded atomic baseline. The
  // script runs single-threaded, so every operation routes to the cell's
  // HOME shard — the shard holding the initial value — and the relaxed
  // sharded semantics degrade to exactly the inner backend's, priors,
  // compare_exchange reloads, aggregation reads, and store/reset included.
  AtomicBackend ab;
  ShardedBackend<AtomicBackend> sharded_atomic{AtomicBackend{}, 4};
  ShardedBackend<CombiningBackend> sharded_tree{CombiningBackend{4}, 4};
  ShardedBackend<FlatCombiningBackend> sharded_flat{FlatCombiningBackend{4},
                                                    4};
  ShardedBackend<AtomicBackend> sharded_hashed{AtomicBackend{}, 8,
                                               ShardRouting::kHashed};
  const auto base = scripted_run(ab);
  EXPECT_EQ(scripted_run(sharded_atomic), base);
  EXPECT_EQ(scripted_run(sharded_tree), base);
  EXPECT_EQ(scripted_run(sharded_flat), base);
  EXPECT_EQ(scripted_run(sharded_hashed), base);
  const std::vector<Word> expect{10, 15, 0xFF, 0x0F, 0xF0, 3, 7, 40, 99, 7};
  EXPECT_EQ(base, expect);
}

// --- non-add families through the mapping tree -------------------------------

TEST(MappingTree, FetchOrCombinesDistinctBits) {
  // Each thread repeatedly ors its own bit in. Or only sets bits, so every
  // thread's stream of priors is numerically non-decreasing, the first
  // prior overall is the initial value for some thread, and the final
  // value is the union of all bits — regardless of how the tree combined.
  constexpr unsigned kThreads = 4;
  constexpr unsigned kPer = 200;
  MappingCombiningTree<AnyRmw> tree(4, 0);
  std::vector<std::vector<Word>> priors(kThreads);
  {
    std::vector<std::jthread> ts;
    for (unsigned t = 0; t < kThreads; ++t) {
      ts.emplace_back([&, t] {
        const Word mine = Word{1} << t;
        for (unsigned i = 0; i < kPer; ++i) {
          priors[t].push_back(tree.fetch_rmw(t, AnyRmw(FetchOr(mine))));
        }
      });
    }
  }
  const Word all = (Word{1} << kThreads) - 1;
  EXPECT_EQ(tree.read(), all);
  for (unsigned t = 0; t < kThreads; ++t) {
    ASSERT_EQ(priors[t].size(), kPer);
    EXPECT_TRUE(std::is_sorted(priors[t].begin(), priors[t].end()));
    // After a thread's first op its own bit is set, so every later prior
    // must contain it (M2.3 at the tree level).
    const Word mine = Word{1} << t;
    for (unsigned i = 1; i < kPer; ++i) {
      EXPECT_EQ(priors[t][i] & mine, mine);
    }
    // No prior may contain a bit no thread writes.
    for (const Word p : priors[t]) EXPECT_EQ(p & ~all, 0u);
  }
}

TEST(MappingTree, FetchMaxFoldsEveryOperand) {
  // fetch-and-max is idempotent and order-insensitive: through every
  // combining pattern the root ends at the largest operand any slot
  // deposited.
  MappingCombiningTree<AnyRmw> tree(4, 0);
  {
    std::vector<std::jthread> ts;
    for (unsigned t = 0; t < 4; ++t) {
      ts.emplace_back([&, t] {
        for (Word i = 1; i <= 300; ++i) {
          tree.fetch_rmw(t, AnyRmw(krs::core::FetchMax(t * 1000 + i)));
        }
      });
    }
  }
  EXPECT_EQ(tree.read(), 3300u);
}

TEST(MappingTree, SwapChainConservesValues) {
  // Every thread swaps in distinct values. Swap composes as the §5.1 table
  // (I_a then I_b forwards I_b, decombination answers the second with a —
  // the chain rule), so across any combining pattern the multiset
  // {initial} ∪ {swapped-in values} must equal {observed priors} ∪
  // {final value}: every value is handed off exactly once.
  constexpr unsigned kThreads = 4;
  constexpr unsigned kPer = 150;
  constexpr Word kInitial = 999'999;
  MappingCombiningTree<AnyRmw> tree(4, kInitial);
  std::vector<std::vector<Word>> priors(kThreads);
  {
    std::vector<std::jthread> ts;
    for (unsigned t = 0; t < kThreads; ++t) {
      ts.emplace_back([&, t] {
        for (unsigned i = 0; i < kPer; ++i) {
          const Word v = t * kPer + i;  // globally unique
          priors[t].push_back(tree.fetch_rmw(t, AnyRmw(LssOp::swap(v))));
        }
      });
    }
  }
  std::multiset<Word> in{kInitial};
  std::multiset<Word> out{tree.read()};
  for (unsigned t = 0; t < kThreads; ++t) {
    for (unsigned i = 0; i < kPer; ++i) in.insert(t * kPer + i);
    out.insert(priors[t].begin(), priors[t].end());
  }
  EXPECT_EQ(in, out);
}

TEST(MappingTree, MixedFamiliesDeclineAndStayLinearizable) {
  // Half the threads add 1 (low bits), half or in high bits. Cross-family
  // compositions decline at the nodes (§7), so this exercises the
  // declined-service path under real concurrency. Adds can never carry
  // into the or-bits (≤ kAdds·kPer < 2^48), so the two families commute
  // on disjoint bit ranges: the adders' priors, masked to the low range,
  // must be the distinct tickets 0..N-1, and the final value decomposes
  // exactly.
  constexpr unsigned kAdders = 2;
  constexpr unsigned kOrers = 2;
  constexpr unsigned kPer = 200;
  constexpr Word kOrBase = Word{1} << 48;
  constexpr Word kLowMask = kOrBase - 1;
  MappingCombiningTree<AnyRmw> tree(4, 0);
  std::vector<std::vector<Word>> addPriors(kAdders);
  {
    std::vector<std::jthread> ts;
    for (unsigned t = 0; t < kAdders; ++t) {
      ts.emplace_back([&, t] {
        for (unsigned i = 0; i < kPer; ++i) {
          addPriors[t].push_back(tree.fetch_rmw(t, AnyRmw(FetchAdd(1))));
        }
      });
    }
    for (unsigned t = 0; t < kOrers; ++t) {
      ts.emplace_back([&, t] {
        const Word mine = kOrBase << t;
        for (unsigned i = 0; i < kPer; ++i) {
          tree.fetch_rmw(kAdders + t, AnyRmw(FetchOr(mine)));
        }
      });
    }
  }
  const Word fin = tree.read();
  EXPECT_EQ(fin & kLowMask, kAdders * kPer);
  EXPECT_EQ(fin >> 48, (Word{1} << kOrers) - 1);
  std::set<Word> tickets;
  for (const auto& v : addPriors) {
    for (const Word p : v) tickets.insert(p & kLowMask);
  }
  EXPECT_EQ(tickets.size(), static_cast<std::size_t>(kAdders) * kPer);
  EXPECT_EQ(*tickets.begin(), 0u);
  EXPECT_EQ(*tickets.rbegin(), static_cast<Word>(kAdders * kPer) - 1);
  // Quiesced accounting identity: every operation either folded into a
  // partner below the root or was applied at the root (declined seconds
  // included — distribute() serves them with their own root application).
  const CombiningTreeStats st = tree.stats();
  EXPECT_EQ(st.ops, static_cast<std::uint64_t>(kAdders + kOrers) * kPer);
  EXPECT_EQ(st.root_applies + st.folds, st.ops);
  EXPECT_DOUBLE_EQ(st.combine_rate() + st.served_at_root_fraction(), 1.0);
}

// --- partial-combining telemetry, driven deterministically --------------------

using krs::runtime::CombiningTreeTestPeer;
using Peer = CombiningTreeTestPeer;

TEST(CombineTelemetry, DeclinedFoldCountedAndServedAtRoot) {
  // Single-threaded drive of one declined combine in a width-8 tree
  // (leaves 4..7, root 1; slots 0 and 1 share leaf 4): the first climbs
  // with FetchAdd(5), the second deposits a cross-family FetchOr(0xF0),
  // try_compose declines (§7), and distribute() serves the second at the
  // root AFTER everything the first combined.
  MappingCombiningTree<AnyRmw> tree(8, 100);
  // First (slot 0): precombine climbs leaf 4 and node 2, stops at root.
  EXPECT_TRUE(Peer::precombine(tree, 4));
  EXPECT_TRUE(Peer::precombine(tree, 2));
  EXPECT_FALSE(Peer::precombine(tree, 1));
  // Second (slot 1): engages at the shared leaf and deposits its mapping.
  EXPECT_FALSE(Peer::precombine(tree, 4));
  Peer::deposit_second(tree, 4, AnyRmw(FetchOr(0xF0)));
  // First's combine at the leaf sees SecondReady and declines the fold.
  AnyRmw combined = Peer::combine(tree, 4, AnyRmw(FetchAdd(5)));
  EXPECT_EQ(tree.declined_folds_at(4), 1u);
  combined = Peer::combine(tree, 2, std::move(combined));  // no partner
  const Word prior = Peer::apply_at_root(tree, combined);
  EXPECT_EQ(prior, 100u);
  EXPECT_EQ(tree.read(), 105u);
  // Distribute back down: node 2 just resets; leaf 4 is the declined
  // second — served at the root now, its reply is the value it found.
  Peer::distribute(tree, 2, prior);
  Peer::distribute(tree, 4, prior);
  EXPECT_EQ(tree.read(), 105u | 0xF0u);  // or applied after the add
  EXPECT_EQ(Peer::take_result(tree, 4), 105u);
  const CombiningTreeStats st = tree.stats();
  EXPECT_EQ(st.folds, 0u);
  EXPECT_EQ(st.declined_folds, 1u);
  EXPECT_EQ(st.root_applies, 2u);  // combined apply + declined service
  EXPECT_EQ(st.ops, 2u);
  EXPECT_DOUBLE_EQ(st.combine_rate(), 0.0);
  EXPECT_DOUBLE_EQ(st.served_at_root_fraction(), 1.0);
}

TEST(CombineTelemetry, SuccessfulFoldCountedOnceWithDecombinedReply) {
  // Same dance, same family: the fold succeeds, one root application
  // carries both operations, and the second's reply is the decombination
  // rule ⟨id2, f(val)⟩ = prior + first's addend.
  MappingCombiningTree<AnyRmw> tree(8, 100);
  EXPECT_TRUE(Peer::precombine(tree, 4));
  EXPECT_TRUE(Peer::precombine(tree, 2));
  EXPECT_FALSE(Peer::precombine(tree, 1));
  EXPECT_FALSE(Peer::precombine(tree, 4));
  Peer::deposit_second(tree, 4, AnyRmw(FetchAdd(7)));
  AnyRmw combined = Peer::combine(tree, 4, AnyRmw(FetchAdd(5)));
  EXPECT_EQ(tree.declined_folds_at(4), 0u);
  combined = Peer::combine(tree, 2, std::move(combined));
  const Word prior = Peer::apply_at_root(tree, combined);
  EXPECT_EQ(prior, 100u);
  EXPECT_EQ(tree.read(), 112u);  // one application of add-12
  Peer::distribute(tree, 2, prior);
  Peer::distribute(tree, 4, prior);
  EXPECT_EQ(Peer::take_result(tree, 4), 105u);  // prior + first's 5
  const CombiningTreeStats st = tree.stats();
  EXPECT_EQ(st.folds, 1u);
  EXPECT_EQ(st.declined_folds, 0u);
  EXPECT_EQ(st.root_applies, 1u);
  EXPECT_EQ(st.ops, 2u);
  EXPECT_DOUBLE_EQ(st.combine_rate(), 0.5);
  EXPECT_DOUBLE_EQ(st.served_at_root_fraction(), 0.5);
}

// --- cross-backend equivalence ----------------------------------------------

// The same hotspot-counter workload through any backend: every thread's
// priors are its tickets; across the run the tickets must be exactly
// 0..N-1 with per-thread monotonicity and final == N — the invariants
// test_lockfree_combining.cpp pins for the tree, here pinned for the seam.
template <typename B>
void hotspot_counter_invariants(B backend) {
  for (const unsigned nt : {2u, 4u, 8u}) {
    B b = backend;
    typename B::Cell cell(b, 0);
    constexpr unsigned kPer = 200;
    std::vector<std::vector<Word>> got(nt);
    {
      std::vector<std::jthread> ts;
      for (unsigned t = 0; t < nt; ++t) {
        ts.emplace_back([&, t] {
          for (unsigned i = 0; i < kPer; ++i) {
            got[t].push_back(b.fetch_add(cell, 1));
          }
        });
      }
    }
    std::set<Word> all;
    for (const auto& v : got) {
      EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
      all.insert(v.begin(), v.end());
    }
    EXPECT_EQ(all.size(), static_cast<std::size_t>(nt) * kPer);
    EXPECT_EQ(*all.begin(), 0u);
    EXPECT_EQ(*all.rbegin(), static_cast<Word>(nt) * kPer - 1);
    EXPECT_EQ(b.load(cell), static_cast<Word>(nt) * kPer);
  }
}

TEST(BackendEquivalence, HotspotTicketsAtomic) {
  hotspot_counter_invariants(AtomicBackend{});
}

TEST(BackendEquivalence, HotspotTicketsCombining) {
  hotspot_counter_invariants(CombiningBackend{8});
}

TEST(BackendEquivalence, HotspotTicketsFlat) {
  hotspot_counter_invariants(FlatCombiningBackend{8});
}

TEST(BackendEquivalence, HotspotTicketsSim) {
  // Real threads multiplexed onto simulated processors via the mailboxes;
  // the ticket invariants must survive the indirection.
  hotspot_counter_invariants(SimBackend{SimBackendConfig{.log2_procs = 3}});
}

// --- every §6 primitive on both backends ------------------------------------

template <typename B>
void barrier_phases(B backend, unsigned nt) {
  BasicBarrier<B> barrier(nt, backend);
  constexpr int kPhases = 40;
  std::vector<int> counters(kPhases, 0);
  std::atomic<bool> torn{false};
  {
    std::vector<std::jthread> ts;
    for (unsigned t = 0; t < nt; ++t) {
      ts.emplace_back([&] {
        for (int ph = 0; ph < kPhases; ++ph) {
          __atomic_fetch_add(&counters[ph], 1, __ATOMIC_RELAXED);
          barrier.arrive_and_wait();
          if (counters[ph] != static_cast<int>(nt)) torn = true;
        }
      });
    }
  }
  EXPECT_FALSE(torn.load());
  EXPECT_EQ(barrier.phase(), static_cast<Word>(kPhases));
}

TEST(BackendMatrix, BarrierAtomic) { barrier_phases(AtomicBackend{}, 4); }
TEST(BackendMatrix, BarrierCombining) {
  barrier_phases(CombiningBackend{4}, 4);
}
TEST(BackendMatrix, BarrierFlat) {
  barrier_phases(FlatCombiningBackend{4}, 4);
}
TEST(BackendMatrix, BarrierSim) {
  barrier_phases(SimBackend{SimBackendConfig{.log2_procs = 2}}, 4);
}

template <typename B>
void rwlock_excludes(B backend) {
  BasicRwLock<B> lock(backend);
  long shared_value = 0;
  std::atomic<bool> bad{false};
  constexpr int kWrites = 150;
  {
    std::vector<std::jthread> ts;
    for (int w = 0; w < 2; ++w) {
      ts.emplace_back([&] {
        for (int i = 0; i < kWrites; ++i) {
          lock.write_lock();
          const long v = shared_value;
          shared_value = v + 1;  // torn unless writers exclude
          lock.write_unlock();
        }
      });
    }
    for (int r = 0; r < 2; ++r) {
      ts.emplace_back([&] {
        for (int i = 0; i < 300; ++i) {
          lock.read_lock();
          const long v = shared_value;
          if (v < 0 || v > 2 * kWrites) bad = true;
          lock.read_unlock();
        }
      });
    }
  }
  EXPECT_FALSE(bad.load());
  EXPECT_EQ(shared_value, 2 * kWrites);
}

TEST(BackendMatrix, RwLockAtomic) { rwlock_excludes(AtomicBackend{}); }
TEST(BackendMatrix, RwLockCombining) { rwlock_excludes(CombiningBackend{4}); }
TEST(BackendMatrix, RwLockFlat) { rwlock_excludes(FlatCombiningBackend{4}); }
TEST(BackendMatrix, RwLockSim) {
  rwlock_excludes(SimBackend{SimBackendConfig{.log2_procs = 2}});
}

template <typename B>
void semaphore_bounds_concurrency(B backend) {
  BasicSemaphore<B> sem(2, backend);
  std::atomic<int> inside{0};
  std::atomic<bool> over{false};
  {
    std::vector<std::jthread> ts;
    for (int t = 0; t < 4; ++t) {
      ts.emplace_back([&] {
        for (int i = 0; i < 100; ++i) {
          sem.p();
          if (inside.fetch_add(1, std::memory_order_acq_rel) >= 2) {
            over = true;
          }
          inside.fetch_sub(1, std::memory_order_acq_rel);
          sem.v();
        }
      });
    }
  }
  EXPECT_FALSE(over.load());
  EXPECT_EQ(sem.value(), 2);
}

TEST(BackendMatrix, SemaphoreAtomic) {
  semaphore_bounds_concurrency(AtomicBackend{});
}
TEST(BackendMatrix, SemaphoreCombining) {
  semaphore_bounds_concurrency(CombiningBackend{4});
}
TEST(BackendMatrix, SemaphoreFlat) {
  semaphore_bounds_concurrency(FlatCombiningBackend{4});
}
TEST(BackendMatrix, SemaphoreSim) {
  semaphore_bounds_concurrency(SimBackend{SimBackendConfig{.log2_procs = 2}});
}

template <typename B>
void queue_conserves_sum(B backend) {
  ParallelQueue<int, krs::analysis::DefaultInstrument, B> q(16, backend);
  constexpr int kProducers = 2;
  constexpr int kPer = 400;
  std::atomic<long> consumed{0};
  {
    std::vector<std::jthread> ts;
    for (int p = 0; p < kProducers; ++p) {
      ts.emplace_back([&, p] {
        for (int i = 1; i <= kPer; ++i) q.enqueue(p * kPer + i);
      });
    }
    ts.emplace_back([&] {
      for (int i = 0; i < kProducers * kPer; ++i) {
        consumed.fetch_add(q.dequeue(), std::memory_order_relaxed);
      }
    });
  }
  long expect = 0;
  for (int p = 0; p < kProducers; ++p) {
    for (int i = 1; i <= kPer; ++i) expect += p * kPer + i;
  }
  EXPECT_EQ(consumed.load(), expect);
  EXPECT_EQ(q.size(), 0u);
}

TEST(BackendMatrix, QueueAtomic) { queue_conserves_sum(AtomicBackend{}); }
TEST(BackendMatrix, QueueCombining) {
  queue_conserves_sum(CombiningBackend{4});
}
TEST(BackendMatrix, QueueFlat) {
  queue_conserves_sum(FlatCombiningBackend{4});
}
TEST(BackendMatrix, QueueSim) {
  queue_conserves_sum(SimBackend{SimBackendConfig{.log2_procs = 2}});
}

template <typename B>
void full_empty_ping_pong(B backend) {
  FullEmptyCell<int, krs::analysis::DefaultInstrument, B> cell(backend);
  constexpr int kRounds = 300;
  long got = 0;
  {
    std::jthread producer([&] {
      for (int i = 1; i <= kRounds; ++i) cell.put(i);
    });
    std::jthread consumer([&] {
      for (int i = 1; i <= kRounds; ++i) got += cell.take();
    });
  }
  EXPECT_EQ(got, static_cast<long>(kRounds) * (kRounds + 1) / 2);
  EXPECT_FALSE(cell.full());
}

TEST(BackendMatrix, FullEmptyAtomic) { full_empty_ping_pong(AtomicBackend{}); }
TEST(BackendMatrix, FullEmptyCombining) {
  full_empty_ping_pong(CombiningBackend{4});
}
TEST(BackendMatrix, FullEmptyFlat) {
  full_empty_ping_pong(FlatCombiningBackend{4});
}
TEST(BackendMatrix, FullEmptySim) {
  full_empty_ping_pong(SimBackend{SimBackendConfig{.log2_procs = 2}});
}

template <typename B>
void group_lock_excludes_groups(B backend) {
  BasicGroupLock<krs::analysis::DefaultInstrument, B> lock(backend);
  std::atomic<int> in_group[2] = {0, 0};
  std::atomic<bool> mixed{false};
  {
    std::vector<std::jthread> ts;
    for (int g = 0; g < 2; ++g) {
      for (int m = 0; m < 2; ++m) {
        ts.emplace_back([&, g] {
          for (int i = 0; i < 120; ++i) {
            lock.enter(static_cast<std::uint16_t>(g));
            in_group[g].fetch_add(1, std::memory_order_acq_rel);
            if (in_group[1 - g].load(std::memory_order_acquire) != 0) {
              mixed = true;
            }
            in_group[g].fetch_sub(1, std::memory_order_acq_rel);
            lock.leave();
          }
        });
      }
    }
  }
  EXPECT_FALSE(mixed.load());
  EXPECT_EQ(lock.member_count(), 0u);
  EXPECT_EQ(lock.active_group(), -1);
}

TEST(BackendMatrix, GroupLockAtomic) {
  group_lock_excludes_groups(AtomicBackend{});
}
TEST(BackendMatrix, GroupLockCombining) {
  group_lock_excludes_groups(CombiningBackend{4});
}
TEST(BackendMatrix, GroupLockFlat) {
  group_lock_excludes_groups(FlatCombiningBackend{4});
}
TEST(BackendMatrix, GroupLockSim) {
  group_lock_excludes_groups(SimBackend{SimBackendConfig{.log2_procs = 2}});
}

// --- instrumented HB edges through the backend seam --------------------------

using krs::analysis::ForkHandle;

TEST(BackendAnalysis, CombiningBackendOrdersTemporallySeparatedOps) {
  // Same experiment test_lockfree_combining.cpp runs on the raw tree, now
  // through the backend seam: the only detector-visible ordering between
  // t0's payload write and t1's read is the cell's entry-acquire /
  // exit-release edge inside fetch_rmw.
  krs::analysis::RaceDetector det;
  krs::analysis::ScopedDetector guard(det);
  BasicCombiningBackend<GlobalInstrument> backend(4);
  BasicCombiningBackend<GlobalInstrument>::Cell cell(backend, 0);
  std::atomic<int> payload{0};
  std::atomic<bool> done{false};

  ForkHandle f0;
  ForkHandle f1;
  std::thread t0([&] {
    f0.adopt();
    payload.store(7, std::memory_order_relaxed);
    krs::analysis::shadow_write(&payload, KRS_SITE);
    backend.fetch_add(cell, 1);
    done.store(true, std::memory_order_release);
  });
  std::thread t1([&] {
    f1.adopt();
    while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
    backend.fetch_add(cell, 1);
    krs::analysis::shadow_read(&payload, KRS_SITE);
  });
  t0.join();
  f0.join();
  t1.join();
  f1.join();

  EXPECT_EQ(backend.load(cell), 2u);
  EXPECT_TRUE(det.clean()) << det.races()[0].to_string();
}

TEST(BackendAnalysis, AtomicBackendOrdersTemporallySeparatedOps) {
  krs::analysis::RaceDetector det;
  krs::analysis::ScopedDetector guard(det);
  BasicAtomicBackend<GlobalInstrument> backend;
  BasicAtomicBackend<GlobalInstrument>::Cell cell(backend, 0);
  std::atomic<int> payload{0};
  std::atomic<bool> done{false};

  ForkHandle f0;
  ForkHandle f1;
  std::thread t0([&] {
    f0.adopt();
    payload.store(9, std::memory_order_relaxed);
    krs::analysis::shadow_write(&payload, KRS_SITE);
    backend.fetch_rmw(cell, AnyRmw(FetchAdd(1)));
    done.store(true, std::memory_order_release);
  });
  std::thread t1([&] {
    f1.adopt();
    while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
    backend.fetch_rmw(cell, AnyRmw(FetchAdd(1)));
    krs::analysis::shadow_read(&payload, KRS_SITE);
  });
  t0.join();
  f0.join();
  t1.join();
  f1.join();

  EXPECT_EQ(backend.load(cell), 2u);
  EXPECT_TRUE(det.clean()) << det.races()[0].to_string();
}

// --- deterministic model of the declined-composition path --------------------

using krs::verify::EAcquire;
using krs::verify::ERead;
using krs::verify::ERelease;
using krs::verify::EventProgram;
using krs::verify::EWrite;
using krs::verify::explore_races;

TEST(DeclinedCombineModel, RootServiceOfDeclinedSecondIsRaceFree) {
  // Abstract model of one DECLINED combine: var 0 = the second's deposited
  // mapping slot, var 1 = the root value, var 2 = the node's result slot;
  // lock 0 = the node status word, lock 1 = the root lock bit. The first
  // (thread 0) reads the deposit, finds the composition declined, applies
  // the second's mapping at the root during distribute, writes the reply.
  // The second (thread 1) deposits, then picks the reply up. Every edge is
  // mediated by one of the two locks — no schedule may report a race.
  EventProgram prog;
  prog.threads = {
      // first: combine (acquire status, read deposit) → declined root
      // service (root lock, read+write root) → distribute reply.
      {EAcquire{0}, ERead{0}, EAcquire{1}, ERead{1}, EWrite{1}, ERelease{1},
       EWrite{2}, ERelease{0}},
      // second: deposit (write mapping, release status) → await (acquire
      // status, read reply).
      {EAcquire{0}, EWrite{0}, ERelease{0}, EAcquire{0}, ERead{2},
       ERelease{0}},
  };
  const auto res = explore_races(prog);
  EXPECT_GT(res.schedules, 0u);
  EXPECT_TRUE(res.never_racy())
      << res.racy_schedules << " of " << res.schedules << " schedules racy";
}

TEST(DeclinedCombineModel, DlsNackRetryAfterRootServiceIsRaceFree) {
  // The §5.6 variant of root service: the declined second is a GUARDED
  // operation whose reply (the prior word) told the issuer NACK, so the
  // issuer retries at the root. Same vars/locks as above, plus the retry:
  // thread 1 re-enters the root lock after reading its reply. Every edge
  // stays mediated by the status word or the root lock — race-free.
  EventProgram prog;
  prog.threads = {
      // first: combine (acquire status, read deposit) → declined root
      // service → distribute reply.
      {EAcquire{0}, ERead{0}, EAcquire{1}, ERead{1}, EWrite{1}, ERelease{1},
       EWrite{2}, ERelease{0}},
      // second: deposit → pickup → decode nack off the prior → retry the
      // guarded op directly under the root lock.
      {EAcquire{0}, EWrite{0}, ERelease{0}, EAcquire{0}, ERead{2},
       ERelease{0}, EAcquire{1}, ERead{1}, EWrite{1}, ERelease{1}},
  };
  const auto res = explore_races(prog);
  EXPECT_GT(res.schedules, 0u);
  EXPECT_TRUE(res.never_racy())
      << res.racy_schedules << " of " << res.schedules << " schedules racy";
}

TEST(DeclinedCombineModel, NakedDepositAndPickupAlwaysRaces) {
  // Control: drop the second's status-word edges. With no release/acquire
  // pair there is no cross-thread ordering at all, so every schedule must
  // be flagged — proving the clean verdict above comes from the modeled
  // handshake, not detector blindness.
  EventProgram prog;
  prog.threads = {
      {EAcquire{0}, ERead{0}, EAcquire{1}, ERead{1}, EWrite{1}, ERelease{1},
       EWrite{2}, ERelease{0}},
      {EWrite{0}, ERead{2}},  // naked deposit + naked reply pickup
  };
  const auto res = explore_races(prog);
  EXPECT_GT(res.schedules, 0u);
  EXPECT_TRUE(res.always_racy())
      << res.racy_schedules << " of " << res.schedules << " schedules racy";
}

// --- §5.6 guarded operations through every substrate --------------------------

using krs::core::dls_pack;
using krs::core::DlsCell;

// The same scripted guarded-op session (including two protocol-violating
// nacks that must leave the cell untouched) through any backend: the
// prior-word stream is the observable, and it must be identical.
template <typename B>
std::vector<Word> scripted_dls_run(B& b) {
  const krs::workload::FileSessionPath fs;
  typename B::Cell c(b, dls_pack({100, 0}));
  std::vector<Word> out;
  for (const auto& op : {fs.read(),       // closed: NACK, unchanged
                         fs.open(),       // → open
                         fs.read(),       //
                         fs.append(7),    // content ← 7
                         fs.open(),       // already open: NACK
                         fs.close(),      // → closed
                         fs.open()}) {    // reopen
    out.push_back(b.fetch_rmw(c, AnyRmw(op)));
  }
  out.push_back(b.load(c));
  return out;
}

TEST(BackendEquivalence, ScriptedDlsOpsAgree) {
  AtomicBackend ab;
  CombiningBackend cb(4);
  FlatCombiningBackend fb(4);
  SimBackend sb(SimBackendConfig{.log2_procs = 2});
  const auto a = scripted_dls_run(ab);
  EXPECT_EQ(scripted_dls_run(cb), a);
  EXPECT_EQ(scripted_dls_run(fb), a);
  EXPECT_EQ(scripted_dls_run(sb), a);
  const std::vector<Word> expect{
      dls_pack({100, 0}), dls_pack({100, 0}), dls_pack({100, 1}),
      dls_pack({100, 1}), dls_pack({7, 1}),   dls_pack({7, 1}),
      dls_pack({7, 0}),   dls_pack({7, 1})};
  EXPECT_EQ(a, expect);
}

TEST(BackendEquivalence, ScriptedDlsOpsAgreeSharded) {
  AtomicBackend ab;
  ShardedBackend<AtomicBackend> sharded_atomic{AtomicBackend{}, 4};
  ShardedBackend<CombiningBackend> sharded_tree{CombiningBackend{4}, 4};
  ShardedBackend<AtomicBackend> sharded_hashed{AtomicBackend{}, 8,
                                               ShardRouting::kHashed};
  const auto base = scripted_dls_run(ab);
  EXPECT_EQ(scripted_dls_run(sharded_atomic), base);
  EXPECT_EQ(scripted_dls_run(sharded_tree), base);
  EXPECT_EQ(scripted_dls_run(sharded_hashed), base);
}

// One DECLINED §5.6 fold, driven deterministically: two puts whose wire
// budget is narrowed to one value slot meet at a leaf, try_compose
// declines, and the declined second is served individually at the root —
// its reply carries the prior it actually saw there, so the issuer's
// succeeded() decode is exact.
TEST(CombineTelemetry, DlsDeclinedFoldServedAtRoot) {
  const krs::workload::ProducerConsumerPath pc;
  const auto budget = pc.put(111).encoded_size_bytes();  // one value slot
  MappingCombiningTree<AnyRmw> tree(8, dls_pack({0, 0}));
  EXPECT_TRUE(Peer::precombine(tree, 4));
  EXPECT_TRUE(Peer::precombine(tree, 2));
  EXPECT_FALSE(Peer::precombine(tree, 1));
  EXPECT_FALSE(Peer::precombine(tree, 4));
  Peer::deposit_second(tree, 4,
                       AnyRmw(pc.put(222).with_size_budget(budget)));
  AnyRmw combined =
      Peer::combine(tree, 4, AnyRmw(pc.put(111).with_size_budget(budget)));
  EXPECT_EQ(tree.declined_folds_at(4), 1u);
  combined = Peer::combine(tree, 2, std::move(combined));  // no partner
  const Word prior = Peer::apply_at_root(tree, combined);
  EXPECT_EQ(prior, dls_pack({0, 0}));
  EXPECT_EQ(tree.read(), dls_pack({111, 1}));
  Peer::distribute(tree, 2, prior);
  Peer::distribute(tree, 4, prior);
  // The declined second ran at the root AFTER the first: occupancy 2.
  EXPECT_EQ(tree.read(), dls_pack({222, 2}));
  const Word second_prior = Peer::take_result(tree, 4);
  EXPECT_EQ(second_prior, dls_pack({111, 1}));
  EXPECT_TRUE(pc.put(222).succeeded(second_prior));
  const CombiningTreeStats st = tree.stats();
  EXPECT_EQ(st.folds, 0u);
  EXPECT_EQ(st.declined_folds, 1u);
  EXPECT_EQ(st.root_applies, 2u);
}

// Control: the SAME two puts at the default budget (the §5.6 bound) fold
// into one root application, and the second's reply is the decombination
// first_map.apply(prior) — the state the second actually observed.
TEST(CombineTelemetry, DlsFoldAtDefaultBudgetCombines) {
  const krs::workload::ProducerConsumerPath pc;
  MappingCombiningTree<AnyRmw> tree(8, dls_pack({0, 0}));
  EXPECT_TRUE(Peer::precombine(tree, 4));
  EXPECT_TRUE(Peer::precombine(tree, 2));
  EXPECT_FALSE(Peer::precombine(tree, 1));
  EXPECT_FALSE(Peer::precombine(tree, 4));
  Peer::deposit_second(tree, 4, AnyRmw(pc.put(222)));
  AnyRmw combined = Peer::combine(tree, 4, AnyRmw(pc.put(111)));
  EXPECT_EQ(tree.declined_folds_at(4), 0u);
  combined = Peer::combine(tree, 2, std::move(combined));
  const Word prior = Peer::apply_at_root(tree, combined);
  EXPECT_EQ(prior, dls_pack({0, 0}));
  // ONE root application carried both automaton transitions.
  EXPECT_EQ(tree.read(), dls_pack({222, 2}));
  Peer::distribute(tree, 2, prior);
  Peer::distribute(tree, 4, prior);
  const Word second_prior = Peer::take_result(tree, 4);
  EXPECT_EQ(second_prior, dls_pack({111, 1}));
  EXPECT_TRUE(pc.put(222).succeeded(second_prior));
  const CombiningTreeStats st = tree.stats();
  EXPECT_EQ(st.folds, 1u);
  EXPECT_EQ(st.declined_folds, 0u);
  EXPECT_EQ(st.root_applies, 1u);
}

// root_applies is counted under the root lock, so once the threads are
// joined the tree's ops (root applies + folds) equal the ops issued,
// exactly — compare_exchange's serialized root applies included.
TEST(CombineTelemetry, JoinedThreadsCountEveryOpExactly) {
  constexpr unsigned kThreads = 4;
  constexpr unsigned kAdds = 2000;
  constexpr unsigned kCas = 200;
  CombiningBackend b(kThreads);
  CombiningBackend::Cell c(b, 0);
  {
    std::vector<std::jthread> ts;
    for (unsigned t = 0; t < kThreads; ++t) {
      ts.emplace_back([&] {
        for (unsigned i = 0; i < kAdds; ++i) b.fetch_add(c, 1);
        for (unsigned i = 0; i < kCas; ++i) {
          Word expect = b.load(c);
          (void)b.compare_exchange(c, expect, expect);  // may fail: counted
        }
      });
    }
  }
  EXPECT_EQ(b.cell_stats(c).ops, std::uint64_t{kThreads} * (kAdds + kCas));
  EXPECT_EQ(b.load(c), Word{kThreads} * kAdds);
}

// --- step 0: the direct root path -------------------------------------------

TEST(DirectPath, TreeUncontendedOpsSkipTheClimb) {
  // One thread meets no one: every op finds the root lock word clear and
  // applies there. No node below the root is ever occupied — a climb
  // would leave its path at generation ≥ 1.
  constexpr unsigned kWidth = 8;
  constexpr unsigned kOps = 100;
  MappingCombiningTree<AnyRmw> tree(kWidth, 0);
  for (unsigned i = 0; i < kOps; ++i) {
    EXPECT_EQ(tree.fetch_rmw(i % kWidth, AnyRmw(FetchAdd(1))), Word{i});
  }
  for (unsigned n = 2; n < kWidth; ++n) {
    EXPECT_EQ(Peer::status(tree, n), 0u) << "node " << n;
  }
  EXPECT_EQ(tree.read(), Word{kOps});
  const CombiningTreeStats st = tree.stats();
  EXPECT_EQ(st.ops, kOps);
  EXPECT_EQ(st.direct, kOps);
  EXPECT_EQ(st.root_applies, kOps);
  EXPECT_EQ(st.folds, 0u);
}

TEST(DirectPath, TreeWaiterBitSendsOpsUpTheTree) {
  // The direct path fires only on an entirely clear root word: with a
  // waiter marked, an op climbs (its leaf moves to generation 1), takes
  // the root through lock_root — whose CAS clears the mark — and the
  // next op is direct again.
  MappingCombiningTree<AnyRmw> tree(8, 10);
  Peer::mark_root_waiter(tree);
  EXPECT_EQ(tree.fetch_rmw(0, AnyRmw(FetchAdd(1))), 10u);
  EXPECT_NE(Peer::status(tree, 4), 0u);  // leaf of slot 0: climbed through
  EXPECT_EQ(Peer::root_lock_word(tree), 0u);
  EXPECT_EQ(tree.stats().direct, 0u);
  EXPECT_EQ(tree.fetch_rmw(2, AnyRmw(FetchAdd(1))), 11u);
  EXPECT_EQ(Peer::status(tree, 5), 0u);  // leaf of slot 2: untouched
  const CombiningTreeStats st = tree.stats();
  EXPECT_EQ(st.direct, 1u);
  EXPECT_EQ(st.root_applies, 2u);
  EXPECT_EQ(st.ops, 2u);
}

TEST(DirectPath, TreeReadAfterCompletedOpSeesOwnOp) {
  // The tree twin of FlatCombinerConcurrent.ReadAfterCompletedOpSeesOwnOp:
  // a monotone counter only grows, so a read() after a completed op must
  // exceed that op's prior, whether the op went direct, applied a
  // combined batch at the root, or was a second answered on the way down.
  constexpr unsigned kThreads = 4;
  constexpr unsigned kPer = 300;
  MappingCombiningTree<AnyRmw> tree(kThreads, 0);
  std::atomic<unsigned> stale{0};
  {
    std::vector<std::jthread> ts;
    for (unsigned t = 0; t < kThreads; ++t) {
      ts.emplace_back([&, t] {
        for (unsigned i = 0; i < kPer; ++i) {
          const Word prior = tree.fetch_rmw(t, AnyRmw(FetchAdd(1)));
          if (tree.read() <= prior) stale.fetch_add(1);
        }
      });
    }
  }
  EXPECT_EQ(stale.load(), 0u);
  EXPECT_EQ(tree.read(), Word{kThreads} * kPer);
  const CombiningTreeStats st = tree.stats();
  EXPECT_EQ(st.ops, std::uint64_t{kThreads} * kPer);
  EXPECT_LE(st.direct, st.root_applies);
}

// Four threads, each alternating an add of 1 (low bits) with an or of its
// own high bit. The tree declines the cross-family folds (§7), the flat
// combiner batches them, and on both some ops go direct while others climb
// or publish. The adds commute with the ors on disjoint bits, so their
// priors masked to the low bits are the distinct tickets 0..N-1, monotone
// per thread.
template <typename B>
void mixed_family_tickets(B b) {
  constexpr unsigned kThreads = 4;
  constexpr unsigned kPer = 400;
  constexpr Word kOrBase = Word{1} << 48;
  constexpr Word kLowMask = kOrBase - 1;
  typename B::Cell cell(b, 0);
  std::vector<std::vector<Word>> got(kThreads);
  {
    std::vector<std::jthread> ts;
    for (unsigned t = 0; t < kThreads; ++t) {
      ts.emplace_back([&, t] {
        for (unsigned i = 0; i < kPer; ++i) {
          got[t].push_back(b.fetch_add(cell, 1) & kLowMask);
          (void)b.fetch_or(cell, kOrBase << t);
        }
      });
    }
  }
  std::set<Word> all;
  for (const auto& v : got) {
    EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
    all.insert(v.begin(), v.end());
  }
  EXPECT_EQ(all.size(), std::size_t{kThreads} * kPer);
  EXPECT_EQ(*all.begin(), 0u);
  EXPECT_EQ(*all.rbegin(), Word{kThreads} * kPer - 1);
  EXPECT_EQ(b.load(cell), Word{0xF} << 48 | Word{kThreads} * kPer);
  const auto st = b.cell_stats(cell);
  EXPECT_EQ(st.ops, std::uint64_t{2} * kThreads * kPer);
  EXPECT_LE(st.direct, st.ops);
}

TEST(DirectPath, MixedFamilyTicketsCombining) {
  mixed_family_tickets(CombiningBackend{4});
}
TEST(DirectPath, MixedFamilyTicketsFlat) {
  mixed_family_tickets(FlatCombiningBackend{4});
}

// --- store-buffering litmus: the RmwBackend ordering contract ----------------

// Two threads in lock step. Iteration i: thread 0 runs fetch_add(x, 1)
// then loads y; thread 1 runs fetch_add(y, 1) then loads x. Both cells
// hold i when the iteration starts, so each load returns i (it missed the
// other thread's add) or i + 1. The contract (every update and load in one
// total order) forbids BOTH loads missing — the store-buffering outcome,
// and exactly the one that lets BasicRwLock's reader-add/writer-check
// handshake admit a writer beside a reader. A substrate whose update is
// not ordered before its caller's next load fails here: on a 4-vCPU x86
// host, hundreds of the 100,000 iterations show both loads missing.
template <typename B>
void store_buffering_forbidden(B backend) {
  constexpr unsigned kIters = 100000;
  typename B::Cell x(backend, 0);
  typename B::Cell y(backend, 0);
  std::vector<Word> seen_y(kIters);
  std::vector<Word> seen_x(kIters);
  std::atomic<unsigned> arrivals{0};
  const auto lockstep = [&](unsigned i) {
    arrivals.fetch_add(1);
    SpinYieldWait pol;
    while (arrivals.load() < 2 * (i + 1)) pol.pause();
  };
  {
    std::jthread t0([&] {
      for (unsigned i = 0; i < kIters; ++i) {
        lockstep(i);
        backend.fetch_add(x, 1);
        seen_y[i] = backend.load(y);
      }
    });
    std::jthread t1([&] {
      for (unsigned i = 0; i < kIters; ++i) {
        lockstep(i);
        backend.fetch_add(y, 1);
        seen_x[i] = backend.load(x);
      }
    });
  }
  unsigned both_missed = 0;
  unsigned out_of_range = 0;
  for (unsigned i = 0; i < kIters; ++i) {
    if (seen_y[i] == i && seen_x[i] == i) ++both_missed;
    if (seen_y[i] - i > 1 || seen_x[i] - i > 1) ++out_of_range;
  }
  EXPECT_EQ(both_missed, 0u) << "of " << kIters << " iterations";
  EXPECT_EQ(out_of_range, 0u);
  EXPECT_EQ(backend.load(x), Word{kIters});
  EXPECT_EQ(backend.load(y), Word{kIters});
}

TEST(StoreBuffering, Atomic) { store_buffering_forbidden(AtomicBackend{}); }
TEST(StoreBuffering, Combining) {
  store_buffering_forbidden(CombiningBackend{2});
}
TEST(StoreBuffering, Flat) {
  store_buffering_forbidden(FlatCombiningBackend{2});
}
TEST(StoreBuffering, ShardedAtomic) {
  store_buffering_forbidden(ShardedBackend<AtomicBackend>{AtomicBackend{}, 2});
}
TEST(StoreBuffering, McsLock) {
  store_buffering_forbidden(LockBackend<McsLock>{});
}

}  // namespace
