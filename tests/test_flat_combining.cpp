// The flat combiner (runtime/flat_combining.hpp) and the topology-aware
// slot layout (runtime/topology.hpp):
//
//  * deterministic single-caller waves pinning the batch semantics: one
//    publication scan serves every pending op with the §3 decombination
//    chain (each reply = the running prior), across mixed mapping
//    families — flat combining needs no compose, so nothing declines;
//  * the combiner-handoff path driven DETERMINISTICALLY: a test
//    Instrument hook publishes into an already-scanned slot mid-pass, so
//    the pass cap fires with work still pending and the handoff counter
//    must tick;
//  * concurrent hotspot-counter invariants (distinct tickets, per-thread
//    monotonicity, exact final sum) at 2/4/8 threads, plus quiesced
//    stats accounting;
//  * the direct path (DirectPath.*): an uncontended op publishes nothing
//    and runs no pass, and a publisher that finds a direct op holding the
//    lock is served by that op's release, also when it parks (FutexWait);
//  * instrumented HB edges through FlatCombiningBackend (the same
//    temporally-separated-ops experiment the other backends pass);
//  * a race_explorer model of the publication handshake (claim → publish
//    → serve → pickup), with a control proving the clean verdict comes
//    from the modeled seq-word edges;
//  * SlotMap/CpuTopology: permutation validation, sysfs cluster discovery
//    against a fabricated hierarchy, flat fallback, and an end-to-end
//    proof via the tree's deterministic wave that a topology permutation
//    changes which slots fold at a shared leaf;
//  * the relaxed MappingCombiningTree width precondition: odd widths
//    round up internally and stay correct.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analysis/instrument.hpp"
#include "core/any_rmw.hpp"
#include "core/fetch_theta.hpp"
#include "core/load_store_swap.hpp"
#include "runtime/combining_backend.hpp"
#include "runtime/flat_combining.hpp"
#include "runtime/lock_free_combining_tree.hpp"
#include "runtime/topology.hpp"
#include "verify/race_explorer.hpp"

namespace krs::runtime {

// Test-only peer: drives the private publication protocol piecewise so
// the handoff branch (pass cap hit with work still pending) is reachable
// deterministically — under free-running threads that window depends on a
// publication landing mid-scan.
struct FlatCombinerTestPeer {
  template <typename FC>
  static void publish(FC& fc, unsigned slot, krs::core::AnyRmw op) {
    auto& s = fc.slots_[slot];
    std::uint32_t expect = FC::kIdle;
    ASSERT_TRUE(s.seq.compare_exchange_strong(expect, FC::kClaimed,
                                              std::memory_order_acquire,
                                              std::memory_order_relaxed));
    s.op = std::move(op);
    s.seq.store(FC::kPending, std::memory_order_release);
  }
  template <typename FC>
  static bool lock(FC& fc) {
    return fc.try_lock();
  }
  template <typename FC>
  static void unlock(FC& fc) {
    fc.unlock();
  }
  /// One combiner tenure (lock must be held).
  template <typename FC>
  static void combine(FC& fc) {
    fc.combine(nullptr);
  }
  /// The owner's reply pickup.
  template <typename FC>
  static krs::core::Word take(FC& fc, unsigned slot) {
    auto& s = fc.slots_[slot];
    EXPECT_EQ(s.seq.load(std::memory_order_acquire),
              static_cast<std::uint32_t>(FC::kDone));
    const krs::core::Word r = s.result;
    s.seq.store(FC::kIdle, std::memory_order_release);
    return r;
  }
  template <typename FC>
  static bool pending(const FC& fc, unsigned slot) {
    return fc.slots_[slot].seq.load(std::memory_order_acquire) ==
           static_cast<std::uint32_t>(FC::kPending);
  }
  /// Has a publisher marked the held lock word as awaited?
  template <typename FC>
  static bool waiting(const FC& fc) {
    return (fc.lock_.load(std::memory_order_acquire) & FC::kWaiting) != 0;
  }
  /// A direct op's release (the lock must be held).
  template <typename FC>
  static void unlock_direct(FC& fc) {
    fc.unlock_direct();
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
using krs::core::Word;
using Peer = FlatCombinerTestPeer;

// The instrumentation policy must add no per-object state.
static_assert(sizeof(FlatCombiner<NoInstrument>) ==
              sizeof(FlatCombiner<GlobalInstrument>));

// --- deterministic wave semantics -------------------------------------------

using Fc = FlatCombiner<NoInstrument>;

TEST(FlatCombinerWave, OnePassBatchesAndDecombines) {
  // Four adds in one wave: the combiner reads the value once, serves the
  // slots in index order, writes the value once; each reply is the
  // running prior — the decombination chain ⟨id2, f(val)⟩ computed flat.
  Fc fc(4, 100);
  std::vector<Fc::WaveOp> wave;
  for (unsigned s = 0; s < 4; ++s) {
    wave.push_back({s, AnyRmw(FetchAdd(1))});
  }
  const auto priors = fc.run_wave(wave);
  EXPECT_EQ(priors, (std::vector<Word>{100, 101, 102, 103}));
  EXPECT_EQ(fc.read(), 104u);
  const FlatCombinerStats st = fc.stats();
  EXPECT_EQ(st.ops, 4u);
  EXPECT_EQ(st.takeovers, 1u);  // one election for the whole batch
  EXPECT_EQ(st.passes, 2u);     // serving pass + the empty closing pass
  EXPECT_EQ(st.handoffs, 0u);
  EXPECT_EQ(st.combined, 0u);  // single caller: nobody was served by a peer
}

TEST(FlatCombinerWave, MixedFamiliesEqualSerialFold) {
  // Flat combining never composes mappings, so a mixed-family batch is
  // simply the serial fold in slot order — no decline path exists (§7's
  // cost shows up in the tree, not here).
  Fc fc(4, 10);
  const std::vector<Fc::WaveOp> wave{
      {0, AnyRmw(FetchAdd(5))},      // 10 → 15, prior 10
      {1, AnyRmw(FetchOr(0xF0))},    // 15 → 0xFF, prior 15
      {2, AnyRmw(LssOp::swap(3))},   // 0xFF → 3, prior 0xFF
      {3, AnyRmw(FetchAdd(1))},      // 3 → 4, prior 3
  };
  const auto priors = fc.run_wave(wave);
  EXPECT_EQ(priors, (std::vector<Word>{10, 15, 0xFF, 3}));
  EXPECT_EQ(fc.read(), 4u);
}

TEST(FlatCombinerWave, SparseWaveServesOnlyPublishedSlots) {
  Fc fc(8, 0);
  const std::vector<Fc::WaveOp> wave{
      {2, AnyRmw(FetchAdd(7))},
      {5, AnyRmw(FetchAdd(11))},
  };
  const auto priors = fc.run_wave(wave);
  EXPECT_EQ(priors, (std::vector<Word>{0, 7}));
  EXPECT_EQ(fc.read(), 18u);
  EXPECT_EQ(fc.stats().ops, 2u);
}

// --- the handoff path, deterministically -------------------------------------

// Instrument policy whose shared_load/shared_store hooks run test
// callbacks: the only way to land a publication into an ALREADY-SCANNED
// slot mid-pass from a single thread (the pass cap's handoff branch), or
// to observe the combiner's state at the instant a reply publishes.
struct HookInstrument {
  static constexpr bool enabled = false;
  static inline std::function<void(const void*)> on_shared_load;
  static inline std::function<void(const void*)> on_shared_store;
  static void acquire(const void*) {}
  static void release(const void*) {}
  static void contended_rmw(const void*, krs::analysis::AccessSite = {}) {}
  static void shared_load(const void* addr, krs::analysis::AccessSite = {}) {
    if (on_shared_load) on_shared_load(addr);
  }
  static void shared_store(const void* addr, krs::analysis::AccessSite = {}) {
    if (on_shared_store) on_shared_store(addr);
  }
};

TEST(FlatCombinerHandoff, PassCapWithPendingWorkCountsAHandoff) {
  using HFc = FlatCombiner<HookInstrument>;
  HFc fc(2, 0, /*max_passes=*/1);
  // While the combiner scans slot 1's seq, publish into slot 0 — already
  // passed over, so it stays pending when the single allowed pass ends.
  bool injected = false;
  HookInstrument::on_shared_load = [&](const void* addr) {
    if (!injected && addr == fc.slot_address(1)) {
      injected = true;
      Peer::publish(fc, 0, AnyRmw(FetchAdd(5)));
    }
  };
  Peer::publish(fc, 1, AnyRmw(FetchAdd(3)));
  ASSERT_TRUE(Peer::lock(fc));
  Peer::combine(fc);  // pass 1 serves slot 1; cap forces exit with 0 pending
  Peer::unlock(fc);
  HookInstrument::on_shared_load = nullptr;

  EXPECT_TRUE(injected);
  EXPECT_TRUE(Peer::pending(fc, 0));  // the handed-off op
  FlatCombinerStats st = fc.stats();
  EXPECT_EQ(st.takeovers, 1u);
  EXPECT_EQ(st.passes, 1u);
  EXPECT_EQ(st.handoffs, 1u);
  EXPECT_EQ(Peer::take(fc, 1), 0u);

  // The next tenure (whoever wins the lock) drains the leftover — handoff
  // rotates the combiner, it never strands work.
  ASSERT_TRUE(Peer::lock(fc));
  Peer::combine(fc);
  Peer::unlock(fc);
  EXPECT_EQ(Peer::take(fc, 0), 3u);  // served after slot 1's add
  EXPECT_EQ(fc.read(), 8u);
  st = fc.stats();
  EXPECT_EQ(st.takeovers, 2u);
  EXPECT_EQ(st.handoffs, 1u);
}

// --- reply ordering: the value word is batched before replies publish --------

TEST(FlatCombinerReplyOrder, ValueStoredBeforeAnyReplyPublishes) {
  // Regression: serve_pass once flipped each slot to kDone during the
  // scan and wrote the batched value only afterwards, so a waiter whose
  // reply had landed could read() a value missing its own op (breaking
  // the rw-lock's reader-increment-then-writer-check handshake). The
  // shared_store hook fires immediately before each kDone reply, so the
  // value word must ALREADY hold the full batch there.
  using HFc = FlatCombiner<HookInstrument>;
  HFc fc(2, 0);
  Peer::publish(fc, 0, AnyRmw(FetchAdd(3)));
  Peer::publish(fc, 1, AnyRmw(FetchAdd(5)));
  unsigned replies = 0;
  HookInstrument::on_shared_store = [&](const void*) {
    ++replies;
    EXPECT_EQ(fc.read(), 8u);  // both ops batched in before any reply
  };
  ASSERT_TRUE(Peer::lock(fc));
  Peer::combine(fc);
  Peer::unlock(fc);
  HookInstrument::on_shared_store = nullptr;

  EXPECT_EQ(replies, 2u);  // one reply publication per served slot
  EXPECT_EQ(Peer::take(fc, 0), 0u);
  EXPECT_EQ(Peer::take(fc, 1), 3u);
  EXPECT_EQ(fc.read(), 8u);
}

// --- concurrent hotspot invariants -------------------------------------------

TEST(FlatCombinerConcurrent, HotspotTicketsDistinctMonotoneComplete) {
  for (const unsigned nt : {2u, 4u, 8u}) {
    FlatCombiner<> fc(nt);
    constexpr unsigned kPer = 200;
    std::vector<std::vector<Word>> got(nt);
    {
      std::vector<std::jthread> ts;
      for (unsigned t = 0; t < nt; ++t) {
        ts.emplace_back([&, t] {
          for (unsigned i = 0; i < kPer; ++i) {
            got[t].push_back(fc.fetch_rmw(t, AnyRmw(FetchAdd(1))));
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
    EXPECT_EQ(fc.read(), static_cast<Word>(nt) * kPer);
    // Quiesced accounting: every op completed; peers can only ABSORB ops,
    // each election runs at least one scan pass, and an op ran either in
    // some tenure or on the direct path.
    const FlatCombinerStats st = fc.stats();
    EXPECT_EQ(st.ops, static_cast<std::uint64_t>(nt) * kPer);
    EXPECT_LE(st.combined, st.ops);
    EXPECT_GE(st.takeovers + st.direct, 1u);
    EXPECT_GE(st.passes, st.takeovers);
    EXPECT_LE(st.handoffs, st.passes);
  }
}

TEST(FlatCombinerConcurrent, ReadAfterCompletedOpSeesOwnOp) {
  // The concurrent face of FlatCombinerReplyOrder: a monotone counter
  // only grows, so a load() issued after a completed fetch_add must
  // return MORE than that op's prior — a stale value_ (reply published
  // before the batch write-back) shows up as read() == prior. This is
  // exactly the window that let coordination.hpp's rw-lock admit a
  // writer alongside an already-admitted reader.
  constexpr unsigned kThreads = 4;
  constexpr unsigned kPer = 300;
  FlatCombiner<> fc(kThreads);
  std::atomic<unsigned> stale{0};
  {
    std::vector<std::jthread> ts;
    for (unsigned t = 0; t < kThreads; ++t) {
      ts.emplace_back([&, t] {
        for (unsigned i = 0; i < kPer; ++i) {
          const Word prior = fc.fetch_rmw(t, AnyRmw(FetchAdd(1)));
          if (fc.read() <= prior) stale.fetch_add(1);
        }
      });
    }
  }
  EXPECT_EQ(stale.load(), 0u);
  EXPECT_EQ(fc.read(), static_cast<Word>(kThreads) * kPer);
}

TEST(FlatCombinerConcurrent, TightPassCapStillCompletesEveryOp) {
  // max_passes = 1 forces a handoff whenever work outlives one scan: the
  // anti-starvation path under real contention. Aliased slots (4 threads,
  // 2 slots) exercise the claim CAS arbitration too.
  FlatCombiner<> fc(2, 0, /*max_passes=*/1);
  constexpr unsigned kThreads = 4;
  constexpr unsigned kPer = 150;
  {
    std::vector<std::jthread> ts;
    for (unsigned t = 0; t < kThreads; ++t) {
      ts.emplace_back([&, t] {
        for (unsigned i = 0; i < kPer; ++i) {
          (void)fc.fetch_rmw(t, AnyRmw(FetchAdd(1)));
        }
      });
    }
  }
  EXPECT_EQ(fc.read(), static_cast<Word>(kThreads) * kPer);
  const FlatCombinerStats st = fc.stats();
  EXPECT_EQ(st.ops, static_cast<std::uint64_t>(kThreads) * kPer);
  // Each tenure runs exactly one pass at this cap, and one pass serves at
  // most slots() ops; direct ops run in no pass.
  EXPECT_EQ(st.passes, st.takeovers);
  EXPECT_GE(st.takeovers * fc.slots() + st.direct, st.ops);
}

TEST(FlatCombinerConcurrent, SerializedUpdatesLinearizeWithBatches) {
  // compare_exchange-style updates take the combiner lock instead of
  // publishing; interleaved with batched adds the final value must still
  // account exactly.
  FlatCombiner<> fc(4, 0);
  constexpr unsigned kPer = 200;
  {
    std::jthread adder([&] {
      for (unsigned i = 0; i < kPer; ++i) {
        (void)fc.fetch_rmw(0, AnyRmw(FetchAdd(1)));
      }
    });
    std::jthread bumper([&] {
      for (unsigned i = 0; i < kPer; ++i) {
        (void)fc.update_at_combiner([](Word v) { return v + 10; });
      }
    });
  }
  EXPECT_EQ(fc.read(), static_cast<Word>(kPer) * 11);
  const FlatCombinerStats st = fc.stats();
  EXPECT_EQ(st.ops, kPer);
  EXPECT_EQ(st.serialized_updates, kPer);
}

// --- the direct path ---------------------------------------------------------

TEST(DirectPath, FlatUncontendedOpsSkipPublication) {
  // One thread meets no one: every op finds the lock word clear and
  // applies directly, so no slot is ever claimed or published (publishing
  // fires the shared_store hook on the slot word) and no pass runs.
  using HFc = FlatCombiner<HookInstrument>;
  HFc fc(4, 0);
  constexpr unsigned kOps = 100;
  unsigned slot_traffic = 0;
  const auto count_slots = [&](const void* addr) {
    for (unsigned i = 0; i < fc.slots(); ++i) {
      if (addr == fc.slot_address(i)) ++slot_traffic;
    }
  };
  HookInstrument::on_shared_load = count_slots;
  HookInstrument::on_shared_store = count_slots;
  for (unsigned i = 0; i < kOps; ++i) {
    EXPECT_EQ(fc.fetch_rmw(i % fc.slots(), AnyRmw(FetchAdd(1))), Word{i});
  }
  HookInstrument::on_shared_load = nullptr;
  HookInstrument::on_shared_store = nullptr;
  EXPECT_EQ(slot_traffic, 0u);
  EXPECT_EQ(fc.read(), Word{kOps});
  const FlatCombinerStats st = fc.stats();
  EXPECT_EQ(st.ops, kOps);
  EXPECT_EQ(st.direct, kOps);
  EXPECT_EQ(st.passes, 0u);
  EXPECT_EQ(st.takeovers, 0u);
  EXPECT_EQ(st.combined, 0u);
}

TEST(DirectPath, FlatFutexPublisherServedByDirectHolder) {
  // A publisher that finds the lock held marks the word and parks on its
  // slot; the holder's direct release must see the mark, serve one tenure
  // and wake it. The main thread holds the lock in place of a direct op.
  using FFc = FlatCombiner<NoInstrument, FutexWait>;
  FFc fc(2, 0);
  ASSERT_TRUE(Peer::lock(fc));
  Word prior = ~Word{0};
  std::jthread publisher([&] { prior = fc.fetch_rmw(1, AnyRmw(FetchAdd(5))); });
  SpinYieldWait pol;
  while (!(Peer::pending(fc, 1) && Peer::waiting(fc))) pol.pause();
  Peer::unlock_direct(fc);
  publisher.join();
  EXPECT_EQ(prior, 0u);
  EXPECT_EQ(fc.read(), 5u);
  const FlatCombinerStats st = fc.stats();
  EXPECT_EQ(st.ops, 1u);
  EXPECT_EQ(st.takeovers, 1u);  // the holder's tenure, not the publisher's
  EXPECT_EQ(st.combined, 1u);
  EXPECT_EQ(st.direct, 0u);
}

TEST(DirectPath, FlatFutexPublisherCompletesBesideDirectHammer) {
  // One thread applies direct ops back to back; the other's ops must
  // still complete — whenever it finds the hammer holding the lock, its
  // mark makes the hammer serve it — with every op counted exactly.
  FlatCombiner<NoInstrument, FutexWait> fc(2, 0);
  constexpr unsigned kPer = 300;
  constexpr Word kHigh = Word{1} << 32;
  std::atomic<bool> stop{false};
  std::uint64_t hammered = 0;
  {
    std::jthread hammer([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        (void)fc.fetch_rmw(0, AnyRmw(FetchAdd(1)));
        ++hammered;
      }
    });
    std::jthread other([&] {
      for (unsigned i = 0; i < kPer; ++i) {
        (void)fc.fetch_rmw(1, AnyRmw(FetchAdd(kHigh)));
      }
      stop.store(true, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(fc.read(), Word{hammered} + kPer * kHigh);
  const FlatCombinerStats st = fc.stats();
  EXPECT_EQ(st.ops, hammered + kPer);
  EXPECT_LE(st.direct, st.ops);
  EXPECT_LE(st.combined, st.ops - st.direct);
}

// --- instrumented HB edges through the backend seam --------------------------

using krs::analysis::ForkHandle;

TEST(FlatCombinerAnalysis, BackendOrdersTemporallySeparatedOps) {
  // The same experiment the atomic/combining backends pass: the only
  // detector-visible ordering between t0's payload write and t1's read is
  // the combiner's entry-acquire / exit-release edge inside fetch_rmw.
  krs::analysis::RaceDetector det;
  krs::analysis::ScopedDetector guard(det);
  BasicFlatCombiningBackend<GlobalInstrument> backend(4);
  BasicFlatCombiningBackend<GlobalInstrument>::Cell cell(backend, 0);
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

// --- deterministic model of the publication handshake ------------------------

using krs::verify::EAcquire;
using krs::verify::ERead;
using krs::verify::ERelease;
using krs::verify::EventProgram;
using krs::verify::EWrite;
using krs::verify::explore_races;

TEST(FlatCombineModel, PublicationHandshakeIsRaceFree) {
  // Abstract model of one served publication: var 0 = the slot's op +
  // result payload, var 1 = the value word; lock 0 = the slot's seq word
  // (claim CAS / publish / reply / pickup transitions), lock 1 = the
  // combiner lock. The combiner (thread 0) locks, acquire-reads the
  // pending slot, serves it against the value word, release-replies. The
  // owner (thread 1) claims, writes its op, publishes, then awaits the
  // reply and picks it up. Every cross-thread edge is mediated by the seq
  // word or the combiner lock — no schedule may report a race.
  EventProgram prog;
  prog.threads = {
      // combiner: elect → scan finds kPending → read op → RMW the value →
      // write reply → release kDone → unlock.
      {EAcquire{1}, EAcquire{0}, ERead{0}, ERead{1}, EWrite{1}, EWrite{0},
       ERelease{0}, ERelease{1}},
      // owner: claim (kIdle→kClaimed) → write op → publish kPending;
      // await kDone → read reply → store kIdle.
      {EAcquire{0}, EWrite{0}, ERelease{0}, EAcquire{0}, ERead{0},
       ERelease{0}},
  };
  const auto res = explore_races(prog);
  EXPECT_GT(res.schedules, 0u);
  EXPECT_TRUE(res.never_racy())
      << res.racy_schedules << " of " << res.schedules << " schedules racy";
}

TEST(FlatCombineModel, NakedPublicationAlwaysRaces) {
  // Control: drop the owner's seq-word edges. The naked op write and
  // reply read then race with the combiner on every schedule — proving
  // the clean verdict above comes from the modeled handshake.
  EventProgram prog;
  prog.threads = {
      {EAcquire{1}, EAcquire{0}, ERead{0}, ERead{1}, EWrite{1}, EWrite{0},
       ERelease{0}, ERelease{1}},
      {EWrite{0}, ERead{0}},  // naked publish + naked pickup
  };
  const auto res = explore_races(prog);
  EXPECT_GT(res.schedules, 0u);
  EXPECT_TRUE(res.always_racy())
      << res.racy_schedules << " of " << res.schedules << " schedules racy";
}

// --- SlotMap / topology policies ---------------------------------------------

TEST(TopologyMap, IdentityAndExplicitPermutation) {
  const SlotMap id = SlotMap::identity(4);
  EXPECT_EQ(id.width(), 4u);
  EXPECT_TRUE(id.is_identity());
  for (unsigned s = 0; s < 4; ++s) EXPECT_EQ(id(s), s);

  const SlotMap perm(std::vector<unsigned>{2, 0, 3, 1});
  EXPECT_FALSE(perm.is_identity());
  EXPECT_EQ(perm(0), 2u);
  EXPECT_EQ(perm(1), 0u);
  EXPECT_EQ(perm(2), 3u);
  EXPECT_EQ(perm(3), 1u);
}

TEST(TopologyMap, CpuTopologyFallsBackFlatWithoutSysfs) {
  const CpuTopology topo("/nonexistent/krs-sysfs-root");
  EXPECT_FALSE(topo.discovered());
  EXPECT_EQ(topo.cpus(), 0u);
  EXPECT_TRUE(topo.slot_map(8).is_identity());
}

// Fabricate /sys/devices/system/cpu with 4 CPUs in two INTERLEAVED L2
// clusters {0,2} and {1,3} — the case where the identity layout pairs
// cross-cluster at every leaf and a relayout fixes it.
class FakeSysfs {
 public:
  explicit FakeSysfs(const std::vector<std::string>& shared_lists) {
    namespace fs = std::filesystem;
    root_ = fs::path(testing::TempDir()) /
            ("krs-sysfs-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter_++));
    for (unsigned cpu = 0; cpu < shared_lists.size(); ++cpu) {
      const fs::path dir =
          root_ / ("cpu" + std::to_string(cpu)) / "cache" / "index2";
      fs::create_directories(dir);
      std::ofstream(dir / "shared_cpu_list") << shared_lists[cpu] << "\n";
    }
  }
  ~FakeSysfs() {
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }
  [[nodiscard]] std::string path() const { return root_.string(); }

 private:
  static inline unsigned counter_ = 0;
  std::filesystem::path root_;
};

TEST(TopologyMap, CpuTopologyGroupsInterleavedClusters) {
  const FakeSysfs sysfs({"0,2", "1,3", "0,2", "1,3"});
  const CpuTopology topo(sysfs.path());
  ASSERT_TRUE(topo.discovered());
  EXPECT_EQ(topo.cpus(), 4u);
  ASSERT_EQ(topo.clusters().size(), 2u);
  EXPECT_EQ(topo.clusters()[0], (std::vector<unsigned>{0, 2}));
  EXPECT_EQ(topo.clusters()[1], (std::vector<unsigned>{1, 3}));
  // Cluster-major relayout: slots 0 and 2 (cluster one) get internal
  // slots 0 and 1 — a shared leaf; slots 1 and 3 get 2 and 3.
  const SlotMap m = topo.slot_map(4);
  EXPECT_EQ(m(0), 0u);
  EXPECT_EQ(m(2), 1u);
  EXPECT_EQ(m(1), 2u);
  EXPECT_EQ(m(3), 3u);
  // width > ncpus wraps by expected CPU (slot mod ncpus), stably.
  const SlotMap wide = topo.slot_map(8);
  EXPECT_EQ(wide(0), 0u);
  EXPECT_EQ(wide(4), 1u);  // slot 4 → cpu 0 → same cluster, next position
  EXPECT_EQ(wide(2), 2u);
  EXPECT_EQ(wide(6), 3u);
}

TEST(TopologyMap, UniformSysfsFallsBackFlat) {
  // One shared domain (every CPU reports the same sharing set): relayout
  // cannot change any pairing, so the policy degrades to identity.
  const FakeSysfs sysfs({"0-3", "0-3", "0-3", "0-3"});
  const CpuTopology topo(sysfs.path());
  EXPECT_FALSE(topo.discovered());
  // clusters().empty() is the same fallback signal as !discovered(): the
  // degenerate single domain is dropped, while cpus() still sees the host.
  EXPECT_TRUE(topo.clusters().empty());
  EXPECT_EQ(topo.cpus(), 4u);
  EXPECT_TRUE(topo.slot_map(4).is_identity());
}

// --- topology → leaf pairing, proven through the tree ------------------------

TEST(TopologyTree, PermutationChangesWhichSlotsFold) {
  // Identity layout, width 4: slots 0 and 2 sit at DIFFERENT leaves, so a
  // simultaneous wave cannot fold them — two root applications.
  MappingCombiningTree<AnyRmw> flat_tree(SlotMap::identity(4), 0);
  using TreeWave = MappingCombiningTree<AnyRmw>::WaveOp;
  const std::vector<TreeWave> wave{{0, AnyRmw(FetchAdd(1))},
                                   {2, AnyRmw(FetchAdd(1))}};
  (void)flat_tree.run_wave(wave);
  EXPECT_EQ(flat_tree.stats().folds, 0u);
  EXPECT_EQ(flat_tree.stats().root_applies, 2u);

  // The interleaved-cluster permutation maps slots 0 and 2 to adjacent
  // internal slots — one shared leaf, so the same wave folds once and
  // reaches the root once. This is the whole point of the Topology
  // policy: same threads, same ops, one less root transaction.
  MappingCombiningTree<AnyRmw> clustered(
      SlotMap(std::vector<unsigned>{0, 2, 1, 3}), 0);
  (void)clustered.run_wave(wave);
  EXPECT_EQ(clustered.stats().folds, 1u);
  EXPECT_EQ(clustered.stats().root_applies, 1u);
  EXPECT_EQ(clustered.read(), 2u);
}

// --- relaxed width precondition ----------------------------------------------

TEST(TreeWidth, OddWidthsRoundUpAndStayCorrect) {
  MappingCombiningTree<AnyRmw> t3(3, 0);
  EXPECT_EQ(t3.width(), 4u);
  MappingCombiningTree<AnyRmw> t5(5, 0);
  EXPECT_EQ(t5.width(), 8u);
  MappingCombiningTree<AnyRmw> t1(1, 0);
  EXPECT_EQ(t1.width(), 2u);

  for (unsigned s = 0; s < 3; ++s) {
    EXPECT_EQ(t3.fetch_rmw(s, AnyRmw(FetchAdd(1))), s);
  }
  EXPECT_EQ(t3.read(), 3u);
}

TEST(TreeWidth, OddWidthBackendCountsExactly) {
  // CombiningBackend sized to an odd "core count": thread→slot modulo
  // stays at the requested width while the tree rounds internally.
  CombiningBackend backend(3);
  EXPECT_EQ(backend.width(), 3u);
  CombiningBackend::Cell cell(backend, 0);
  constexpr unsigned kThreads = 3;
  constexpr unsigned kPer = 100;
  {
    std::vector<std::jthread> ts;
    for (unsigned t = 0; t < kThreads; ++t) {
      ts.emplace_back([&] {
        for (unsigned i = 0; i < kPer; ++i) backend.fetch_add(cell, 1);
      });
    }
  }
  EXPECT_EQ(backend.load(cell), static_cast<Word>(kThreads) * kPer);
}

TEST(TreeWidth, TopologyBackendEndToEnd) {
  // The full seam: CpuTopology (fabricated interleaved clusters) → SlotMap
  // → CombiningBackend → counter invariants hold.
  const FakeSysfs sysfs({"0,2", "1,3", "0,2", "1,3"});
  CombiningBackend backend(4, CpuTopology(sysfs.path()));
  CombiningBackend::Cell cell(backend, 0);
  constexpr unsigned kThreads = 4;
  constexpr unsigned kPer = 100;
  {
    std::vector<std::jthread> ts;
    for (unsigned t = 0; t < kThreads; ++t) {
      ts.emplace_back([&] {
        for (unsigned i = 0; i < kPer; ++i) backend.fetch_add(cell, 1);
      });
    }
  }
  EXPECT_EQ(backend.load(cell), static_cast<Word>(kThreads) * kPer);
}

}  // namespace
