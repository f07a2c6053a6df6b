// The race detector driving REAL threads through the instrumented runtime
// primitives (analysis/instrument.hpp policies).
//
// Discipline for these tests: the detector's verdict is about the EVENT
// stream, so the shared data that shadow events describe is kept a
// std::atomic (or genuinely synchronized) — the tests must themselves be
// clean under ThreadSanitizer (they carry the `tsan` ctest label) even
// when they describe a racy program to the detector.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "analysis/instrument.hpp"
#include "analysis/race_detector.hpp"
#include "runtime/coordination.hpp"
#include "runtime/full_empty_cell.hpp"
#include "runtime/group_lock.hpp"
#include "runtime/local_spin_locks.hpp"
#include "runtime/parallel_queue.hpp"
#include "runtime/tree_barrier.hpp"

namespace {

using namespace krs::analysis;
using namespace krs::runtime;

// --- the zero-cost-when-disabled contract ------------------------------------

static_assert(!NoInstrument::enabled && GlobalInstrument::enabled);
static_assert(sizeof(BasicTicketLock<NoInstrument>) ==
                  sizeof(BasicTicketLock<GlobalInstrument>),
              "the instrumentation policy must add no per-object state");
static_assert(noexcept(std::declval<BasicTicketLock<NoInstrument>&>().lock()),
              "uninstrumented lock() must stay noexcept");
static_assert(
    !noexcept(std::declval<BasicTicketLock<GlobalInstrument>&>().lock()),
    "instrumented lock() may allocate inside the detector");

TEST(Instrument, HooksAreNoOpsWithoutADetector) {
  ASSERT_EQ(global_detector(), nullptr);
  int x = 0;
  hb_acquire(&x);
  hb_release(&x);
  shadow_read(&x);
  shadow_write(&x);  // must not crash or register anything
}

TEST(Instrument, ScopedDetectorInstallsAndUninstalls) {
  RaceDetector d;
  {
    ScopedDetector guard(d);
    EXPECT_EQ(global_detector(), &d);
    shadow_write(&d);  // registers this thread as a root on demand
  }
  EXPECT_EQ(global_detector(), nullptr);
  EXPECT_EQ(d.threads(), 1u);
  EXPECT_TRUE(d.clean());
}

TEST(Instrument, TlsBindingDoesNotLeakAcrossDetectors) {
  // Two consecutive detectors: the second must re-register this thread
  // (the TLS cache is keyed by detector uid, not address).
  RaceDetector a;
  {
    ScopedDetector guard(a);
    shadow_write(&a);
  }
  RaceDetector b;
  {
    ScopedDetector guard(b);
    shadow_write(&b);
  }
  EXPECT_EQ(a.threads(), 1u);
  EXPECT_EQ(b.threads(), 1u);
}

// --- the seeded racy program is flagged --------------------------------------

TEST(AnalysisRuntime, UnsynchronizedCounterIsFlagged) {
  RaceDetector det;
  ScopedDetector guard(det);
  std::atomic<int> counter{0};  // atomic: the *events* race, the data not

  ForkHandle f1;
  std::thread t1([&] {
    f1.adopt();
    counter.fetch_add(1, std::memory_order_relaxed);
    shadow_write(&counter, KRS_SITE);
  });
  ForkHandle f2;
  std::thread t2([&] {
    f2.adopt();
    counter.fetch_add(1, std::memory_order_relaxed);
    shadow_write(&counter, KRS_SITE);
  });
  t1.join();
  f1.join();
  t2.join();
  f2.join();

  EXPECT_EQ(counter.load(), 2);
  ASSERT_EQ(det.race_count(), 1u);
  const std::string report = det.races()[0].to_string();
  EXPECT_NE(report.find("test_analysis_runtime.cpp"), std::string::npos);
}

// --- the synchronized variants are accepted ----------------------------------

TEST(AnalysisRuntime, TicketLockProtectedCounterIsClean) {
  RaceDetector det;
  ScopedDetector guard(det);
  BasicTicketLock<GlobalInstrument> lock;
  std::atomic<int> counter{0};

  const auto worker = [&](const ForkHandle& f) {
    f.adopt();
    for (int i = 0; i < 8; ++i) {
      lock.lock();
      counter.fetch_add(1, std::memory_order_relaxed);
      shadow_write(&counter, KRS_SITE);
      lock.unlock();
    }
  };
  ForkHandle f1;
  std::thread t1(worker, std::cref(f1));
  ForkHandle f2;
  std::thread t2(worker, std::cref(f2));
  t1.join();
  f1.join();
  t2.join();
  f2.join();

  shadow_read(&counter, KRS_SITE);  // main, after both join edges
  EXPECT_EQ(counter.load(), 16);
  EXPECT_TRUE(det.clean()) << det.races()[0].to_string();
  EXPECT_GE(det.stats().acquires, 16u);
}

TEST(AnalysisRuntime, TicketLockOnOneSideOnlyIsStillFlagged) {
  RaceDetector det;
  ScopedDetector guard(det);
  BasicTicketLock<GlobalInstrument> lock;
  std::atomic<int> counter{0};

  ForkHandle f1;
  std::thread t1([&] {
    f1.adopt();
    lock.lock();
    counter.fetch_add(1, std::memory_order_relaxed);
    shadow_write(&counter, KRS_SITE);
    lock.unlock();
  });
  ForkHandle f2;
  std::thread t2([&] {
    f2.adopt();
    counter.fetch_add(1, std::memory_order_relaxed);
    shadow_write(&counter, KRS_SITE);  // no lock: races with t1's write
  });
  t1.join();
  f1.join();
  t2.join();
  f2.join();

  EXPECT_EQ(det.race_count(), 1u);
}

TEST(AnalysisRuntime, TreeBarrierSeparatedPhasesAreClean) {
  RaceDetector det;
  ScopedDetector guard(det);
  BasicTreeBarrier<GlobalInstrument> barrier(2);
  std::atomic<int> x{0};

  // T0 writes x in phase 1; T1 reads and overwrites it in phase 2. Only
  // the barrier orders them.
  ForkHandle f0;
  std::thread t0([&] {
    f0.adopt();
    x.store(41, std::memory_order_relaxed);
    shadow_write(&x, KRS_SITE);
    barrier.arrive_and_wait(0);
  });
  ForkHandle f1;
  std::thread t1([&] {
    f1.adopt();
    barrier.arrive_and_wait(1);
    shadow_read(&x, KRS_SITE);
    x.fetch_add(1, std::memory_order_relaxed);
    shadow_write(&x, KRS_SITE);
  });
  t0.join();
  f0.join();
  t1.join();
  f1.join();

  EXPECT_EQ(x.load(), 42);
  EXPECT_TRUE(det.clean()) << det.races()[0].to_string();
}

TEST(AnalysisRuntime, FaaBarrierSeparatedPhasesAreClean) {
  RaceDetector det;
  ScopedDetector guard(det);
  BasicBarrier<AtomicBackend, GlobalInstrument> barrier(2);
  std::atomic<int> x{0};

  ForkHandle f0;
  std::thread t0([&] {
    f0.adopt();
    x.store(7, std::memory_order_relaxed);
    shadow_write(&x, KRS_SITE);
    barrier.arrive_and_wait();
  });
  ForkHandle f1;
  std::thread t1([&] {
    f1.adopt();
    barrier.arrive_and_wait();
    shadow_read(&x, KRS_SITE);
  });
  t0.join();
  f0.join();
  t1.join();
  f1.join();

  EXPECT_TRUE(det.clean()) << det.races()[0].to_string();
}

TEST(AnalysisRuntime, FullEmptyCellHandoffIsClean) {
  RaceDetector det;
  ScopedDetector guard(det);
  FullEmptyCell<int, GlobalInstrument> cell;
  std::atomic<int> payload{0};

  ForkHandle fp;
  std::thread producer([&] {
    fp.adopt();
    payload.store(99, std::memory_order_relaxed);
    shadow_write(&payload, KRS_SITE);
    cell.put(1);  // releases the producer's history into the cell
  });
  ForkHandle fc;
  std::thread consumer([&] {
    fc.adopt();
    const int token = cell.take();  // acquires it
    EXPECT_EQ(token, 1);
    shadow_read(&payload, KRS_SITE);
    EXPECT_EQ(payload.load(std::memory_order_relaxed), 99);
  });
  producer.join();
  fp.join();
  consumer.join();
  fc.join();

  EXPECT_TRUE(det.clean()) << det.races()[0].to_string();
}

TEST(AnalysisRuntime, ParallelQueueHandoffIsClean) {
  RaceDetector det;
  ScopedDetector guard(det);
  ParallelQueue<int, GlobalInstrument> q(4);
  std::atomic<int> slots[4] = {};

  ForkHandle fp;
  std::thread producer([&] {
    fp.adopt();
    for (int i = 0; i < 4; ++i) {
      slots[i].store(i * 10, std::memory_order_relaxed);
      shadow_write(&slots[i], KRS_SITE);
      q.enqueue(i);
    }
  });
  ForkHandle fc;
  std::thread consumer([&] {
    fc.adopt();
    for (int n = 0; n < 4; ++n) {
      const int i = q.dequeue();
      shadow_read(&slots[i], KRS_SITE);
      EXPECT_EQ(slots[i].load(std::memory_order_relaxed), i * 10);
    }
  });
  producer.join();
  fp.join();
  consumer.join();
  fc.join();

  EXPECT_TRUE(det.clean()) << det.races()[0].to_string();
}

TEST(AnalysisRuntime, SemaphoreAsMutexIsClean) {
  RaceDetector det;
  ScopedDetector guard(det);
  BasicSemaphore<AtomicBackend, GlobalInstrument> sem(1);
  std::atomic<int> counter{0};

  const auto worker = [&](const ForkHandle& f) {
    f.adopt();
    for (int i = 0; i < 8; ++i) {
      sem.p();
      counter.fetch_add(1, std::memory_order_relaxed);
      shadow_write(&counter, KRS_SITE);
      sem.v();
    }
  };
  ForkHandle f1;
  std::thread t1(worker, std::cref(f1));
  ForkHandle f2;
  std::thread t2(worker, std::cref(f2));
  t1.join();
  f1.join();
  t2.join();
  f2.join();

  EXPECT_EQ(counter.load(), 16);
  EXPECT_TRUE(det.clean()) << det.races()[0].to_string();
}

TEST(AnalysisRuntime, RwLockReadersThenWriterIsClean) {
  RaceDetector det;
  ScopedDetector guard(det);
  BasicRwLock<AtomicBackend, GlobalInstrument> rw;
  std::atomic<int> x{5};

  ForkHandle fr;
  std::thread reader([&] {
    fr.adopt();
    rw.read_lock();
    shadow_read(&x, KRS_SITE);
    rw.read_unlock();
  });
  ForkHandle fw;
  std::thread writer([&] {
    fw.adopt();
    rw.write_lock();
    x.store(6, std::memory_order_relaxed);
    shadow_write(&x, KRS_SITE);
    rw.write_unlock();
  });
  reader.join();
  fr.join();
  writer.join();
  fw.join();

  EXPECT_TRUE(det.clean()) << det.races()[0].to_string();
}

TEST(AnalysisRuntime, GroupLockExcludedGroupsAreClean) {
  RaceDetector det;
  ScopedDetector guard(det);
  BasicGroupLock<GlobalInstrument> gl;
  std::atomic<int> x{0};

  ForkHandle f0;
  std::thread t0([&] {
    f0.adopt();
    gl.enter(0);
    x.store(1, std::memory_order_relaxed);
    shadow_write(&x, KRS_SITE);
    gl.leave();
  });
  ForkHandle f1;
  std::thread t1([&] {
    f1.adopt();
    gl.enter(1);
    shadow_read(&x, KRS_SITE);
    gl.leave();
  });
  t0.join();
  f0.join();
  t1.join();
  f1.join();

  EXPECT_TRUE(det.clean()) << det.races()[0].to_string();
}


// --- segment merging under real thread churn ---------------------------------

TEST(SegmentChurn, SixtyFourSequentialWorkersKeepDetectorStateBounded) {
  // 64 real threads churn through one detector, each fork/join-ordered
  // after the last. Segment merging must keep every resource O(live
  // threads): one reused child slot, clocks that never mention more than
  // two tids — not 65 slots with 65-entry clocks.
  RaceDetector det;
  ScopedDetector guard(det);
  std::atomic<int> data{0};

  constexpr unsigned kChurn = 64;
  for (unsigned i = 0; i < kChurn; ++i) {
    ForkHandle f;
    std::thread t([&] {
      f.adopt();
      data.fetch_add(1, std::memory_order_relaxed);
      shadow_write(&data, KRS_SITE);  // ordered against all predecessors
    });
    t.join();
    f.join();
  }
  shadow_read(&data, KRS_SITE);  // main, after every join edge

  EXPECT_EQ(data.load(), static_cast<int>(kChurn));
  EXPECT_TRUE(det.clean()) << det.races()[0].to_string();

  const DetectorStats st = det.stats();
  EXPECT_EQ(st.segments_merged, kChurn);
  EXPECT_EQ(st.tid_reuses, kChurn - 1);
  EXPECT_EQ(st.live_threads, 1u);
  EXPECT_EQ(st.peak_live_threads, 2u);
  EXPECT_EQ(det.threads(), 2u);       // main + ONE recycled child slot
  EXPECT_LE(det.clock_entries(), 2u);  // O(live threads), not O(kChurn)
}

TEST(Instrument, AdoptedBindingInvalidatedOnDetectorReinstall) {
  // The stale-binding footgun segment merging creates: a long-lived
  // worker adopts a Tid in one detector scope; after that scope closes,
  // its tid is retired and RECYCLED to a different thread in a later
  // scope of the SAME detector. If the worker's cached binding survived
  // into the new scope it would alias the new tenant — its unsynchronized
  // write would ride the recycled tid's epoch and the race below would
  // vanish. The binding generation (bumped on every install AND
  // uninstall) forces the worker to re-register as a fresh root instead.
  RaceDetector det;
  std::atomic<int> phase{0};
  std::atomic<int> scope1_data{0};
  std::atomic<int> scope2_data{0};
  const auto await = [&](int p) {
    while (phase.load(std::memory_order_acquire) < p) {
      std::this_thread::yield();
    }
  };

  std::unique_ptr<ForkHandle> handle;
  std::thread worker;
  {
    ScopedDetector guard(det);
    handle = std::make_unique<ForkHandle>();
    worker = std::thread([&] {
      handle->adopt();
      scope1_data.store(1, std::memory_order_relaxed);
      shadow_write(&scope1_data, KRS_SITE);  // scope 1, as the forked tid
      phase.store(1, std::memory_order_release);
      await(2);
      // Scope 2 is live now and our old tid belongs to t2's history. With
      // the generation check this thread re-registers as a root —
      // unordered with the recycled tid's work, so the write below must
      // be FLAGGED. A stale binding would ride the recycled tid's own
      // epoch and silently pass.
      shadow_write(&scope2_data, KRS_SITE);
      phase.store(3, std::memory_order_release);
    });
    await(1);
    handle->join();  // the worker issues no further scope-1 events

    // Still in scope 1: a covered fork recycles the worker's retired tid.
    ForkHandle f2;
    std::thread t2([&] {
      f2.adopt();
      scope2_data.store(2, std::memory_order_relaxed);
      shadow_write(&scope2_data, KRS_SITE);
    });
    t2.join();
    f2.join();
    EXPECT_EQ(det.stats().tid_reuses, 1u);
  }
  ASSERT_TRUE(det.clean());

  {
    ScopedDetector guard(det);
    phase.store(2, std::memory_order_release);
    await(3);  // the stale worker's write lands inside this scope
  }
  worker.join();

  // The worker was re-registered (3 slots: main, the recycled child slot,
  // the worker's new root), and its write races with t2's.
  EXPECT_EQ(det.threads(), 3u);
  EXPECT_EQ(det.race_count(), 1u);
}

}  // namespace
