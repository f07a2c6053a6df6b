// Flat combining: the publication-list rival to the combining tree.
//
// The paper's tree turns n contended RMWs into O(lg n) local handshakes —
// the right asymptotics for large n. But each handshake is a CAS-mediated
// state-machine transition on its own cache line, so for SMALL n the tree
// pays lg n coherence misses per operation where a single serialization
// point would pay ~1. Flat combining (Hendler–Incze–Shavit–Tzafrir's
// structure, applied here to the §3/§5 fetch-and-θ mapping families) is
// that single point done right:
//
//  * an op that finds the combiner lock word entirely clear (no combiner,
//    no waiting publisher) takes the lock and applies its own mapping
//    directly — no slot, no scan: like a request through an empty §4.2
//    switch queue, an op that meets no one pays only the lock and the
//    value word;
//  * otherwise the thread uses its cache-line-padded PUBLICATION SLOT: it
//    writes its encoded core::AnyRmw mapping into the slot and
//    release-publishes it — one line transfer, no CAS;
//  * ONE thread at a time is the COMBINER, elected by a try-lock on a
//    single word (never spun on while held — losers set the word's
//    `waiting` bit, test-and-test-and-set style, and go back to watching
//    their own slot). A direct op whose release finds `waiting` set runs
//    one ordinary combining tenure before it leaves, so publishers are
//    never stranded behind a stream of direct ops;
//  * the combiner scans the slots and serves every pending mapping in one
//    BATCH: it reads the value once, applies the mappings in slot order
//    while handing each op the running prior — exactly the §3
//    decombination chain ⟨id2, f(val)⟩, computed at one site instead of
//    down a tree path — and writes the value back once;
//  * after a bounded number of scan passes the combiner releases the lock
//    (HANDOFF), so no thread serves others forever and a continuously
//    loaded cell rotates its combiner.
//
// The shared-memory traffic therefore concentrates on the publication
// lines (owner↔combiner, pairwise) instead of the value word (combiner
// only) — the inversion of the §1 hot spot that tools/krs_profile's flat
// run demonstrates. Waiting is local spinning on the thread's own slot,
// paced by the WaitPolicy seam (runtime/wait_policy.hpp): SpinYieldWait
// spins and then yields, FutexWait parks waiters on their own slot word
// (the combiner wakes them when the reply lands, with bounded park
// timeouts covering the publish-after-scan race).
//
// FlatCombiningBackend wraps the combiner behind the RmwBackend concept,
// making it the FOURTH substrate (after atomic / combining-tree / sim):
// every §6 algorithm runs over it unchanged. compare_exchange is not a
// tractable mapping, so it serializes under the combiner lock
// (update_at_combiner), linearized against every batched operation — the
// same escape hatch the tree's update_at_root provides.
//
// See docs/PERFORMANCE.md for the measured flat-vs-tree crossover and
// when to pick which.
#pragma once

#include <atomic>
#include <concepts>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "analysis/instrument.hpp"
#include "core/any_rmw.hpp"
#include "core/fetch_theta.hpp"
#include "core/load_store_swap.hpp"
#include "core/types.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/rmw_backend.hpp"
#include "runtime/wait_policy.hpp"
#include "util/assert.hpp"

namespace krs::runtime {

/// Combiner-side telemetry. `ops` counts completed operations;
/// `combined` the subset served by ANOTHER thread's pass (the flat-
/// combining win: those threads never touched the value word); `takeovers`
/// combining tenures (won elections, and direct holders that found a
/// publisher waiting); `passes` publication-list scans;
/// `handoffs` lock releases forced by the pass cap while work was still
/// pending (the anti-starvation path); `serialized_updates` the
/// update_at_combiner escape-hatch calls; `direct` the ops applied by
/// their own thread without publishing (a subset of `ops`, run in no pass).
struct FlatCombinerStats {
  std::uint64_t ops = 0;
  std::uint64_t combined = 0;
  std::uint64_t direct = 0;
  std::uint64_t takeovers = 0;
  std::uint64_t passes = 0;
  std::uint64_t handoffs = 0;
  std::uint64_t serialized_updates = 0;

  /// Fraction of operations a peer combiner absorbed (0 when nothing ran).
  [[nodiscard]] double combined_fraction() const {
    return ops > 0
               ? static_cast<double>(combined) / static_cast<double>(ops)
               : 0.0;
  }
};

template <typename Instrument = analysis::DefaultInstrument,
          WaitPolicy Policy = SpinYieldWait>
class FlatCombiner {
 public:
  using value_type = core::Word;

  static constexpr unsigned kDefaultMaxPasses = 8;

  /// `slots`: publication-record count, ≥ 2 — any value, no power-of-two
  /// constraint (there is no heap layout here). Threads may alias onto one
  /// slot (ordinal mod slots, like the tree); the claim CAS serializes
  /// them, costing waiting, never correctness.
  ///
  /// `max_passes`: scan passes one combiner may run before it must release
  /// the lock. 1 = serve one batch and hand off immediately; larger values
  /// amortize the lock word better under sustained load.
  explicit FlatCombiner(unsigned slots, core::Word initial = 0,
                        unsigned max_passes = kDefaultMaxPasses)
      : nslots_(slots < 2 ? 2 : slots),
        max_passes_(max_passes < 1 ? 1 : max_passes),
        value_(initial),
        slots_(nslots_) {
    served_.reserve(nslots_);
  }

  FlatCombiner(const FlatCombiner&) = delete;
  FlatCombiner& operator=(const FlatCombiner&) = delete;

  /// Atomically value ← f(value), returning the prior value. If the lock
  /// word is clear, applies `f` directly; otherwise publishes into `slot`
  /// (mod slots()), then either a running combiner serves the op or this
  /// thread elects itself and serves the whole publication list, its own
  /// op included.
  core::Word fetch_rmw(unsigned slot, const core::AnyRmw& f) {
    Instrument::acquire(this);
    if (try_lock()) {
      Instrument::contended_rmw(&value_, KRS_SITE);
      const core::Word prior = value_.load(std::memory_order_relaxed);
      value_.store(f.apply(prior), std::memory_order_seq_cst);
      bump(ops_);
      bump(direct_);
      unlock_direct();
      Instrument::release(this);
      return prior;
    }
    Slot& s = claim(slot % nslots_);
    s.op = f;
    Instrument::shared_store(&s.seq, KRS_SITE);
    s.seq.store(kPending, std::memory_order_release);

    Policy pol;
    for (;;) {
      if (s.seq.load(std::memory_order_acquire) == kDone) break;
      if (elect()) {
        combine(&s, true);
        unlock();
        if constexpr (Policy::kParks) wake_pending();
        break;
      }
      // Local wait on our own slot word: a combiner flipping it to kDone
      // wakes a parked waiter; the bounded park timeout re-arms the
      // try_lock election if a handoff left the list unserved.
      pol.wait_while_equal(s.seq, kPending);
    }
    KRS_ASSERT(s.seq.load(std::memory_order_acquire) == kDone);
    const core::Word prior = s.result;
    s.seq.store(kIdle, std::memory_order_release);
    if constexpr (Policy::kParks) Policy::notify_all(s.seq);
    Instrument::release(this);
    return prior;
  }

  /// Serialized escape hatch for updates that are NOT tractable mappings
  /// (compare-and-swap): applies `f` under the combiner lock and returns
  /// the prior value. Linearizes with every batched operation, combines
  /// with none — the exact analogue of the tree's update_at_root.
  template <std::invocable<core::Word> F>
  core::Word update_at_combiner(F&& f) {
    Instrument::acquire(this);
    Instrument::contended_rmw(&value_, KRS_SITE);
    Policy pol;
    while (!try_lock()) pol.wait_while_equal(lock_, 1);
    const core::Word prior = value_.load(std::memory_order_relaxed);
    value_.store(std::forward<F>(f)(prior), std::memory_order_seq_cst);
    bump(serialized_updates_);  // under the lock: writers serialized
    unlock();
    if constexpr (Policy::kParks) wake_pending();
    Instrument::release(this);
    return prior;
  }

  /// Atomic snapshot of the current value: the value word is a single
  /// atomic updated only under the combiner lock, so a bare seq_cst load
  /// is coherent — no lock, no publication.
  [[nodiscard]] core::Word read() const {
    Instrument::shared_load(&value_, KRS_SITE);
    return value_.load(std::memory_order_seq_cst);
  }

  [[nodiscard]] unsigned slots() const noexcept { return nslots_; }
  [[nodiscard]] unsigned max_passes() const noexcept { return max_passes_; }

  /// Address of the value word — what the Instrument policy's
  /// contended_rmw hook reports for combiner traffic, so a profiler caller
  /// (tools/krs_profile) can map "the hot line" back to this combiner.
  [[nodiscard]] const void* value_address() const noexcept { return &value_; }

  /// Address of one publication slot's line, for the same mapping.
  [[nodiscard]] const void* slot_address(unsigned slot) const {
    KRS_EXPECTS(slot < nslots_);
    return &slots_[slot].seq;
  }

  /// Relaxed snapshot; quiesce for exact accounting (then
  /// ops == combined + self-served holds exactly).
  [[nodiscard]] FlatCombinerStats stats() const {
    FlatCombinerStats st;
    st.ops = ops_.load(std::memory_order_relaxed);
    st.combined = combined_.load(std::memory_order_relaxed);
    st.direct = direct_.load(std::memory_order_relaxed);
    st.takeovers = takeovers_.load(std::memory_order_relaxed);
    st.passes = passes_.load(std::memory_order_relaxed);
    st.handoffs = handoffs_.load(std::memory_order_relaxed);
    st.serialized_updates =
        serialized_updates_.load(std::memory_order_relaxed);
    return st;
  }

  // ---- deterministic batch surface ------------------------------------------

  /// One operation of a single-caller wave (mirrors the tree's surface).
  struct WaveOp {
    unsigned slot;
    core::AnyRmw op;
  };

  /// Drive one simultaneous round from ONE caller: publish every wave[i],
  /// run combining passes until all are served, pick the replies up in
  /// wave order. Slots within a wave must be distinct; the caller must be
  /// the only thread using the combiner. Counter deltas after a wave
  /// sequence are a pure function of that sequence — the deterministic
  /// measurement surface tools/krs_profile drives.
  ///
  /// `on_op(i)` fires before each of wave[i]'s publication and pickup
  /// traffic; the combining pass itself fires on_op(0) first — the wave's
  /// first op models the thread that won the election.
  std::vector<core::Word> run_wave(
      const std::vector<WaveOp>& wave,
      const std::function<void(std::size_t)>& on_op = {}) {
    KRS_EXPECTS(wave.size() <= nslots_);
    std::vector<bool> seen(nslots_, false);
    for (const WaveOp& o : wave) {
      KRS_EXPECTS(o.slot < nslots_ && !seen[o.slot] &&
                  "wave slots must be distinct");
      seen[o.slot] = true;
    }
    Instrument::acquire(this);
    for (std::size_t i = 0; i < wave.size(); ++i) {
      if (on_op) on_op(i);
      Slot& s = claim(wave[i].slot);
      s.op = wave[i].op;
      Instrument::shared_store(&s.seq, KRS_SITE);
      s.seq.store(kPending, std::memory_order_release);
    }
    if (!wave.empty()) {
      if (on_op) on_op(0);
      const bool locked = try_lock();
      KRS_ASSERT(locked && "run_wave requires an otherwise idle combiner");
      combine(nullptr);
      unlock();
    }
    std::vector<core::Word> priors(wave.size());
    for (std::size_t i = 0; i < wave.size(); ++i) {
      if (on_op) on_op(i);
      Slot& s = slots_[wave[i].slot];
      KRS_ASSERT(s.seq.load(std::memory_order_acquire) == kDone);
      priors[i] = s.result;
      s.seq.store(kIdle, std::memory_order_release);
    }
    Instrument::release(this);
    return priors;
  }

 private:
  friend struct FlatCombinerTestPeer;

  // Slot sequence states. Idle → Claimed is the aliased-thread arbitration
  // CAS; Claimed → Pending is the owner's release-publish; Pending → Done
  // is the combiner's release-reply; Done → Idle is the owner's pickup.
  enum Seq : std::uint32_t {
    kIdle = 0,
    kClaimed = 1,
    kPending = 2,
    kDone = 3,
  };

  struct alignas(kCacheLine) Slot {
    std::atomic<std::uint32_t> seq{kIdle};
    core::AnyRmw op{};
    core::Word result = 0;
  };

  Slot& claim(unsigned idx) {
    Slot& s = slots_[idx];
    Policy pol;
    for (;;) {
      std::uint32_t expect = kIdle;
      if (s.seq.compare_exchange_weak(expect, kClaimed,
                                      std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
        return s;
      }
      if (expect != kIdle) {
        // Another thread owns the slot: wait on the value we observed —
        // the owner's pickup (kDone→kIdle) notifies parked claimants.
        pol.wait_while_equal(s.seq, expect);
      } else {
        pol.pause();  // spurious weak-CAS failure
      }
    }
  }

  // Lock word bits. `kWaiting` is set only while `kLocked` is, and every
  // release clears the word, so an unlocked word is always 0.
  static constexpr std::uint32_t kLocked = 0x1;
  static constexpr std::uint32_t kWaiting = 0x2;

  /// Take the lock if the word is entirely clear (test-and-test-and-set).
  [[nodiscard]] bool try_lock() {
    std::uint32_t expect = lock_.load(std::memory_order_relaxed);
    return expect == 0 &&
           lock_.compare_exchange_strong(expect, kLocked,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed);
  }

  /// A publisher's election round: take the lock if it is free, else make
  /// sure the holder's word carries `kWaiting` — one RMW at most, none
  /// when another publisher already set the bit. The release CAS pairs
  /// with a direct holder's acquire-on-failure, so the holder's scan sees
  /// this publication.
  [[nodiscard]] bool elect() {
    std::uint32_t w = lock_.load(std::memory_order_relaxed);
    for (;;) {
      if (w == 0) {
        if (lock_.compare_exchange_weak(w, kLocked, std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
          return true;
        }
      } else if ((w & kWaiting) != 0 ||
                 lock_.compare_exchange_weak(w, w | kWaiting,
                                             std::memory_order_release,
                                             std::memory_order_relaxed)) {
        return false;
      }
    }
  }

  void unlock() {
    lock_.store(0, std::memory_order_release);
    if constexpr (Policy::kParks) Policy::notify_all(lock_);
  }

  /// A direct op's release. If a publisher marked the word while we held
  /// it, serve one ordinary tenure (capped by max_passes) before leaving.
  void unlock_direct() {
    std::uint32_t expect = kLocked;
    if (lock_.compare_exchange_strong(expect, 0, std::memory_order_release,
                                      std::memory_order_acquire)) {
      if constexpr (Policy::kParks) Policy::notify_all(lock_);
      return;
    }
    combine(nullptr, true);
    unlock();
    if constexpr (Policy::kParks) wake_pending();
  }

  /// Parking policies only: after releasing the lock, wake the owners of
  /// any slots still pending (a pass-cap handoff can leave published ops
  /// unserved) so a parked owner re-arms its combiner election promptly
  /// instead of riding out its park timeout.
  void wake_pending() {
    for (Slot& s : slots_) {
      if (s.seq.load(std::memory_order_acquire) == kPending) {
        Policy::notify_all(s.seq);
      }
    }
  }

  /// Increment for counters mutated ONLY while the combiner lock is held:
  /// writers are mutually excluded, so a relaxed load+store (no RMW, no
  /// lock prefix) counts exactly; stats() snapshots race benignly.
  static void bump(std::atomic<std::uint64_t>& counter, std::uint64_t n = 1) {
    counter.store(counter.load(std::memory_order_relaxed) + n,
                  std::memory_order_relaxed);
  }

  /// One publication-list scan under the lock: batch-apply every pending
  /// mapping in slot order against a single read-modify-write of the
  /// value word. Each served op's reply is the running prior — the §3
  /// decombination chain evaluated at one site.
  ///
  /// PEER replies publish in TWO phases: first every result is computed
  /// and the batched value stored, and only then the peers' slots flip to
  /// kDone. A waiter that observes its reply therefore also observes a
  /// value_ that already includes its own op — the same order the tree
  /// enforces by applying at the root before distributing down — so a
  /// read() after a completed fetch_rmw can never miss that op. The
  /// combiner's OWN slot (`own`, may be null) is the one exception: its
  /// owner is this very thread, so program order already sequences the
  /// value store before any subsequent read() and the reply can flip
  /// inline — keeping a pass that serves only its combiner at one sweep. The
  /// value store is seq_cst (one xchg per pass): a Dekker handshake such
  /// as the rw-lock's also needs each served op ordered before its
  /// owner's next load of ANOTHER cell — the store-buffering order of the
  /// RmwBackend ordering contract. ops_/combined_ are counted here, under
  /// the lock; only threaded tenures (a publisher's or a direct holder's,
  /// not run_wave's single caller) count combined ops.
  unsigned serve_pass(const Slot* own, bool threaded) {
    Instrument::contended_rmw(&value_, KRS_SITE);
    core::Word v = value_.load(std::memory_order_relaxed);
    unsigned served = 0;
    served_.clear();
    for (unsigned i = 0; i < nslots_; ++i) {
      Slot& s = slots_[i];
      Instrument::shared_load(&s.seq, KRS_SITE);
      if (s.seq.load(std::memory_order_acquire) != kPending) continue;
      s.result = v;
      v = s.op.apply(v);
      ++served;
      if (&s == own) {
        Instrument::shared_store(&s.seq, KRS_SITE);
        s.seq.store(kDone, std::memory_order_release);
      } else {
        served_.push_back(i);
      }
    }
    if (served != 0) {
      value_.store(v, std::memory_order_seq_cst);
      for (const unsigned i : served_) {
        Slot& s = slots_[i];
        Instrument::shared_store(&s.seq, KRS_SITE);
        s.seq.store(kDone, std::memory_order_release);
        if constexpr (Policy::kParks) Policy::notify_all(s.seq);
      }
    }
    bump(passes_);
    bump(ops_, served);
    if (threaded) bump(combined_, served_.size());
    return served;
  }

  /// The combiner's tenure, lock held: scan until either nothing is
  /// pending or the pass cap forces a handoff. `own` (may be null) is the
  /// caller's slot: the first pass always serves it, so a combiner never
  /// exits with its own op unserved.
  void combine(const Slot* own, bool threaded = false) {
    bump(takeovers_);
    unsigned passes = 0;
    for (;;) {
      const unsigned served = serve_pass(own, threaded);
      ++passes;
      if (passes >= max_passes_ || served == 0) break;
    }
    KRS_ASSERT(own == nullptr ||
               own->seq.load(std::memory_order_relaxed) == kDone);
    if (passes >= max_passes_) {
      for (const Slot& s : slots_) {
        if (s.seq.load(std::memory_order_relaxed) == kPending) {
          bump(handoffs_);
          break;
        }
      }
    }
  }

  unsigned nslots_;
  unsigned max_passes_;
  alignas(kCacheLine) std::atomic<std::uint32_t> lock_{0};
  alignas(kCacheLine) std::atomic<core::Word> value_;
  // Telemetry, written only under the lock and so on the value word's line
  // (a direct op touches the lock line and this one); relaxed, snapshots
  // race with operations by design.
  std::atomic<std::uint64_t> ops_{0};
  std::atomic<std::uint64_t> combined_{0};
  std::atomic<std::uint64_t> direct_{0};
  std::atomic<std::uint64_t> takeovers_{0};
  std::atomic<std::uint64_t> passes_{0};
  std::atomic<std::uint64_t> handoffs_{0};
  std::atomic<std::uint64_t> serialized_updates_{0};
  std::vector<Slot> slots_;
  std::vector<unsigned> served_;  ///< serve_pass scratch; combiner lock only
};

/// The flat-combining RMW backend: every cell is one FlatCombiner, so
/// concurrent operations on a hot word batch at a single combiner instead
/// of serializing on the coherence protocol (small-n regime) or paying the
/// tree's lg n handshakes (large-n regime). Same mapping-family table as
/// CombiningBackend:
///
///   fetch_add/or/and/xor → core::FetchTheta<…>    (§5.2)
///   exchange             → core::LssOp::swap       (§5.1)
///   store                → core::LssOp::store      (batches; constant map)
///   fetch_rmw(m)         → m verbatim              (any core::AnyRmw —
///                                                   batching needs no
///                                                   compose, so mixed
///                                                   families never decline)
///   compare_exchange     → update_at_combiner      (serialized, §5)
///   load                 → combiner.read()         (atomic snapshot)
template <typename Instrument = analysis::DefaultInstrument,
          WaitPolicy Policy = SpinYieldWait>
class BasicFlatCombiningBackend {
 public:
  /// `width`: publication slots per cell, ≥ 2 — no power-of-two rounding
  /// (a flat list has no heap layout), so odd core counts from CpuTopology
  /// size exactly. Thread→slot is thread_ordinal() mod width.
  explicit BasicFlatCombiningBackend(unsigned width = kDefaultWidth,
                                     unsigned max_passes = 0)
      : width_(std::max(2u, width)), max_passes_(max_passes) {}

  struct Cell {
    Cell(const BasicFlatCombiningBackend& b, Word initial)
        : fc(b.width_, initial,
             b.max_passes_ == 0
                 ? FlatCombiner<Instrument, Policy>::kDefaultMaxPasses
                 : b.max_passes_) {}
    Cell(const Cell&) = delete;
    Cell& operator=(const Cell&) = delete;

    FlatCombiner<Instrument, Policy> fc;
  };

  Word fetch_add(Cell& c, Word v) const {
    return c.fc.fetch_rmw(slot(), core::AnyRmw(core::FetchAdd(v)));
  }
  Word fetch_or(Cell& c, Word v) const {
    return c.fc.fetch_rmw(slot(), core::AnyRmw(core::FetchOr(v)));
  }
  Word fetch_and(Cell& c, Word v) const {
    return c.fc.fetch_rmw(slot(), core::AnyRmw(core::FetchAnd(v)));
  }
  Word fetch_xor(Cell& c, Word v) const {
    return c.fc.fetch_rmw(slot(), core::AnyRmw(core::FetchXor(v)));
  }
  Word exchange(Cell& c, Word v) const {
    return c.fc.fetch_rmw(slot(), core::AnyRmw(core::LssOp::swap(v)));
  }

  Word fetch_rmw(Cell& c, const core::AnyRmw& m) const {
    return c.fc.fetch_rmw(slot(), m);
  }

  /// Not a tractable mapping (§5: the update must not branch on the old
  /// value), so it cannot batch; serialized under the combiner lock,
  /// linearized against every batched operation.
  bool compare_exchange(Cell& c, Word& expected, Word desired) const {
    bool ok = false;
    const Word want = expected;
    const Word prior = c.fc.update_at_combiner([&](Word old) {
      if (old == want) {
        ok = true;
        return desired;
      }
      return old;
    });
    if (!ok) expected = prior;
    return ok;
  }

  Word load(const Cell& c) const { return c.fc.read(); }

  void store(Cell& c, Word v) const {
    c.fc.fetch_rmw(slot(), core::AnyRmw(core::LssOp::store(v)));
  }

  [[nodiscard]] unsigned width() const noexcept { return width_; }

  [[nodiscard]] FlatCombinerStats cell_stats(const Cell& c) const {
    return c.fc.stats();
  }

  static constexpr unsigned kDefaultWidth = 16;

 private:
  [[nodiscard]] unsigned slot() const noexcept {
    return thread_ordinal() % width_;
  }

  unsigned width_;
  unsigned max_passes_;
};

using FlatCombiningBackend = BasicFlatCombiningBackend<>;

static_assert(RmwBackend<BasicFlatCombiningBackend<analysis::NoInstrument>>);
static_assert(RmwBackend<FlatCombiningBackend>);

}  // namespace krs::runtime
