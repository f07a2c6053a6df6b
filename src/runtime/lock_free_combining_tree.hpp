// The software combining tree: every node transition is a CAS on one
// packed status word, waiting is local spinning with bounded exponential
// backoff, and no mutex or condition variable appears anywhere on the
// operation path.
//
// MappingCombiningTree<M> is the general §4.2 mechanism. Node slots hold
// ENCODED MAPPINGS of a semigroup family M (core::CombinableMapping): a
// second arrival deposits its mapping g, the first folds it in with
// compose(f, g) on the way up, the root applies the combined mapping, and
// decombination on the way down answers the second with ⟨id2, f(val)⟩ —
// the first's accumulated mapping applied to the prior value, exactly the
// paper's reply rule. Because composition may DECLINE (try_compose →
// nullopt: Möbius overflow, cross-family core::AnyRmw), a declined second
// is served individually at the root during the first's distribute phase
// — §7's "partial combining is always correct" realized in the tree. A
// plain fetch-and-θ counter is the tree over core::AnyRmw (or one
// core::FetchTheta family) with explicit slots; CombiningBackend serves
// the same tree with slots derived from thread_ordinal().
//
// The tree runs the classic four-phase combining protocol (precombine /
// combine / operate / distribute) of Yew–Tzeng–Lawrie and Herlihy–Shavit,
// each node a word-sized state machine in the style of Goodman-style
// combining words: second arrivals deposit their mapping in a per-node
// slot and spin-then-yield until the distributed result lands. Like the
// paper's switch, which combines a request only when it finds a
// same-address request already queued, the tree climbs only when the root
// is busy: an op that finds the root idle applies there directly.
//
// Node status word (64 bits):
//
//   [63 ............. 3] [2..0]
//    generation count     status tag
//
// Tags: Idle, First (a first arrival passed through, climbing),
// FirstLocked (the first came back in its combine phase and closed the
// node against late seconds), SecondPending (a second engaged, mapping in
// flight), SecondReady (mapping deposited), SecondCombined (the first
// inspected the mapping; reply owed — whether composition succeeded or
// declined is a first-owned flag off the status word), Result (reply
// delivered). The generation count increments on every reset to Idle, so
// a stalled CAS from a previous occupancy of the node can never succeed
// against a later one (ABA). Heap index 1 is the root: nothing climbs
// past it and its status word is never used.
//
// Root lock word (32 bits, on one line with the root value, width_ and
// the root counters — everything a direct op touches):
//
//   bit 0  locked   the spinlock that serializes every root application
//   bit 1  waiter   a climber found the root locked and is waiting in
//                   lock_root; set by the waiters, kept by unlock, and
//                   cleared by the next acquirer (other waiters set it
//                   again), so direct ops cannot overtake combined batches
//
// Protocol per operation (slot s, mapping f):
//   0. direct — if the root lock word is entirely clear (no holder, no
//      waiter), take the lock, apply f at the root and return: no node
//      is touched, so a request that meets no one pays one lock word and
//      the value, like a request through an empty switch queue.
//      Otherwise climb:
//   1. precombine — climb from the leaf while CAS Idle→First succeeds;
//      CAS First→SecondPending stops the climb (we are the second there);
//      the root always stops the climb.
//   2. combine — re-walk the path: CAS First→FirstLocked passes through
//      (no partner), SecondReady folds the deposited mapping in with
//      compose(first, second) — or records a decline.
//   3. operate — at the root, apply under the root lock; at a
//      SecondPending node, deposit the combined mapping (store + release
//      tag flip) and spin-then-yield for the Result tag.
//   4. distribute — walk back down: FirstLocked resets to Idle(gen+1);
//      SecondCombined receives result = first_map(prior) — exactly
//      ⟨id2, f(val)⟩ — or, if composition declined, the second's mapping
//      is applied at the root now and the second receives that prior;
//      either way the node flips to Result, the waiting second picks the
//      value up and resets the node.
//
// The Instrument policy (analysis/instrument.hpp) publishes the tree's
// happens-before edges: an operation acquires the tree's history on entry
// and releases its own on exit, so operations separated in real time are
// ordered for the race detector while overlapping ones stay unordered.
//
// See docs/PERFORMANCE.md for the encoding walkthrough and the backoff
// strategy.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "analysis/instrument.hpp"
#include "core/rmw.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/topology.hpp"
#include "runtime/wait_policy.hpp"
#include "util/assert.hpp"
#include "util/bits.hpp"

namespace krs::runtime {

/// Partial-combining telemetry (§7): how much of the tree's traffic
/// actually folded on the way up, and how much reached the root. Without
/// the declined count, a mixed-family workload that silently stops
/// combining (every try_compose declining) is indistinguishable from a
/// perfectly-combining one in the value stream — both are correct; only
/// the cost differs.
struct CombiningTreeStats {
  std::uint64_t ops = 0;            ///< root applications + folded seconds
  std::uint64_t folds = 0;          ///< successful try_compose folds
  std::uint64_t declined_folds = 0; ///< cross-family / overflow declines
  std::uint64_t root_applies = 0;   ///< operations served at the root
  std::uint64_t direct = 0;  ///< root applies that skipped the climb (step 0)

  /// Fraction of operations absorbed by a fold below the root (§4.2's
  /// win). 0 when nothing ran.
  [[nodiscard]] double combine_rate() const {
    return ops > 0
               ? static_cast<double>(folds) / static_cast<double>(ops)
               : 0.0;
  }
  /// Fraction serialized at the root — 1.0 means combining bought nothing
  /// (the §1 hot-spot regime); (1 - combine_rate) by construction.
  [[nodiscard]] double served_at_root_fraction() const {
    return ops > 0 ? static_cast<double>(root_applies) /
                         static_cast<double>(ops)
                   : 0.0;
  }
};

template <core::CombinableMapping M,
          typename Instrument = analysis::DefaultInstrument,
          WaitPolicy Policy = SpinYieldWait>
class MappingCombiningTree {
 public:
  using value_type = typename M::value_type;
  using mapping_type = M;

 private:
  using V = value_type;
  static_assert(std::is_trivially_copyable_v<V>,
                "the root cell is a std::atomic<V>");

 public:
  /// `width`: requested slot capacity, rounded up internally to a power of
  /// two ≥ 2 (the heap layout needs it; callers sized to odd core counts —
  /// e.g. from CpuTopology — need not care). Thread slots are
  /// 0..width()-1, the ROUNDED range; two slots share each leaf.
  explicit MappingCombiningTree(unsigned width, V initial = V{})
      : width_(rounded_width(width)), root_(initial), nodes_(width_) {}

  /// Topology-aware layout: `order` permutes caller-visible slots into
  /// internal slots before the slot→leaf map, so adjacent INTERNAL slots —
  /// and therefore shared leaves — are chosen by the SlotMap (identity
  /// reproduces the historical pairing; CpuTopology groups cache-cluster
  /// siblings). Width is ceil_pow2(max(2, order.width())); slots beyond
  /// order.width() map to themselves, keeping the whole table a
  /// permutation of 0..width()-1.
  MappingCombiningTree(const SlotMap& order, V initial)
      : width_(rounded_width(order.width())),
        root_(initial),
        nodes_(width_),
        order_(width_) {
    for (unsigned s = 0; s < width_; ++s) {
      order_[s] = s < order.width() ? order(s) : s;
    }
    bool identity = true;
    for (unsigned s = 0; s < width_; ++s) identity &= order_[s] == s;
    if (identity) order_.clear();  // skip the indirection on the hot path
  }

  MappingCombiningTree(const MappingCombiningTree&) = delete;
  MappingCombiningTree& operator=(const MappingCombiningTree&) = delete;

  /// Atomically value ← f(value), returning the prior value, combining
  /// with concurrent callers on the way up. `slot` must be < width; a slot
  /// may be shared by threads, but concurrency above two threads per leaf
  /// degrades to local waiting at that leaf.
  V fetch_rmw(unsigned slot, M f) {
    KRS_EXPECTS(slot < width_);
    Instrument::acquire(this);

    // Step 0: direct — an idle root (no holder, no waiting climber) is an
    // empty switch queue: nobody to combine with, so apply there now.
    if (try_lock_root()) {
      Instrument::contended_rmw(&root_, KRS_SITE);
      const V prior = apply_locked([&f](const V& v) { return f.apply(v); });
      bump(direct_);
      unlock_root();
      Instrument::release(this);
      return prior;
    }
    const unsigned my_leaf = leaf_of(slot);  // heap index

    // Phase 1: precombine — climb while we are the first to arrive.
    unsigned node = my_leaf;
    while (precombine(node)) node /= 2;
    const unsigned stop = node;

    // Phase 2: combine — gather mappings deposited by second arrivals.
    unsigned path[kMaxDepth];
    unsigned depth = 0;
    M combined = std::move(f);
    for (node = my_leaf; node != stop; node /= 2) {
      combined = combine(node, std::move(combined));
      path[depth++] = node;
    }

    // Phase 3: operate — at the root, apply; at a SecondPending node,
    // deposit and spin for the distributed result.
    const V prior = stop == kRootIndex ? apply_at_root(combined)
                                       : deposit_and_await(stop, combined);

    // Phase 4: distribute results back down our path.
    for (unsigned i = depth; i-- > 0;) distribute(path[i], prior);
    Instrument::release(this);
    return prior;
  }

  /// Serialized escape hatch for updates that are NOT tractable mappings
  /// (compare-and-swap, arbitrary θ): applies `f` to the root value under
  /// the root lock bit and returns the prior value. Linearizes with every
  /// combined operation, but combines with none.
  template <std::invocable<V> F>
  V update_at_root(F&& f) {
    Instrument::acquire(this);
    const V prior = root_rmw(std::forward<F>(f));
    Instrument::release(this);
    return prior;
  }

  /// Atomic snapshot of the current value. The root cell is a single
  /// atomic word updated only under the root lock bit, so a bare seq_cst
  /// load is a coherent (and per-reader monotone) snapshot — no lock.
  [[nodiscard]] V read() const {
    Instrument::shared_load(&root_, KRS_SITE);
    return root_.load(std::memory_order_seq_cst);
  }

  [[nodiscard]] unsigned width() const noexcept { return width_; }

  /// Address of the root value word — the address the Instrument policy's
  /// contended_rmw hook reports for root traffic. Lets a profiler caller
  /// (tools/krs_profile) map "the hot line" back to this tree.
  [[nodiscard]] const void* root_address() const noexcept { return &root_; }

  /// Aggregate fold/decline/root counters across all nodes. Counters are
  /// relaxed, so a concurrent snapshot is approximate; quiesce first for
  /// exact accounting (then ops == root_applies + folds holds exactly:
  /// every operation either folded into a partner below the root or was
  /// applied at the root — including declined seconds, which distribute()
  /// serves with their own root application, and direct ops, which are a
  /// subset of root_applies).
  [[nodiscard]] CombiningTreeStats stats() const {
    CombiningTreeStats s;
    s.root_applies = root_applies_.load(std::memory_order_relaxed);
    s.direct = direct_.load(std::memory_order_relaxed);
    for (const Node& nd : nodes_) {
      s.folds += nd.folds.load(std::memory_order_relaxed);
      s.declined_folds += nd.declined_folds.load(std::memory_order_relaxed);
    }
    s.ops = s.root_applies + s.folds;
    return s;
  }

  /// Declined try_compose folds at one node (heap index), for tests and
  /// per-node hot-spot attribution.
  [[nodiscard]] std::uint64_t declined_folds_at(unsigned node) const {
    KRS_EXPECTS(node < nodes_.size());
    return nodes_[node].declined_folds.load(std::memory_order_relaxed);
  }

  // ---- deterministic batch surface ------------------------------------------

  /// One operation of a single-caller wave: `slot` plays the role a thread
  /// slot plays on the threaded path. Slots within one wave must be
  /// DISTINCT — the wave models one simultaneous round of at most `width`
  /// threads, one per slot.
  struct WaveOp {
    unsigned slot;
    M op;
  };

  /// Drive every wave[i] through the full four-phase protocol from ONE
  /// caller, interleaved the way a simultaneous round would run, and
  /// return the priors in wave order. The caller must be the only thread
  /// using the tree. Fold/root-apply counts after a wave sequence are a
  /// pure function of that sequence — this is the deterministic
  /// measurement surface the contention profiler drives (the threaded
  /// path's combine rate depends on the host scheduler, useless on a
  /// 1-CPU CI box).
  ///
  /// `on_op(i)` fires each time processing switches to wave[i], BEFORE
  /// any of its node/root traffic — the hook the profiler uses to retag
  /// the virtual thread id per operation (analysis::set_profile_tid).
  ///
  /// Scheduling: precombine climbs run in wave order; then each
  /// operation's combine/operate phase runs in DESCENDING stop-node depth
  /// order, so every second has deposited its mapping before its first
  /// combines through that node (the second's stop is strictly deeper
  /// than its first's); finally pending seconds drain as their replies
  /// land — a dependency forest, so the drain terminates.
  std::vector<V> run_wave(const std::vector<WaveOp>& wave,
                          const std::function<void(std::size_t)>& on_op = {}) {
    KRS_EXPECTS(wave.size() <= width_);
    std::vector<bool> seen(width_, false);
    for (const WaveOp& o : wave) {
      KRS_EXPECTS(o.slot < width_ && !seen[o.slot] &&
                  "wave slots must be distinct");
      seen[o.slot] = true;
    }

    struct Flight {
      unsigned stop = 0;
      unsigned depth = 0;                 // of `stop`: root = 0
      unsigned path[kMaxDepth];           // leaf..below stop
      unsigned path_len = 0;
      M combined{};
      V prior{};
      bool done = false;
    };
    std::vector<Flight> fl(wave.size());

    // Phase 1 for everyone: claim the tree positions.
    for (std::size_t i = 0; i < wave.size(); ++i) {
      if (on_op) on_op(i);
      const unsigned my_leaf = leaf_of(wave[i].slot);
      unsigned node = my_leaf;
      while (precombine(node)) node /= 2;
      fl[i].stop = node;
      fl[i].depth = util::log2_floor(node);
      for (unsigned n = my_leaf; n != node; n /= 2) {
        fl[i].path[fl[i].path_len++] = n;
      }
      fl[i].combined = wave[i].op;
    }

    // Phases 2+3, deepest stops first: seconds deposit before their
    // firsts combine through them.
    std::vector<std::size_t> order(wave.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return fl[a].depth > fl[b].depth;
                     });
    for (const std::size_t i : order) {
      if (on_op) on_op(i);
      Flight& f = fl[i];
      for (unsigned d = 0; d < f.path_len; ++d) {
        f.combined = combine(f.path[d], std::move(f.combined));
      }
      if (f.stop == kRootIndex) {
        f.prior = apply_at_root(f.combined);
        for (unsigned d = f.path_len; d-- > 0;) distribute(f.path[d], f.prior);
        f.done = true;
      } else {
        plant_second(f.stop, std::move(f.combined));
      }
    }

    // Drain the pending seconds as their firsts' distributes cascade.
    for (;;) {
      bool progressed = false;
      bool pending = false;
      for (const std::size_t i : order) {
        Flight& f = fl[i];
        if (f.done) continue;
        if (!result_ready(f.stop)) {
          pending = true;
          continue;
        }
        if (on_op) on_op(i);
        f.prior = take_result(f.stop);
        for (unsigned d = f.path_len; d-- > 0;) distribute(f.path[d], f.prior);
        f.done = true;
        progressed = true;
      }
      if (!pending) break;
      KRS_ASSERT(progressed && "wave drain stalled");
    }

    std::vector<V> priors(wave.size());
    for (std::size_t i = 0; i < wave.size(); ++i) priors[i] = fl[i].prior;
    return priors;
  }

 private:
  friend struct CombiningTreeTestPeer;

  static constexpr unsigned rounded_width(unsigned width) {
    return static_cast<unsigned>(util::ceil_pow2(std::max(2u, width)));
  }

  /// Slot → leaf heap index, through the topology permutation when one was
  /// given (empty order_ = identity, the common case).
  [[nodiscard]] unsigned leaf_of(unsigned slot) const {
    const unsigned internal = order_.empty() ? slot : order_[slot];
    return width_ / 2 + internal / 2;
  }

  // ---- status word encoding -------------------------------------------------
  enum Tag : std::uint64_t {
    kIdle = 0,
    kFirst = 1,
    kFirstLocked = 2,
    kSecondPending = 3,
    kSecondReady = 4,
    kSecondCombined = 5,
    kResult = 6,
  };
  static constexpr std::uint64_t kTagMask = 0x7;
  static constexpr unsigned kGenShift = 3;
  static constexpr unsigned kRootIndex = 1;
  static constexpr unsigned kMaxDepth = 64;

  // Root lock word bits.
  static constexpr std::uint32_t kRootLocked = 0x1;
  static constexpr std::uint32_t kRootWaiter = 0x2;

  static constexpr Tag tag_of(std::uint64_t w) noexcept {
    return static_cast<Tag>(w & kTagMask);
  }
  static constexpr std::uint64_t gen_of(std::uint64_t w) noexcept {
    return w >> kGenShift;
  }
  /// Same generation, new tag.
  static constexpr std::uint64_t retag(std::uint64_t w, Tag t) noexcept {
    return (w & ~kTagMask) | t;
  }
  static constexpr std::uint64_t idle_next_gen(std::uint64_t w) noexcept {
    return (gen_of(w) + 1) << kGenShift | kIdle;
  }

  struct alignas(kCacheLine) Node {
    std::atomic<std::uint64_t> status{kIdle};
    // Mapping/reply slots on their own line: the handshake spins on
    // `status` above, the encoded mappings move below. `first_map` and
    // `declined` are written by the first in its combine phase and read
    // back by the same thread in distribute — ownership is handed by the
    // status word, never contended.
    alignas(kCacheLine) M first_map{};
    M second_map{};
    V result{};
    bool declined = false;
    // Telemetry (relaxed; read by stats() snapshots): try_compose
    // outcomes at this node. Incremented only by the first in its combine
    // phase, which owns the node then — atomics because successive
    // occupancies are different threads and snapshots race by design.
    std::atomic<std::uint64_t> folds{0};
    std::atomic<std::uint64_t> declined_folds{0};
  };

  // ---- phase 1 --------------------------------------------------------------

  /// True: keep climbing (we were first); false: stop here (second or root).
  bool precombine(unsigned n) {
    if (n == kRootIndex) return false;
    Node& nd = nodes_[n];
    // One wait EPISODE per observed status word: while the node finishes
    // a previous occupancy the backoff deepens, but any status change
    // (new tag or generation) re-arms the schedule — otherwise a thread
    // that waited out one occupancy carries a saturated backoff into the
    // next, independent wait and oversleeps it.
    Policy pol;
    EpisodeWait<Policy> ep(pol);
    for (;;) {
      std::uint64_t w = nd.status.load(std::memory_order_acquire);
      switch (tag_of(w)) {
        case kIdle:
          Instrument::contended_rmw(&nd.status, KRS_SITE);
          if (nd.status.compare_exchange_weak(w, retag(w, kFirst),
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
            return true;
          }
          break;
        case kFirst:
          // A first arrival is already climbing through here; engage as
          // the second and stop the climb.
          Instrument::contended_rmw(&nd.status, KRS_SITE);
          if (nd.status.compare_exchange_weak(w, retag(w, kSecondPending),
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
            return false;
          }
          break;
        default:
          // Node still finishing a previous operation; wait locally.
          ep.observe_and_pause(w);
      }
    }
  }

  // ---- phase 2 --------------------------------------------------------------

  /// Called by the FIRST thread on its way up: fold in the second's
  /// mapping if one arrived (or record that composition declined),
  /// closing the node against late seconds.
  M combine(unsigned n, M c) {
    Node& nd = nodes_[n];
    Policy pol;
    for (;;) {
      std::uint64_t w = nd.status.load(std::memory_order_acquire);
      switch (tag_of(w)) {
        case kFirst:
          if (nd.status.compare_exchange_weak(w, retag(w, kFirstLocked),
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
            return c;  // nobody combined here
          }
          break;
        case kSecondPending:
          pol.pause();  // second engaged; its mapping is still in flight
          break;
        case kSecondReady: {
          // The acquire load above synchronized with the deposit. Record
          // the mapping that arrived at this node for the distribute
          // phase, then fold: first's operations precede second's, so the
          // forwarded mapping is compose(first, second). A declined
          // composition (nullopt) leaves the second's mapping parked in
          // the node; distribute() will serve it at the root — partial
          // combining, always correct (§7).
          auto folded = try_compose(c, nd.second_map);
          nd.first_map = std::move(c);
          nd.declined = !folded.has_value();
          if (nd.declined) {
            nd.declined_folds.fetch_add(1, std::memory_order_relaxed);
          } else {
            nd.folds.fetch_add(1, std::memory_order_relaxed);
          }
          nd.status.store(retag(w, kSecondCombined),
                          std::memory_order_relaxed);
          if (folded) return *std::move(folded);
          return nd.first_map;
        }
        default:
          KRS_ASSERT(false && "unexpected combine status");
          return c;
      }
    }
  }

  // ---- phase 3 --------------------------------------------------------------

  /// Root case: apply the combined mapping under the root lock bit.
  V apply_at_root(const M& c) {
    return root_rmw([&c](const V& prior) { return c.apply(prior); });
  }

  /// A climber's root application: wait for the root lock, then apply.
  template <typename F>
  V root_rmw(F&& f) {
    Instrument::contended_rmw(&root_, KRS_SITE);
    lock_root();
    const V prior = apply_locked(std::forward<F>(f));
    unlock_root();
    return prior;
  }

  /// The one root application, root lock held: a seq_cst store (the
  /// RmwBackend ordering contract) and the root_applies_ count.
  template <typename F>
  V apply_locked(F&& f) {
    const V prior = root_.load(std::memory_order_relaxed);
    root_.store(std::forward<F>(f)(prior), std::memory_order_seq_cst);
    bump(root_applies_);
    return prior;
  }

  /// Increment for counters mutated ONLY under the root lock: writers are
  /// mutually excluded, so a relaxed load+store counts exactly.
  static void bump(std::atomic<std::uint64_t>& counter) {
    counter.store(counter.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
  }

  /// Second case, step 1: deposit the combined mapping for the first to
  /// fold on its way up.
  void plant_second(unsigned n, M c) {
    Node& nd = nodes_[n];
    const std::uint64_t w = nd.status.load(std::memory_order_relaxed);
    KRS_ASSERT(tag_of(w) == kSecondPending);
    nd.second_map = std::move(c);
    nd.status.store(retag(w, kSecondReady), std::memory_order_release);
  }

  /// Second case, step 2: has the first distributed our reply yet?
  [[nodiscard]] bool result_ready(unsigned n) const {
    return tag_of(nodes_[n].status.load(std::memory_order_acquire)) ==
           kResult;
  }

  /// Second case, step 3: pick the reply up and release the node for the
  /// next pair; the new generation kills ABA.
  V take_result(unsigned n) {
    Node& nd = nodes_[n];
    const std::uint64_t w = nd.status.load(std::memory_order_acquire);
    KRS_ASSERT(tag_of(w) == kResult);
    V r = nd.result;
    nd.status.store(idle_next_gen(w), std::memory_order_release);
    return r;
  }

  /// Second case on the threaded path: deposit, then spin-then-yield on
  /// this node's status word until the first distributes our reply.
  V deposit_and_await(unsigned n, M c) {
    plant_second(n, std::move(c));
    // Blind rounds: the status word is 64-bit (generation-counted), not
    // addressable by a parking policy's 32-bit wait word.
    Policy pol;
    while (!result_ready(n)) pol.pause();
    return take_result(n);
  }

  // ---- phase 4 --------------------------------------------------------------

  /// Called by the FIRST thread on its way down with the prior value of
  /// everything combined below this node's subtree position.
  void distribute(unsigned n, const V& prior) {
    Node& nd = nodes_[n];
    const std::uint64_t w = nd.status.load(std::memory_order_relaxed);
    switch (tag_of(w)) {
      case kFirstLocked:
        // Nobody combined here: release the node.
        nd.status.store(idle_next_gen(w), std::memory_order_release);
        break;
      case kSecondCombined:
        if (nd.declined) {
          // Composition declined at this node: the second's mapping never
          // traveled with ours. Serve it individually at the root now —
          // it serializes immediately after everything we combined.
          nd.result = apply_at_root(nd.second_map);
        } else {
          // The second's reply: the first's accumulated mapping applied
          // to the prior — the decombination rule ⟨id2, f(val)⟩.
          nd.result = nd.first_map.apply(prior);
        }
        nd.status.store(retag(w, kResult), std::memory_order_release);
        break;
      default:
        KRS_ASSERT(false && "unexpected distribute status");
    }
  }

  // ---- root lock word -------------------------------------------------------

  /// Step 0's one attempt: take the lock only if the word is entirely
  /// clear — a waiting climber's bit keeps the direct path shut.
  [[nodiscard]] bool try_lock_root() {
    std::uint32_t w = root_lock_.load(std::memory_order_relaxed);
    return w == 0 &&
           root_lock_.compare_exchange_strong(w, kRootLocked,
                                              std::memory_order_acquire,
                                              std::memory_order_relaxed);
  }

  /// A climber's acquire. While the root is held it announces itself with
  /// the waiter bit; its own acquiring CAS clears the bit, and any other
  /// waiter sets it again on its next round.
  void lock_root() {
    // Episode per observed root word: each time the lock bit changes
    // hands the wait re-arms, so a loser of many elections does not carry
    // a saturated backoff into a freshly-uncontended acquire.
    Policy pol;
    EpisodeWait<Policy> ep(pol);
    for (;;) {
      std::uint32_t w = root_lock_.load(std::memory_order_relaxed);
      if ((w & kRootLocked) == 0) {
        if (root_lock_.compare_exchange_weak(w, kRootLocked,
                                             std::memory_order_acquire,
                                             std::memory_order_relaxed)) {
          return;
        }
      } else if ((w & kRootWaiter) == 0 &&
                 root_lock_.compare_exchange_weak(w, w | kRootWaiter,
                                                  std::memory_order_relaxed,
                                                  std::memory_order_relaxed)) {
        w |= kRootWaiter;
      }
      ep.observe_and_pause(w);
    }
  }

  /// Release, keeping a waiter's bit: the direct path stays shut until a
  /// waiting climber has had the root.
  void unlock_root() {
    root_lock_.store(root_lock_.load(std::memory_order_relaxed) & kRootWaiter,
                     std::memory_order_release);
  }

  // The root line: everything a direct op reads or writes. The counters
  // change only under the root lock.
  alignas(kCacheLine) std::atomic<std::uint32_t> root_lock_{0};
  unsigned width_;
  std::atomic<V> root_;
  std::atomic<std::uint64_t> root_applies_{0};
  std::atomic<std::uint64_t> direct_{0};
  std::vector<Node> nodes_;  // heap layout, nodes_[1..width-1]
  std::vector<unsigned> order_;  // topology slot permutation; empty = identity
};

}  // namespace krs::runtime
