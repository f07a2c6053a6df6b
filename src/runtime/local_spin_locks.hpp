// The local-spin competitor tier: MCS and CLH queue locks, a futex-style
// parking mutex and the fetch-and-add ticket lock — the rivals the
// combining structures must beat (or lose to, honestly) in bench_lock_tier.
//
// The paper's argument for combining assumes waiters cost nothing while
// they wait; the Mellor-Crummey–Scott line of work made that true on
// cache-coherent machines WITHOUT combining hardware by making every
// waiter spin on a PRIVATE word:
//
//  * BasicMcsLock — arrivals swap themselves onto a tail pointer and spin
//    on their own stack-resident node; the releaser writes exactly one
//    remote word (the successor's flag). O(1) remote memory references
//    per acquisition, FIFO by construction.
//  * BasicClhLock — the implicit-queue variant: an arrival spins on its
//    PREDECESSOR's node, and release is a single local store; the
//    releaser recycles its predecessor's node for its own next
//    acquisition. One fewer remote write than MCS on release; nodes are
//    arena-owned (the queue outlives any single acquisition).
//  * BasicParkingLock — the modern third tier (SNIPPETS part 2): a
//    3-state word (free / locked / locked-with-waiters) driven by CAS,
//    with the WaitPolicy deciding whether contended waiters spin, yield,
//    or park in the kernel. With FutexWait this is the classic futex
//    mutex; with SpinWait it is the same algorithm spinning — the
//    apples-to-apples pair bench_lock_tier measures oversubscription with.
//  * BasicTicketLock — the textbook application of "fetch-and-add hands
//    out distinct tickets", the property combining makes contention-free:
//    acquire is one fetch-and-add (combinable — under a combining memory
//    P simultaneous acquirers cost O(log P) network work), release one
//    increment. FIFO-fair like the queue locks, but every waiter reads the
//    one serving word, so waiters back off proportionally to their queue
//    distance (Mellor-Crummey–Scott's classic fix): the thread holding
//    ticket t re-reads now_serving only after ~(t − now_serving)·k pauses.
//
// Every wait routes through the WaitPolicy seam (runtime/wait_policy.hpp):
// the queue locks park on their private word under FutexWait, so the same
// lock object covers the whole spin↔park spectrum by template parameter.
//
// BasicLockBackend<Lock> exposes any of these locks as an RmwBackend
// substrate (cell = one padded word guarded by one lock), so every §6
// algorithm — and the bench/normalize pipeline — can run over a queue
// lock exactly as it runs over atomics, combining trees, or the flat
// combiner.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "analysis/instrument.hpp"
#include "core/any_rmw.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/rmw_backend.hpp"
#include "runtime/wait_policy.hpp"
#include "util/assert.hpp"

namespace krs::runtime {

/// Mellor-Crummey–Scott queue lock. Callers provide the queue node
/// (stack-resident inside Scoped); each waiter spins — or parks — on its
/// OWN node's flag, so the only cross-thread traffic per handoff is the
/// releaser's single store into the successor's line.
template <WaitPolicy Policy = SpinYieldWait,
          typename Instrument = analysis::DefaultInstrument>
class BasicMcsLock {
 public:
  struct alignas(kCacheLine) Node {
    std::atomic<Node*> next{nullptr};
    std::atomic<std::uint32_t> locked{0};
  };

  BasicMcsLock() = default;
  BasicMcsLock(const BasicMcsLock&) = delete;
  BasicMcsLock& operator=(const BasicMcsLock&) = delete;

  void lock(Node& me) noexcept(!Instrument::enabled) {
    me.next.store(nullptr, std::memory_order_relaxed);
    me.locked.store(1, std::memory_order_relaxed);
    Instrument::contended_rmw(&tail_, KRS_SITE);
    Node* pred = tail_.exchange(&me, std::memory_order_acq_rel);
    if (pred != nullptr) {
      contended_.fetch_add(1, std::memory_order_relaxed);
      // Link in; the release store publishes our node to the predecessor.
      pred->next.store(&me, std::memory_order_release);
      Policy pol;
      Instrument::shared_load(&me.locked, KRS_SITE);
      while (me.locked.load(std::memory_order_acquire) != 0) {
        pol.wait_while_equal(me.locked, 1);
      }
    }
    Instrument::acquire(this);
  }

  [[nodiscard]] bool try_lock(Node& me) noexcept(!Instrument::enabled) {
    me.next.store(nullptr, std::memory_order_relaxed);
    me.locked.store(0, std::memory_order_relaxed);
    Node* expected = nullptr;
    Instrument::contended_rmw(&tail_, KRS_SITE);
    if (tail_.compare_exchange_strong(expected, &me,
                                      std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
      Instrument::acquire(this);
      return true;
    }
    return false;
  }

  void unlock(Node& me) noexcept(!Instrument::enabled) {
    Instrument::release(this);
    Node* succ = me.next.load(std::memory_order_acquire);
    if (succ == nullptr) {
      Node* expected = &me;
      Instrument::contended_rmw(&tail_, KRS_SITE);
      if (tail_.compare_exchange_strong(expected, nullptr,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
        return;  // no successor: queue empty
      }
      // A successor swapped in but has not linked yet; its link store is
      // imminent — a blind-paced wait, never a park on an unnamed word.
      Policy pol;
      while ((succ = me.next.load(std::memory_order_acquire)) == nullptr) {
        pol.pause();
      }
    }
    succ->locked.store(0, std::memory_order_release);
    if constexpr (Policy::kParks) Policy::notify_one(succ->locked);
  }

  /// Acquisitions that found a predecessor and queued (handed off FIFO).
  /// The deterministic stagger tests key on this growing one per enqueue.
  [[nodiscard]] std::uint64_t contended_acquires() const noexcept {
    return contended_.load(std::memory_order_relaxed);
  }

  class Scoped {
   public:
    explicit Scoped(BasicMcsLock& l) noexcept(!Instrument::enabled) : l_(l) {
      l_.lock(node_);
    }
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;
    ~Scoped() { l_.unlock(node_); }

   private:
    BasicMcsLock& l_;
    Node node_;
  };

 private:
  alignas(kCacheLine) std::atomic<Node*> tail_{nullptr};
  std::atomic<std::uint64_t> contended_{0};
};

using McsLock = BasicMcsLock<>;

/// Craig / Landin–Hagersten queue lock: the implicit queue. An arrival
/// swaps its own node onto the tail and spins on the PREDECESSOR's node;
/// release is one local store. The releaser then adopts the predecessor's
/// (now free) node for its next acquisition — nodes migrate between
/// threads, so the lock's arena owns them and handles carry two pointers.
template <WaitPolicy Policy = SpinYieldWait,
          typename Instrument = analysis::DefaultInstrument>
class BasicClhLock {
 private:
  struct alignas(kCacheLine) Node {
    std::atomic<std::uint32_t> locked{0};
  };

 public:
  BasicClhLock() : id_(next_id()) {
    tail_.store(new_node(), std::memory_order_relaxed);  // released dummy
  }
  BasicClhLock(const BasicClhLock&) = delete;
  BasicClhLock& operator=(const BasicClhLock&) = delete;

  /// A thread's reusable queue position. Make one per thread per lock
  /// (Scoped caches them thread-locally); a handle must not be used
  /// concurrently with itself.
  class Handle {
   public:
    Handle() = default;

   private:
    friend class BasicClhLock;
    Node* mine = nullptr;
    Node* pred = nullptr;
  };

  [[nodiscard]] Handle make_handle() {
    Handle h;
    h.mine = new_node();
    return h;
  }

  void lock(Handle& h) noexcept(!Instrument::enabled) {
    KRS_EXPECTS(h.mine != nullptr);
    h.mine->locked.store(1, std::memory_order_relaxed);
    Instrument::contended_rmw(&tail_, KRS_SITE);
    Node* pred = tail_.exchange(h.mine, std::memory_order_acq_rel);
    h.pred = pred;
    if (pred->locked.load(std::memory_order_relaxed) != 0) {
      contended_.fetch_add(1, std::memory_order_relaxed);
    }
    Policy pol;
    Instrument::shared_load(&pred->locked, KRS_SITE);
    while (pred->locked.load(std::memory_order_acquire) != 0) {
      pol.wait_while_equal(pred->locked, 1);
    }
    Instrument::acquire(this);
  }

  void unlock(Handle& h) noexcept(!Instrument::enabled) {
    Instrument::release(this);
    Node* released = h.mine;
    h.mine = h.pred;  // adopt the predecessor's free node for next time
    h.pred = nullptr;
    released->locked.store(0, std::memory_order_release);
    if constexpr (Policy::kParks) Policy::notify_one(released->locked);
  }

  /// Acquisitions that observed a still-held predecessor when they queued.
  /// The deterministic FIFO-stagger tests key on this growing one per
  /// enqueue-behind-a-held-lock (the observation races an in-flight
  /// release, so only waits behind a KNOWN holder count reliably).
  [[nodiscard]] std::uint64_t contended_acquires() const noexcept {
    return contended_.load(std::memory_order_relaxed);
  }

  class Scoped {
   public:
    explicit Scoped(BasicClhLock& l) : l_(l), h_(l.tls_handle()) {
      l_.lock(*h_);
    }
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;
    ~Scoped() { l_.unlock(*h_); }

   private:
    BasicClhLock& l_;
    Handle* h_;
  };

 private:
  static std::uint64_t next_id() noexcept {
    static std::atomic<std::uint64_t> c{0};
    return c.fetch_add(1, std::memory_order_relaxed);
  }

  Node* new_node() {
    std::lock_guard<std::mutex> lk(arena_mu_);
    return &arena_.emplace_back();  // deque: pointer-stable, lock-owned
  }

  /// One cached handle per (thread, lock) pair, keyed by a process-unique
  /// lock id so a destroyed lock's stale cache entries are never touched
  /// again. Acquires the arena mutex once per pair, never per operation.
  Handle* tls_handle() {
    thread_local std::unordered_map<std::uint64_t, Handle> cache;
    auto [it, fresh] = cache.try_emplace(id_);
    if (fresh) it->second = make_handle();
    return &it->second;
  }

  const std::uint64_t id_;
  alignas(kCacheLine) std::atomic<Node*> tail_{nullptr};
  std::atomic<std::uint64_t> contended_{0};
  std::mutex arena_mu_;
  std::deque<Node> arena_;  // owns every node ever issued for this lock
};

using ClhLock = BasicClhLock<>;

/// The 3-state parking mutex (free=0 / locked=1 / locked-with-waiters=2):
/// the classic futex mutex when instantiated with FutexWait, and the SAME
/// algorithm busy-waiting under SpinWait/SpinYieldWait — the controlled
/// pair that isolates the parking decision from everything else in the
/// oversubscription benches. The uncontended path is one CAS in, one
/// exchange out; unlock syscalls only when a waiter announced itself.
template <WaitPolicy Policy = SpinYieldWait,
          typename Instrument = analysis::DefaultInstrument>
class BasicParkingLock {
 public:
  BasicParkingLock() = default;
  BasicParkingLock(const BasicParkingLock&) = delete;
  BasicParkingLock& operator=(const BasicParkingLock&) = delete;

  void lock() noexcept(!Instrument::enabled) {
    std::uint32_t e = 0;
    Instrument::contended_rmw(&state_, KRS_SITE);
    if (state_.compare_exchange_strong(e, 1, std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
      Instrument::acquire(this);
      return;
    }
    Policy pol;
    for (;;) {
      // Announce the wait: escalate 1 → 2 so unlock knows to notify. A
      // CAS observing 0 here falls through to the acquisition attempt.
      if (e == 1) {
        state_.compare_exchange_strong(e, 2, std::memory_order_relaxed,
                                       std::memory_order_relaxed);
      }
      if (e == 2 || state_.load(std::memory_order_relaxed) == 2) {
        pol.wait_while_equal(state_, 2);
      } else {
        pol.pause();
      }
      e = 0;
      if (state_.compare_exchange_strong(e, 2, std::memory_order_acquire,
                                         std::memory_order_relaxed)) {
        // Taken as "locked with waiters": we cannot know whether others
        // still wait, so unlock will notify — a possibly-spurious wake,
        // never a lost one.
        break;
      }
    }
    Instrument::acquire(this);
  }

  [[nodiscard]] bool try_lock() noexcept(!Instrument::enabled) {
    std::uint32_t e = 0;
    Instrument::contended_rmw(&state_, KRS_SITE);
    if (state_.compare_exchange_strong(e, 1, std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
      Instrument::acquire(this);
      return true;
    }
    return false;
  }

  void unlock() noexcept(!Instrument::enabled) {
    Instrument::release(this);
    Instrument::contended_rmw(&state_, KRS_SITE);
    if (state_.exchange(0, std::memory_order_release) == 2) {
      if constexpr (Policy::kParks) Policy::notify_one(state_);
    }
  }

  class Scoped {
   public:
    explicit Scoped(BasicParkingLock& l) noexcept(!Instrument::enabled)
        : l_(l) {
      l_.lock();
    }
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;
    ~Scoped() { l_.unlock(); }

   private:
    BasicParkingLock& l_;
  };

 private:
  alignas(kCacheLine) std::atomic<std::uint32_t> state_{0};
};

using ParkingLock = BasicParkingLock<FutexWait>;

/// Fetch-and-add ticket lock with proportional backoff (see the top of
/// this file). Instrument comes first in its template parameters.
template <typename Instrument = analysis::DefaultInstrument,
          WaitPolicy Policy = SpinYieldWait>
class BasicTicketLock {
 public:
  void lock() noexcept(!Instrument::enabled) {
    Instrument::contended_rmw(&next_, KRS_SITE);
    const std::uint64_t my =
        next_.fetch_add(1, std::memory_order_acq_rel);
    Policy pol;
    std::uint64_t prev_ahead = ~std::uint64_t{0};
    for (;;) {
      Instrument::shared_load(&serving_, KRS_SITE);
      const std::uint64_t now = serving_.load(std::memory_order_acquire);
      if (now == my) break;
      // Proportional backoff: my - now waiters are served before us, so
      // wait roughly that long before re-reading instead of hammering
      // the serving word from every queued thread. If the queue did not
      // advance since our last read, the holder is likely preempted
      // (oversubscribed host) and needs this core — hand the round to
      // the wait policy (yield by default; FutexWait sleeps outright).
      const std::uint64_t ahead = my - now;
      if (ahead >= prev_ahead) {
        pol.pause();
      } else {
        proportional_backoff(ahead);
        pol.reset();  // queue advanced: a fresh wait episode
      }
      prev_ahead = ahead;
    }
    Instrument::acquire(this);
  }

  bool try_lock() noexcept(!Instrument::enabled) {
    Instrument::shared_load(&serving_, KRS_SITE);
    std::uint64_t serving = serving_.load(std::memory_order_acquire);
    std::uint64_t expected = serving;
    // Take a ticket only if it would be served immediately.
    Instrument::contended_rmw(&next_, KRS_SITE);
    if (next_.compare_exchange_strong(expected, serving + 1,
                                      std::memory_order_acq_rel)) {
      Instrument::acquire(this);
      return true;
    }
    return false;
  }

  void unlock() noexcept(!Instrument::enabled) {
    Instrument::release(this);
    Instrument::contended_rmw(&serving_, KRS_SITE);
    serving_.fetch_add(1, std::memory_order_acq_rel);
  }

  /// Number of waiters currently queued (approximate).
  [[nodiscard]] std::uint64_t queue_length() const noexcept {
    const auto n = next_.load(std::memory_order_acquire);
    const auto s = serving_.load(std::memory_order_acquire);
    return n > s ? n - s : 0;
  }

  class Scoped {
   public:
    explicit Scoped(BasicTicketLock& l) noexcept(!Instrument::enabled)
        : l_(l) {
      l_.lock();
    }
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;
    ~Scoped() { l_.unlock(); }

   private:
    BasicTicketLock& l_;
  };

 private:
  alignas(kCacheLine) std::atomic<std::uint64_t> next_{0};
  alignas(kCacheLine) std::atomic<std::uint64_t> serving_{0};
};

using TicketLock = BasicTicketLock<>;

/// Any lock with a nested Scoped RAII guard, exposed as an RmwBackend
/// substrate: a cell is one padded word plus one lock instance, and every
/// operation runs under the lock. This is deliberately the SERIAL
/// baseline — a queue lock grants O(1)-RMR FIFO access to a critical
/// section that still executes one op at a time — which is exactly the
/// competitor the combining substrates must be measured against
/// (bench_lock_tier's mcs / clh / futex / spin rows).
template <typename Lock, typename Instrument = analysis::DefaultInstrument>
class BasicLockBackend {
 public:
  struct Cell {
    Cell(const BasicLockBackend&, Word initial) : value(initial) {}
    Cell(const Cell&) = delete;
    Cell& operator=(const Cell&) = delete;

    alignas(kCacheLine) Word value;
    alignas(kCacheLine) mutable Lock lk;
  };

  Word fetch_add(Cell& c, Word v) const {
    return rmw(c, [v](Word o) { return o + v; });
  }
  Word fetch_or(Cell& c, Word v) const {
    return rmw(c, [v](Word o) { return o | v; });
  }
  Word fetch_and(Cell& c, Word v) const {
    return rmw(c, [v](Word o) { return o & v; });
  }
  Word fetch_xor(Cell& c, Word v) const {
    return rmw(c, [v](Word o) { return o ^ v; });
  }
  Word exchange(Cell& c, Word v) const {
    return rmw(c, [v](Word) { return v; });
  }

  Word fetch_rmw(Cell& c, const core::AnyRmw& m) const {
    return rmw(c, [&m](Word o) { return m.apply(o); });
  }

  bool compare_exchange(Cell& c, Word& expected, Word desired) const {
    typename Lock::Scoped g(c.lk);
    Instrument::release(&c);
    Instrument::shared_store(&c.value, KRS_SITE);
    const Word prior = c.value;
    bool ok = false;
    if (prior == expected) {
      c.value = desired;
      ok = true;
    } else {
      expected = prior;
    }
    Instrument::acquire(&c);
    return ok;
  }

  Word load(const Cell& c) const {
    typename Lock::Scoped g(c.lk);
    Instrument::shared_load(&c.value, KRS_SITE);
    const Word v = c.value;
    Instrument::acquire(&c);
    return v;
  }

  void store(Cell& c, Word v) const {
    rmw(c, [v](Word) { return v; });
  }

 private:
  template <typename F>
  Word rmw(Cell& c, F f) const {
    typename Lock::Scoped g(c.lk);
    Instrument::release(&c);
    Instrument::shared_store(&c.value, KRS_SITE);
    const Word prior = c.value;
    c.value = f(prior);
    Instrument::acquire(&c);
    return prior;
  }
};

template <typename Lock>
using LockBackend = BasicLockBackend<Lock>;

static_assert(RmwBackend<LockBackend<McsLock>>);
static_assert(RmwBackend<LockBackend<ClhLock>>);
static_assert(RmwBackend<LockBackend<ParkingLock>>);
static_assert(RmwBackend<LockBackend<BasicParkingLock<SpinWait>>>);

}  // namespace krs::runtime
