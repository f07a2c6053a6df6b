// The WaitPolicy seam: every waiting site in src/runtime paces itself
// through one of the policies below instead of hand-rolling a spin loop.
//
// The paper's cost model waits by local spinning on a private word (§3: a
// failed conditional RMW is a negative acknowledgment; the caller retries).
// On a real machine that model splits three ways, which is exactly the
// policy axis. All three run ONE schedule (detail::ScheduledWait): rounds
// 0..6 spin 1, 2, 4, … 64 pause instructions; only the tail differs:
//
//  * SpinWait — keeps spinning 64 pauses a round, never yielding the core.
//    The paper's model verbatim; right when waiters ≤ cores and latency is
//    everything.
//  * SpinYieldWait — the default: std::this_thread::yield every further
//    round. The yield matters once the partner we wait for may need our
//    core (mild oversubscription).
//  * FutexWait — four yields, then the thread PARKS in the kernel (Linux
//    futex(2); a striped mutex+condvar parking lot elsewhere) until the
//    waited word changes or a bounded timeout fires. Right when waiters ≫
//    cores: parked waiters stop burning the very cycles the holder needs.
//
// Interface (concept `WaitPolicy`): a policy object paces ONE wait episode.
// `pause()` is a blind round (no addressable word — FutexWait degrades to a
// bounded timed sleep, so progress never depends on a waker). `wait_while_
// equal(w, v)` is an addressable round: the policy may park on `w` while it
// holds `v`; callers keep the predicate re-check loop around it. `reset()`
// re-arms the schedule between independent episodes. `notify_one/all(w)`
// are the waker-side hooks — no-ops unless the policy parks (`kParks`), so
// default-policy fast paths stay store-only.
//
// Telemetry: every policy counts spins / yields / parks and every parking
// notify counts wakes. Counters accumulate into a thread-local block
// (flushed on reset/destruction) that drains into process totals at thread
// exit — wait_stats_snapshot() after joining workers is exact, and a live
// thread can watch its own thread_wait_stats() deltas.
//
// Tests can interpose on parking via futex_hooks(): swap park/wake with
// scripted functions to drive spurious wakeups and lost-wake orderings
// deterministically. Hooks are process-global; install them while no
// thread is parked.
#pragma once

#include <atomic>
#include <chrono>
#include <concepts>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <type_traits>

#include "runtime/backoff.hpp"

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <ctime>
#endif

namespace krs::runtime {

/// Cumulative wait-side work: spin rounds (in pause instructions), yields,
/// parks (kernel sleeps, timed or woken), and wakes issued by notifiers.
struct WaitStats {
  std::uint64_t spins = 0;
  std::uint64_t yields = 0;
  std::uint64_t parks = 0;
  std::uint64_t wakes = 0;

  WaitStats& operator+=(const WaitStats& o) noexcept {
    spins += o.spins;
    yields += o.yields;
    parks += o.parks;
    wakes += o.wakes;
    return *this;
  }
  friend WaitStats operator-(WaitStats a, const WaitStats& b) noexcept {
    a.spins -= b.spins;
    a.yields -= b.yields;
    a.parks -= b.parks;
    a.wakes -= b.wakes;
    return a;
  }
};

namespace detail {

/// Process-wide totals of exited threads; guarded by process_wait_mu,
/// which is taken only at thread exit and by wait_stats_snapshot().
inline std::mutex process_wait_mu;
inline WaitStats process_wait_totals;

/// Per-thread running totals; the destructor drains them into the process
/// totals, so a coordinator that has JOINED its workers reads exact sums.
struct TlsWaitStats {
  WaitStats stats;
  TlsWaitStats() = default;
  TlsWaitStats(const TlsWaitStats&) = delete;
  TlsWaitStats& operator=(const TlsWaitStats&) = delete;
  ~TlsWaitStats() {
    std::lock_guard<std::mutex> lk(process_wait_mu);
    process_wait_totals += stats;
  }
};

inline TlsWaitStats& wait_tls() noexcept {
  thread_local TlsWaitStats t;
  return t;
}

}  // namespace detail

/// This thread's accumulated wait work (policies flush here on reset and
/// destruction — counts from a policy object mid-episode are not yet
/// visible). Monotone within a thread; sample deltas around a region.
[[nodiscard]] inline WaitStats thread_wait_stats() noexcept {
  return detail::wait_tls().stats;
}

/// Process-wide wait work: totals drained from exited threads plus the
/// calling thread's own. Exact once all other worker threads have been
/// joined (their destructors drained); approximate while they run.
[[nodiscard]] inline WaitStats wait_stats_snapshot() noexcept {
  WaitStats s;
  {
    std::lock_guard<std::mutex> lk(detail::process_wait_mu);
    s = detail::process_wait_totals;
  }
  s += detail::wait_tls().stats;
  return s;
}

// ---- parking substrate ------------------------------------------------------

/// Test seam over the kernel park/wake pair. `park` returns true if the
/// call actually slept (woken or timed out), false if it returned
/// immediately because `*w != expected` (the kernel's atomic re-check —
/// the property that makes parking lost-wake-safe). Null pointers = the
/// real implementation. Process-global: install while nothing is parked.
struct FutexHooks {
  bool (*park)(const std::atomic<std::uint32_t>* w, std::uint32_t expected,
               std::chrono::nanoseconds timeout) = nullptr;
  void (*wake)(const std::atomic<std::uint32_t>* w, bool all) = nullptr;
};

inline FutexHooks& futex_hooks() noexcept {
  static FutexHooks hooks;
  return hooks;
}

namespace detail {

#if defined(__linux__)

/// futex(FUTEX_WAIT_PRIVATE): sleep while *w == expected, bounded by
/// `timeout`. The kernel re-checks the word under its internal lock, so a
/// wake issued after the caller's user-space check cannot be lost.
inline bool futex_park_impl(const std::atomic<std::uint32_t>* w,
                            std::uint32_t expected,
                            std::chrono::nanoseconds timeout) noexcept {
  struct timespec ts;
  struct timespec* tsp = nullptr;
  if (timeout.count() > 0) {
    ts.tv_sec = static_cast<time_t>(timeout.count() / 1000000000);
    ts.tv_nsec = static_cast<long>(timeout.count() % 1000000000);
    tsp = &ts;
  }
  const long rc =
      syscall(SYS_futex, reinterpret_cast<const std::uint32_t*>(w),
              FUTEX_WAIT_PRIVATE, expected, tsp, nullptr, 0);
  if (rc == 0) return true;                      // woken
  return errno == ETIMEDOUT || errno == EINTR;   // slept, then timed out /
                                                 // spuriously interrupted
  // EAGAIN: *w != expected at kernel re-check — never slept.
}

inline void futex_wake_impl(const std::atomic<std::uint32_t>* w,
                            bool all) noexcept {
  syscall(SYS_futex, reinterpret_cast<const std::uint32_t*>(w),
          FUTEX_WAKE_PRIVATE, all ? INT_MAX : 1, nullptr, nullptr, 0);
}

#else

/// Portable fallback: a striped mutex+condvar parking lot keyed by the
/// word's address. The waiter re-checks the word UNDER the stripe mutex
/// and the waker takes the same mutex before notifying, which restores the
/// futex's lost-wake guarantee (at condvar cost).
struct ParkingLot {
  static constexpr std::size_t kStripes = 64;
  struct Stripe {
    std::mutex mu;
    std::condition_variable cv;
  };
  Stripe stripes[kStripes];

  static ParkingLot& instance() {
    static ParkingLot lot;
    return lot;
  }
  Stripe& of(const void* addr) noexcept {
    const auto p = reinterpret_cast<std::uintptr_t>(addr);
    return stripes[(p >> 4) % kStripes];
  }
};

inline bool futex_park_impl(const std::atomic<std::uint32_t>* w,
                            std::uint32_t expected,
                            std::chrono::nanoseconds timeout) noexcept {
  auto& st = ParkingLot::instance().of(w);
  std::unique_lock<std::mutex> lk(st.mu);
  if (w->load(std::memory_order_acquire) != expected) return false;
  if (timeout.count() > 0) {
    st.cv.wait_for(lk, timeout);
  } else {
    st.cv.wait(lk);
  }
  return true;
}

inline void futex_wake_impl(const std::atomic<std::uint32_t>* w,
                            bool all) noexcept {
  auto& st = ParkingLot::instance().of(w);
  {
    std::lock_guard<std::mutex> lk(st.mu);  // order against the re-check
  }
  if (all) {
    st.cv.notify_all();
  } else {
    st.cv.notify_one();  // stripe sharing may wake a stranger: spurious,
                         // absorbed by every caller's re-check loop
  }
}

#endif

inline bool do_park(const std::atomic<std::uint32_t>* w, std::uint32_t v,
                    std::chrono::nanoseconds timeout) noexcept {
  if (auto* f = futex_hooks().park) return f(w, v, timeout);
  return futex_park_impl(w, v, timeout);
}

inline void do_wake(const std::atomic<std::uint32_t>* w, bool all) noexcept {
  if (auto* f = futex_hooks().wake) {
    f(w, all);
    return;
  }
  futex_wake_impl(w, all);
}

}  // namespace detail

// ---- the policies -----------------------------------------------------------

namespace detail {

/// What a wait does once its spin grace is spent.
enum class WaitTail { kSpin, kYield, kPark };

/// The one wait schedule. Round r < kSpinRounds spins 2^r pauses (1, 2, 4,
/// … kSpinCap); the tail decides every later round: kSpin keeps spinning
/// kSpinCap pauses, kYield yields, kPark yields kYieldRounds times and then
/// parks. Addressable parks sit on the waited word itself (futex(2): the
/// kernel atomically re-checks the expected value, so a wake issued between
/// our user-space check and the sleep is never lost); blind waits degrade
/// to a bounded timed sleep. Every park carries an escalating bounded
/// timeout — livelock insurance for protocols whose wakers publish after
/// their scan (the flat combiner's handoff), at worst costing one timeout
/// of latency, never a hang.
template <WaitTail Tail>
class ScheduledWait {
 public:
  static constexpr bool kParks = Tail == WaitTail::kPark;
  static constexpr std::uint32_t kSpinRounds = 7;  // 1+2+…+64 pause grace
  static constexpr std::uint32_t kSpinCap = 1u << (kSpinRounds - 1);
  static constexpr std::uint32_t kYieldRounds = 4;  // kPark: yields, then park
  static constexpr std::chrono::nanoseconds kMinParkTimeout{100'000};
  static constexpr std::chrono::nanoseconds kMaxParkTimeout{5'000'000};

  ScheduledWait() = default;
  ScheduledWait(const ScheduledWait&) = delete;
  ScheduledWait& operator=(const ScheduledWait&) = delete;
  ~ScheduledWait() { flush(); }

  /// Blind round: no word to park on, so a park is a bounded timed sleep —
  /// progress never depends on a waker the caller can't name.
  void pause() noexcept {
    if (spin_or_yield()) return;
    std::this_thread::sleep_for(next_timeout());
    ++local_.parks;
  }

  /// Addressable round: park on `w` while it holds `v`, bounded. The
  /// caller re-checks its predicate and loops; a spurious or timed-out
  /// return costs one loop iteration, nothing else.
  void wait_while_equal(const std::atomic<std::uint32_t>& w,
                        std::uint32_t v) noexcept {
    if (spin_or_yield()) return;
    do_park(&w, v, next_timeout());
    ++local_.parks;
  }

  void reset() noexcept {
    flush();
    round_ = 0;
    timeout_ = kMinParkTimeout;
  }

  /// Waker side: only a parking policy wakes (and counts the wake), so the
  /// other policies' release paths stay store-only.
  static void notify_one(std::atomic<std::uint32_t>& w) noexcept {
    notify(w, false);
  }
  static void notify_all(std::atomic<std::uint32_t>& w) noexcept {
    notify(w, true);
  }

 private:
  static void notify(std::atomic<std::uint32_t>& w, bool all) noexcept {
    if constexpr (kParks) {
      do_wake(&w, all);
      ++wait_tls().stats.wakes;
    }
  }

  /// One round that spins or yields; false when this round must park.
  bool spin_or_yield() noexcept {
    const std::uint32_t r = round_;
    if (r < kSpinRounds + kYieldRounds) ++round_;  // saturates in the tail
    if (r < kSpinRounds || Tail == WaitTail::kSpin) {
      const std::uint32_t n = r < kSpinRounds ? 1u << r : kSpinCap;
      for (std::uint32_t i = 0; i < n; ++i) cpu_relax();
      local_.spins += n;
      return true;
    }
    if (Tail == WaitTail::kYield || r < kSpinRounds + kYieldRounds) {
      std::this_thread::yield();
      ++local_.yields;
      return true;
    }
    return false;
  }

  std::chrono::nanoseconds next_timeout() noexcept {
    const auto t = timeout_;
    timeout_ = timeout_ * 2 > kMaxParkTimeout ? kMaxParkTimeout : timeout_ * 2;
    return t;
  }

  void flush() noexcept {
    wait_tls().stats += local_;
    local_ = {};
  }

  std::uint32_t round_ = 0;
  std::chrono::nanoseconds timeout_ = kMinParkTimeout;
  WaitStats local_{};
};

}  // namespace detail

/// Pure local spinning, never yielding the core — the paper's private-word
/// wait model verbatim. Cheapest latency when waiters ≤ cores;
/// pathological when the partner needs this core.
using SpinWait = detail::ScheduledWait<detail::WaitTail::kSpin>;

/// The default: the spin grace, then a yield every further round.
using SpinYieldWait = detail::ScheduledWait<detail::WaitTail::kYield>;

/// Spin-then-park: the spin grace, a few yields, then the thread parks in
/// the kernel until the waited word changes or the timeout fires.
using FutexWait = detail::ScheduledWait<detail::WaitTail::kPark>;

// ---- the concept ------------------------------------------------------------

template <typename P>
concept WaitPolicy =
    std::is_default_constructible_v<P> &&
    requires(P p, const std::atomic<std::uint32_t>& cw,
             std::atomic<std::uint32_t>& w, std::uint32_t v) {
      p.pause();
      p.reset();
      p.wait_while_equal(cw, v);
      P::notify_one(w);
      P::notify_all(w);
      { P::kParks } -> std::convertible_to<bool>;
    };

static_assert(WaitPolicy<SpinWait>);
static_assert(WaitPolicy<SpinYieldWait>);
static_assert(WaitPolicy<FutexWait>);

// ---- episode tracking -------------------------------------------------------

/// Resets the wrapped policy whenever the observed state word CHANGES —
/// one wait episode per observed occupancy. This is the fix for backoff
/// objects silently carried across independent waits (a retry loop that
/// watches a node through several occupancies used to keep one ever-
/// growing schedule): a state transition means the thing we were waiting
/// for happened and a NEW wait began, so the schedule re-arms.
template <WaitPolicy Policy>
class EpisodeWait {
 public:
  explicit EpisodeWait(Policy& pol) noexcept : pol_(pol) {}

  /// One blind round against the observed word `w`.
  void observe_and_pause(std::uint64_t w) noexcept {
    rearm(w);
    pol_.pause();
  }

  /// One addressable round: park on `word` while it reads `v`; `w` is the
  /// full observed state that defines the episode.
  void observe_and_wait(std::uint64_t w, const std::atomic<std::uint32_t>& word,
                        std::uint32_t v) noexcept {
    rearm(w);
    pol_.wait_while_equal(word, v);
  }

 private:
  void rearm(std::uint64_t w) noexcept {
    if (!seen_ || w != last_) {
      if (seen_) pol_.reset();  // state moved: new episode, fresh schedule
      last_ = w;
      seen_ = true;
    }
  }

  Policy& pol_;
  std::uint64_t last_ = 0;
  bool seen_ = false;
};

}  // namespace krs::runtime
