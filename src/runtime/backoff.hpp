// Busy-wait primitives under the runtime's waiting sites.
//
//  * cpu_relax() — the pause hint every spin round issues; the wait
//    schedule itself (spin, then yield or park) lives in wait_policy.hpp.
//  * proportional_backoff(ahead) — the classic ticket-lock fix: a waiter
//    that knows it is `ahead` tickets from being served spins ~ahead·k
//    before re-reading now_serving, so P waiters do not all hammer the
//    serving word every iteration.
#pragma once

#include <cstdint>
#include <thread>

namespace krs::runtime {

/// One "doing nothing, politely" instruction for spin loops.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("isb" ::: "memory");
#else
  // No pause hint on this target; the loop's atomic load is the pacing.
#endif
}

// Proportional-backoff schedule constants (exposed for the unit tests).
inline constexpr std::uint64_t kProportionalSpinsPerWaiter = 48;
inline constexpr std::uint64_t kProportionalYieldAhead = 16;

/// Pure schedule of proportional_backoff: how many pause instructions a
/// waiter `ahead` places from service spins before re-reading, or 0 for
/// the yield regime (and, trivially, at the head of the line).
constexpr std::uint64_t proportional_spin_count(std::uint64_t ahead) noexcept {
  return ahead >= kProportionalYieldAhead
             ? 0
             : ahead * kProportionalSpinsPerWaiter;
}

/// Wait roughly proportional to how far back in line we are: `ahead`
/// waiters will be served first, so there is no point re-reading sooner.
/// Long waits (deep queues, oversubscription) degrade to a yield;
/// ahead == 0 (served next) is a no-op.
inline void proportional_backoff(std::uint64_t ahead) noexcept {
  if (ahead >= kProportionalYieldAhead) {
    std::this_thread::yield();
    return;
  }
  const std::uint64_t n = proportional_spin_count(ahead);
  for (std::uint64_t i = 0; i < n; ++i) cpu_relax();
}

}  // namespace krs::runtime
