// The threaded RMW substrates, driven from outside through their public
// functions: one phase per substrate, its output checked at the
// consistency level the substrate declares, its own telemetry read back.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/combining_backend.hpp"
#include "runtime/coordination.hpp"
#include "runtime/flat_combining.hpp"
#include "runtime/local_spin_locks.hpp"
#include "runtime/parallel_queue.hpp"
#include "runtime/rmw_backend.hpp"
#include "runtime/sharded_backend.hpp"
#include "workload.hpp"

namespace perfbench {

using krs::runtime::Word;

using Atomic = krs::runtime::AtomicBackend;
using Tree = krs::runtime::CombiningBackend;
using Flat = krs::runtime::FlatCombiningBackend;
using Sharded = krs::runtime::ShardedBackend<Atomic>;
using Mcs = krs::runtime::LockBackend<krs::runtime::McsLock>;

/// `n` backend cells constructed in place (cells are neither copyable nor
/// movable) in one aligned block, indexed without indirection.
template <typename Cell>
class CellArray {
 public:
  template <typename B>
  CellArray(const B& b, std::size_t n)
      : mem_(static_cast<Cell*>(::operator new(
            n * sizeof(Cell), std::align_val_t{alignof(Cell)}))) {
    for (; n_ < n; ++n_) new (mem_ + n_) Cell(b, Word{0});
  }
  CellArray(const CellArray&) = delete;
  CellArray& operator=(const CellArray&) = delete;
  ~CellArray() {
    for (std::size_t i = 0; i < n_; ++i) mem_[i].~Cell();
    ::operator delete(mem_, std::align_val_t{alignof(Cell)});
  }

  Cell& operator[](std::size_t i) noexcept { return mem_[i]; }
  const Cell& operator[](std::size_t i) const noexcept { return mem_[i]; }
  [[nodiscard]] std::size_t size() const noexcept { return n_; }

 private:
  Cell* mem_;
  std::size_t n_ = 0;
};

/// A transparent backend wrapper that remembers every cell built through
/// it and counts the calling thread's backend calls, so telemetry of the
/// cells a §6 primitive keeps private stays readable from outside.
template <krs::runtime::RmwBackend B>
class Registered {
 public:
  explicit Registered(B inner)
      : inner_(std::move(inner)),
        cells_(std::make_shared<std::vector<const typename B::Cell*>>()) {}

  struct Cell {
    Cell(const Registered& r, Word v) : c(r.inner_, v) {
      r.cells_->push_back(&c);
    }
    Cell(const Cell&) = delete;
    Cell& operator=(const Cell&) = delete;
    typename B::Cell c;
  };

  Word fetch_add(Cell& c, Word v) const {
    count();
    return inner_.fetch_add(c.c, v);
  }
  Word fetch_or(Cell& c, Word v) const {
    count();
    return inner_.fetch_or(c.c, v);
  }
  Word fetch_and(Cell& c, Word v) const {
    count();
    return inner_.fetch_and(c.c, v);
  }
  Word fetch_xor(Cell& c, Word v) const {
    count();
    return inner_.fetch_xor(c.c, v);
  }
  Word exchange(Cell& c, Word v) const {
    count();
    return inner_.exchange(c.c, v);
  }
  Word fetch_rmw(Cell& c, const krs::core::AnyRmw& m) const {
    count();
    return inner_.fetch_rmw(c.c, m);
  }
  bool compare_exchange(Cell& c, Word& e, Word d) const {
    count();
    return inner_.compare_exchange(c.c, e, d);
  }
  Word load(const Cell& c) const {
    count();
    return inner_.load(c.c);
  }
  void store(Cell& c, Word v) const {
    count();
    inner_.store(c.c, v);
  }

  [[nodiscard]] const B& inner() const noexcept { return inner_; }
  [[nodiscard]] const std::vector<const typename B::Cell*>& cells() const {
    return *cells_;
  }
  /// Backend calls the calling thread has made through any Registered.
  static std::uint64_t& thread_calls() noexcept {
    thread_local std::uint64_t n = 0;
    return n;
  }

 private:
  static void count() noexcept { ++thread_calls(); }

  B inner_;
  std::shared_ptr<std::vector<const typename B::Cell*>> cells_;
};

// ---- telemetry -------------------------------------------------------------

/// Substrate telemetry over a set of cells; `calls` is the number of
/// backend calls made on them (the denominator for lock acquisitions).
/// Substrates without telemetry (atomic) report none.
template <typename B, typename CellPtrs>
Layer telemetry(const B&, const CellPtrs&, std::uint64_t) {
  return {};
}
template <typename CellPtrs>
Layer telemetry(const Tree& b, const CellPtrs& cells, std::uint64_t) {
  krs::runtime::CombiningTreeStats t;
  for (const auto* c : cells) {
    const auto s = b.cell_stats(*c);
    t.ops += s.ops;
    t.folds += s.folds;
    t.declined_folds += s.declined_folds;
    t.root_applies += s.root_applies;
  }
  return {{"tree.combine_rate", t.combine_rate(), "fraction"},
          {"tree.root_share", t.served_at_root_fraction(), "fraction"},
          {"tree.declined_per_op", ratio(t.declined_folds, t.ops), "per_op"}};
}
template <typename CellPtrs>
Layer telemetry(const Flat& b, const CellPtrs& cells, std::uint64_t) {
  krs::runtime::FlatCombinerStats t;
  for (const auto* c : cells) {
    const auto s = b.cell_stats(*c);
    t.ops += s.ops;
    t.combined += s.combined;
    t.passes += s.passes;
    t.handoffs += s.handoffs;
    t.serialized_updates += s.serialized_updates;
  }
  return {{"flat.combined_fraction", t.combined_fraction(), "fraction"},
          {"flat.passes_per_op", ratio(t.passes, t.ops), "per_op"},
          {"flat.handoffs_per_op", ratio(t.handoffs, t.ops), "per_op"},
          {"flat.serialized_per_op", ratio(t.serialized_updates, t.ops),
           "per_op"}};
}
template <typename CellPtrs>
Layer telemetry(const Sharded& b, const CellPtrs& cells, std::uint64_t) {
  std::vector<std::uint64_t> per_shard(b.shards(), 0);
  for (const auto* c : cells) {
    const auto s = b.cell_stats(*c);
    for (std::size_t i = 0; i < s.shard_ops.size(); ++i) {
      per_shard[i] += s.shard_ops[i];
    }
  }
  return {{"sharded.max_share",
           krs::runtime::ShardedCellStats{per_shard}.max_share(), "fraction"}};
}
template <typename CellPtrs>
Layer telemetry(const Mcs&, const CellPtrs& cells, std::uint64_t calls) {
  std::uint64_t contended = 0;
  for (const auto* c : cells) contended += c->lk.contended_acquires();
  return {{"mcs.contended_share", ratio(contended, calls), "fraction"}};
}

// ---- counter workloads -----------------------------------------------------

/// The multiset hash behind the ticket check: a keyed 64-bit mix of
/// (cell, prior). Summed over every returned prior it equals the sum over
/// (cell, 0..n_cell-1) iff the priors of each cell are distinct and
/// gap-free, up to a collision probability on the order of 2^-64.
inline std::uint64_t ticket_hash(std::uint64_t key, std::uint32_t cell,
                                 Word prior) {
  std::uint64_t x = key + cell * 0x9e3779b97f4a7c15ULL +
                    prior * 0xc2b2ae3d27d4eb4fULL;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  return x ^ (x >> 33);
}

struct Checked {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// One substrate phase: timing, the output check, telemetry, check time.
struct PhaseResult {
  PhaseTiming timing;
  Checked check;
  Layer layer;
  double check_s = 0;
};

/// How many ops each cell received: worker t ran the first ops[t] elements
/// of its stream, looping.
inline std::vector<std::uint64_t> cell_counts(
    std::uint32_t cells, const Streams& streams,
    const std::vector<std::uint64_t>& ops) {
  std::vector<std::uint64_t> n(cells, 0);
  for (std::size_t t = 0; t < ops.size(); ++t) {
    const auto& s = streams[t];
    const std::uint64_t laps = ops[t] / s.size(), rest = ops[t] % s.size();
    for (std::size_t i = 0; i < s.size(); ++i) {
      n[s[i]] += laps + (i < rest ? 1 : 0);
    }
  }
  return n;
}

/// fetch_add(1) over the workers' streams on fresh zeroed cells, then the
/// check the substrate declares: distinct, gap-free priors per cell
/// (`tickets`), or only sum conservation per cell (sharded). A failed op
/// is one whose update was lost or duplicated (|ops − final| per cell);
/// a ticket-hash mismatch with balanced sums counts one.
template <typename B>
PhaseResult counter_phase(const B& b, std::uint32_t ncells,
                          const Streams& streams, bool tickets, double seconds,
                          std::uint64_t key, Trace& trace,
                          std::uint64_t parent) {
  CellArray<typename B::Cell> cells(b, ncells);
  const auto threads = static_cast<unsigned>(streams.size());
  std::vector<std::uint64_t> ops(threads, 0), sums(threads, 0);
  PhaseResult out;
  out.timing = run_phase(
      threads, seconds, 1, trace, parent, "worker",
      [&](unsigned t, OpTimer& timer) {
        const std::span<const std::uint32_t> s(streams[t]);
        std::size_t i = 0;
        std::uint64_t h = 0, n = 0;
        do {
          const std::uint32_t c = s[i];
          if (++i == s.size()) i = 0;
          h += ticket_hash(key, c, b.fetch_add(cells[c], 1));
          ++n;
        } while (timer.record(0, "fetch_add", now_ns()));
        ops[t] = n;
        sums[t] = h;
      });

  const std::int64_t t0 = now_ns();
  const std::uint64_t vspan = trace.main().begin("verify", parent);
  const auto expect = cell_counts(ncells, streams, ops);
  std::uint64_t lost = 0, want = 0, got = 0;
  for (std::uint32_t c = 0; c < ncells; ++c) {
    const Word final_value = b.load(cells[c]);
    lost += absdiff(final_value, expect[c]);
    if (tickets) {
      for (Word p = 0; p < expect[c]; ++p) want += ticket_hash(key, c, p);
    }
  }
  for (auto h : sums) got += h;
  for (auto n : ops) out.check.attempted += n;
  out.check.failed = lost;
  if (tickets && want != got && lost == 0) out.check.failed = 1;
  trace.main().end(vspan);
  out.check_s = 1e-9 * static_cast<double>(now_ns() - t0);

  std::vector<const typename B::Cell*> ptrs(ncells);
  for (std::uint32_t c = 0; c < ncells; ++c) ptrs[c] = &cells[c];
  out.layer = telemetry(b, ptrs, out.check.attempted);
  return out;
}

// ---- coord_mix -------------------------------------------------------------

/// Semaphore bound: the 2 permits of the repo's 4-thread semaphore benches
/// (BM_BackendSemaphore and BM_FaaSemaphore), so half the workers can hold it.
inline constexpr std::int64_t kPermits = 2;
/// Each pair dequeues right after it enqueues, so at most one item per
/// worker is ever queued: any power of two ≥ the thread count works.
inline constexpr std::size_t kQueueSlots = 64;

using krs::runtime::kCacheLine;

/// The §6 primitives over one substrate plus the shared state the checks
/// watch: two data words a write section updates together, a writer
/// flag, and the count of semaphore holders. Each primitive and each
/// check's words sit on cache lines of their own, so a check only touches
/// a line that holders of its own primitive use, and the layout adds no
/// sharing between primitives that the program would not have.
template <typename Inner>
struct Primitives {
  using B = Registered<Inner>;
  explicit Primitives(const Inner& inner)
      : backend(inner),
        rw(backend),
        queue(kQueueSlots, backend),
        sem(kPermits, backend) {}

  B backend;
  alignas(kCacheLine) krs::runtime::BasicRwLock<B> rw;
  alignas(kCacheLine)
      krs::runtime::ParallelQueue<Word, krs::analysis::DefaultInstrument, B>
          queue;
  alignas(kCacheLine) krs::runtime::BasicSemaphore<B> sem;
  alignas(kCacheLine) std::atomic<Word> data_a{0};
  std::atomic<Word> data_b{0};
  std::atomic<int> writing{0};
  alignas(kCacheLine) std::atomic<int> holders{0};
};

/// Same shape for the sharded substrate, which gives up the total order
/// the primitives need: its coord_mix is the read/update family mix on one
/// hot counter — an aggregate load where the others take a read section,
/// fetch_add(1) for every other kind.
struct ShardedHot {
  explicit ShardedHot(const Sharded& inner)
      : backend(inner), cell(backend, 0) {}
  Registered<Sharded> backend;
  Registered<Sharded>::Cell cell;
};

/// Exactly-once check on dequeued queue items: item = (producer << 40) |
/// sequence. Returns the number of items missing or delivered twice.
inline std::uint64_t queue_mismatches(
    const std::vector<std::vector<Word>>& got,
    const std::vector<std::uint64_t>& enqueued) {
  std::vector<std::vector<std::uint8_t>> seen(enqueued.size());
  for (std::size_t t = 0; t < enqueued.size(); ++t) {
    seen[t].assign(enqueued[t], 0);
  }
  std::uint64_t bad = 0;
  for (const auto& v : got) {
    for (const Word item : v) {
      const Word producer = item >> 40, seq = item & ((Word{1} << 40) - 1);
      if (producer >= seen.size() || seq >= seen[producer].size() ||
          seen[producer][seq] != 0) {
        ++bad;
      } else {
        seen[producer][seq] = 1;
      }
    }
  }
  for (const auto& s : seen) {
    bad += static_cast<std::uint64_t>(std::count(s.begin(), s.end(), 0));
  }
  return bad;
}

/// coord_mix on the §6 primitives over `inner`. Checks: exclusion on
/// write sections (a reader or second writer never sees a write in
/// progress or a torn pair of data words), every queue item dequeued
/// exactly once, at most kPermits semaphore holders and the count restored.
template <typename Inner>
PhaseResult coord_phase(const Inner& inner, const Streams& streams,
                        double seconds, bool split_queue, Trace& trace,
                        std::uint64_t parent) {
  auto p = std::make_unique<Primitives<Inner>>(inner);
  const auto threads = static_cast<unsigned>(streams.size());
  std::vector<std::uint64_t> bad(threads, 0), enq(threads, 0),
      calls(threads, 0);
  std::vector<std::vector<Word>> got(threads);
  PhaseResult out;
  out.timing = run_phase(
      threads, seconds, kKinds, trace, parent, "worker",
      [&](unsigned t, OpTimer& timer) {
        const std::span<const std::uint32_t> s(streams[t]);
        auto& mine = got[t];
        mine.reserve(1u << 18);
        std::size_t i = 0;
        std::uint64_t violations = 0, seq = 0, writes = 0;
        const std::uint64_t calls0 = Registered<Inner>::thread_calls();
        std::uint32_t k = 0;
        do {
          k = s[i];
          if (++i == s.size()) i = 0;
          switch (k) {
            case kRead:
              p->rw.read_lock();
              violations += p->writing.load(std::memory_order_acquire) != 0 ||
                            p->data_a.load(std::memory_order_relaxed) !=
                                p->data_b.load(std::memory_order_relaxed);
              p->rw.read_unlock();
              break;
            case kWrite: {
              p->rw.write_lock();
              violations += p->writing.exchange(1) != 0 ||
                            p->data_a.load(std::memory_order_relaxed) !=
                                p->data_b.load(std::memory_order_relaxed);
              const Word v = (Word{t} << 40) | ++writes;
              p->data_a.store(v, std::memory_order_relaxed);
              p->data_b.store(v, std::memory_order_relaxed);
              p->writing.store(0, std::memory_order_release);
              p->rw.write_unlock();
              break;
            }
            case kQueuePair: {
              p->queue.enqueue((Word{t} << 40) | seq++);
              const std::int64_t mid = split_queue ? now_ns() : 0;
              if (split_queue) timer.add(kEnqueue, mid - timer.prev());
              mine.push_back(p->queue.dequeue());
              if (split_queue) timer.add(kDequeue, now_ns() - mid);
              break;
            }
            default:
              p->sem.p();
              violations += p->holders.fetch_add(1) + 1 > kPermits;
              p->holders.fetch_sub(1);
              p->sem.v();
              break;
          }
        } while (timer.record(k, kKindNames[k], now_ns()));
        bad[t] = violations;
        enq[t] = seq;
        calls[t] = Registered<Inner>::thread_calls() - calls0;
      });

  const std::int64_t t0 = now_ns();
  const std::uint64_t vspan = trace.main().begin("verify", parent);
  while (auto left = p->queue.try_dequeue()) got[0].push_back(*left);
  for (auto v : bad) out.check.failed += v;
  out.check.failed += queue_mismatches(got, enq);
  out.check.failed += p->sem.value() != kPermits;
  out.check.attempted = out.timing.ops;
  trace.main().end(vspan);
  out.check_s = 1e-9 * static_cast<double>(now_ns() - t0);

  std::uint64_t total_calls = 0;
  for (auto c : calls) total_calls += c;
  out.layer = telemetry(p->backend.inner(), p->backend.cells(), total_calls);
  return out;
}

/// coord_mix on the sharded substrate (see ShardedHot). Checks: each
/// thread's aggregate reads never decrease and never fall below its own
/// updates (each shard only grows), and the final aggregate equals the
/// number of updates (sum conservation).
inline PhaseResult sharded_coord_phase(const Sharded& inner,
                                       const Streams& streams, double seconds,
                                       Trace& trace, std::uint64_t parent) {
  auto h = std::make_unique<ShardedHot>(inner);
  const auto threads = static_cast<unsigned>(streams.size());
  std::vector<std::uint64_t> bad(threads, 0), adds(threads, 0),
      highest(threads, 0);
  PhaseResult out;
  out.timing = run_phase(
      threads, seconds, kKinds, trace, parent, "worker",
      [&](unsigned t, OpTimer& timer) {
        const std::span<const std::uint32_t> s(streams[t]);
        std::size_t i = 0;
        std::uint64_t violations = 0, mine = 0;
        Word last = 0;
        std::uint32_t k = 0;
        do {
          k = s[i];
          if (++i == s.size()) i = 0;
          if (k == kRead) {
            const Word v = h->backend.load(h->cell);
            violations += v < last || v < mine;
            last = v;
          } else {
            h->backend.fetch_add(h->cell, 1);
            ++mine;
          }
        } while (timer.record(k, kKindNames[k], now_ns()));
        bad[t] = violations;
        adds[t] = mine;
        highest[t] = last;
      });

  const std::int64_t t0 = now_ns();
  const std::uint64_t vspan = trace.main().begin("verify", parent);
  std::uint64_t total = 0;
  for (auto a : adds) total += a;
  const Word final_value = h->backend.load(h->cell);
  for (auto v : bad) out.check.failed += v;
  for (auto v : highest) out.check.failed += v > final_value;
  out.check.failed += absdiff(final_value, total);
  out.check.attempted = out.timing.ops;
  trace.main().end(vspan);
  out.check_s = 1e-9 * static_cast<double>(now_ns() - t0);
  out.layer = telemetry(inner, h->backend.cells(), out.check.attempted);
  return out;
}

}  // namespace perfbench
