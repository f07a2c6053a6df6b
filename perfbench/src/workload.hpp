// Seeded op streams for the three workloads.
//
// The benchmark, not the program under test, owns the inputs: every stream
// is a pure function of (workload, seed, stream index), generated before
// any timed operation. Thread t of a threaded substrate plays stream t in a
// loop; simulated processor p of the Omega machine plays stream
// kSimStreamBase + p, expanded into raw memory operations.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "core/any_rmw.hpp"
#include "core/types.hpp"
#include "util/rng.hpp"

namespace perfbench {

enum class Workload { kHotCounter, kSpreadCounter, kCoordMix };

inline constexpr std::array<std::string_view, 3> kWorkloadNames = {
    "hot_counter", "spread_counter", "coord_mix"};

inline std::optional<Workload> parse_workload(std::string_view s) {
  for (std::size_t i = 0; i < kWorkloadNames.size(); ++i) {
    if (s == kWorkloadNames[i]) return static_cast<Workload>(i);
  }
  return std::nullopt;
}

inline std::string_view name_of(Workload w) {
  return kWorkloadNames[static_cast<std::size_t>(w)];
}

inline bool is_counter(Workload w) { return w != Workload::kCoordMix; }

// hot_counter: the Pfister–Norton mixture of §1 — cell 0 with probability
// 0.9, otherwise one of the other 63 cells uniformly.
inline constexpr std::uint32_t kHotCells = 64;
inline constexpr double kHotFraction = 0.9;
// spread_counter: 65,536 cells, so the padded atomic words alone (4 MiB)
// exceed one core's L2 and no two threads meet on a cell.
inline constexpr std::uint32_t kSpreadCells = 1u << 16;

/// Counter cells a workload touches (coord_mix keeps its words inside the
/// §6 primitives; its one cell is the sharded substrate's hot counter).
inline std::uint32_t cells_of(Workload w) {
  switch (w) {
    case Workload::kHotCounter:
      return kHotCells;
    case Workload::kSpreadCounter:
      return kSpreadCells;
    case Workload::kCoordMix:
      return 1;
  }
  return 1;
}

/// coord_mix operation kinds: read sections, write sections, queue
/// enqueue+dequeue pairs and semaphore P/V pairs. kEnqueue and kDequeue
/// never appear in a stream; they label the two halves of a queue pair when
/// the traced run times them separately.
enum Kind : std::uint32_t {
  kRead,
  kWrite,
  kQueuePair,
  kPv,
  kEnqueue,
  kDequeue,
  kKinds
};
inline constexpr std::array<const char*, kKinds> kKindNames = {
    "read", "write", "queue_pair", "pv", "enqueue", "dequeue"};

/// coord_mix draws each op uniformly from these six slots, so reads :
/// writes : queue pairs : P/V pairs = 3 : 1 : 1 : 1. Reads against writes
/// is the repo's read-mostly rwlock shape, 3 readers to 1 writer
/// (examples/readers_writers.cpp, BM_BackendRwLock and
/// BM_FaaRwLockReadMostly in bench/bench_coordination.cpp). The queue and
/// the semaphore each weigh what the writer weighs: every non-read family
/// gets one slot, and read sections stay the majority.
inline constexpr std::array<std::uint32_t, 6> kCoordSlots = {
    kRead, kRead, kRead, kWrite, kQueuePair, kPv};

/// Stream index of simulated processor 0; processor p plays base + p.
inline constexpr std::uint64_t kSimStreamBase = 1u << 20;

/// Independent seed for one stream of one run.
inline std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t index) {
  krs::util::SplitMix64 sm(seed * 0x9e3779b97f4a7c15ULL + index);
  sm.next();
  return sm.next();
}

/// One stream per worker thread.
using Streams = std::vector<std::vector<std::uint32_t>>;

/// One stream of `len` elements: cell indices for the counter workloads,
/// Kind values for coord_mix.
inline std::vector<std::uint32_t> make_stream(Workload w, std::uint64_t seed,
                                              std::uint64_t index,
                                              std::size_t len) {
  krs::util::Xoshiro256 rng(stream_seed(seed, index));
  std::vector<std::uint32_t> s(len);
  for (auto& x : s) {
    switch (w) {
      case Workload::kHotCounter:
        x = rng.chance(kHotFraction)
                ? 0
                : 1 + static_cast<std::uint32_t>(rng.below(kHotCells - 1));
        break;
      case Workload::kSpreadCounter:
        x = static_cast<std::uint32_t>(rng.below(kSpreadCells));
        break;
      case Workload::kCoordMix:
        x = kCoordSlots[rng.below(kCoordSlots.size())];
        break;
    }
  }
  return s;
}

/// One raw memory operation of a simulated processor.
struct SimOp {
  krs::core::Addr addr = 0;
  krs::core::AnyRmw f;
};

// coord_mix's hot words in the simulated memory: the rwlock's reader count
// and writer flag, the queue's tail and head tickets, the semaphore, and
// 64 queue slots. Each lands on its own module (low-order interleaving).
inline constexpr krs::core::Addr kReaders = 0, kWriter = 1, kTail = 2,
                                 kHead = 3, kSem = 4, kSlotBase = 64;

/// The raw load/store/swap/add traffic each coord_mix kind issues — the
/// accesses the §6 primitive performs on its hot words, without the
/// data-dependent retries a simulated processor cannot express.
inline void append_raw(std::uint32_t kind, std::uint32_t proc,
                       std::uint64_t i, std::vector<SimOp>& out) {
  using krs::core::AnyRmw;
  using krs::core::FetchAdd;
  using krs::core::LssOp;
  using krs::core::Word;
  const Word minus_one = Word{0} - 1;
  const krs::core::Addr slot = kSlotBase + (i & 63);
  const Word item = (Word{proc} << 32) | (i & 0xffffffffu);
  switch (kind) {
    case kRead:
      out.push_back({kReaders, AnyRmw(FetchAdd(1))});
      out.push_back({kWriter, AnyRmw(LssOp::load())});
      out.push_back({kReaders, AnyRmw(FetchAdd(minus_one))});
      break;
    case kWrite:
      out.push_back({kWriter, AnyRmw(LssOp::swap(1))});
      out.push_back({kReaders, AnyRmw(LssOp::load())});
      out.push_back({kWriter, AnyRmw(LssOp::store(0))});
      break;
    case kQueuePair:
      out.push_back({kTail, AnyRmw(FetchAdd(1))});
      out.push_back({slot, AnyRmw(LssOp::swap(item))});
      out.push_back({kHead, AnyRmw(FetchAdd(1))});
      out.push_back({slot, AnyRmw(LssOp::swap(0))});
      break;
    default:
      out.push_back({kSem, AnyRmw(FetchAdd(minus_one))});
      out.push_back({kSem, AnyRmw(FetchAdd(1))});
      break;
  }
}

/// Simulated processor `proc`'s operations, at least `min_ops` of them:
/// fetch_add(1) on the stream's cells for the counter workloads, the raw
/// expansion of each kind for coord_mix.
inline std::vector<SimOp> make_sim_stream(Workload w, std::uint64_t seed,
                                          std::uint32_t proc,
                                          std::size_t min_ops) {
  const auto stream = make_stream(w, seed, kSimStreamBase + proc, min_ops);
  std::vector<SimOp> ops;
  ops.reserve(is_counter(w) ? min_ops : 4 * min_ops);
  for (std::size_t i = 0; ops.size() < min_ops; ++i) {
    if (is_counter(w)) {
      ops.push_back({stream[i], krs::core::AnyRmw(krs::core::FetchAdd(1))});
    } else {
      append_raw(stream[i], proc, i, ops);
    }
  }
  return ops;
}

}  // namespace perfbench
