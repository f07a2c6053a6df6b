// Timing, tracing and thread orchestration shared by every phase.
//
// Method (identical for every substrate and on both sides of any
// comparison): a worker takes one steady_clock stamp after each operation;
// an operation's time is the interval since the previous stamp, so it
// includes reading the next element of the pre-generated stream and the
// histogram update (a few ns). A phase is a warm-up followed by a measured
// window on a time base all workers share: operations completing inside
// the window are counted and their times recorded exactly.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "runtime/backoff.hpp"
#include "runtime/wait_policy.hpp"
#include "stats.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-layer telemetry of one phase: (name, value, unit).
struct LayerMetric {
  std::string name;
  double value;
  const char* unit;
};
using Layer = std::vector<LayerMetric>;

// ---- spans -----------------------------------------------------------------

/// One traced call: a layer boundary crossed by the benchmark's own code.
struct Span {
  const char* name;     ///< string literal
  std::uint64_t id;     ///< (log tag << 32) | index within the log
  std::uint64_t parent; ///< 0 = root
  std::int64_t start_ns;
  std::int64_t end_ns;
};

/// Spans of one thread, kept in memory until the run ends. A disabled log
/// records nothing and hands out id 0.
class SpanLog {
 public:
  SpanLog(std::uint32_t tag, bool enabled) : tag_(tag), enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  std::uint64_t add(const char* name, std::uint64_t parent, std::int64_t s,
                    std::int64_t e) {
    if (!enabled_) return 0;
    const std::uint64_t id =
        (std::uint64_t{tag_} << 32) | (spans_.size() + 1);
    spans_.push_back({name, id, parent, s, e});
    return id;
  }
  /// Open a span whose end is not known yet; close it with end().
  std::uint64_t begin(const char* name, std::uint64_t parent) {
    const std::int64_t t = now_ns();
    return add(name, parent, t, t);
  }
  void end(std::uint64_t id) {
    if (id == 0) return;
    spans_[(id & 0xffffffffu) - 1].end_ns = now_ns();
  }

  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }
  std::vector<Span>& spans() noexcept { return spans_; }

 private:
  std::uint32_t tag_;
  bool enabled_;
  std::vector<Span> spans_;
};

/// Every span of a run: the main thread's log plus each worker's, merged
/// after the worker is joined.
class Trace {
 public:
  explicit Trace(bool enabled) : main_(0, enabled), recording_(enabled) {}

  /// Whether spans are being recorded now (a traced run also makes an
  /// untraced pass, with recording off).
  [[nodiscard]] bool recording() const noexcept { return recording_; }
  void set_recording(bool on) noexcept {
    recording_ = on;
    main_.set_enabled(on);
  }
  SpanLog& main() noexcept { return main_; }
  SpanLog worker_log() { return SpanLog(++next_tag_, recording_); }
  void merge(SpanLog& log) {
    all_.insert(all_.end(), log.spans().begin(), log.spans().end());
  }

  struct NameTotals {
    std::uint64_t count = 0;
    double total_s = 0;
    double self_s = 0;
  };

  /// Per span name: count, total time, and self time — each span's
  /// duration minus the part of it its child spans cover.
  std::map<std::string, NameTotals> totals() {
    merge(main_);
    main_.spans().clear();
    std::unordered_map<std::uint64_t, std::vector<const Span*>> kids;
    for (const Span& s : all_) kids[s.parent].push_back(&s);
    std::map<std::string, NameTotals> out;
    for (const Span& s : all_) {
      std::vector<std::pair<std::int64_t, std::int64_t>> iv;
      if (auto it = kids.find(s.id); it != kids.end()) {
        for (const Span* c : it->second) {
          const std::int64_t a = std::max(c->start_ns, s.start_ns);
          const std::int64_t b = std::min(c->end_ns, s.end_ns);
          if (a < b) iv.emplace_back(a, b);
        }
      }
      std::sort(iv.begin(), iv.end());
      std::int64_t covered = 0, hi = s.start_ns;
      for (const auto& [a, b] : iv) {
        if (b <= hi) continue;
        covered += b - std::max(a, hi);
        hi = b;
      }
      NameTotals& t = out[s.name];
      ++t.count;
      t.total_s += 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
      t.self_s += 1e-9 * static_cast<double>(s.end_ns - s.start_ns - covered);
    }
    return out;
  }

  /// Write every span as CSV (id, parent, name, start, end).
  bool write(const std::string& path) const {
    std::ofstream f(path);
    if (!f) return false;
    f << "id,parent,name,start_ns,end_ns\n";
    for (const Span& s : all_) {
      f << s.id << ',' << s.parent << ',' << s.name << ',' << s.start_ns
        << ',' << s.end_ns << '\n';
    }
    return static_cast<bool>(f);
  }

 private:
  SpanLog main_;
  bool recording_;
  std::uint32_t next_tag_ = 0;
  std::vector<Span> all_;
};

// ---- per-op timing ---------------------------------------------------------

inline constexpr double kWarmupShare = 0.1;  ///< of each phase, not measured
inline constexpr std::uint64_t kSampleEvery = 4096;  ///< traced op stride
inline constexpr std::size_t kMaxSpansPerWorker = 2000;

/// One worker's clock: stamps operations, counts and times those that
/// complete inside the measured window and (traced) samples every
/// kSampleEvery-th operation as a span. Written on every operation, so
/// each worker's timer owns its cache lines.
class alignas(64) OpTimer {
 public:
  OpTimer(unsigned kinds, SpanLog log) : hist_(kinds), log_(std::move(log)) {}

  /// Wait for the shared start time, then open the worker's span.
  void begin(std::int64_t start_ns, std::int64_t warm_end_ns,
             std::int64_t end_ns, std::uint64_t parent,
             const char* worker_name) {
    while (now_ns() < start_ns) krs::runtime::cpu_relax();
    warm_end_ = warm_end_ns;
    end_ = end_ns;
    prev_ = now_ns();
    worker_span_ = log_.begin(worker_name, parent);
  }

  [[nodiscard]] std::int64_t prev() const noexcept { return prev_; }

  /// Add a sub-interval of the current operation (traced runs only).
  void add(unsigned kind, std::int64_t dt) {
    if (prev_ >= warm_end_) hist_[kind].add(static_cast<std::uint64_t>(dt));
  }

  /// The operation of `kind` finished at `now`. Returns false once the
  /// measured window is over.
  bool record(unsigned kind, const char* span_name, std::int64_t now) {
    ++ops_;
    if (now >= end_) {
      log_.end(worker_span_);
      return false;
    }
    if (now >= warm_end_) {
      hist_[kind].add(static_cast<std::uint64_t>(now - prev_));
      ++measured_;
    }
    if (log_.enabled() && ++since_sample_ == kSampleEvery) {
      since_sample_ = 0;
      if (log_.size() < kMaxSpansPerWorker) {
        log_.add(span_name, worker_span_, prev_, now);
      }
    }
    prev_ = now;
    return true;
  }

  [[nodiscard]] std::uint64_t ops() const noexcept { return ops_; }
  [[nodiscard]] std::uint64_t measured() const noexcept { return measured_; }
  std::vector<LatencyHist>& hist() noexcept { return hist_; }
  SpanLog& log() noexcept { return log_; }

 private:
  std::vector<LatencyHist> hist_;
  SpanLog log_;
  std::uint64_t ops_ = 0;
  std::uint64_t measured_ = 0;
  std::uint64_t since_sample_ = 0;
  std::int64_t warm_end_ = 0;
  std::int64_t end_ = 0;
  std::int64_t prev_ = 0;
  std::uint64_t worker_span_ = 0;
};

/// What one threaded phase measured, before substrate-specific checks.
struct PhaseTiming {
  std::uint64_t ops = 0;          ///< all completed ops, warm-up included
  std::uint64_t measured_ops = 0; ///< ops completed inside the window
  double measured_s = 0;          ///< window length
  std::vector<LatencyHist> hist;  ///< per kind, merged over workers
  krs::runtime::WaitStats wait;   ///< wait_stats_snapshot delta

  /// Completed ops per second over all workers, in millions.
  [[nodiscard]] double mops() const {
    return measured_s > 0 ? static_cast<double>(measured_ops) / measured_s / 1e6
                          : 0.0;
  }
};

/// Run `body(t, timer)` on `threads` fresh worker threads for `seconds`:
/// a warm-up, then the measured window. The threads start together on a
/// shared time base; the calling thread only waits for them. Fresh threads
/// per phase make wait_stats_snapshot() exact once they are joined.
template <typename Body>
PhaseTiming run_phase(unsigned threads, double seconds, unsigned kinds,
                      Trace& trace, std::uint64_t parent,
                      const char* worker_name, Body body) {
  std::vector<OpTimer> timers;
  timers.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    timers.emplace_back(kinds, trace.worker_log());
  }
  const auto warm_ns = static_cast<std::int64_t>(seconds * kWarmupShare * 1e9);
  const auto run_ns = static_cast<std::int64_t>(seconds * 1e9) - warm_ns;
  std::atomic<unsigned> ready{0};
  std::atomic<std::int64_t> start{0};
  const krs::runtime::WaitStats before = krs::runtime::wait_stats_snapshot();
  {
    std::vector<std::jthread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        ready.fetch_add(1);
        std::int64_t s = 0;
        while ((s = start.load(std::memory_order_acquire)) == 0) {
          std::this_thread::yield();
        }
        timers[t].begin(s, s + warm_ns, s + warm_ns + run_ns, parent,
                        worker_name);
        body(t, timers[t]);
      });
    }
    while (ready.load() < threads) std::this_thread::yield();
    start.store(now_ns() + 2'000'000, std::memory_order_release);
  }  // joins
  PhaseTiming out;
  out.wait = krs::runtime::wait_stats_snapshot() - before;
  out.measured_s = 1e-9 * static_cast<double>(run_ns);
  out.hist.resize(kinds);
  for (OpTimer& tm : timers) {
    out.ops += tm.ops();
    out.measured_ops += tm.measured();
    for (unsigned k = 0; k < kinds; ++k) out.hist[k].merge(tm.hist()[k]);
    trace.merge(tm.log());
  }
  return out;
}

}  // namespace perfbench
