// perfbench — the repository benchmark.
//
//   perfbench --workload <hot_counter|spread_counter|coord_mix> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// Builds the op streams from the seed, drives them through the five
// threaded RMW substrates (atomic, tree, flat, sharded, mcs) and the
// simulated Omega machine, checks every result, and prints each metric by
// name with its unit. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"} — the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. README.md explains
// the workloads, the metrics and what each should move.
#include <sched.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "omega.hpp"
#include "substrates.hpp"
#include "workload.hpp"

namespace pb = perfbench;

namespace {

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimised = true;
#else
constexpr bool kOptimised = false;
#endif
#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "g++ " __VERSION__;
#endif

constexpr std::size_t kStreamLen = 1u << 18;  ///< per worker, played in a loop
constexpr std::size_t kSimOpsPerProc = 1000;
constexpr unsigned kMaxThreads = 4;
// Every substrate runs once per round and its figures pool all rounds, so
// slow drifts in host load and thread placement average out.
constexpr unsigned kRounds = 20;
constexpr std::size_t kMinOmegaRuns = 3;
// Set-up is timed a few times in every round (at least once, for up to
// kSetupBudgetS / kRounds of build time, at most kMaxSetupReps per round),
// so its median samples the whole run rather than one moment of it.
constexpr double kSetupBudgetS = 1.0;
constexpr unsigned kMaxSetupReps = 20;
constexpr const char* kSubstrates[] = {"atomic", "tree", "flat", "sharded",
                                       "mcs"};

struct Options {
  pb::Workload workload = pb::Workload::kHotCounter;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_dir;
};

bool parse_u64(std::string_view s, std::uint64_t& out) {
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && p == s.data() + s.size();
}

bool parse(int argc, char** argv, Options& o) {
  bool have_w = false, have_seed = false, have_s = false, have_t = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view k = argv[i], v = argv[i + 1];
    std::uint64_t n = 0;
    if (k == "--workload") {
      const auto w = pb::parse_workload(v);
      if (!w) return false;
      o.workload = *w;
      have_w = true;
    } else if (k == "--seed") {
      if (!parse_u64(v, o.seed)) return false;
      have_seed = true;
    } else if (k == "--seconds") {
      if (!parse_u64(v, n) || n < 1 || n > 600) return false;
      o.seconds = static_cast<double>(n);
      have_s = true;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      o.trace = v == "1";
      have_t = true;
    } else if (k == "--trace-dir") {
      o.trace_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_w && have_seed && have_s && have_t;
}

unsigned host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Shortest round-trip decimal form. JSON has no NaN or infinity; every
/// ratio is guarded, so a non-finite value would be a harness bug.
std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

/// Named metric samples in first-seen order; each reports its median.
class Metrics {
 public:
  void add(const std::string& name, double v, const std::string& unit) {
    for (auto& m : all_) {
      if (m.name == name) {
        m.values.push_back(v);
        return;
      }
    }
    all_.push_back({name, unit, {v}});
  }

  struct Series {
    std::string name, unit;
    std::vector<double> values;
  };
  [[nodiscard]] const std::vector<Series>& all() const noexcept { return all_; }

 private:
  std::vector<Series> all_;
};

/// Per-op latency over whole operations (coord_mix: not the traced
/// enqueue/dequeue halves).
pb::LatencyHist whole_ops(const std::vector<pb::LatencyHist>& hist) {
  pb::LatencyHist h;
  const auto whole = std::min<std::size_t>(hist.size(), pb::kEnqueue);
  for (std::size_t k = 0; k < whole; ++k) h.merge(hist[k]);
  return h;
}

/// One substrate's phases over all rounds: latencies pooled exactly,
/// throughput as measured ops over measured time.
struct Pool {
  std::vector<pb::LatencyHist> hist;
  std::uint64_t ops = 0;      ///< inside the measured windows
  std::uint64_t all_ops = 0;  ///< warm-up included, the wait-stats base
  double secs = 0;
  krs::runtime::WaitStats wait;
};

class Bench {
 public:
  Bench(const Options& o, unsigned threads)
      : o_(o),
        threads_(threads),
        trace_(o.trace),
        tree_(threads),
        flat_(threads),
        sharded_(pb::Atomic{}, threads) {}

  int run() {
    generate();
    // A traced run makes an untraced and a traced pass of every phase, so
    // each pass gets half the time; the Omega machine runs traced only.
    const double omega_share = o_.seconds / (6.0 * kRounds);
    const double share = o_.trace ? omega_share / 2 : omega_share;
    for (unsigned r = 0; r < kRounds; ++r) {
      measure_setup();
      for (const char* s : kSubstrates) {
        if (o_.trace) {
          trace_.set_recording(false);
          const double plain = substrate(s, share).timing.mops();
          trace_.set_recording(true);
          const auto traced = substrate(s, share);
          layer_.add("trace.overhead",
                     pb::ratio(plain, traced.timing.mops()) - 1.0, "fraction");
          pool(s, traced);
        } else {
          pool(s, substrate(s, share));
        }
      }
      // Omega runs cost more than one round's share; spreading them by
      // budget still interleaves them with the threaded phases.
      omega_runs(omega_share * (r + 1), 0);
    }
    omega_runs(0, kMinOmegaRuns);
    for (const char* s : kSubstrates) report_pool(s, pools_[s]);
    omega_finish();
    if (o_.trace) core_layer();
    layer_.add("verify.check_s", check_s_, "s");
    return report();
  }

 private:
  // ---- inputs --------------------------------------------------------------

  void generate() {
    const std::uint64_t span = trace_.main().begin("workload.generate", 0);
    const std::int64_t t0 = pb::now_ns();
    std::uint64_t n = 0;
    for (unsigned t = 0; t < threads_; ++t) {
      const std::int64_t s0 = pb::now_ns();
      streams_.push_back(pb::make_stream(o_.workload, o_.seed, t, kStreamLen));
      trace_.main().add("workload.thread_stream", span, s0, pb::now_ns());
      n += kStreamLen;
    }
    const std::uint32_t procs = 1u << pb::kLog2Procs;
    for (std::uint32_t p = 0; p < procs; ++p) {
      sim_.push_back(
          pb::make_sim_stream(o_.workload, o_.seed, p, kSimOpsPerProc));
      n += sim_.back().size();
    }
    trace_.main().end(span);
    layer_.add("workload.gen_ns_per_op",
               pb::ratio(static_cast<double>(pb::now_ns() - t0), n), "ns");
  }

  // ---- setup_s -------------------------------------------------------------

  template <typename T, typename... Args>
  static double timed_build(Args&&... args) {
    const std::int64_t t0 = pb::now_ns();
    auto obj = std::make_unique<T>(std::forward<Args>(args)...);
    return 1e-9 * static_cast<double>(pb::now_ns() - t0);
  }

  /// Build every substrate's cells (counter workloads) or primitives
  /// (coord_mix) and the Omega machine once; returns the build time,
  /// excluding teardown. Each is torn down before the next is built.
  double build_everything() {
    double s = 0;
    if (pb::is_counter(o_.workload)) {
      const std::uint32_t n = pb::cells_of(o_.workload);
      s += timed_build<pb::CellArray<pb::Atomic::Cell>>(atomic_, n);
      s += timed_build<pb::CellArray<pb::Tree::Cell>>(tree_, n);
      s += timed_build<pb::CellArray<pb::Flat::Cell>>(flat_, n);
      s += timed_build<pb::CellArray<pb::Sharded::Cell>>(sharded_, n);
      s += timed_build<pb::CellArray<pb::Mcs::Cell>>(mcs_, n);
    } else {
      s += timed_build<pb::Primitives<pb::Atomic>>(atomic_);
      s += timed_build<pb::Primitives<pb::Tree>>(tree_);
      s += timed_build<pb::Primitives<pb::Flat>>(flat_);
      s += timed_build<pb::ShardedHot>(sharded_);
      s += timed_build<pb::Primitives<pb::Mcs>>(mcs_);
    }
    const std::int64_t t0 = pb::now_ns();
    auto m = pb::build_machine(sim_);
    return s + 1e-9 * static_cast<double>(pb::now_ns() - t0);
  }

  void measure_setup() {
    const std::uint64_t span = trace_.main().begin("setup", 0);
    double spent = 0;
    for (unsigned i = 0; i < kMaxSetupReps && spent < kSetupBudgetS / kRounds;
         ++i) {
      const double s = build_everything();
      e2e_.add("setup_s", s, "s");
      spent += s;
    }
    trace_.main().end(span);
  }

  // ---- threaded substrates -------------------------------------------------

  template <typename B>
  pb::PhaseResult phase_on(const B& b, double secs, std::uint64_t span) {
    const std::uint64_t key = pb::stream_seed(o_.seed, 0xc0ffee);
    if (pb::is_counter(o_.workload)) {
      const bool tickets = !std::is_same_v<B, pb::Sharded>;
      return pb::counter_phase(b, pb::cells_of(o_.workload), streams_, tickets,
                               secs, key, trace_, span);
    }
    if constexpr (std::is_same_v<B, pb::Sharded>) {
      return pb::sharded_coord_phase(b, streams_, secs, trace_, span);
    } else {
      return pb::coord_phase(b, streams_, secs, trace_.recording(), trace_,
                             span);
    }
  }

  /// `name` is one of kSubstrates (a string literal: it names the span).
  pb::PhaseResult substrate(const char* name, double secs) {
    const std::string_view s = name;
    const std::uint64_t span = trace_.main().begin(name, 0);
    pb::PhaseResult r = s == "atomic"    ? phase_on(atomic_, secs, span)
                        : s == "tree"    ? phase_on(tree_, secs, span)
                        : s == "flat"    ? phase_on(flat_, secs, span)
                        : s == "sharded" ? phase_on(sharded_, secs, span)
                                         : phase_on(mcs_, secs, span);
    trace_.main().end(span);
    attempted_ += r.check.attempted;
    failed_ += r.check.failed;
    check_s_ += r.check_s;
    std::printf("phase %-7s %s ops=%llu mops=%.4f %s failed=%llu\n", name,
                trace_.recording() ? "traced" : "plain ",
                static_cast<unsigned long long>(r.timing.ops), r.timing.mops(),
                whole_ops(r.timing.hist).describe().c_str(),
                static_cast<unsigned long long>(r.check.failed));
    return r;
  }

  /// Fold one phase into its substrate's pool; telemetry ratios are
  /// reported as their median over rounds.
  void pool(const char* s, const pb::PhaseResult& r) {
    Pool& p = pools_[s];
    p.hist.resize(r.timing.hist.size());
    for (std::size_t k = 0; k < r.timing.hist.size(); ++k) {
      p.hist[k].merge(r.timing.hist[k]);
    }
    p.ops += r.timing.measured_ops;
    p.all_ops += r.timing.ops;
    p.secs += r.timing.measured_s;
    p.wait += r.timing.wait;
    for (const auto& m : r.layer) layer_.add(m.name, m.value, m.unit);
  }

  /// One substrate's figures from its pool: the end-to-end pair, or (traced)
  /// its call-boundary latencies, waits and primitive call medians.
  void report_pool(const std::string& s, const Pool& p) {
    const auto h = whole_ops(p.hist);
    if (!o_.trace) {
      e2e_.add(s + "_mops", pb::ratio(p.ops, p.secs) / 1e6, "Mops/s");
      e2e_.add(s + "_p99_ns", static_cast<double>(h.quantile(0.99)), "ns");
      return;
    }
    const double ops = static_cast<double>(p.all_ops);
    layer_.add(s + ".p50_ns", static_cast<double>(h.quantile(0.5)), "ns");
    layer_.add(s + ".p999_ns", static_cast<double>(h.quantile(0.999)), "ns");
    layer_.add(s + ".spins_per_op", pb::ratio(p.wait.spins, ops), "per_op");
    layer_.add(s + ".yields_per_op", pb::ratio(p.wait.yields, ops), "per_op");
    layer_.add(s + ".parks_per_op", pb::ratio(p.wait.parks, ops), "per_op");
    if (s == "sharded") return;
    // The §6 primitive calls exist on coord_mix only; elsewhere they read 0.
    const bool coord = !pb::is_counter(o_.workload);
    auto med = [&](unsigned k) {
      return coord ? static_cast<double>(p.hist[k].quantile(0.5)) : 0.0;
    };
    layer_.add(s + ".read_ns", med(pb::kRead), "ns");
    layer_.add(s + ".write_ns", med(pb::kWrite), "ns");
    layer_.add(s + ".enqueue_ns", med(pb::kEnqueue), "ns");
    layer_.add(s + ".dequeue_ns", med(pb::kDequeue), "ns");
    layer_.add(s + ".pv_ns", med(pb::kPv), "ns");
  }

  // ---- Omega machine -------------------------------------------------------

  /// Run the machine on the same streams until the Omega runs so far have
  /// taken `until_s` of wall time and at least `min_runs` exist. The first
  /// run is the reference every later one must reproduce exactly.
  void omega_runs(double until_s, std::size_t min_runs) {
    const std::uint64_t span = trace_.main().begin("omega", 0);
    while (!omega_stuck_ &&
           (omega_spent_ < until_s || par_walls_.size() < min_runs)) {
      auto m = pb::build_machine(sim_);
      const double w = pb::run_chunked(*m, threads_, trace_.main(), span);
      const auto ops = m->completed().size();
      attempted_ += ops;
      if (w < 0) {  // did not drain: nothing it did can be trusted
        failed_ += ops + 1;
        omega_stuck_ = true;
        break;
      }
      omega_spent_ += w;
      par_walls_.push_back(w);
      e2e_.add("omega_kops", static_cast<double>(ops) / w / 1e3, "kops/s");
      layer_.add("sim.ns_per_cycle",
                 w * 1e9 / static_cast<double>(m->now()), "ns");
      if (first_) {
        failed_ += pb::run_mismatches(*first_, *m);
      } else {
        first_ = std::move(m);
      }
    }
    trace_.main().end(span);
  }

  /// Check the reference run (M2.1–M2.3, and the identical run at one
  /// engine worker) and report its seed-determined figures.
  void omega_finish() {
    if (!first_) return;
    const std::int64_t v0 = pb::now_ns();
    const std::uint64_t vspan = trace_.main().begin("verify", 0);
    const auto res = krs::verify::check_machine(*first_, krs::core::Word{0});
    if (!res.ok) {
      std::printf("omega check failed: %s\n", res.error.c_str());
      failed_ += first_->completed().size();
    }
    auto seq = pb::build_machine(sim_);
    const double seq_wall = pb::run_chunked(*seq, 1, trace_.main(), vspan);
    attempted_ += seq->completed().size();
    failed_ += seq_wall < 0 ? seq->completed().size() + 1
                            : pb::run_mismatches(*first_, *seq);
    trace_.main().end(vspan);
    check_s_ += 1e-9 * static_cast<double>(pb::now_ns() - v0);

    const auto st = first_->stats();
    const double ops = static_cast<double>(st.ops_completed);
    const auto lat = pb::sorted_latencies(*first_);
    const double p50 = pb::mid_quantile(lat, 0.5);
    const double tail = pb::tail_level(lat.size());
    std::printf("omega runs=%zu ops=%llu cycles=%llu latency median=%llu "
                "%s=%llu n=%zu (cycles)\n",
                par_walls_.size(),
                static_cast<unsigned long long>(st.ops_completed),
                static_cast<unsigned long long>(st.cycles),
                static_cast<unsigned long long>(pb::nearest_rank(lat, 0.5)),
                pb::level_label(tail).c_str(),
                static_cast<unsigned long long>(pb::nearest_rank(lat, tail)),
                lat.size());
    e2e_.add("omega_cycles_per_op", pb::ratio(st.cycles, ops), "cycles/op");
    e2e_.add("omega_p99_cycles", pb::mid_quantile(lat, 0.99), "cycles");
    layer_.add("sim.parallel_speedup", seq_wall / pb::median(par_walls_),
               "ratio");
    for (const auto& m : pb::machine_layers(*first_)) {
      layer_.add(m.name, m.value, m.unit);
    }
    layer_.add("omega.p50_cycles", p50, "cycles");
    layer_.add("omega.model_cycles", pb::model_cycles(), "cycles");
    layer_.add("omega.cycles_over_model", p50 / pb::model_cycles(), "ratio");
  }

  // ---- core ----------------------------------------------------------------

  template <typename T>
  static void keep(const T& v) {
    asm volatile("" : : "m"(v) : "memory");
  }

  /// try_compose and apply over adjacent pairs of the simulated processors'
  /// own op streams, each stream timed as one batch; medians over streams
  /// of the per-pair means.
  void core_layer() {
    const std::uint64_t span = trace_.main().begin("core", 0);
    std::uint64_t attempts = 0, declined = 0;
    krs::core::Word x = o_.seed;
    for (const auto& s : sim_) {
      if (s.size() < 2) continue;
      const std::size_t n = s.size() - 1;
      const std::int64_t c0 = pb::now_ns();
      for (std::size_t j = 0; j < n; ++j) {
        const auto r = try_compose(s[j].f, s[j + 1].f);
        declined += !r.has_value();
        keep(r);
      }
      const std::int64_t c1 = pb::now_ns();
      for (std::size_t j = 0; j < n; ++j) x = s[j].f.apply(x);
      const std::int64_t c2 = pb::now_ns();
      keep(x);
      trace_.main().add("core.try_compose", span, c0, c1);
      trace_.main().add("core.apply", span, c1, c2);
      attempts += n;
      const auto per = [n](std::int64_t d) {
        return static_cast<double>(d) / static_cast<double>(n);
      };
      layer_.add("core.compose_ns", per(c1 - c0), "ns");
      layer_.add("core.apply_ns", per(c2 - c1), "ns");
    }
    trace_.main().end(span);
    layer_.add("core.decline_rate", pb::ratio(declined, attempts), "fraction");
  }

  // ---- report --------------------------------------------------------------

  int report() {
    if (o_.trace) {
      for (const auto& [name, t] : trace_.totals()) {
        std::printf("span %-24s count=%llu total_s=%.6f self_s=%.6f\n",
                    name.c_str(), static_cast<unsigned long long>(t.count),
                    t.total_s, t.self_s);
      }
      if (!o_.trace_dir.empty()) {
        const std::string path = o_.trace_dir + "/" +
                                 std::string(pb::name_of(o_.workload)) + ".csv";
        if (!trace_.write(path)) {
          std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
          return 1;
        }
        std::printf("spans written to %s\n", path.c_str());
      }
    }
    const Metrics& metrics = o_.trace ? layer_ : e2e_;
    std::string json = "{\"correct\": ";
    json += failed_ == 0 && attempted_ > 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    bool comma = false;
    for (const auto& m : metrics.all()) {
      const std::string v = number(pb::median(m.values));
      std::string samples;  // the samples themselves when there are few
      if (m.values.size() <= kRounds) {
        for (double x : m.values) {
          samples += ' ';
          samples += number(x);
        }
      } else {
        samples += ' ';
        samples += std::to_string(m.values.size());
        samples += " samples";
      }
      std::printf("metric %-28s %s %s (median of%s)\n", m.name.c_str(),
                  v.c_str(), m.unit.c_str(), samples.c_str());
      json += comma ? ", \"" : "\"";
      json += m.name;
      json += "\": {\"value\": ";
      json += v;
      json += ", \"unit\": \"";
      json += m.unit;
      json += "\"}";
      comma = true;
    }
    json += "}}";
    std::printf("error_rate %s (%llu failed of %llu attempted)\n",
                number(pb::ratio(failed_, attempted_)).c_str(),
                static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(attempted_));
    std::printf("%s\n", json.c_str());
    return 0;
  }

  Options o_;
  unsigned threads_;
  pb::Trace trace_;
  pb::Atomic atomic_;
  pb::Tree tree_;
  pb::Flat flat_;
  pb::Sharded sharded_;
  pb::Mcs mcs_;
  std::vector<std::vector<std::uint32_t>> streams_;
  std::vector<std::vector<pb::SimOp>> sim_;
  Metrics e2e_, layer_;
  std::uint64_t attempted_ = 0, failed_ = 0;
  double check_s_ = 0;
  std::unique_ptr<pb::Machine> first_;  ///< reference Omega run
  std::vector<double> par_walls_;       ///< every run_parallel wall time
  double omega_spent_ = 0;
  bool omega_stuck_ = false;
  std::map<std::string, Pool> pools_;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string_view build = PERFBENCH_BUILD_TYPE;
  if (!kOptimised || (build != "Release" && build != "RelWithDebInfo")) {
    std::fprintf(stderr,
                 "perfbench: refusing to report from a non-optimised build "
                 "(build type '%s'); configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  Options o;
  if (!parse(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <hot_counter|spread_counter|"
                 "coord_mix> --seed <n> --seconds <1..600> --trace <0|1> "
                 "[--trace-dir <dir>]\n");
    return 2;
  }
  const unsigned nproc = host_cpus();
  const unsigned threads = std::min(kMaxThreads, nproc);
  std::printf("host {\"nproc\": %u, \"threads\": %u, \"compiler\": \"%s\", "
              "\"build_type\": \"%s\", \"seed\": %llu, \"workload\": \"%s\", "
              "\"seconds\": %g, \"trace\": %d}\n",
              nproc, threads, kCompiler, PERFBENCH_BUILD_TYPE,
              static_cast<unsigned long long>(o.seed),
              std::string(pb::name_of(o.workload)).c_str(), o.seconds,
              o.trace ? 1 : 0);
  std::fflush(stdout);
  return Bench(o, threads).run();
}
