// Self-tests of the benchmark's own code: exact percentiles, the output
// checks (a racy backend must fail them), and seeded stream generation.
#include <gtest/gtest.h>

#include <array>
#include <thread>

#include "omega.hpp"
#include "stats.hpp"
#include "substrates.hpp"
#include "workload.hpp"

namespace pb = perfbench;

// ---- percentiles -----------------------------------------------------------

TEST(Percentiles, NearestRankMatchesHandComputedSamples) {
  pb::LatencyHist h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.add(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.quantile(0.5), 50u);    // rank ceil(50) = 50
  EXPECT_EQ(h.quantile(0.99), 99u);   // rank ceil(99) = 99
  EXPECT_EQ(h.quantile(0.999), 100u); // rank ceil(99.9) = 100
  EXPECT_EQ(h.quantile(0.01), 1u);
  EXPECT_EQ(h.quantile(0.505), 51u);  // rank ceil(50.5) = 51
}

TEST(Percentiles, LongTimesStayExact) {
  pb::LatencyHist h;
  // 7 short times and 3 beyond the dense range: 5, 5, 6, 7, 7, 7, 9,
  // 20000, 30001, 1000000.
  for (std::uint64_t v :
       {7u, 20000u, 5u, 1000000u, 7u, 6u, 30001u, 9u, 5u, 7u}) {
    h.add(v);
  }
  EXPECT_EQ(h.quantile(0.5), 7u);      // rank 5
  EXPECT_EQ(h.quantile(0.7), 9u);      // rank 7
  EXPECT_EQ(h.quantile(0.8), 20000u);  // rank 8
  EXPECT_EQ(h.quantile(0.9), 30001u);  // rank 9
  EXPECT_EQ(h.quantile(0.95), 1000000u);

  pb::LatencyHist other;
  other.add(3);
  other.add(40000);
  h.merge(other);
  EXPECT_EQ(h.count(), 12u);
  EXPECT_EQ(h.quantile(1.0 / 12), 3u);
  // Ranks 9..12 hold 20000, 30001, 40000, 1000000.
  EXPECT_EQ(h.quantile(10.0 / 12), 30001u);
}

TEST(Percentiles, TailLevelLeavesTenSamplesBeyond) {
  EXPECT_EQ(pb::tail_level(99), 0.5);
  EXPECT_DOUBLE_EQ(pb::tail_level(100), 0.9);      // 10 beyond rank 90
  EXPECT_DOUBLE_EQ(pb::tail_level(999), 0.9);      // p99 leaves only 9
  EXPECT_DOUBLE_EQ(pb::tail_level(1000), 0.99);
  EXPECT_NEAR(pb::tail_level(123456), 0.9999, 1e-12);
  EXPECT_EQ(pb::level_label(0.99), "p99");
  EXPECT_EQ(pb::level_label(1 - 1e-3), "p99.9");
}

TEST(Percentiles, MidQuantileInterpolatesTiedIntegers) {
  // Values 1,1,2,2,2,3: F_mid(1) = 1/6, F_mid(2) = 3.5/6, F_mid(3) = 5.5/6.
  const std::vector<int> v{1, 1, 2, 2, 2, 3};
  EXPECT_DOUBLE_EQ(pb::mid_quantile(v, 0.5), 1.8);   // 1 + (0.5-1/6)/(2.5/6)
  EXPECT_DOUBLE_EQ(pb::mid_quantile(v, 0.75), 2.5);  // 2 + (0.75-3.5/6)/(2/6)
  EXPECT_DOUBLE_EQ(pb::mid_quantile(v, 0.99), 3.0);  // past the last F_mid
  EXPECT_DOUBLE_EQ(pb::mid_quantile(v, 0.1), 1.0);   // before the first
  EXPECT_DOUBLE_EQ(pb::mid_quantile(std::vector<int>{4, 4, 4}, 0.99), 4.0);
}

TEST(Percentiles, MedianOfEvenAndOddSamples) {
  EXPECT_EQ(pb::median({3, 1, 2}), 2);
  EXPECT_EQ(pb::median({4, 1, 3, 2}), 2.5);
  const std::vector<int> ten{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(pb::nearest_rank(ten, 0.99), 10);
}

// ---- output checks ---------------------------------------------------------

/// fetch_add as a separate load and store: concurrent callers lose updates
/// and hand out the same prior twice. The yield widens the window so the
/// race shows on any core count.
class RacyBackend {
 public:
  struct Cell {
    Cell(const RacyBackend&, pb::Word v) : word(v) {}
    Cell(const Cell&) = delete;
    Cell& operator=(const Cell&) = delete;
    std::atomic<pb::Word> word;
  };
  pb::Word fetch_add(Cell& c, pb::Word v) const {
    const pb::Word old = c.word.load();
    std::this_thread::yield();
    c.word.store(old + v);
    return old;
  }
  pb::Word load(const Cell& c) const { return c.word.load(); }
};

pb::Streams streams(pb::Workload w, unsigned n) {
  pb::Streams s;
  for (unsigned t = 0; t < n; ++t) s.push_back(pb::make_stream(w, 1, t, 4096));
  return s;
}

TEST(Checks, RacyBackendDrivesErrorRateAboveZero) {
  pb::Trace trace(false);
  const auto r = pb::counter_phase(RacyBackend{}, pb::kHotCells,
                                   streams(pb::Workload::kHotCounter, 4), true,
                                   0.3, 42, trace, 0);
  EXPECT_GT(r.check.attempted, 0u);
  EXPECT_GT(r.check.failed, 0u);
}

TEST(Checks, AtomicBackendPassesTicketCheck) {
  pb::Trace trace(false);
  const auto r = pb::counter_phase(pb::Atomic{}, pb::kHotCells,
                                   streams(pb::Workload::kHotCounter, 4), true,
                                   0.3, 42, trace, 0);
  EXPECT_GT(r.check.attempted, 0u);
  EXPECT_EQ(r.check.failed, 0u);
}

TEST(Checks, CoordMixPassesOnTheCombiningTree) {
  pb::Trace trace(false);
  const auto r = pb::coord_phase(
      pb::Tree(4), streams(pb::Workload::kCoordMix, 4), 0.3, true, trace, 0);
  EXPECT_GT(r.check.attempted, 0u);
  EXPECT_EQ(r.check.failed, 0u);
}

TEST(Checks, QueueMismatchesCountMissingAndDuplicateItems) {
  const pb::Word a0 = 0, a1 = 1, b0 = pb::Word{1} << 40;
  EXPECT_EQ(pb::queue_mismatches({{a0, b0}, {a1}}, {2, 1}), 0u);
  // a0 twice, a1 never.
  EXPECT_EQ(pb::queue_mismatches({{a0, a0}, {b0}}, {2, 1}), 2u);
}

std::vector<std::vector<pb::SimOp>> sim_streams(pb::Workload w,
                                                std::uint64_t seed) {
  std::vector<std::vector<pb::SimOp>> s;
  for (std::uint32_t p = 0; p < (1u << pb::kLog2Procs); ++p) {
    s.push_back(pb::make_sim_stream(w, seed, p, 40));
  }
  return s;
}

TEST(Checks, OmegaRunsReproduceAcrossEngineWorkersAndPassM2) {
  for (auto w : {pb::Workload::kHotCounter, pb::Workload::kCoordMix}) {
    const auto streams = sim_streams(w, 5);
    pb::SpanLog log(0, false);
    auto par = pb::build_machine(streams);
    auto seq = pb::build_machine(streams);
    ASSERT_GT(pb::run_chunked(*par, 4, log, 0), 0);
    ASSERT_GT(pb::run_chunked(*seq, 1, log, 0), 0);
    std::size_t ops = 0;  // coord_mix streams differ in length
    for (const auto& st : streams) ops += st.size();
    EXPECT_EQ(par->completed().size(), ops);
    EXPECT_EQ(pb::run_mismatches(*par, *seq), 0u);
    const auto res = krs::verify::check_machine(*par, pb::Word{0});
    EXPECT_TRUE(res.ok) << res.error;

    const auto other_streams = sim_streams(w, 6);  // outlives the machine
    auto other = pb::build_machine(other_streams);
    ASSERT_GT(pb::run_chunked(*other, 4, log, 0), 0);
    EXPECT_GT(pb::run_mismatches(*par, *other), 0u);
  }
}

// ---- streams ---------------------------------------------------------------

TEST(Streams, SameSeedSameStreamsOtherSeedOtherStreams) {
  for (auto w : {pb::Workload::kHotCounter, pb::Workload::kSpreadCounter,
                 pb::Workload::kCoordMix}) {
    EXPECT_EQ(pb::make_stream(w, 7, 0, 1000), pb::make_stream(w, 7, 0, 1000));
    EXPECT_NE(pb::make_stream(w, 7, 0, 1000), pb::make_stream(w, 8, 0, 1000));
    EXPECT_NE(pb::make_stream(w, 7, 0, 1000), pb::make_stream(w, 7, 1, 1000));
    const auto a = pb::make_sim_stream(w, 7, 3, 500);
    const auto b = pb::make_sim_stream(w, 7, 3, 500);
    const auto c = pb::make_sim_stream(w, 8, 3, 500);
    ASSERT_EQ(a.size(), b.size());
    bool same_ab = true, same_ac = a.size() == c.size();
    for (std::size_t i = 0; i < a.size(); ++i) {
      same_ab = same_ab && a[i].addr == b[i].addr && a[i].f == b[i].f;
      if (same_ac) same_ac = a[i].addr == c[i].addr && a[i].f == c[i].f;
    }
    EXPECT_TRUE(same_ab);
    EXPECT_FALSE(same_ac);
  }
}

TEST(Streams, HotCounterHasThePfisterNortonMixture) {
  const auto s = pb::make_stream(pb::Workload::kHotCounter, 3, 0, 100000);
  std::size_t hot = 0;
  for (auto c : s) {
    ASSERT_LT(c, pb::kHotCells);
    hot += c == 0;
  }
  EXPECT_NEAR(static_cast<double>(hot) / s.size(), 0.9, 0.01);
}

TEST(Streams, CoordMixIsThreeReadsToOneOfEachOtherKind) {
  const auto s = pb::make_stream(pb::Workload::kCoordMix, 3, 0, 120000);
  std::array<std::size_t, pb::kKinds> n{};
  for (auto k : s) {
    ASSERT_LT(k, pb::kEnqueue);
    ++n[k];
  }
  const double len = static_cast<double>(s.size());
  EXPECT_NEAR(n[pb::kRead] / len, 3.0 / 6, 0.01);
  EXPECT_NEAR(n[pb::kWrite] / len, 1.0 / 6, 0.01);
  EXPECT_NEAR(n[pb::kQueuePair] / len, 1.0 / 6, 0.01);
  EXPECT_NEAR(n[pb::kPv] / len, 1.0 / 6, 0.01);
}
