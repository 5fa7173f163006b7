// Cross-module property tests: invariants that must hold across parameter
// sweeps — collection search correctness under arbitrary segment layouts,
// the dynamic-lifecycle oracle harness (randomized insert/delete/search
// sequences against a brute-force live-set reference, across seal and
// compaction boundaries), index recall monotonicity, HNSW prune decision
// reuse, hypervolume monotonicity, NPI/EHVI sanity, cost-model
// monotonicities, and failure-injection paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>
#include <utility>

#include "index/hnsw_index.h"
#include "mobo/ehvi.h"
#include "mobo/hypervolume.h"
#include "tests/test_util.h"
#include "tuner/evaluator.h"
#include "workload/replay.h"

namespace vdt {
namespace {

using testing_util::ClusteredMatrix;
using testing_util::RandomMatrix;

// ---------------------------------------------------------------- layouts

struct LayoutCase {
  double max_size_mb;
  double seal_proportion;
  double buf_mb;
  int threshold;
};

class CollectionLayoutTest : public ::testing::TestWithParam<LayoutCase> {};

// Whatever the segment layout, a FLAT collection must return exactly the
// global brute-force answer (segmentation must never lose results).
TEST_P(CollectionLayoutTest, FlatSearchIsExactUnderAnyLayout) {
  const LayoutCase lc = GetParam();
  const size_t n = 1000, dim = 16, k = 12;
  FloatMatrix data = RandomMatrix(n, dim, 101);

  CollectionOptions opts;
  opts.metric = Metric::kAngular;
  opts.scale.dataset_mb = 100.0;
  opts.scale.actual_rows = n;
  opts.index.type = IndexType::kFlat;
  opts.system.segment_max_size_mb = lc.max_size_mb;
  opts.system.seal_proportion = lc.seal_proportion;
  opts.system.insert_buf_size_mb = lc.buf_mb;
  opts.system.build_index_threshold = lc.threshold;
  Collection coll(opts);
  ASSERT_TRUE(coll.Insert(data).ok());
  ASSERT_TRUE(coll.Flush().ok());

  FloatMatrix queries = RandomMatrix(8, dim, 102);
  for (size_t q = 0; q < queries.rows(); ++q) {
    const auto expected =
        BruteForceSearch(data, Metric::kAngular, queries.Row(q), k, nullptr);
    const auto got = coll.Search(queries.Row(q), k, nullptr);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, expected[i].id) << "query " << q << " rank " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, CollectionLayoutTest,
    ::testing::Values(LayoutCase{2048, 1.0, 256, 32},   // one giant segment
                      LayoutCase{100, 0.1, 1.0, 32},    // many small segments
                      LayoutCase{100, 0.1, 1.0, 4096},  // nothing indexed
                      LayoutCase{64, 0.05, 0.5, 32},    // tiny everything
                      LayoutCase{512, 0.12, 16, 128})); // Milvus defaults

// Total rows are preserved and ids are unique under any layout.
TEST_P(CollectionLayoutTest, IdsArePreservedAndUnique) {
  const LayoutCase lc = GetParam();
  const size_t n = 600, dim = 8;
  FloatMatrix data = RandomMatrix(n, dim, 103);

  CollectionOptions opts;
  opts.metric = Metric::kAngular;
  opts.scale.dataset_mb = 100.0;
  opts.scale.actual_rows = n;
  opts.index.type = IndexType::kFlat;
  opts.system.segment_max_size_mb = lc.max_size_mb;
  opts.system.seal_proportion = lc.seal_proportion;
  opts.system.insert_buf_size_mb = lc.buf_mb;
  opts.system.build_index_threshold = lc.threshold;
  Collection coll(opts);
  ASSERT_TRUE(coll.Insert(data).ok());
  ASSERT_TRUE(coll.Flush().ok());
  EXPECT_EQ(coll.Stats().total_rows, n);

  // Self-query: every stored vector must find itself (distance ~0).
  std::set<int64_t> found;
  for (size_t i = 0; i < n; i += 37) {
    const auto hits = coll.Search(data.Row(i), 1, nullptr);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].id, static_cast<int64_t>(i));
    EXPECT_LT(hits[0].distance, 1e-5f);
    found.insert(hits[0].id);
  }
  EXPECT_EQ(found.size(), (n + 36) / 37);
}

// --------------------------------------------- dynamic lifecycle oracle

// Brute-force reference over the live set: an independent mirror of what
// the collection should contain. Deliberately reimplements top-k with a
// plain sort (no TopKCollector, no RowFilter) so the oracle shares no code
// path with the system under test.
class LiveSetOracle {
 public:
  LiveSetOracle(const FloatMatrix* data, Metric metric)
      : data_(data), metric_(metric), state_(data->rows(), 0) {}

  void Insert(size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) state_[i] = 1;
  }
  void Delete(int64_t id) {
    if (id >= 0 && id < static_cast<int64_t>(state_.size())) state_[id] = 2;
  }
  bool IsLive(int64_t id) const {
    return id >= 0 && id < static_cast<int64_t>(state_.size()) &&
           state_[id] == 1;
  }
  size_t live() const {
    size_t n = 0;
    for (const uint8_t s : state_) n += s == 1 ? 1 : 0;
    return n;
  }
  std::vector<int64_t> LiveIds() const {
    std::vector<int64_t> ids;
    for (size_t i = 0; i < state_.size(); ++i) {
      if (state_[i] == 1) ids.push_back(static_cast<int64_t>(i));
    }
    return ids;
  }

  /// Exact top-k ids over the live set, distance-ascending (ties by id).
  std::vector<int64_t> TopK(const float* query, size_t k) const {
    std::vector<std::pair<float, int64_t>> scored;
    for (size_t i = 0; i < state_.size(); ++i) {
      if (state_[i] != 1) continue;
      scored.emplace_back(
          Distance(metric_, query, data_->Row(i), data_->dim()),
          static_cast<int64_t>(i));
    }
    std::sort(scored.begin(), scored.end());
    if (scored.size() > k) scored.resize(k);
    std::vector<int64_t> ids;
    ids.reserve(scored.size());
    for (const auto& [d, id] : scored) ids.push_back(id);
    return ids;
  }

 private:
  const FloatMatrix* data_;
  Metric metric_;
  std::vector<uint8_t> state_;  // 0 = not inserted, 1 = live, 2 = deleted
};

class LifecycleOracleTest
    : public ::testing::TestWithParam<std::tuple<IndexType, uint64_t>> {};

// Randomized insert/delete/search sequences, checked step by step against
// the brute-force live-set oracle, across seal and compaction boundaries.
// Hard invariants for every index type: no tombstoned id ever surfaces, and
// never more than min(k, live) results. FLAT must match the oracle exactly;
// the ANN types must keep mean live-set recall above a tolerance.
TEST_P(LifecycleOracleTest, FilteredSearchMatchesLiveSetOracle) {
  const auto [type, seed] = GetParam();
  const size_t n = 1600, dim = 16, k = 10;
  const FloatMatrix data = ClusteredMatrix(n, dim, 10, 0.3, seed);
  const FloatMatrix queries = ClusteredMatrix(12, dim, 10, 0.33, seed ^ 0x9);

  CollectionOptions opts;
  opts.metric = Metric::kAngular;
  opts.scale.dataset_mb = 100.0;
  opts.scale.actual_rows = n;
  opts.index.type = type;
  // Generous search effort so ANN recall stays near-exact; the harness is
  // probing lifecycle correctness, not recall/speed tradeoffs.
  opts.index.params.nlist = 12;
  opts.index.params.nprobe = 12;
  opts.index.params.m = 8;
  opts.index.params.nbits = 8;
  opts.index.params.hnsw_m = 16;
  opts.index.params.ef_construction = 128;
  opts.index.params.ef = 96;
  opts.index.params.reorder_k = 120;
  // Layout: ~240-row sealed segments, 40-row insert buffer, everything
  // above 32 rows indexed, compaction at >25% tombstoned.
  opts.system.segment_max_size_mb = 100.0;
  opts.system.seal_proportion = 0.15;
  opts.system.insert_buf_size_mb = 2.5;
  opts.system.build_index_threshold = 32;
  opts.system.compaction_deleted_ratio = 0.25;
  opts.seed = seed;
  Collection coll(opts);
  LiveSetOracle oracle(&data, Metric::kAngular);
  Rng rng(seed ^ static_cast<uint64_t>(type));

  double recall_sum = 0.0;
  size_t searches = 0;
  auto check_searches = [&]() {
    for (size_t q = 0; q < queries.rows(); q += 3) {
      const auto got = coll.Search(queries.Row(q), k, nullptr);
      const auto expected = oracle.TopK(queries.Row(q), k);
      const size_t live = oracle.live();
      ASSERT_LE(got.size(), std::min(k, live));
      for (const Neighbor& hit : got) {
        ASSERT_TRUE(oracle.IsLive(hit.id))
            << "tombstoned or never-inserted id " << hit.id << " surfaced";
      }
      if (type == IndexType::kFlat) {
        ASSERT_EQ(got.size(), expected.size());
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].id, expected[i]) << "rank " << i;
        }
      } else if (!expected.empty()) {
        const std::set<int64_t> truth(expected.begin(), expected.end());
        size_t found = 0;
        for (const Neighbor& hit : got) found += truth.count(hit.id);
        recall_sum +=
            static_cast<double>(found) / static_cast<double>(truth.size());
        ++searches;
      }
    }
  };

  // Mixed timeline: insert chunks, delete random live samples, search after
  // every step. Segment seals and compactions trigger inline as the knobs
  // dictate.
  size_t pos = 0;
  while (pos < n) {
    const size_t chunk =
        std::min(n - pos, 50 + static_cast<size_t>(rng.UniformInt(150)));
    ASSERT_TRUE(coll.Insert(data.Slice(pos, pos + chunk)).ok());
    oracle.Insert(pos, pos + chunk);
    pos += chunk;

    if (rng.Uniform() < 0.7) {
      auto live_ids = oracle.LiveIds();
      rng.Shuffle(&live_ids);
      const size_t want = static_cast<size_t>(
          static_cast<double>(live_ids.size()) *
          rng.Uniform(0.05, 0.2));
      live_ids.resize(want);
      ASSERT_TRUE(coll.Delete(live_ids).ok());
      for (const int64_t id : live_ids) oracle.Delete(id);
    }
    check_searches();
  }

  // Seal boundary: flush everything, re-check.
  ASSERT_TRUE(coll.Flush().ok());
  check_searches();

  // Compaction boundary: delete enough to trip the threshold everywhere,
  // force the pass, re-check.
  auto live_ids = oracle.LiveIds();
  rng.Shuffle(&live_ids);
  live_ids.resize(live_ids.size() / 2);
  ASSERT_TRUE(coll.Delete(live_ids).ok());
  for (const int64_t id : live_ids) oracle.Delete(id);
  size_t compacted = 0;
  ASSERT_TRUE(coll.Compact(&compacted).ok());
  check_searches();

  const CollectionStats stats = coll.Stats();
  EXPECT_EQ(stats.live_rows, oracle.live());
  EXPECT_GT(stats.num_compactions, 0u);
  if (type != IndexType::kFlat) {
    ASSERT_GT(searches, 0u);
    // PQ's ADC scoring is lossy by design; every other ANN type runs at
    // near-exhaustive effort here.
    const double tolerance = type == IndexType::kIvfPq ? 0.8 : 0.9;
    EXPECT_GE(recall_sum / static_cast<double>(searches), tolerance);
  }
}

INSTANTIATE_TEST_SUITE_P(
    TypesAndSeeds, LifecycleOracleTest,
    ::testing::Combine(::testing::Values(IndexType::kFlat, IndexType::kIvfFlat,
                                         IndexType::kIvfSq8, IndexType::kIvfPq,
                                         IndexType::kHnsw, IndexType::kScann),
                       ::testing::Values(201u, 202u)),
    [](const ::testing::TestParamInfo<std::tuple<IndexType, uint64_t>>& info) {
      return std::string(IndexTypeName(std::get<0>(info.param))) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// --------------------------------------------------------- hypervolume

class HvMonotoneTest : public ::testing::TestWithParam<uint64_t> {};

// Adding any point never decreases hypervolume; adding a dominated point
// never increases it.
TEST_P(HvMonotoneTest, AdditionMonotonicity) {
  Rng rng(GetParam());
  std::vector<Point2> pts;
  for (int i = 0; i < 12; ++i) {
    pts.push_back({rng.Uniform(0.1, 3.0), rng.Uniform(0.1, 3.0)});
  }
  const Point2 ref = {0, 0};
  double hv = Hypervolume2D(pts, ref);
  for (int i = 0; i < 8; ++i) {
    const Point2 extra = {rng.Uniform(0.1, 3.0), rng.Uniform(0.1, 3.0)};
    pts.push_back(extra);
    const double hv2 = Hypervolume2D(pts, ref);
    EXPECT_GE(hv2, hv - 1e-12);
    hv = hv2;
  }
  // A point below the reference changes nothing.
  pts.push_back({-1.0, -1.0});
  EXPECT_NEAR(Hypervolume2D(pts, ref), hv, 1e-12);
}

// EHVI of a point deep inside the dominated region tends to zero; EHVI of a
// clear improver approximates its deterministic HVI as variance shrinks.
TEST_P(HvMonotoneTest, EhviLimits) {
  Rng rng(GetParam() ^ 0xE);
  std::vector<Point2> raw;
  for (int i = 0; i < 6; ++i) {
    raw.push_back({rng.Uniform(1.0, 2.0), rng.Uniform(1.0, 2.0)});
  }
  const auto front = ParetoFront(raw);
  const Point2 ref = {0, 0};

  BivariateGaussian dominated{0.2, 0.01, 0.2, 0.01};
  EXPECT_LT(EhviQuadrature(dominated, front, ref), 1e-6);

  const Point2 improver = {2.5, 2.5};
  BivariateGaussian sharp{improver[0], 1e-6, improver[1], 1e-6};
  EXPECT_NEAR(EhviQuadrature(sharp, front, ref),
              HypervolumeImprovement2D(improver, front, ref), 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HvMonotoneTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --------------------------------------------------------- cost model

class CostMonotoneTest : public ::testing::TestWithParam<int> {};

// QPS is monotone non-increasing in every work counter.
TEST_P(CostMonotoneTest, QpsMonotoneInWork) {
  const int which = GetParam();
  CostModelParams params;
  SystemConfig sys;
  CollectionStats stats;
  stats.num_sealed_segments = 4;

  WorkCounters base;
  base.full_distance_evals = 5000;
  base.coarse_distance_evals = 500;
  base.code_distance_evals = 2000;
  base.pq_lookup_ops = 10000;
  base.graph_hops = 300;
  base.table_build_flops = 4000;

  WorkCounters heavier = base;
  switch (which) {
    case 0: heavier.full_distance_evals *= 3; break;
    case 1: heavier.coarse_distance_evals *= 3; break;
    case 2: heavier.code_distance_evals *= 3; break;
    case 3: heavier.pq_lookup_ops *= 3; break;
    case 4: heavier.graph_hops *= 3; break;
    case 5: heavier.table_build_flops *= 3; break;
  }
  EXPECT_GT(ComputeQps(params, base, 64, 48, stats, sys, 10),
            ComputeQps(params, heavier, 64, 48, stats, sys, 10));
}

INSTANTIATE_TEST_SUITE_P(Counters, CostMonotoneTest, ::testing::Range(0, 6));

// ----------------------------------------------------- failure injection

// Every infeasible-parameter path surfaces as a failed evaluation (never a
// crash, never silent success).
TEST(FailureInjectionTest, InfeasibleConfigsFailCleanly) {
  const auto data = GenerateDataset(DatasetProfile::kGlove, 700, 24, 7);
  const auto workload = MakeWorkload(DatasetProfile::kGlove, data, 6, 10, 7);
  VdmsEvaluatorOptions opts;
  opts.profile = DatasetProfile::kGlove;
  VdmsEvaluator evaluator(&data, &workload, opts);
  ParamSpace space;

  // PQ m does not divide dim=24.
  {
    TuningConfig c = space.DefaultConfig(IndexType::kIvfPq);
    c.index.m = 5;
    const EvalOutcome out = evaluator.Evaluate(c);
    EXPECT_TRUE(out.failed);
    EXPECT_FALSE(out.fail_reason.empty());
  }
  // HNSW M below the validity floor.
  {
    TuningConfig c = space.DefaultConfig(IndexType::kHnsw);
    c.index.hnsw_m = 1;
    const EvalOutcome out = evaluator.Evaluate(c);
    EXPECT_TRUE(out.failed);
  }
  // Throughput below the replay timeout floor: strangled concurrency on an
  // exhaustive index.
  {
    TuningConfig c = space.DefaultConfig(IndexType::kFlat);
    c.system.max_read_concurrency = 1;
    c.system.graceful_time_ms = 0.0;
    const EvalOutcome out = evaluator.Evaluate(c);
    EXPECT_TRUE(out.failed) << "qps=" << out.qps;
  }
  // A failed evaluation still reports simulated time (the paper's 15-minute
  // cap burns budget).
  {
    TuningConfig c = space.DefaultConfig(IndexType::kIvfPq);
    c.index.m = 5;
    const EvalOutcome out = evaluator.Evaluate(c);
    EXPECT_GT(out.eval_seconds, 0.0);
  }
}

// ---------------------------------------------- HNSW prune decision reuse

// An adjacency list evolves as the HNSW build drives it: an initial
// selection, then new links appended one to three at a time, re-pruned
// whenever the list overflows. Every prune reuses the decisions the list's
// last run recorded; it must select exactly what a from-scratch run of the
// same routine selects over the same links — same ids, same order, same
// kept count. Low dimensions and duplicated rows (exact distance ties)
// make decisions flip often.
TEST(HnswPruneReuseTest, ReusedDecisionsMatchFromScratch) {
  using Candidate = HnswIndex::Candidate;
  using Decision = Candidate::Decision;
  size_t prunes = 0;
  for (uint64_t seed = 1; seed <= 48; ++seed) {
    Rng rng(seed);
    const size_t rows = 400;
    const size_t dim = 2 + static_cast<size_t>(rng.UniformInt(9));
    const Metric metric = seed % 2 == 0 ? Metric::kL2 : Metric::kAngular;
    FloatMatrix data = seed % 3 == 0
                           ? ClusteredMatrix(rows, dim, 6, 0.2, seed)
                           : RandomMatrix(rows, dim, seed);
    for (int copies = 0; copies < 40; ++copies) {
      const size_t from = static_cast<size_t>(rng.UniformInt(rows));
      const size_t to = static_cast<size_t>(rng.UniformInt(rows));
      std::copy_n(data.Row(from), dim, data.Row(to));
    }
    const uint32_t owner = 0;
    const size_t max_m = 2 + static_cast<size_t>(rng.UniformInt(30));
    std::vector<uint32_t> pool(rows - 1);
    for (uint32_t id = 1; id < rows; ++id) pool[id - 1] = id;
    rng.Shuffle(&pool);
    size_t next = 0;
    auto draw = [&] {
      const uint32_t id = pool[next++];
      const float d = Distance(metric, data.Row(owner), data.Row(id), dim);
      return Candidate{id, d};
    };

    std::vector<Candidate> list;
    const size_t initial = 1 + static_cast<size_t>(rng.UniformInt(3 * max_m));
    for (size_t j = 0; j < initial; ++j) list.push_back(draw());
    std::sort(list.begin(), list.end());
    HnswIndex::SelectNeighbors(metric, data, &list, max_m);

    while (next + 3 <= pool.size()) {
      const size_t added = 1 + static_cast<size_t>(rng.UniformInt(3));
      for (size_t j = 0; j < added; ++j) list.push_back(draw());
      if (list.size() <= max_m) continue;
      // The recorded decisions ride along through the sort.
      std::sort(list.begin(), list.end());
      std::vector<Candidate> scratch = list;
      for (Candidate& c : scratch) c.recorded = Decision::kNone;
      const size_t kept =
          HnswIndex::SelectNeighbors(metric, data, &list, max_m);
      const size_t kept_scratch =
          HnswIndex::SelectNeighbors(metric, data, &scratch, max_m);
      ++prunes;
      ASSERT_EQ(kept, kept_scratch) << "seed " << seed;
      ASSERT_EQ(list.size(), scratch.size()) << "seed " << seed;
      for (size_t j = 0; j < list.size(); ++j) {
        ASSERT_EQ(list[j].id, scratch[j].id) << "seed " << seed << " " << j;
        ASSERT_EQ(list[j].recorded, scratch[j].recorded) << "seed " << seed;
      }
    }
  }
  EXPECT_GT(prunes, 5000u);
}

// ------------------------------------------------------------- replay k

class RecallEffortTest : public ::testing::TestWithParam<int> {};

// More probes never hurt collection-level recall (within noise): sweeps
// nprobe across the whole range on one layout.
TEST_P(RecallEffortTest, CollectionRecallMonotoneInNprobe) {
  const auto data = GenerateDataset(DatasetProfile::kKeywordMatch, 1200, 24, 9);
  const auto workload =
      MakeWorkload(DatasetProfile::kKeywordMatch, data, 10, 32, 9);
  VdmsEvaluatorOptions opts;
  opts.profile = DatasetProfile::kKeywordMatch;
  VdmsEvaluator evaluator(&data, &workload, opts);
  ParamSpace space;

  const int nprobe_lo = GetParam();
  const int nprobe_hi = nprobe_lo * 4;
  TuningConfig c = space.DefaultConfig(IndexType::kIvfFlat);
  c.index.nlist = 64;
  c.system.build_index_threshold = 32;

  c.index.nprobe = nprobe_lo;
  const EvalOutcome lo = evaluator.Evaluate(c);
  c.index.nprobe = nprobe_hi;
  const EvalOutcome hi = evaluator.Evaluate(c);
  ASSERT_FALSE(lo.failed);
  ASSERT_FALSE(hi.failed);
  EXPECT_GE(hi.recall + 1e-9, lo.recall);
  EXPECT_LE(hi.qps, lo.qps * 1.05);
}

INSTANTIATE_TEST_SUITE_P(Probes, RecallEffortTest, ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace vdt
