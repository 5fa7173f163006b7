// Sequential-vs-parallel Build() parity: every index type must produce
// bit-identical structures for every build_threads value, and HNSW graphs
// must match their golden digests at every width. Also covers the chunked
// kmeans/scatter primitives, the n < threads and odd-dim edge cases, the
// collection-level plumbing, and the named build error messages.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "common/parallel_executor.h"
#include "index/index.h"
#include "index/index_io.h"
#include "index/ivf_index.h"
#include "index/kernels/kernels.h"
#include "index/kmeans.h"
#include "tests/test_util.h"
#include "tuner/evaluator.h"
#include "vdms/collection.h"
#include "workload/churn.h"
#include "workload/datasets.h"
#include "workload/workload.h"

namespace vdt {
namespace {

using testing_util::BackendGuard;
using testing_util::ClusteredMatrix;
using testing_util::Fnv1a64;
using testing_util::RandomMatrix;


// Bit-exact matrix comparison (the determinism contract is exact, not
// approximate: the parallel passes must reproduce the sequential floats).
bool BitIdentical(const FloatMatrix& a, const FloatMatrix& b) {
  if (a.rows() != b.rows() || a.dim() != b.dim()) return false;
  if (a.rows() == 0) return true;
  return std::memcmp(a.data().data(), b.data().data(),
                     a.rows() * a.dim() * sizeof(float)) == 0;
}

// Builds `type` over `data` with the given build_threads.
std::unique_ptr<VectorIndex> BuildWith(IndexType type, const FloatMatrix& data,
                                       int build_threads,
                                       int nlist = 16, int m = 4) {
  IndexParams params;
  params.nlist = nlist;
  params.nprobe = nlist;  // exhaustive probing: searches see every list
  params.m = m;
  params.nbits = 6;
  params.hnsw_m = 12;
  params.ef_construction = 96;
  params.ef = 64;
  params.reorder_k = 64;
  params.build_threads = build_threads;
  auto index = CreateIndex(type, Metric::kAngular, params, 11);
  EXPECT_NE(index, nullptr);
  EXPECT_TRUE(index->Build(data).ok()) << IndexTypeName(type);
  return index;
}

// Expects bit-identical search behavior (ids, distances, counters) from two
// indexes over the same queries — the observable form of "identical
// centroids/assignments/codes".
void ExpectIdenticalSearches(const VectorIndex& a, const VectorIndex& b,
                             const FloatMatrix& queries, size_t k) {
  WorkCounters wa, wb;
  for (size_t q = 0; q < queries.rows(); ++q) {
    const auto ha = a.Search(queries.Row(q), k, &wa);
    const auto hb = b.Search(queries.Row(q), k, &wb);
    ASSERT_EQ(ha.size(), hb.size()) << "query " << q;
    for (size_t i = 0; i < ha.size(); ++i) {
      EXPECT_EQ(ha[i].id, hb[i].id) << "query " << q << " rank " << i;
      EXPECT_EQ(ha[i].distance, hb[i].distance)
          << "query " << q << " rank " << i;
    }
  }
  EXPECT_EQ(wa.Total(), wb.Total());
}

// ------------------------------------------------------- kmeans primitives

TEST(KMeansParityTest, CentroidsBitIdenticalAcrossExecutorWidths) {
  // 3000 rows spans several 1024-row chunks, so the merge order matters.
  FloatMatrix data = ClusteredMatrix(3000, 17, 12, 0.3, 5);  // odd dim
  KMeansOptions seq;
  seq.seed = 9;
  const KMeansResult a = KMeansCluster(data, 24, seq);

  for (size_t threads : {2u, 4u, 7u}) {
    ParallelExecutor executor(threads);
    KMeansOptions par = seq;
    par.executor = &executor;
    const KMeansResult b = KMeansCluster(data, 24, par);
    EXPECT_TRUE(BitIdentical(a.centroids, b.centroids)) << threads;
    EXPECT_EQ(a.assignments, b.assignments) << threads;
  }
}

TEST(KMeansParityTest, FewerPointsThanThreads) {
  FloatMatrix data = RandomMatrix(3, 7, 6);  // n = 3, odd dim
  ParallelExecutor executor(8);
  KMeansOptions seq, par;
  seq.seed = par.seed = 4;
  par.executor = &executor;
  const KMeansResult a = KMeansCluster(data, 2, seq);
  const KMeansResult b = KMeansCluster(data, 2, par);
  EXPECT_TRUE(BitIdentical(a.centroids, b.centroids));
  EXPECT_EQ(a.assignments, b.assignments);

  FloatMatrix one = RandomMatrix(1, 5, 7);
  const KMeansResult c = KMeansCluster(one, 8, par);
  EXPECT_EQ(c.centroids.rows(), 1u);  // k clamped to n
  EXPECT_EQ(c.assignments, std::vector<int32_t>{0});
}

TEST(BucketByAssignmentTest, MatchesSequentialScatterOrder) {
  const size_t n = 2500, k = 7;
  std::vector<int32_t> assignments(n);
  Rng rng(3);
  for (size_t i = 0; i < n; ++i) {
    assignments[i] = static_cast<int32_t>(rng.UniformInt(k));
  }
  const auto seq = BucketByAssignment(assignments, k, nullptr);
  std::vector<std::vector<int64_t>> expected(k);
  for (size_t i = 0; i < n; ++i) {
    expected[assignments[i]].push_back(static_cast<int64_t>(i));
  }
  EXPECT_EQ(seq, expected);
  for (size_t threads : {2u, 5u}) {
    ParallelExecutor executor(threads);
    EXPECT_EQ(BucketByAssignment(assignments, k, &executor), expected)
        << threads;
  }
}

// Golden k-means and IVF_PQ outcomes: 64-bit FNV-1a digests of the
// KMeansCluster centroids (float bits) and assignments, and of the IVF_PQ
// SerializeState bytes (coarse centroids, posting lists, PQ codebooks and
// code lists), captured under the scalar backend before k-means assignment
// moved behind the l2_nearest kernel slot. Sub-dimensions span the PQ
// subspaces the tuner trains (dsub 2..48); k = 16 and 256 are the ksub of
// nbits 4 and 8. Every entry must reproduce at both executor widths.
struct GoldenKMeans {
  size_t dsub;
  size_t k;
  int threads;
  uint64_t kmeans_digest;
  uint64_t pq_digest;
};

constexpr GoldenKMeans kGoldenKMeans[] = {
    {2, 16, 1, 0xc3a31c1855b5da4dull, 0x6edc5ab2d5a4db9cull},
    {2, 16, 2, 0xc3a31c1855b5da4dull, 0xb3cc4e3686c6fea7ull},
    {2, 256, 1, 0xfa86f556dd220618ull, 0xc2b73cbb320f2aabull},
    {2, 256, 2, 0xfa86f556dd220618ull, 0x952897b68707c928ull},
    {6, 16, 1, 0x4645b26511307ce7ull, 0xc843dc11923701baull},
    {6, 16, 2, 0x4645b26511307ce7ull, 0xa9550deadd2feec5ull},
    {6, 256, 1, 0x65d20cfd97af1dfaull, 0xc9372de8af31a663ull},
    {6, 256, 2, 0x65d20cfd97af1dfaull, 0xf8d146aed364b580ull},
    {12, 16, 1, 0xd9f8789c40d3cec9ull, 0xd5c51116736bc8baull},
    {12, 16, 2, 0xd9f8789c40d3cec9ull, 0xabfb54488e6ce301ull},
    {12, 256, 1, 0x2b7c6dd9794df044ull, 0x5544821f3d78540dull},
    {12, 256, 2, 0x2b7c6dd9794df044ull, 0x40c73801b06b5072ull},
    {48, 16, 1, 0x7a65d6d0f8a124eaull, 0x6c07403806f6e640ull},
    {48, 16, 2, 0x7a65d6d0f8a124eaull, 0x64fb613d1eddebe3ull},
    {48, 256, 1, 0x9d4c0739f1563c91ull, 0x72a45b1cf9195651ull},
    {48, 256, 2, 0x9d4c0739f1563c91ull, 0x5ad7de8d6e9ba526ull},
};

TEST(KMeansGoldenTest, CentroidsAssignmentsAndPqCodesMatchGoldenDigests) {
  BackendGuard guard;
  ASSERT_TRUE(kernels::SetActive("scalar"));
  constexpr size_t kRows = 1500;
  constexpr int kSubspaces = 4;
  for (const GoldenKMeans& g : kGoldenKMeans) {
    // Glove-profile rows; k-means runs on the first PQ subspace of them.
    const size_t dim = kSubspaces * g.dsub;
    const FloatMatrix data =
        GenerateDataset(DatasetProfile::kGlove, kRows, dim, 91);
    FloatMatrix sub(kRows, g.dsub);
    for (size_t i = 0; i < kRows; ++i) {
      std::copy_n(data.Row(i), g.dsub, sub.Row(i));
    }

    ParallelExecutor executor(static_cast<size_t>(g.threads));
    KMeansOptions options;
    options.seed = 17;
    options.executor = &executor;
    const KMeansResult km = KMeansCluster(sub, g.k, options);
    std::vector<uint8_t> bytes;
    ByteWriter writer(&bytes);
    WriteFloatMatrix(&writer, km.centroids);
    for (const int32_t a : km.assignments) writer.I32(a);

    IndexParams params;
    params.nlist = 8;
    params.m = kSubspaces;
    params.nbits = g.k == 16 ? 4 : 8;
    params.build_threads = g.threads;
    IvfPqIndex pq(Metric::kL2, params, 23);
    ASSERT_TRUE(pq.Build(data).ok());
    std::vector<uint8_t> state;
    ByteWriter state_writer(&state);
    ASSERT_TRUE(pq.SerializeState(&state_writer).ok());

    EXPECT_EQ(Fnv1a64(bytes), g.kmeans_digest)
        << "KMeansCluster dsub=" << g.dsub << " k=" << g.k
        << " threads=" << g.threads;
    EXPECT_EQ(Fnv1a64(state), g.pq_digest)
        << "IVF_PQ dsub=" << g.dsub << " k=" << g.k
        << " threads=" << g.threads;
  }
}

// --------------------------------------------------- index build parity

class BuildParityTest : public ::testing::TestWithParam<IndexType> {};

TEST_P(BuildParityTest, ParallelBuildBitIdenticalToSequential) {
  const IndexType type = GetParam();
  // Odd dim for the non-PQ types; PQ needs dim % m == 0 (m = 4 below).
  const size_t dim = type == IndexType::kIvfPq ? 20 : 23;
  FloatMatrix data = ClusteredMatrix(1400, dim, 10, 0.3, 31);
  FloatMatrix queries = ClusteredMatrix(16, dim, 10, 0.33, 32);

  auto seq = BuildWith(type, data, /*build_threads=*/1);
  for (int threads : {3, 4}) {
    auto par = BuildWith(type, data, threads);
    ExpectIdenticalSearches(*seq, *par, queries, 10);
    EXPECT_EQ(seq->MemoryBytes(), par->MemoryBytes()) << threads;
  }
}

TEST_P(BuildParityTest, FewerRowsThanThreads) {
  const IndexType type = GetParam();
  const size_t dim = type == IndexType::kIvfPq ? 8 : 7;
  FloatMatrix data = RandomMatrix(5, dim, 33);
  FloatMatrix queries = RandomMatrix(3, dim, 34);
  auto seq = BuildWith(type, data, 1, /*nlist=*/8, /*m=*/2);
  auto par = BuildWith(type, data, 8, /*nlist=*/8, /*m=*/2);
  ExpectIdenticalSearches(*seq, *par, queries, 3);
}

INSTANTIATE_TEST_SUITE_P(KMeansFamily, BuildParityTest,
                         ::testing::Values(IndexType::kFlat,
                                           IndexType::kIvfFlat,
                                           IndexType::kIvfSq8,
                                           IndexType::kIvfPq,
                                           IndexType::kScann),
                         [](const ::testing::TestParamInfo<IndexType>& info) {
                           return IndexTypeName(info.param);
                         });

// ----------------------------------------------------------- HNSW parity

// Golden HNSW graphs: SerializeState digests (64-bit FNV-1a over the bytes:
// link ids, link order, levels and entry point) captured under the scalar
// backend before the build's degree-overflow prune began reusing its earlier
// neighbor-selection decisions. Any build change must reproduce every graph
// exactly, so tuner histories, build-cache signatures and recalls stay put.
// Every entry must reproduce at build_threads 1 and 2.
struct GoldenGraph {
  int m;
  int ef_construction;
  Metric metric;
  size_t rows;
  uint64_t digest;
};

constexpr GoldenGraph kGoldenGraphs[] = {
    {4, 16, Metric::kL2, 600, 0xa9d604c9e0ee098full},
    {4, 16, Metric::kL2, 3000, 0x429a23da0be5b4ccull},
    {4, 16, Metric::kAngular, 600, 0xda8caa14c88d78eeull},
    {4, 16, Metric::kAngular, 3000, 0x441fc63da3e6047aull},
    {4, 96, Metric::kL2, 600, 0x3dd6017f94aece67ull},
    {4, 96, Metric::kL2, 3000, 0xab81db9a3b428057ull},
    {4, 96, Metric::kAngular, 600, 0x80210ab5a1423a43ull},
    {4, 96, Metric::kAngular, 3000, 0xa7ae330182f72adbull},
    {16, 16, Metric::kL2, 600, 0xe08ee744d04e107eull},
    {16, 16, Metric::kL2, 3000, 0x960e2ec3bfefa360ull},
    {16, 16, Metric::kAngular, 600, 0x76e610c6e0b7550bull},
    {16, 16, Metric::kAngular, 3000, 0x882e2298e79d2884ull},
    {16, 96, Metric::kL2, 600, 0x7a43586ef0cdfb00ull},
    {16, 96, Metric::kL2, 3000, 0x9370bde7faf96d8cull},
    {16, 96, Metric::kAngular, 600, 0xf916b4257bb87cf5ull},
    {16, 96, Metric::kAngular, 3000, 0x2ed30eac127bf601ull},
    {49, 16, Metric::kL2, 600, 0xff25dd04e4385c26ull},
    {49, 16, Metric::kL2, 3000, 0x142146846cf1f08dull},
    {49, 16, Metric::kAngular, 600, 0x4eb5a4dd8633d965ull},
    {49, 16, Metric::kAngular, 3000, 0x3e993ff54be65c4cull},
    {49, 96, Metric::kL2, 600, 0xaa8a81a634d257dfull},
    {49, 96, Metric::kL2, 3000, 0x1f389055a891b35full},
    {49, 96, Metric::kAngular, 600, 0x1538b74d04a529a7ull},
    {49, 96, Metric::kAngular, 3000, 0x74064dff2a8308f8ull},
};

TEST(HnswBuildParityTest, GraphsMatchGoldenDigests) {
  BackendGuard guard;
  ASSERT_TRUE(kernels::SetActive("scalar"));
  const size_t dim = 24;
  for (const GoldenGraph& g : kGoldenGraphs) {
    // Unnormalized rows under L2, so the two metrics see different geometry.
    const FloatMatrix data =
        ClusteredMatrix(g.rows, dim, 12, 0.3, 81, g.metric != Metric::kL2);
    for (int build_threads : {1, 2}) {
      IndexParams params;
      params.hnsw_m = g.m;
      params.ef_construction = g.ef_construction;
      params.build_threads = build_threads;
      auto index = CreateIndex(IndexType::kHnsw, g.metric, params, 5);
      ASSERT_TRUE(index->Build(data).ok());
      std::vector<uint8_t> bytes;
      ByteWriter writer(&bytes);
      ASSERT_TRUE(index->SerializeState(&writer).ok());
      EXPECT_EQ(Fnv1a64(bytes), g.digest)
          << "M=" << g.m << " efConstruction=" << g.ef_construction
          << " build_threads=" << build_threads << " "
          << MetricName(g.metric) << " rows=" << g.rows;
    }
  }
}

TEST(HnswBuildParityTest, SignatureNeverRecordsWidth) {
  IndexParams seq, par2, par8, global;
  seq.build_threads = 1;
  par2.build_threads = 2;
  par8.build_threads = 8;
  global.build_threads = 0;
  // Every type builds bit-identical structures at every width, so all
  // widths share one cache signature.
  for (IndexType type : {IndexType::kHnsw, IndexType::kAutoIndex,
                         IndexType::kIvfFlat, IndexType::kIvfSq8,
                         IndexType::kIvfPq, IndexType::kScann}) {
    const std::string expected = BuildSignature(type, seq);
    for (const IndexParams& params : {par2, par8, global}) {
      EXPECT_EQ(BuildSignature(type, params), expected)
          << IndexTypeName(type) << " build_threads=" << params.build_threads;
    }
  }
}

// ------------------------------------------------- collection-level plumbing

TEST(CollectionBuildParityTest, BuildThreadsChangesNothingObservable) {
  FloatMatrix data = ClusteredMatrix(1200, 16, 8, 0.3, 51);
  FloatMatrix queries = ClusteredMatrix(12, 16, 8, 0.33, 52);

  auto make_collection = [&](int build_threads) {
    CollectionOptions copts;
    copts.metric = Metric::kAngular;
    copts.index.type = IndexType::kIvfSq8;
    copts.index.params.nlist = 16;
    copts.index.params.nprobe = 8;
    copts.index.params.build_threads = build_threads;
    copts.scale.dataset_mb = 472.0;
    copts.scale.actual_rows = data.rows();
    auto collection = std::make_unique<Collection>(copts);
    EXPECT_TRUE(collection->Insert(data).ok());
    EXPECT_TRUE(collection->Flush().ok());
    return collection;
  };

  auto seq = make_collection(1);
  auto par = make_collection(4);
  ASSERT_GT(seq->Stats().num_indexed_segments, 0u);

  WorkCounters wseq, wpar;
  const auto a = seq->SearchBatch(queries, 10, &wseq);
  const auto b = par->SearchBatch(queries, 10, &wpar);
  ASSERT_EQ(a.size(), b.size());
  for (size_t q = 0; q < a.size(); ++q) {
    ASSERT_EQ(a[q].size(), b[q].size()) << q;
    for (size_t i = 0; i < a[q].size(); ++i) {
      EXPECT_EQ(a[q][i].id, b[q][i].id) << q;
      EXPECT_EQ(a[q][i].distance, b[q][i].distance) << q;
    }
  }
  EXPECT_EQ(wseq.Total(), wpar.Total());
  EXPECT_EQ(seq->Stats().index_bytes_actual, par->Stats().index_bytes_actual);
}

TEST(EvaluatorBuildParityTest, BuildThreadsOverrideKeepsOutcome) {
  // 900 rows: above AUTOINDEX's FLAT threshold, so it builds its HNSW.
  FloatMatrix data = ClusteredMatrix(900, 16, 8, 0.3, 61);
  Workload workload = MakeWorkload(DatasetProfile::kGlove, data, 16, 10, 62);

  for (const IndexType type :
       {IndexType::kIvfFlat, IndexType::kHnsw, IndexType::kAutoIndex}) {
    TuningConfig config;
    config.index_type = type;
    config.index.nlist = 16;
    config.index.nprobe = 8;
    config.index.hnsw_m = 12;
    config.index.ef_construction = 64;
    config.index.ef = 32;

    auto evaluate = [&](size_t build_threads) {
      VdmsEvaluatorOptions opts;
      opts.seed = 13;
      opts.build_threads = build_threads;
      VdmsEvaluator evaluator(&data, &workload, opts);
      return evaluator.Evaluate(config);
    };
    const EvalOutcome seq = evaluate(1);
    const EvalOutcome par = evaluate(4);
    ASSERT_FALSE(seq.failed) << IndexTypeName(type) << ": " << seq.fail_reason;
    ASSERT_FALSE(par.failed) << IndexTypeName(type) << ": " << par.fail_reason;
    EXPECT_EQ(seq.qps, par.qps) << IndexTypeName(type);
    EXPECT_EQ(seq.recall, par.recall) << IndexTypeName(type);
    EXPECT_EQ(seq.memory_gib, par.memory_gib) << IndexTypeName(type);
  }
}

// A churn (insert/delete/search/compaction) evaluation must produce the
// identical tuning trajectory — same configs, same QPS/recall/memory — at
// any eval_threads/build_threads width.
TEST(EvaluatorChurnParityTest, TrajectoryIdenticalAcrossWidths) {
  FloatMatrix data = ClusteredMatrix(1500, 16, 8, 0.3, 71);
  ChurnSpec spec;
  spec.num_queries = 10;
  spec.k = 10;
  spec.rounds = 3;
  spec.initial_fraction = 0.4;
  spec.delete_fraction = 0.2;
  spec.searches_per_round = 4;
  const ChurnWorkload churn =
      MakeChurnWorkload(DatasetProfile::kGlove, data, spec, 72);

  // The "trajectory": a fixed sequence of configurations, as a tuner would
  // visit them.
  std::vector<TuningConfig> trajectory;
  for (const IndexType type :
       {IndexType::kIvfFlat, IndexType::kIvfSq8, IndexType::kFlat,
        IndexType::kScann, IndexType::kHnsw, IndexType::kAutoIndex}) {
    TuningConfig config;
    config.index_type = type;
    config.index.nlist = 16;
    config.index.nprobe = 8;
    config.index.reorder_k = 64;
    config.index.hnsw_m = 12;
    config.index.ef_construction = 64;
    config.index.ef = 32;
    config.system.build_index_threshold = 32;
    config.system.compaction_deleted_ratio = 0.15;  // deletes will trip it
    trajectory.push_back(config);
  }

  auto run = [&](size_t eval_threads, size_t build_threads) {
    VdmsEvaluatorOptions opts;
    opts.profile = DatasetProfile::kGlove;
    opts.seed = 13;
    opts.eval_threads = eval_threads;
    opts.build_threads = build_threads;
    opts.churn = &churn;
    VdmsEvaluator evaluator(&data, /*workload=*/nullptr, opts);
    std::vector<EvalOutcome> outcomes;
    for (const TuningConfig& config : trajectory) {
      outcomes.push_back(evaluator.Evaluate(config));
    }
    return outcomes;
  };

  const auto seq = run(1, 1);
  const auto par = run(4, 4);
  ASSERT_EQ(seq.size(), par.size());
  for (size_t i = 0; i < seq.size(); ++i) {
    ASSERT_FALSE(seq[i].failed) << i << ": " << seq[i].fail_reason;
    ASSERT_FALSE(par[i].failed) << i << ": " << par[i].fail_reason;
    EXPECT_EQ(seq[i].qps, par[i].qps) << i;
    EXPECT_EQ(seq[i].recall, par[i].recall) << i;
    EXPECT_EQ(seq[i].memory_gib, par[i].memory_gib) << i;
    EXPECT_EQ(seq[i].eval_seconds, par[i].eval_seconds) << i;
  }
}

// ------------------------------------------------------ build error naming

TEST(BuildErrorMessageTest, NamesIndexTypeAndParameter) {
  FloatMatrix data = RandomMatrix(300, 30, 71);  // 30 % 7 != 0
  IndexParams params;
  params.nlist = 16;
  params.m = 7;
  auto pq = std::make_unique<IvfPqIndex>(Metric::kAngular, params, 3);
  const Status pq_status = pq->Build(data);
  ASSERT_FALSE(pq_status.ok());
  EXPECT_NE(pq_status.message().find("IVF_PQ"), std::string::npos)
      << pq_status.ToString();
  EXPECT_NE(pq_status.message().find("m=7"), std::string::npos)
      << pq_status.ToString();

  IndexParams bad_m;
  bad_m.hnsw_m = 1;
  auto hnsw = CreateIndex(IndexType::kHnsw, Metric::kAngular, bad_m, 3);
  const Status hnsw_status = hnsw->Build(data);
  ASSERT_FALSE(hnsw_status.ok());
  EXPECT_NE(hnsw_status.message().find("HNSW"), std::string::npos);
  EXPECT_NE(hnsw_status.message().find("1"), std::string::npos);

  IndexParams bad_nlist;
  bad_nlist.nlist = 0;
  auto ivf = CreateIndex(IndexType::kIvfFlat, Metric::kAngular, bad_nlist, 3);
  const Status ivf_status = ivf->Build(data);
  ASSERT_FALSE(ivf_status.ok());
  EXPECT_NE(ivf_status.message().find("IVF_FLAT"), std::string::npos);
  EXPECT_NE(ivf_status.message().find("nlist"), std::string::npos);
}

}  // namespace
}  // namespace vdt
