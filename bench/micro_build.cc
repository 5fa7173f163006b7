// Microbenchmarks (google-benchmark): index construction for every index
// family the tuner builds per iteration — kmeans-backed
// IVF_FLAT/IVF_SQ8/IVF_PQ/SCANN and graph-backed HNSW. The build is the
// dominant per-iteration cost of the tuning loop (paper §V, Table VI).
//
// The kmeans-family builds sweep build_threads over {1, 2, 4, 8}; 1 is the
// sequential baseline, and the results are bit-identical across the sweep
// (see the VectorIndex::Build determinism contract), so this measures pure
// speedup. HNSW inserts sequentially at every width, so its builds run at
// one width only. HnswHighDegree builds at M = 48, where re-pruning every
// adjacency list a back-link overflows dominates, so it tracks the cost of
// the neighbor-selection heuristic itself.
//
// BM_KMeansAssign times one k-means assignment pass — the step IVF_PQ
// codebook training repeats per subspace and iteration — through the
// active backend's l2_nearest slot, and BM_KMeansAssignLoop the same pass
// as the argmin loop over l2_batch (ReferenceL2Nearest). Where the two
// differ, the slot's lane-transposed layout is on; the pair shows over
// which sub-dimensions that layout earns its place.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "index/distance.h"
#include "index/index.h"
#include "index/kernels/kernels.h"
#include "workload/datasets.h"

namespace vdt {
namespace {

constexpr size_t kRows = 6000;
constexpr size_t kDim = 48;

const FloatMatrix& Data() {
  static const FloatMatrix data =
      GenerateDataset(DatasetProfile::kGlove, kRows, kDim, 7);
  return data;
}

IndexParams ParamsWithThreads(int build_threads, int hnsw_m) {
  IndexParams p;
  p.nlist = 64;
  p.nprobe = 8;
  p.m = 8;
  p.nbits = 8;
  p.hnsw_m = hnsw_m;
  p.ef_construction = 96;
  p.ef = 64;
  p.reorder_k = 100;
  p.build_threads = build_threads;
  return p;
}

void BM_Build(benchmark::State& state, IndexType type, int hnsw_m) {
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto index = CreateIndex(type, Metric::kAngular,
                             ParamsWithThreads(threads, hnsw_m), 3);
    benchmark::DoNotOptimize(index->Build(Data()));
  }
  state.SetLabel(std::string(IndexTypeName(type)) + "/threads=" +
                 std::to_string(threads));
}

void ThreadSweep(benchmark::internal::Benchmark* b) {
  for (int threads : {1, 2, 4, 8}) b->Arg(threads);
}

#define VDT_BUILD_BENCH(name, type, hnsw_m)                                \
  void BM_Build_##name(benchmark::State& state) {                          \
    BM_Build(state, type, hnsw_m);                                         \
  }                                                                        \
  BENCHMARK(BM_Build_##name)->Unit(benchmark::kMillisecond)

VDT_BUILD_BENCH(IvfFlat, IndexType::kIvfFlat, 16)->Apply(ThreadSweep);
VDT_BUILD_BENCH(IvfSq8, IndexType::kIvfSq8, 16)->Apply(ThreadSweep);
VDT_BUILD_BENCH(IvfPq, IndexType::kIvfPq, 16)->Apply(ThreadSweep);
VDT_BUILD_BENCH(Hnsw, IndexType::kHnsw, 16)->Arg(1);
VDT_BUILD_BENCH(HnswHighDegree, IndexType::kHnsw, 48)->Arg(1);
VDT_BUILD_BENCH(Scann, IndexType::kScann, 16)->Apply(ThreadSweep);

#undef VDT_BUILD_BENCH

// A PQ subspace of the glove rows: the first dsub coordinates of each row,
// with the first k subspace rows as centroids (k-means++ seeds from data
// points too).
struct AssignCase {
  std::vector<float> points;
  std::vector<float> centroids;
  std::vector<int32_t> nearest;
};

AssignCase MakeAssignCase(size_t dsub, size_t k) {
  static const FloatMatrix wide =
      GenerateDataset(DatasetProfile::kGlove, kRows, 96, 7);
  AssignCase c;
  c.points.resize(kRows * dsub);
  for (size_t i = 0; i < kRows; ++i) {
    std::copy_n(wide.Row(i), dsub, &c.points[i * dsub]);
  }
  c.centroids.assign(c.points.begin(), c.points.begin() + k * dsub);
  c.nearest.resize(kRows);
  return c;
}

template <typename Assign>
void RunAssign(benchmark::State& state, Assign assign) {
  const size_t dsub = static_cast<size_t>(state.range(0));
  const size_t k = static_cast<size_t>(state.range(1));
  AssignCase c = MakeAssignCase(dsub, k);
  for (auto _ : state) {
    assign(c.points.data(), kRows, c.centroids.data(), k, dsub,
           c.nearest.data());
    benchmark::DoNotOptimize(c.nearest.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kRows * k);
  state.SetLabel(kernels::Active().name);
}

void BM_KMeansAssign(benchmark::State& state) { RunAssign(state, L2Nearest); }

void BM_KMeansAssignLoop(benchmark::State& state) {
  RunAssign(state, [](const float* points, size_t n, const float* centroids,
                      size_t k, size_t dim, int32_t* out) {
    kernels::ReferenceL2Nearest(kernels::Active().l2_batch, points, n,
                                centroids, k, dim, out);
  });
}

void AssignArgs(benchmark::internal::Benchmark* b) {
  b->ArgsProduct({{2, 4, 6, 12, 16, 24, 48, 96}, {128, 256}})
      ->Unit(benchmark::kMicrosecond);
}

BENCHMARK(BM_KMeansAssign)->Apply(AssignArgs);
BENCHMARK(BM_KMeansAssignLoop)->Apply(AssignArgs);

}  // namespace
}  // namespace vdt

BENCHMARK_MAIN();
