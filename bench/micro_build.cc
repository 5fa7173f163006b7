// Microbenchmarks (google-benchmark): sequential vs parallel index
// construction for every index family the tuner builds per iteration —
// kmeans-backed IVF_FLAT/IVF_SQ8/IVF_PQ/SCANN and graph-backed HNSW. The
// build is the dominant per-iteration cost of the tuning loop (paper §V,
// Table VI), so the thread-scaling measured here is the wall-clock lever
// behind every tuner baseline and fig*/table* target.
//
// Thread counts sweep {1, 2, 4, 8}; 1 is the sequential baseline. The
// kmeans-family results are bit-identical across the sweep (see the
// VectorIndex::Build determinism contract), so this measures pure speedup.
// HnswHighDegree builds at M = 48, where the sequential commit phase —
// re-pruning every adjacency list a back-link overflows — dominates, so it
// tracks the cost of the neighbor-selection heuristic itself.
#include <benchmark/benchmark.h>

#include "index/index.h"
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

#define VDT_BUILD_BENCH(name, type, hnsw_m)                                \
  void BM_Build_##name(benchmark::State& state) {                          \
    BM_Build(state, type, hnsw_m);                                         \
  }                                                                        \
  BENCHMARK(BM_Build_##name)                                               \
      ->Arg(1)                                                             \
      ->Arg(2)                                                             \
      ->Arg(4)                                                             \
      ->Arg(8)                                                             \
      ->Unit(benchmark::kMillisecond)

VDT_BUILD_BENCH(IvfFlat, IndexType::kIvfFlat, 16);
VDT_BUILD_BENCH(IvfSq8, IndexType::kIvfSq8, 16);
VDT_BUILD_BENCH(IvfPq, IndexType::kIvfPq, 16);
VDT_BUILD_BENCH(Hnsw, IndexType::kHnsw, 16);
VDT_BUILD_BENCH(HnswHighDegree, IndexType::kHnsw, 48);
VDT_BUILD_BENCH(Scann, IndexType::kScann, 16);

#undef VDT_BUILD_BENCH

}  // namespace
}  // namespace vdt

BENCHMARK_MAIN();
