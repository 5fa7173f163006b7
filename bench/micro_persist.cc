// Microbenchmark (google-benchmark): persistence subsystem costs.
//
// Two questions the storage layer has to answer with numbers:
//
//  1. What does cold-open buy over rebuilding? BM_ColdOpenRecover times
//     VdmsEngine::Open() against a prepared data dir (decode manifest, mmap
//     segment files, restore serialized index state, replay an empty WAL) and
//     BM_RebuildFromScratch times the path it replaces (CreateCollection +
//     Insert + Flush, which re-trains and re-builds every index). Compare
//     items_per_second — both report rows made searchable per second.
//
//  2. Does mmap-backed serving cost search throughput? Segment vectors
//     recovered from disk are served straight out of the page cache via
//     borrowed mmap spans instead of heap copies. BM_SearchMmap (an engine
//     recovered with Open()) vs BM_SearchHeap (the same collection built
//     in-memory) at equal thread counts should be at parity — a gap here
//     means the borrow path added indirection to the distance kernels.
//     The collection is HNSW, whose searches read the segment's vectors.
//     (IVF_FLAT would not do: it keeps its own list-major copy of the rows,
//     so a restored IVF_FLAT segment is heap-held, not mmap-served.)
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>

#include "storage/file_io.h"
#include "vdms/vdms.h"
#include "workload/datasets.h"

namespace vdt {
namespace {

constexpr size_t kRows = 6000;
constexpr size_t kDim = 48;
constexpr size_t kQueries = 64;
constexpr size_t kK = 10;

CollectionOptions BenchOptions(const std::string& name) {
  CollectionOptions opts;
  opts.name = name;
  opts.metric = Metric::kAngular;
  opts.index.type = IndexType::kHnsw;
  opts.index.params.hnsw_m = 16;
  opts.index.params.ef_construction = 96;
  opts.index.params.ef = 64;
  opts.scale.dataset_mb = 472.0;
  opts.scale.actual_rows = kRows;
  opts.system.num_shards = 2;
  return opts;
}

/// A populated on-disk collection, prepared once: a throwaway durable engine
/// creates, inserts, and flushes, then shuts down, leaving the manifest,
/// segment files, and a checkpointed (empty) WAL behind for Open() to eat.
struct PersistFixture {
  PersistFixture()
      : data(GenerateDataset(DatasetProfile::kGlove, kRows, kDim, 7)),
        queries(GenerateQueries(DatasetProfile::kGlove, kQueries, kDim, 11)) {
    char tmpl[] = "/tmp/vdt_micro_persist_XXXXXX";
    dir = mkdtemp(tmpl);
    VdmsEngineOptions eopts;
    eopts.data_dir = dir;
    VdmsEngine seeder(eopts);
    ok = seeder.CreateCollection(BenchOptions("bench")).ok() &&
         seeder.Insert("bench", data).ok() && seeder.Flush("bench").ok();
  }

  ~PersistFixture() { (void)RemoveDirRecursive(dir); }

  FloatMatrix data;
  FloatMatrix queries;
  std::string dir;
  bool ok = false;
};

PersistFixture& Prepared() {
  static PersistFixture fixture;
  return fixture;
}

/// Cold open: recover the prepared directory into a fresh engine. This is
/// the restart path — no index training, no kmeans, just decode + mmap.
void BM_ColdOpenRecover(benchmark::State& state) {
  PersistFixture& fx = Prepared();
  if (!fx.ok) {
    state.SkipWithError("fixture seed failed");
    return;
  }
  for (auto _ : state) {
    VdmsEngineOptions eopts;
    eopts.data_dir = fx.dir;
    VdmsEngine engine(eopts);
    if (!engine.Open().ok() || !engine.HasCollection("bench")) {
      state.SkipWithError("recovery failed");
      return;
    }
    benchmark::DoNotOptimize(engine.GetStats("bench")->live_rows);
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}

/// The alternative a restart without persistence forces: re-ingest and
/// re-build every index from the raw vectors.
void BM_RebuildFromScratch(benchmark::State& state) {
  PersistFixture& fx = Prepared();
  for (auto _ : state) {
    VdmsEngine engine;
    if (!engine.CreateCollection(BenchOptions("bench")).ok() ||
        !engine.Insert("bench", fx.data).ok() ||
        !engine.Flush("bench").ok()) {
      state.SkipWithError("rebuild failed");
      return;
    }
    benchmark::DoNotOptimize(engine.GetStats("bench")->live_rows);
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}

BENCHMARK(BM_ColdOpenRecover)->UseRealTime();
BENCHMARK(BM_RebuildFromScratch)->UseRealTime();

/// Engine recovered from disk: sealed-segment vectors are mmap-borrowed.
VdmsEngine& MmapEngine() {
  static VdmsEngine* engine = [] {
    VdmsEngineOptions eopts;
    eopts.data_dir = Prepared().dir;
    auto* e = new VdmsEngine(eopts);
    if (!e->Open().ok()) std::abort();
    return e;
  }();
  return *engine;
}

/// Same collection built in-memory: sealed-segment vectors are heap-owned.
VdmsEngine& HeapEngine() {
  static VdmsEngine* engine = [] {
    auto* e = new VdmsEngine();
    PersistFixture& fx = Prepared();
    if (!e->CreateCollection(BenchOptions("bench")).ok() ||
        !e->Insert("bench", fx.data).ok() || !e->Flush("bench").ok()) {
      std::abort();
    }
    return e;
  }();
  return *engine;
}

void RunSearchLoop(benchmark::State& state, VdmsEngine& engine) {
  PersistFixture& fx = Prepared();
  size_t q = static_cast<size_t>(state.thread_index()) * 7;
  for (auto _ : state) {
    const auto response = engine.Search(
        "bench",
        SearchRequest::Single(fx.queries.Row(q++ % kQueries), kDim, kK));
    if (!response.ok() || response->top().size() != kK) {
      state.SkipWithError("search failed");
      return;
    }
    benchmark::DoNotOptimize(response->top().front().id);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_SearchMmap(benchmark::State& state) {
  RunSearchLoop(state, MmapEngine());
}

void BM_SearchHeap(benchmark::State& state) {
  RunSearchLoop(state, HeapEngine());
}

BENCHMARK(BM_SearchMmap)->Threads(1)->Threads(4)->UseRealTime();
BENCHMARK(BM_SearchHeap)->Threads(1)->Threads(4)->UseRealTime();

}  // namespace
}  // namespace vdt
