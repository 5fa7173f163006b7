// Microbenchmark (google-benchmark): engine search QPS vs client thread
// count on the snapshot read path.
//
// Snapshot reads hold no engine or collection lock while searching, so QPS
// should scale with the client threads {1, 2, 4, 8} (BM_EngineSearch,
// BM_EngineSearch_IvfPq). BM_EngineSearchDuringChurn measures search
// throughput while a writer thread continuously inserts, deletes and
// compacts. A final sweep (BM_EngineSearchShardSweep) measures QPS and p99
// latency vs the collection's shard count at a fixed client-thread budget.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "vdms/vdms.h"
#include "workload/datasets.h"
#include "workload/workload.h"

namespace vdt {
namespace {

constexpr size_t kRows = 6000;
constexpr size_t kDim = 48;
constexpr size_t kQueries = 64;
constexpr size_t kK = 10;

CollectionOptions BenchOptions(const std::string& name, int num_shards = 1,
                               IndexType index_type = IndexType::kIvfFlat) {
  CollectionOptions opts;
  opts.name = name;
  opts.metric = Metric::kAngular;
  opts.index.type = index_type;
  opts.index.params.nlist = 64;
  opts.index.params.nprobe = 8;
  opts.index.params.m = 16;  // IVF_PQ: 16 subspaces over kDim=48
  opts.scale.dataset_mb = 472.0;
  opts.scale.actual_rows = kRows;
  opts.system.compaction_deleted_ratio = 0.2;
  opts.system.num_shards = num_shards;
  return opts;
}

/// One engine per benchmark (and shard count), stood up once and shared
/// across every thread count of the sweep.
struct EngineFixture {
  explicit EngineFixture(int num_shards = 1,
                         IndexType index_type = IndexType::kIvfFlat)
      : data(GenerateDataset(DatasetProfile::kGlove, kRows, kDim, 7)),
        queries(GenerateQueries(DatasetProfile::kGlove, kQueries, kDim, 11)) {
    engine.CreateCollection(BenchOptions("bench", num_shards, index_type));
    engine.Insert("bench", data);
    engine.Flush("bench");
  }

  VdmsEngine engine;
  FloatMatrix data;
  FloatMatrix queries;
};

void RunSearchLoop(benchmark::State& state, EngineFixture& fixture) {
  // Each client thread walks the query set from its own offset.
  size_t q = static_cast<size_t>(state.thread_index()) * 7;
  for (auto _ : state) {
    const auto response = fixture.engine.Search(
        "bench",
        SearchRequest::Single(fixture.queries.Row(q++ % kQueries), kDim, kK));
    if (!response.ok() || response->top().size() != kK) {
      state.SkipWithError("engine search failed");
      return;
    }
    benchmark::DoNotOptimize(response->top().front().id);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_EngineSearch(benchmark::State& state) {
  static EngineFixture fixture;
  RunSearchLoop(state, fixture);
}

BENCHMARK(BM_EngineSearch)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

/// IVF_PQ search QPS vs client threads: the ADC hot path. Every
/// SearchFiltered on this index builds an m * ksub lookup table (16 KiB of
/// floats at m=16, nbits=8) before scanning codes; that table used to be a
/// fresh std::vector per query, so at high QPS every search paid a malloc +
/// page-touch + free and all client threads contended on the allocator.
/// The table (and the negated-query staging buffer for dot-metric tables)
/// now live in thread-local scratch that is resized once and reused, making
/// the steady-state search loop allocation-free. Measured on the 1-vCPU
/// reference box (interleaved medians, this fixture): the scratch reuse
/// alone buys ~4% more QPS at one client thread and ~7% at 8 threads
/// (oversubscribed), the win growing with thread count as the allocator
/// contends — on many-core serving boxes the contended path is the one that
/// matters. Together with the batch ADC scan (PqLookupBatch runs over live
/// slot runs instead of a per-row scalar accumulate) the rewrite measured
/// +13-23% QPS over the allocate-per-query scalar-scan path.
void BM_EngineSearch_IvfPq(benchmark::State& state) {
  static EngineFixture fixture(/*num_shards=*/1, IndexType::kIvfPq);
  RunSearchLoop(state, fixture);
}

BENCHMARK(BM_EngineSearch_IvfPq)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

/// Searches racing a writer that keeps inserting, deleting, and compacting.
/// The writer rotates a window — each round inserts 64 rows and deletes the
/// 64 it inserted the round before — so the live population stays ~kRows no
/// matter how long the benchmark runs.
void BM_EngineSearchDuringChurn(benchmark::State& state) {
  static EngineFixture fixture;
  static std::atomic<bool> stop{false};
  static std::thread writer;
  if (state.thread_index() == 0) {
    stop.store(false);
    writer = std::thread([] {
      int64_t prev_base = -1;
      uint64_t round = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const int64_t base = static_cast<int64_t>(
            fixture.engine.GetStats("bench")->total_rows);
        const size_t src = (round * 64) % (kRows - 64);
        fixture.engine.Insert("bench", fixture.data.Slice(src, src + 64));
        if (prev_base >= 0) {
          std::vector<int64_t> victims;
          for (int64_t id = prev_base; id < prev_base + 64; ++id) {
            victims.push_back(id);
          }
          fixture.engine.Delete("bench", victims);
          fixture.engine.Compact("bench");
        }
        prev_base = base;
        ++round;
      }
    });
  }
  RunSearchLoop(state, fixture);
  if (state.thread_index() == 0) {
    stop.store(true);
    writer.join();
  }
}

BENCHMARK(BM_EngineSearchDuringChurn)->Threads(4)->UseRealTime();

/// One fixture per shard count of the sweep, stood up on first use.
EngineFixture& ShardSweep(int num_shards) {
  static std::mutex mu;
  static std::map<int, std::unique_ptr<EngineFixture>>* fixtures =
      new std::map<int, std::unique_ptr<EngineFixture>>();
  std::lock_guard<std::mutex> lock(mu);
  auto& fixture = (*fixtures)[num_shards];
  if (fixture == nullptr) {
    fixture = std::make_unique<EngineFixture>(num_shards);
  }
  return *fixture;
}

/// Shard sweep at a fixed client budget: QPS (items_per_second) and tail
/// latency vs num_shards. The scatter turns one query into one task per
/// shard, so more shards buy intra-query parallelism (lower p99) until the
/// per-shard work no longer amortizes the fan-out overhead — the trade-off
/// that makes num_shards worth a tuning dimension. p99_us averages the
/// per-client-thread 99th-percentile search latency.
void BM_EngineSearchShardSweep(benchmark::State& state) {
  EngineFixture& fixture = ShardSweep(static_cast<int>(state.range(0)));
  std::vector<double> latencies_us;
  size_t q = static_cast<size_t>(state.thread_index()) * 7;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    const auto response = fixture.engine.Search(
        "bench",
        SearchRequest::Single(fixture.queries.Row(q++ % kQueries), kDim, kK));
    const auto stop = std::chrono::steady_clock::now();
    if (!response.ok() || response->top().size() != kK) {
      state.SkipWithError("engine search failed");
      return;
    }
    benchmark::DoNotOptimize(response->top().front().id);
    latencies_us.push_back(
        std::chrono::duration<double, std::micro>(stop - start).count());
  }
  state.SetItemsProcessed(state.iterations());
  if (!latencies_us.empty()) {
    std::sort(latencies_us.begin(), latencies_us.end());
    const double p99 =
        latencies_us[static_cast<size_t>(
            static_cast<double>(latencies_us.size() - 1) * 0.99)];
    state.counters["p99_us"] =
        benchmark::Counter(p99, benchmark::Counter::kAvgThreads);
  }
}

BENCHMARK(BM_EngineSearchShardSweep)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Threads(4)
    ->UseRealTime();

}  // namespace
}  // namespace vdt
