#include "index/index.h"

#include <map>
#include <mutex>
#include <sstream>

#include "common/parallel_executor.h"
#include "index/topk.h"

namespace vdt {

const char* IndexTypeName(IndexType type) {
  switch (type) {
    case IndexType::kFlat:
      return "FLAT";
    case IndexType::kIvfFlat:
      return "IVF_FLAT";
    case IndexType::kIvfSq8:
      return "IVF_SQ8";
    case IndexType::kIvfPq:
      return "IVF_PQ";
    case IndexType::kHnsw:
      return "HNSW";
    case IndexType::kScann:
      return "SCANN";
    case IndexType::kAutoIndex:
      return "AUTOINDEX";
  }
  return "?";
}

std::string IndexParams::ToString() const {
  std::ostringstream os;
  os << "nlist=" << nlist << " nprobe=" << nprobe << " m=" << m
     << " nbits=" << nbits << " M=" << hnsw_m
     << " efConstruction=" << ef_construction << " ef=" << ef
     << " reorder_k=" << reorder_k;
  return os.str();
}

void WorkCounters::Add(const WorkCounters& other) {
  full_distance_evals += other.full_distance_evals;
  coarse_distance_evals += other.coarse_distance_evals;
  code_distance_evals += other.code_distance_evals;
  pq_lookup_ops += other.pq_lookup_ops;
  table_build_flops += other.table_build_flops;
  graph_hops += other.graph_hops;
  reorder_evals += other.reorder_evals;
  shard_scatters += other.shard_scatters;
  gather_candidates += other.gather_candidates;
}

uint64_t WorkCounters::Total() const {
  return full_distance_evals + coarse_distance_evals + code_distance_evals +
         pq_lookup_ops + table_build_flops + graph_hops + reorder_evals;
}

std::string BuildSignature(IndexType type, const IndexParams& params) {
  std::ostringstream os;
  os << IndexTypeName(type);
  switch (type) {
    case IndexType::kFlat:
    case IndexType::kAutoIndex:
      break;  // no build parameters
    case IndexType::kIvfFlat:
    case IndexType::kIvfSq8:
    case IndexType::kScann:
      os << "/nlist=" << params.nlist;
      break;
    case IndexType::kIvfPq:
      os << "/nlist=" << params.nlist << "/m=" << params.m
         << "/nbits=" << params.nbits;
      break;
    case IndexType::kHnsw:
      os << "/M=" << params.hnsw_m << "/efC=" << params.ef_construction;
      break;
  }
  return os.str();
}

ParallelExecutor* ResolveBuildExecutor(int build_threads) {
  if (build_threads == 1) return nullptr;
  if (build_threads <= 0) return &ParallelExecutor::Global();
  // One long-lived pool per requested width (callers use a handful of
  // widths at most), so back-to-back segment seals share threads.
  static std::mutex mu;
  static std::map<int, std::unique_ptr<ParallelExecutor>>* pools =
      new std::map<int, std::unique_ptr<ParallelExecutor>>();
  std::lock_guard<std::mutex> lock(mu);
  auto& pool = (*pools)[build_threads];
  if (pool == nullptr) {
    pool = std::make_unique<ParallelExecutor>(
        static_cast<size_t>(build_threads));
  }
  return pool.get();
}

std::vector<std::vector<Neighbor>> ParallelSearchBatch(
    size_t num_queries,
    const std::function<std::vector<Neighbor>(size_t, WorkCounters*)>&
        search_one,
    WorkCounters* counters, ParallelExecutor* executor) {
  std::vector<std::vector<Neighbor>> results(num_queries);
  if (num_queries == 0) return results;

  // Per-query task sharding: each task owns its result slot and a private
  // counter, so no synchronization is needed inside search_one. Counters are
  // folded in query order after the barrier (uint64 sums are
  // order-independent, but keeping the fold deterministic costs nothing).
  std::vector<WorkCounters> local(counters != nullptr ? num_queries : 0);
  ParallelExecutor& ex =
      executor != nullptr ? *executor : ParallelExecutor::Global();
  ex.ParallelFor(num_queries, [&](size_t q) {
    results[q] = search_one(q, counters != nullptr ? &local[q] : nullptr);
  });
  if (counters != nullptr) {
    for (size_t q = 0; q < num_queries; ++q) counters->Add(local[q]);
  }
  return results;
}

std::vector<std::vector<Neighbor>> VectorIndex::SearchBatch(
    const FloatMatrix& queries, size_t k, WorkCounters* counters,
    ParallelExecutor* executor) const {
  return ParallelSearchBatch(
      queries.rows(),
      [&](size_t q, WorkCounters* wc) { return Search(queries.Row(q), k, wc); },
      counters, executor);
}

std::vector<Neighbor> BruteForceSearch(const FloatMatrix& data, Metric metric,
                                       const float* query, size_t k,
                                       WorkCounters* counters,
                                       const RowFilter* filter) {
  TopKCollector topk(k);
  uint64_t scanned = 0;
  const size_t n = data.rows();
  // Block scan over maximal live runs: contiguous live rows go through the
  // one-to-many kernel in kDistanceScanBlock chunks; dead rows are skipped
  // without a distance evaluation (the counters charge live rows only).
  float dist[kDistanceScanBlock];
  size_t i = 0;
  while (i < n) {
    if (!RowIsLive(filter, static_cast<int64_t>(i))) {
      ++i;
      continue;
    }
    size_t run = i + 1;
    while (run < n && run - i < kDistanceScanBlock &&
           RowIsLive(filter, static_cast<int64_t>(run))) {
      ++run;
    }
    DistanceBatch(metric, query, data.Row(i), data.dim(), run - i, dist);
    for (size_t j = 0; j < run - i; ++j) {
      topk.Offer(static_cast<int64_t>(i + j), dist[j]);
    }
    scanned += run - i;
    i = run;
  }
  if (counters != nullptr) counters->full_distance_evals += scanned;
  return topk.Take();
}

}  // namespace vdt
