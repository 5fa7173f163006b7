#include "workload/cost_model.h"

#include <algorithm>
#include <cmath>

#include "index/auto_index.h"

namespace vdt {

double ComputeQps(const CostModelParams& params, const WorkCounters& work,
                  size_t num_queries, size_t dim, const CollectionStats& stats,
                  const SystemConfig& system, int concurrency) {
  if (num_queries == 0) return 0.0;
  const double nq = static_cast<double>(num_queries);
  const double d = static_cast<double>(dim);

  // Compute work per query from the counted totals.
  const double flops =
      (static_cast<double>(work.full_distance_evals) +
       static_cast<double>(work.coarse_distance_evals)) *
          d +
      static_cast<double>(work.table_build_flops);
  const double code_ops = static_cast<double>(work.code_distance_evals) * d;
  const double pq_ops = static_cast<double>(work.pq_lookup_ops);
  const double hops = static_cast<double>(work.graph_hops);

  double per_query =
      (flops * params.sec_per_flop + code_ops * params.sec_per_code_op +
       pq_ops * params.sec_per_pq_lookup + hops * params.sec_per_hop) /
      nq;

  // Per-segment dispatch and top-k merge overhead. Search units: sealed
  // segments plus the growing segment / insert buffer scans.
  const double search_units =
      static_cast<double>(std::max<size_t>(1, stats.num_sealed_segments)) +
      (stats.growing_rows > 0 ? 1.0 : 0.0);
  per_query += search_units * params.sec_per_segment;

  // Cache-miss penalty: bytes touched that are not resident.
  const double touched_bytes =
      (static_cast<double>(work.full_distance_evals) +
       static_cast<double>(work.coarse_distance_evals)) *
          d * 4.0 / nq +
      static_cast<double>(work.code_distance_evals) * d / nq;
  const double miss_ratio = 1.0 - std::clamp(system.cache_ratio, 0.0, 1.0);
  per_query += touched_bytes * miss_ratio * params.sec_per_miss_byte;

  // Bounded-staleness stall (common.gracefulTime): queries arriving within
  // the ingest lag window block until the service time catches up.
  const double lag_ms =
      std::max(0.0, params.sync_lag_ms - std::max(0.0, system.graceful_time_ms));
  per_query += lag_ms * 1e-3 * params.stall_fraction;

  // Concurrency: the workload issues `concurrency` parallel requests, capped
  // by the scheduler's read concurrency; oversubscribing the machine pays a
  // scheduling penalty.
  const double eff_parallel = std::max(
      1.0, std::min<double>(concurrency, system.max_read_concurrency));
  const double oversub = std::max(
      0.0, static_cast<double>(system.max_read_concurrency) -
               static_cast<double>(params.simulated_cores));
  const double efficiency =
      1.0 / (1.0 + params.oversub_penalty * oversub /
                       std::max(1, params.simulated_cores) * 10.0);

  return eff_parallel * efficiency / per_query;
}

double AnalyticBuildSeconds(const CostModelParams& params, IndexType type,
                            const IndexParams& index_params, double paper_rows,
                            size_t paper_dim) {
  const double n = paper_rows;
  const double d = static_cast<double>(paper_dim);
  // A 72-core build farm: effective flop rate is single-lane rate x cores x
  // a parallel-build efficiency factor.
  const double build_rate =
      1.0 / params.sec_per_flop * params.simulated_cores * 0.5;

  double flops = n * d;  // baseline: one encode pass
  switch (type) {
    case IndexType::kFlat:
      flops = n * d * 0.1;  // just a copy
      break;
    case IndexType::kIvfFlat:
    case IndexType::kIvfSq8: {
      const double train = std::min(n, 262144.0);
      flops = train * index_params.nlist * d * 10.0 + n * d;
      break;
    }
    case IndexType::kScann: {
      const double train = std::min(n, 262144.0);
      flops = train * index_params.nlist * d * 10.0 + 2.0 * n * d;
      break;
    }
    case IndexType::kIvfPq: {
      const double train = std::min(n, 262144.0);
      const double ksub = std::pow(2.0, index_params.nbits);
      flops = train * index_params.nlist * d * 10.0 +
              train * ksub * d * 8.0 +  // per-subspace k-means (d total dims)
              n * ksub * d;             // encoding
      break;
    }
    case IndexType::kHnsw:
    case IndexType::kAutoIndex: {
      const IndexParams hnsw = type == IndexType::kAutoIndex
                                   ? AutoIndexHnswProfile()
                                   : index_params;
      flops = n * hnsw.ef_construction * d * 1.5 + n * hnsw.hnsw_m * d;
      break;
    }
  }
  return flops / build_rate;
}

double AnalyticLoadSeconds(const CostModelParams& params, double paper_rows,
                           size_t paper_dim) {
  // Ingest: parse + buffer + flush, ~25 bytes/sec-lane-equivalent per byte.
  const double bytes = paper_rows * static_cast<double>(paper_dim) * 4.0;
  const double rate = 400e6 * std::max(1, params.simulated_cores / 8);
  return bytes / rate + 5.0;
}

}  // namespace vdt
