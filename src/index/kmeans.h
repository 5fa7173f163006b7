// Lloyd k-means with k-means++ seeding: the clustering core of the IVF
// family, SCANN partitioning, and PQ codebook training. Both the assignment
// and the update steps run over a fixed chunk grid (see ParallelChunks), so
// the result is bit-identical for any executor width — including none.
#ifndef VDTUNER_INDEX_KMEANS_H_
#define VDTUNER_INDEX_KMEANS_H_

#include <cstdint>
#include <vector>

#include "common/float_matrix.h"
#include "common/random.h"

namespace vdt {

class ParallelExecutor;

struct KMeansOptions {
  int max_iters = 10;
  /// Training subsample cap; k-means runs on at most this many points.
  size_t max_train_points = 16384;
  uint64_t seed = 1;
  /// Executor for the chunked assignment/accumulation passes (non-owning;
  /// null runs the chunks inline). Centroids and assignments are
  /// bit-identical for every executor width: chunk boundaries are fixed and
  /// per-chunk partials merge in chunk order.
  ParallelExecutor* executor = nullptr;
};

struct KMeansResult {
  FloatMatrix centroids;             // k x dim
  std::vector<int32_t> assignments;  // size = data.rows(), in [0, k)
};

/// Clusters `data` into `k` centroids (k is clamped to data.rows()).
/// Empty clusters are re-seeded from random training points, so every
/// centroid is meaningful. Deterministic given options.seed, independent of
/// options.executor.
KMeansResult KMeansCluster(const FloatMatrix& data, size_t k,
                           const KMeansOptions& options);

/// Scatters row ids into per-cluster lists: result[c] holds every i with
/// assignments[i] == c, ascending. Chunk-counted and offset-filled so the
/// parallel scatter produces exactly the sequential push_back order for any
/// executor width (null executor runs inline).
std::vector<std::vector<int64_t>> BucketByAssignment(
    const std::vector<int32_t>& assignments, size_t k,
    ParallelExecutor* executor);

}  // namespace vdt

#endif  // VDTUNER_INDEX_KMEANS_H_
