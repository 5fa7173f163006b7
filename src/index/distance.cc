#include "index/distance.h"

#include <cmath>

#include "index/kernels/kernels.h"

namespace vdt {

const char* MetricName(Metric metric) {
  switch (metric) {
    case Metric::kL2:
      return "L2";
    case Metric::kInnerProduct:
      return "IP";
    case Metric::kAngular:
      return "Angular";
  }
  return "?";
}

float DotProduct(const float* a, const float* b, size_t dim) {
  return kernels::Active().dot(a, b, dim);
}

float L2SquaredDistance(const float* a, const float* b, size_t dim) {
  return kernels::Active().l2(a, b, dim);
}

float Norm(const float* a, size_t dim) {
  return std::sqrt(DotProduct(a, a, dim));
}

void NormalizeVector(float* a, size_t dim) {
  const float n = Norm(a, dim);
  // Leave the vector untouched when the norm is zero, subnormal-tiny, or
  // non-finite (overflowed / NaN inputs): dividing by it would fill the
  // vector with inf/NaN that poisons every downstream distance.
  if (!std::isfinite(n) || n <= 0.f) return;
  const float inv = 1.0f / n;
  if (!std::isfinite(inv)) return;
  for (size_t i = 0; i < dim; ++i) a[i] *= inv;
}

float Distance(Metric metric, const float* a, const float* b, size_t dim) {
  switch (metric) {
    case Metric::kL2:
      return L2SquaredDistance(a, b, dim);
    case Metric::kInnerProduct:
      return -DotProduct(a, b, dim);
    case Metric::kAngular:
      return 1.0f - DotProduct(a, b, dim);
  }
  return 0.f;
}

void DotBatch(const float* query, const float* rows, size_t dim, size_t n,
              float* out) {
  kernels::Active().dot_batch(query, rows, dim, n, out);
}

void L2Batch(const float* query, const float* rows, size_t dim, size_t n,
             float* out) {
  kernels::Active().l2_batch(query, rows, dim, n, out);
}

void DistanceBatch(Metric metric, const float* query, const float* rows,
                   size_t dim, size_t n, float* out) {
  const kernels::Backend& backend = kernels::Active();
  switch (metric) {
    case Metric::kL2:
      backend.l2_batch(query, rows, dim, n, out);
      return;
    case Metric::kInnerProduct:
      backend.dot_batch(query, rows, dim, n, out);
      for (size_t i = 0; i < n; ++i) out[i] = -out[i];
      return;
    case Metric::kAngular:
      backend.dot_batch(query, rows, dim, n, out);
      for (size_t i = 0; i < n; ++i) out[i] = 1.0f - out[i];
      return;
  }
}

void Sq8Batch(Metric metric, const float* query, const uint8_t* codes,
              const float* vmin, const float* vscale, size_t dim, size_t n,
              float* out) {
  const kernels::Backend& backend = kernels::Active();
  switch (metric) {
    case Metric::kL2:
      backend.sq8_l2_batch(query, codes, vmin, vscale, dim, n, out);
      return;
    case Metric::kInnerProduct:
      backend.sq8_dot_i8(query, codes, vmin, vscale, dim, n, out);
      for (size_t i = 0; i < n; ++i) out[i] = -out[i];
      return;
    case Metric::kAngular:
      backend.sq8_dot_i8(query, codes, vmin, vscale, dim, n, out);
      for (size_t i = 0; i < n; ++i) out[i] = 1.0f - out[i];
      return;
  }
}

void PqLookupBatch(const float* table, const uint16_t* codes, size_t m,
                   size_t ksub, size_t n, float bias, float* out) {
  kernels::Active().pq_lookup_batch(table, codes, m, ksub, n, bias, out);
}

void L2Nearest(const float* points, size_t n, const float* centroids,
               size_t k, size_t dim, int32_t* out) {
  kernels::Active().l2_nearest(points, n, centroids, k, dim, out);
}

}  // namespace vdt
