// NEON backend (aarch64). Each row reduces through two 4-lane FMA
// accumulators (lane j of accumulator u holds terms i with i % 8 == 4u + j),
// a vaddvq_f32 horizontal sum, and a scalar tail — the same fixed-scheme
// shape as the AVX2 backend, so batch kernels stay block-invariant. NEON is
// baseline on aarch64, so availability is a compile-time fact, not CPUID.
#include "index/kernels/kernels.h"

#if defined(__aarch64__)
#define VDT_KERNELS_HAVE_NEON 1
#include <arm_neon.h>
#endif

namespace vdt {
namespace kernels {

#if defined(VDT_KERNELS_HAVE_NEON)

namespace {

float NeonDot(const float* a, const float* b, size_t dim) {
  float32x4_t acc0 = vdupq_n_f32(0.f);
  float32x4_t acc1 = vdupq_n_f32(0.f);
  size_t i = 0;
  for (; i + 8 <= dim; i += 8) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
    acc1 = vfmaq_f32(acc1, vld1q_f32(a + i + 4), vld1q_f32(b + i + 4));
  }
  for (; i + 4 <= dim; i += 4) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
  }
  float tail = 0.f;
  for (; i < dim; ++i) tail += a[i] * b[i];
  return vaddvq_f32(vaddq_f32(acc0, acc1)) + tail;
}

float NeonL2(const float* a, const float* b, size_t dim) {
  float32x4_t acc0 = vdupq_n_f32(0.f);
  float32x4_t acc1 = vdupq_n_f32(0.f);
  size_t i = 0;
  for (; i + 8 <= dim; i += 8) {
    const float32x4_t d0 = vsubq_f32(vld1q_f32(a + i), vld1q_f32(b + i));
    const float32x4_t d1 =
        vsubq_f32(vld1q_f32(a + i + 4), vld1q_f32(b + i + 4));
    acc0 = vfmaq_f32(acc0, d0, d0);
    acc1 = vfmaq_f32(acc1, d1, d1);
  }
  for (; i + 4 <= dim; i += 4) {
    const float32x4_t d0 = vsubq_f32(vld1q_f32(a + i), vld1q_f32(b + i));
    acc0 = vfmaq_f32(acc0, d0, d0);
  }
  float tail = 0.f;
  for (; i < dim; ++i) {
    const float d = a[i] - b[i];
    tail += d * d;
  }
  return vaddvq_f32(vaddq_f32(acc0, acc1)) + tail;
}

/// Dequantizes 4 codes to floats: vmin + vscale * code, fused.
inline float32x4_t Dequant4(const uint8_t* code, const float* vmin,
                            const float* vscale) {
  // 4 bytes -> u16x4 -> u32x4 -> f32x4.
  uint8_t buf[8] = {code[0], code[1], code[2], code[3], 0, 0, 0, 0};
  const uint16x4_t c16 = vget_low_u16(vmovl_u8(vld1_u8(buf)));
  const float32x4_t cf = vcvtq_f32_u32(vmovl_u16(c16));
  return vfmaq_f32(vld1q_f32(vmin), cf, vld1q_f32(vscale));
}

float NeonSq8L2(const float* q, const uint8_t* code, const float* vmin,
                const float* vscale, size_t dim) {
  float32x4_t acc = vdupq_n_f32(0.f);
  size_t d = 0;
  for (; d + 4 <= dim; d += 4) {
    const float32x4_t v = Dequant4(code + d, vmin + d, vscale + d);
    const float32x4_t diff = vsubq_f32(vld1q_f32(q + d), v);
    acc = vfmaq_f32(acc, diff, diff);
  }
  float tail = 0.f;
  for (; d < dim; ++d) {
    const float v = vmin[d] + vscale[d] * code[d];
    const float diff = q[d] - v;
    tail += diff * diff;
  }
  return vaddvq_f32(acc) + tail;
}

float NeonSq8Dot(const float* q, const uint8_t* code, const float* vmin,
                 const float* vscale, size_t dim) {
  float32x4_t acc = vdupq_n_f32(0.f);
  size_t d = 0;
  for (; d + 4 <= dim; d += 4) {
    const float32x4_t v = Dequant4(code + d, vmin + d, vscale + d);
    acc = vfmaq_f32(acc, vld1q_f32(q + d), v);
  }
  float tail = 0.f;
  for (; d < dim; ++d) {
    tail += q[d] * (vmin[d] + vscale[d] * code[d]);
  }
  return vaddvq_f32(acc) + tail;
}

void NeonDotBatch(const float* query, const float* rows, size_t dim, size_t n,
                  float* out) {
  for (size_t i = 0; i < n; ++i) out[i] = NeonDot(query, rows + i * dim, dim);
}

void NeonL2Batch(const float* query, const float* rows, size_t dim, size_t n,
                 float* out) {
  for (size_t i = 0; i < n; ++i) out[i] = NeonL2(query, rows + i * dim, dim);
}

void NeonSq8L2Batch(const float* query, const uint8_t* codes,
                    const float* vmin, const float* vscale, size_t dim,
                    size_t n, float* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = NeonSq8L2(query, codes + i * dim, vmin, vscale, dim);
  }
}

void NeonSq8DotBatch(const float* query, const uint8_t* codes,
                     const float* vmin, const float* vscale, size_t dim,
                     size_t n, float* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = NeonSq8Dot(query, codes + i * dim, vmin, vscale, dim);
  }
}

void NeonL2Nearest(const float* points, size_t n, const float* centroids,
                   size_t k, size_t dim, int32_t* out) {
  ReferenceL2Nearest(NeonL2Batch, points, n, centroids, k, dim, out);
}

bool NeonCpuSupported() { return true; }

}  // namespace

const Backend* NeonBackend() {
  static const Backend backend = {
      .name = "neon",
      .available = NeonCpuSupported,
      .dot = NeonDot,
      .l2 = NeonL2,
      .dot_batch = NeonDotBatch,
      .l2_batch = NeonL2Batch,
      .sq8_l2_batch = NeonSq8L2Batch,
      .sq8_dot_batch = NeonSq8DotBatch,
      // NEON has no gather unit and no u8xi8 dot accumulate in baseline
      // aarch64, so both new slots keep the portable schemes.
      .pq_lookup_batch = ReferencePqLookupBatch,
      .sq8_dot_i8 = NeonSq8DotBatch,
      .l2_nearest = NeonL2Nearest,
  };
  return &backend;
}

#else  // !VDT_KERNELS_HAVE_NEON

const Backend* NeonBackend() { return nullptr; }

#endif

}  // namespace kernels
}  // namespace vdt
