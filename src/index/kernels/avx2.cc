// AVX2 + FMA backend (x86-64). Each row reduces through two 8-lane FMA
// accumulators (lane j of accumulator u holds terms i with i % 16 == 8u + j),
// a fixed lanewise pairwise horizontal sum, and a scalar tail — one scheme
// per row regardless of batch size, which is what makes the batch kernels
// block-invariant. Compiled via function-level target attributes so the
// rest of the TU (and the library) stays baseline-ISA; the runtime CPUID
// check gates registration.
#include "index/kernels/kernels.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define VDT_KERNELS_HAVE_AVX2 1
#include <immintrin.h>
#endif

namespace vdt {
namespace kernels {

#if defined(VDT_KERNELS_HAVE_AVX2)

namespace {

#define VDT_AVX2 __attribute__((target("avx2,fma")))

/// Fixed horizontal reduction: 128-bit halves added lanewise, then the
/// classic movehdup/movehl pairwise collapse. Deterministic by construction.
VDT_AVX2 inline float Hsum256(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  __m128 shuf = _mm_movehdup_ps(lo);
  __m128 sums = _mm_add_ps(lo, shuf);
  shuf = _mm_movehl_ps(shuf, sums);
  sums = _mm_add_ss(sums, shuf);
  return _mm_cvtss_f32(sums);
}

/// 128-bit lanewise collapse of a 256-bit accumulator (the first step of
/// Hsum256, shared with the four-row transposed reduction below).
VDT_AVX2 inline __m128 Half128(__m256 v) {
  return _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
}

/// Reduces four per-row 128-bit partials to (sum0, sum1, sum2, sum3) via
/// three hadds. Each lane computes (s0+s1)+(s2+s3) up to operand order —
/// IEEE addition is commutative bitwise — so every row's sum is identical
/// to what Hsum256 produces for that row. Cheaper than four serial Hsums.
VDT_AVX2 inline __m128 Hsum4x128(__m128 s0, __m128 s1, __m128 s2, __m128 s3) {
  const __m128 p01 = _mm_hadd_ps(s0, s1);  // (s0 pairs, s1 pairs)
  const __m128 p23 = _mm_hadd_ps(s2, s3);
  return _mm_hadd_ps(p01, p23);  // ((s0),(s1),(s2),(s3)) fully reduced
}

VDT_AVX2 float Avx2Dot(const float* a, const float* b, size_t dim) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
  }
  for (; i + 8 <= dim; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
  }
  float tail = 0.f;
  for (; i < dim; ++i) tail += a[i] * b[i];
  return Hsum256(_mm256_add_ps(acc0, acc1)) + tail;
}

VDT_AVX2 float Avx2L2(const float* a, const float* b, size_t dim) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    const __m256 d0 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    const __m256 d1 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i + 8), _mm256_loadu_ps(b + i + 8));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
    acc1 = _mm256_fmadd_ps(d1, d1, acc1);
  }
  for (; i + 8 <= dim; i += 8) {
    const __m256 d0 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
  }
  float tail = 0.f;
  for (; i < dim; ++i) {
    const float d = a[i] - b[i];
    tail += d * d;
  }
  return Hsum256(_mm256_add_ps(acc0, acc1)) + tail;
}

/// Dequantizes 8 codes (bytes) to floats: vmin + vscale * code, fused.
VDT_AVX2 inline __m256 Dequant8(const uint8_t* code, const float* vmin,
                                const float* vscale) {
  const __m128i c8 =
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(code));
  const __m256 cf = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(c8));
  return _mm256_fmadd_ps(cf, _mm256_loadu_ps(vscale), _mm256_loadu_ps(vmin));
}

VDT_AVX2 float Avx2Sq8L2(const float* q, const uint8_t* code,
                         const float* vmin, const float* vscale, size_t dim) {
  __m256 acc = _mm256_setzero_ps();
  size_t d = 0;
  for (; d + 8 <= dim; d += 8) {
    const __m256 v = Dequant8(code + d, vmin + d, vscale + d);
    const __m256 diff = _mm256_sub_ps(_mm256_loadu_ps(q + d), v);
    acc = _mm256_fmadd_ps(diff, diff, acc);
  }
  float tail = 0.f;
  for (; d < dim; ++d) {
    const float v = vmin[d] + vscale[d] * code[d];
    const float diff = q[d] - v;
    tail += diff * diff;
  }
  return Hsum256(acc) + tail;
}

VDT_AVX2 float Avx2Sq8Dot(const float* q, const uint8_t* code,
                          const float* vmin, const float* vscale, size_t dim) {
  __m256 acc = _mm256_setzero_ps();
  size_t d = 0;
  for (; d + 8 <= dim; d += 8) {
    const __m256 v = Dequant8(code + d, vmin + d, vscale + d);
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(q + d), v, acc);
  }
  float tail = 0.f;
  for (; d < dim; ++d) {
    tail += q[d] * (vmin[d] + vscale[d] * code[d]);
  }
  return Hsum256(acc) + tail;
}

// Four-row inner kernels: the batch form's load-amortization win. A lone
// row pays 2 loads (query + row) per FMA and saturates the load ports at
// half FMA throughput; four rows share each query load (10 loads per 8
// FMAs). Every row keeps the exact accumulator scheme of the one-row
// kernel — same loads, same FMA order, same tail — so batch results stay
// bit-identical to Avx2Dot/Avx2L2 on each row (the block-invariance
// contract), and the remainder rows can simply fall back to the one-row
// kernel.
__attribute__((always_inline)) VDT_AVX2 inline void Avx2DotRows4(
    const float* q, const float* rows, size_t dim, float* out) {
  const float* r0 = rows;
  const float* r1 = rows + dim;
  const float* r2 = rows + 2 * dim;
  const float* r3 = rows + 3 * dim;
  __m256 a00 = _mm256_setzero_ps(), a01 = _mm256_setzero_ps();
  __m256 a10 = _mm256_setzero_ps(), a11 = _mm256_setzero_ps();
  __m256 a20 = _mm256_setzero_ps(), a21 = _mm256_setzero_ps();
  __m256 a30 = _mm256_setzero_ps(), a31 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    const __m256 q0 = _mm256_loadu_ps(q + i);
    const __m256 q1 = _mm256_loadu_ps(q + i + 8);
    a00 = _mm256_fmadd_ps(q0, _mm256_loadu_ps(r0 + i), a00);
    a01 = _mm256_fmadd_ps(q1, _mm256_loadu_ps(r0 + i + 8), a01);
    a10 = _mm256_fmadd_ps(q0, _mm256_loadu_ps(r1 + i), a10);
    a11 = _mm256_fmadd_ps(q1, _mm256_loadu_ps(r1 + i + 8), a11);
    a20 = _mm256_fmadd_ps(q0, _mm256_loadu_ps(r2 + i), a20);
    a21 = _mm256_fmadd_ps(q1, _mm256_loadu_ps(r2 + i + 8), a21);
    a30 = _mm256_fmadd_ps(q0, _mm256_loadu_ps(r3 + i), a30);
    a31 = _mm256_fmadd_ps(q1, _mm256_loadu_ps(r3 + i + 8), a31);
  }
  for (; i + 8 <= dim; i += 8) {
    const __m256 q0 = _mm256_loadu_ps(q + i);
    a00 = _mm256_fmadd_ps(q0, _mm256_loadu_ps(r0 + i), a00);
    a10 = _mm256_fmadd_ps(q0, _mm256_loadu_ps(r1 + i), a10);
    a20 = _mm256_fmadd_ps(q0, _mm256_loadu_ps(r2 + i), a20);
    a30 = _mm256_fmadd_ps(q0, _mm256_loadu_ps(r3 + i), a30);
  }
  float t0 = 0.f, t1 = 0.f, t2 = 0.f, t3 = 0.f;
  for (; i < dim; ++i) {
    t0 += q[i] * r0[i];
    t1 += q[i] * r1[i];
    t2 += q[i] * r2[i];
    t3 += q[i] * r3[i];
  }
  const __m128 sums =
      Hsum4x128(Half128(_mm256_add_ps(a00, a01)),
                Half128(_mm256_add_ps(a10, a11)),
                Half128(_mm256_add_ps(a20, a21)),
                Half128(_mm256_add_ps(a30, a31)));
  _mm_storeu_ps(out, _mm_add_ps(sums, _mm_setr_ps(t0, t1, t2, t3)));
}

__attribute__((always_inline)) VDT_AVX2 inline void Avx2L2Rows4(
    const float* q, const float* rows, size_t dim, float* out) {
  const float* r0 = rows;
  const float* r1 = rows + dim;
  const float* r2 = rows + 2 * dim;
  const float* r3 = rows + 3 * dim;
  __m256 a00 = _mm256_setzero_ps(), a01 = _mm256_setzero_ps();
  __m256 a10 = _mm256_setzero_ps(), a11 = _mm256_setzero_ps();
  __m256 a20 = _mm256_setzero_ps(), a21 = _mm256_setzero_ps();
  __m256 a30 = _mm256_setzero_ps(), a31 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    const __m256 q0 = _mm256_loadu_ps(q + i);
    const __m256 q1 = _mm256_loadu_ps(q + i + 8);
    __m256 d;
    d = _mm256_sub_ps(q0, _mm256_loadu_ps(r0 + i));
    a00 = _mm256_fmadd_ps(d, d, a00);
    d = _mm256_sub_ps(q1, _mm256_loadu_ps(r0 + i + 8));
    a01 = _mm256_fmadd_ps(d, d, a01);
    d = _mm256_sub_ps(q0, _mm256_loadu_ps(r1 + i));
    a10 = _mm256_fmadd_ps(d, d, a10);
    d = _mm256_sub_ps(q1, _mm256_loadu_ps(r1 + i + 8));
    a11 = _mm256_fmadd_ps(d, d, a11);
    d = _mm256_sub_ps(q0, _mm256_loadu_ps(r2 + i));
    a20 = _mm256_fmadd_ps(d, d, a20);
    d = _mm256_sub_ps(q1, _mm256_loadu_ps(r2 + i + 8));
    a21 = _mm256_fmadd_ps(d, d, a21);
    d = _mm256_sub_ps(q0, _mm256_loadu_ps(r3 + i));
    a30 = _mm256_fmadd_ps(d, d, a30);
    d = _mm256_sub_ps(q1, _mm256_loadu_ps(r3 + i + 8));
    a31 = _mm256_fmadd_ps(d, d, a31);
  }
  for (; i + 8 <= dim; i += 8) {
    const __m256 q0 = _mm256_loadu_ps(q + i);
    __m256 d;
    d = _mm256_sub_ps(q0, _mm256_loadu_ps(r0 + i));
    a00 = _mm256_fmadd_ps(d, d, a00);
    d = _mm256_sub_ps(q0, _mm256_loadu_ps(r1 + i));
    a10 = _mm256_fmadd_ps(d, d, a10);
    d = _mm256_sub_ps(q0, _mm256_loadu_ps(r2 + i));
    a20 = _mm256_fmadd_ps(d, d, a20);
    d = _mm256_sub_ps(q0, _mm256_loadu_ps(r3 + i));
    a30 = _mm256_fmadd_ps(d, d, a30);
  }
  float t0 = 0.f, t1 = 0.f, t2 = 0.f, t3 = 0.f;
  for (; i < dim; ++i) {
    const float d0 = q[i] - r0[i];
    const float d1 = q[i] - r1[i];
    const float d2 = q[i] - r2[i];
    const float d3 = q[i] - r3[i];
    t0 += d0 * d0;
    t1 += d1 * d1;
    t2 += d2 * d2;
    t3 += d3 * d3;
  }
  const __m128 sums =
      Hsum4x128(Half128(_mm256_add_ps(a00, a01)),
                Half128(_mm256_add_ps(a10, a11)),
                Half128(_mm256_add_ps(a20, a21)),
                Half128(_mm256_add_ps(a30, a31)));
  _mm_storeu_ps(out, _mm_add_ps(sums, _mm_setr_ps(t0, t1, t2, t3)));
}

VDT_AVX2 void Avx2DotBatch(const float* query, const float* rows, size_t dim,
                           size_t n, float* out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    Avx2DotRows4(query, rows + i * dim, dim, out + i);
  }
  for (; i < n; ++i) out[i] = Avx2Dot(query, rows + i * dim, dim);
}

VDT_AVX2 void Avx2L2Batch(const float* query, const float* rows, size_t dim,
                          size_t n, float* out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    Avx2L2Rows4(query, rows + i * dim, dim, out + i);
  }
  for (; i < n; ++i) out[i] = Avx2L2(query, rows + i * dim, dim);
}

VDT_AVX2 void Avx2Sq8L2Batch(const float* query, const uint8_t* codes,
                             const float* vmin, const float* vscale,
                             size_t dim, size_t n, float* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = Avx2Sq8L2(query, codes + i * dim, vmin, vscale, dim);
  }
}

VDT_AVX2 void Avx2Sq8DotBatch(const float* query, const uint8_t* codes,
                              const float* vmin, const float* vscale,
                              size_t dim, size_t n, float* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = Avx2Sq8Dot(query, codes + i * dim, vmin, vscale, dim);
  }
}

/// Gathered ADC table scan: 8 subspaces per vpgatherdps (lane l of the
/// accumulator holds terms s with s % 8 == l, summed in s order), a scalar
/// remainder loop, bias added after the Hsum256 reduction — one fixed
/// scheme per row, so the batch is block-invariant. The serial
/// acc += table[...] chain of the reference loop is the bottleneck the
/// gather removes: 8 independent loads replace 8 dependent float adds.
VDT_AVX2 void Avx2PqLookupBatch(const float* table, const uint16_t* codes,
                                size_t m, size_t ksub, size_t n, float bias,
                                float* out) {
  const __m256i lane_base = _mm256_mullo_epi32(
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
      _mm256_set1_epi32(static_cast<int>(ksub)));
  for (size_t i = 0; i < n; ++i) {
    const uint16_t* code = codes + i * m;
    __m256 acc = _mm256_setzero_ps();
    size_t s = 0;
    for (; s + 8 <= m; s += 8) {
      const __m128i c16 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(code + s));
      const __m256i idx = _mm256_add_epi32(
          _mm256_cvtepu16_epi32(c16),
          _mm256_add_epi32(lane_base,
                           _mm256_set1_epi32(static_cast<int>(s * ksub))));
      acc = _mm256_add_ps(acc, _mm256_i32gather_ps(table, idx, 4));
    }
    float tail = 0.f;
    for (; s < m; ++s) tail += table[s * ksub + code[s]];
    out[i] = bias + (Hsum256(acc) + tail);
  }
}

#undef VDT_AVX2

// No transposed layout here: the 8-lane scheme's scalar tail would have to
// be replayed lane by lane, so assignment keeps the argmin loop.
void Avx2L2Nearest(const float* points, size_t n, const float* centroids,
                   size_t k, size_t dim, int32_t* out) {
  ReferenceL2Nearest(Avx2L2Batch, points, n, centroids, k, dim, out);
}

bool Avx2CpuSupported() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

}  // namespace

const Backend* Avx2Backend() {
  static const Backend backend = {
      .name = "avx2",
      .available = Avx2CpuSupported,
      .dot = Avx2Dot,
      .l2 = Avx2L2,
      .dot_batch = Avx2DotBatch,
      .l2_batch = Avx2L2Batch,
      .sq8_l2_batch = Avx2Sq8L2Batch,
      .sq8_dot_batch = Avx2Sq8DotBatch,
      .pq_lookup_batch = Avx2PqLookupBatch,
      // No VEX-VNNI path here: the quantized dot keeps the float scheme.
      .sq8_dot_i8 = Avx2Sq8DotBatch,
      .l2_nearest = Avx2L2Nearest,
  };
  return &backend;
}

#else  // !VDT_KERNELS_HAVE_AVX2

const Backend* Avx2Backend() { return nullptr; }

#endif

}  // namespace kernels
}  // namespace vdt
