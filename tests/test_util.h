// Shared helpers for the test suite.
#ifndef VDTUNER_TESTS_TEST_UTIL_H_
#define VDTUNER_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/float_matrix.h"
#include "common/random.h"
#include "index/distance.h"
#include "index/kernels/kernels.h"
#include "storage/file_io.h"

namespace vdt {
namespace testing_util {

/// Random matrix with i.i.d. normal entries (optionally normalized rows).
inline FloatMatrix RandomMatrix(size_t rows, size_t dim, uint64_t seed,
                                bool normalize = true) {
  Rng rng(seed);
  FloatMatrix m(rows, dim);
  for (size_t i = 0; i < rows; ++i) {
    float* row = m.Row(i);
    for (size_t d = 0; d < dim; ++d) {
      row[d] = static_cast<float>(rng.Normal());
    }
    if (normalize) NormalizeVector(row, dim);
  }
  return m;
}

/// Clustered matrix: `clusters` Gaussian blobs on the sphere.
inline FloatMatrix ClusteredMatrix(size_t rows, size_t dim, int clusters,
                                   double spread, uint64_t seed,
                                   bool normalize = true) {
  Rng rng(seed);
  FloatMatrix centers = RandomMatrix(clusters, dim, seed ^ 0xC3, true);
  FloatMatrix m(rows, dim);
  for (size_t i = 0; i < rows; ++i) {
    const float* c = centers.Row(i % clusters);
    float* row = m.Row(i);
    for (size_t d = 0; d < dim; ++d) {
      row[d] = c[d] + static_cast<float>(rng.Normal(0.0, spread));
    }
    if (normalize) NormalizeVector(row, dim);
  }
  return m;
}

/// Restores the active kernel backend on scope exit, so tests that swap
/// backends never leak state into later tests (or into the other suites
/// when run under a specific VDT_KERNEL).
class BackendGuard {
 public:
  BackendGuard() : saved_(kernels::Active().name) {}
  ~BackendGuard() { kernels::SetActive(saved_); }

 private:
  std::string saved_;
};

/// 64-bit FNV-1a over `bytes`: the digest the golden tests pin.
inline uint64_t Fnv1a64(const std::vector<uint8_t>& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

/// A scratch directory removed on scope exit.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/vdt_test_XXXXXX";
    const char* made = mkdtemp(tmpl);
    if (made != nullptr) path_ = made;
    EXPECT_FALSE(path_.empty());
  }
  ~TempDir() {
    if (!path_.empty()) (void)RemoveDirRecursive(path_);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace testing_util
}  // namespace vdt

#endif  // VDTUNER_TESTS_TEST_UTIL_H_
