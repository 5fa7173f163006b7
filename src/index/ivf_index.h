// The IVF (inverted-file) index family: IVF_FLAT, IVF_SQ8, IVF_PQ
// (paper Table I). A k-means coarse quantizer partitions the segment into
// nlist cells; queries probe the nprobe nearest cells and score their
// members exactly (FLAT), via 8-bit scalar quantization (SQ8), or via
// product-quantization ADC (PQ). Every family stores each cell's payload
// (float rows, SQ8 codes, PQ codes) contiguously in the cell's id order, so
// probing a cell is one sequential block scan.
#ifndef VDTUNER_INDEX_IVF_INDEX_H_
#define VDTUNER_INDEX_IVF_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "index/index.h"
#include "index/kmeans.h"

namespace vdt {

/// Shared coarse-quantizer machinery of the IVF family.
class IvfBaseIndex : public VectorIndex {
 public:
  IvfBaseIndex(Metric metric, const IndexParams& params, uint64_t seed)
      : metric_(metric), params_(params), seed_(seed) {}

  Status Build(const FloatMatrix& data) override;
  size_t Size() const override { return rows_; }

  /// Updates search-time knobs (nprobe) without rebuilding.
  void UpdateSearchParams(const IndexParams& params) override {
    params_.nprobe = params.nprobe;
  }

  /// Shared IVF layout (params, seed, centroids, posting lists) followed by
  /// the subclass payload (SerializeExtra / RestoreExtra).
  Status SerializeState(ByteWriter* writer) const override;
  Status RestoreState(ByteReader* reader, const FloatMatrix& data) override;

 protected:
  /// Hook: append / decode the subclass payload (SQ8 ranges + codes, PQ
  /// codebooks + codes) after the shared IVF layout. RestoreExtra runs with
  /// params_, centroids_, list_ids_, and rows_ already restored+validated.
  virtual Status SerializeExtra(ByteWriter* writer) const {
    (void)writer;
    return Status::OK();
  }
  virtual Status RestoreExtra(ByteReader* reader, const FloatMatrix& data) {
    (void)reader;
    (void)data;
    return Status::OK();
  }
  /// Hook: encode the per-list payload after coarse clustering. `executor`
  /// is the build executor resolved from params_.build_threads (null = run
  /// inline); implementations must keep the encoded payload bit-identical
  /// for every executor width.
  virtual Status EncodeLists(const FloatMatrix& data,
                             ParallelExecutor* executor) = 0;

  /// The effective nprobe for one search call: the per-call override when
  /// present, params_.nprobe otherwise (mirrors UpdateSearchParams).
  int EffectiveNprobe(const IndexParams* knobs) const {
    return knobs != nullptr ? knobs->nprobe : params_.nprobe;
  }

  /// Returns the `nprobe` nearest list ids for `query` (adds coarse work).
  std::vector<int32_t> ProbeLists(const float* query, int nprobe,
                                  WorkCounters* counters) const;

  Metric metric_;
  IndexParams params_;
  uint64_t seed_;
  size_t rows_ = 0;                             // indexed rows (0 = unbuilt)
  FloatMatrix centroids_;                       // nlist x dim
  std::vector<std::vector<int64_t>> list_ids_;  // member row ids per list
};

/// IVF_FLAT: probed cells are scored with exact distances. The index owns
/// its rows in list-major order (list l's rows back to back, in the order
/// of list_ids_[l]), so a probe streams one contiguous block through the
/// batch kernel instead of gathering rows scattered across the segment
/// matrix. A sealed segment therefore drops its own matrix (HoldsRows) and
/// the vectors exist once; MemoryBytes() still excludes them. The persisted
/// state carries no rows: RestoreState re-encodes them from the segment
/// file's vector section.
class IvfFlatIndex : public IvfBaseIndex {
 public:
  using IvfBaseIndex::IvfBaseIndex;

  std::vector<Neighbor> SearchFiltered(const float* query, size_t k,
                                       const RowFilter* filter,
                                       WorkCounters* counters,
                                       const IndexParams* knobs) const override;
  size_t MemoryBytes() const override;
  IndexType type() const override { return IndexType::kIvfFlat; }
  bool HoldsRows() const override { return true; }
  void CopyRows(float* out) const override;

 protected:
  Status EncodeLists(const FloatMatrix& data,
                     ParallelExecutor* executor) override;
  Status RestoreExtra(ByteReader* reader, const FloatMatrix& data) override;

 private:
  FloatMatrix list_rows_;             // rows_ x dim, list-major
  std::vector<size_t> list_offsets_;  // nlist + 1: list l holds rows
                                      // [list_offsets_[l], list_offsets_[l + 1])
};

/// IVF_SQ8: probed cells are scored on 8-bit scalar-quantized codes
/// (4x memory reduction; small recall loss from quantization error).
class IvfSq8Index : public IvfBaseIndex {
 public:
  using IvfBaseIndex::IvfBaseIndex;

  std::vector<Neighbor> SearchFiltered(const float* query, size_t k,
                                       const RowFilter* filter,
                                       WorkCounters* counters,
                                       const IndexParams* knobs) const override;
  size_t MemoryBytes() const override;
  IndexType type() const override { return IndexType::kIvfSq8; }

 protected:
  Status EncodeLists(const FloatMatrix& data,
                     ParallelExecutor* executor) override;
  Status SerializeExtra(ByteWriter* writer) const override;
  Status RestoreExtra(ByteReader* reader, const FloatMatrix& data) override;

 private:
  /// Per-dimension affine dequantization: value = vmin[d] + code * vscale[d].
  std::vector<float> vmin_, vscale_;
  std::vector<std::vector<uint8_t>> list_codes_;  // per list: n_i * dim codes
};

/// IVF_PQ: probed cells are scored with product-quantization asymmetric
/// distance (ADC). Requires dim % m == 0 — violations fail the build, which
/// the evaluator reports as a failed configuration.
class IvfPqIndex : public IvfBaseIndex {
 public:
  using IvfBaseIndex::IvfBaseIndex;

  std::vector<Neighbor> SearchFiltered(const float* query, size_t k,
                                       const RowFilter* filter,
                                       WorkCounters* counters,
                                       const IndexParams* knobs) const override;
  size_t MemoryBytes() const override;
  IndexType type() const override { return IndexType::kIvfPq; }

 protected:
  Status EncodeLists(const FloatMatrix& data,
                     ParallelExecutor* executor) override;
  Status SerializeExtra(ByteWriter* writer) const override;
  Status RestoreExtra(ByteReader* reader, const FloatMatrix& data) override;

 private:
  int ksub_ = 0;        // 2^nbits codewords per subspace
  size_t dsub_ = 0;     // dims per subspace
  FloatMatrix codebooks_;  // (m * ksub) x dsub
  std::vector<std::vector<uint16_t>> list_codes_;  // per list: n_i * m codes
};

}  // namespace vdt

#endif  // VDTUNER_INDEX_IVF_INDEX_H_
