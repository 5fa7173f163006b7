// AUTOINDEX (paper Table I): Milvus' no-knob default. Picks a sensible
// pre-tuned configuration from the data size — FLAT for tiny segments,
// HNSW with fixed defaults otherwise. Exposes no tunable parameters.
#ifndef VDTUNER_INDEX_AUTO_INDEX_H_
#define VDTUNER_INDEX_AUTO_INDEX_H_

#include <memory>

#include "index/index.h"

namespace vdt {

/// The pre-tuned HNSW profile AUTOINDEX builds above its FLAT threshold
/// (M = 16, efConstruction = 128, ef = 64), defined once for the index and
/// the build-time cost model.
IndexParams AutoIndexHnswProfile();

/// AUTOINDEX exposes no knobs; both delegates build on the calling thread.
class AutoIndex : public VectorIndex {
 public:
  AutoIndex(Metric metric, uint64_t seed) : metric_(metric), seed_(seed) {}

  Status Build(const FloatMatrix& data) override;
  /// AUTOINDEX has no user-visible knobs: per-call overrides are ignored,
  /// exactly as its UpdateSearchParams() is a no-op.
  std::vector<Neighbor> SearchFiltered(const float* query, size_t k,
                                       const RowFilter* filter,
                                       WorkCounters* counters,
                                       const IndexParams* knobs) const override;
  size_t MemoryBytes() const override;
  IndexType type() const override { return IndexType::kAutoIndex; }
  size_t Size() const override;

  /// The index AUTOINDEX delegated to after Build (FLAT or HNSW).
  IndexType delegate_type() const;

  /// Records the delegate's type tag followed by the delegate's own state;
  /// restore recreates the delegate and forwards to its RestoreState.
  Status SerializeState(ByteWriter* writer) const override;
  Status RestoreState(ByteReader* reader, const FloatMatrix& data) override;

 private:
  Metric metric_;
  uint64_t seed_;
  std::unique_ptr<VectorIndex> delegate_;
};

}  // namespace vdt

#endif  // VDTUNER_INDEX_AUTO_INDEX_H_
