// HNSW: Hierarchical Navigable Small World graph (Malkov & Yashunin, TPAMI
// 2018; paper Table I). Build parameters: M (graph degree), efConstruction
// (build beam width). Search parameter: ef (query beam width).
//
// Construction inserts nodes one at a time in node order on the calling
// thread, whatever params.build_threads says, so every width builds the one
// graph. Running batches of candidate searches concurrently against a graph
// snapshot cost ~30% more CPU for 0-20% less wall time, varying by run.
//
// Linking is where a build spends most of its CPU: every back-link
// that lands in a full adjacency list re-runs the diversity heuristic
// (SelectNeighbors) over the list. The build keeps each link's distance to
// the list's owner beside it, and each heuristic run leaves the list as two
// sorted runs, [kept | pruned], whose decisions the next run reuses. A link
// is kept iff no selected link before it is closer to it than the owner is,
// so an old decision can only change when a newly kept link precedes it:
// a re-prune checks each new link against the kept links before it, each
// old kept link against the newly kept ones only, and, after the first
// decision that flips, every later link in full. It selects exactly what a
// from-scratch run selects, so the graph — link ids, link order, levels
// and entry point — is byte-identical to the historic from-scratch build
// for every backend, M and efConstruction (pinned by the golden digests
// in tests/build_parity_test.cc). Reusing a stored distance relies on the
// kernels' symmetry, dist(a, b) == dist(b, a) bit for bit
// (index/kernels/kernels.h).
#ifndef VDTUNER_INDEX_HNSW_INDEX_H_
#define VDTUNER_INDEX_HNSW_INDEX_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "index/index.h"

namespace vdt {

class HnswIndex : public VectorIndex {
 public:
  /// A link offered to SelectNeighbors: its target, its distance to the
  /// list's owner, and the decision an earlier heuristic run over the same
  /// list recorded for it (kNone for a link no run has seen).
  struct Candidate {
    enum class Decision : uint8_t { kNone, kKept, kPruned };

    uint32_t id = 0;
    float distance = 0.f;
    Decision recorded = Decision::kNone;

    /// Ascending (distance, id), the order of Neighbor.
    bool operator<(const Candidate& other) const {
      return distance < other.distance ||
             (distance == other.distance && id < other.id);
    }
  };

  /// Malkov's diversity heuristic: selects up to `max_m` links from
  /// `cands` (sorted ascending), keeping a link only if it is no closer to
  /// any already-kept link than to the owner, then backfilling with pruned
  /// links in order. Recorded decisions must come from an earlier run over
  /// the same list (with links added since marked kNone); they only save
  /// distance computations and never change the result, which equals a run
  /// with every decision kNone. On return `cands` holds the selection,
  /// [kept | pruned], each link marked with its new decision; the return
  /// value is the kept count.
  static size_t SelectNeighbors(Metric metric, const FloatMatrix& data,
                                std::vector<Candidate>* cands, size_t max_m);

  /// The build runs on the calling thread whatever params.build_threads
  /// asks for, so the index records the width it runs at (1): the
  /// serialized graph is then the same for every requested width.
  HnswIndex(Metric metric, const IndexParams& params, uint64_t seed)
      : metric_(metric), params_(params), seed_(seed) {
    params_.build_threads = 1;
  }

  Status Build(const FloatMatrix& data) override;
  /// `knobs` (may be null) overrides ef for this call only — the same field
  /// UpdateSearchParams() would set, with no index mutation.
  std::vector<Neighbor> SearchFiltered(const float* query, size_t k,
                                       const RowFilter* filter,
                                       WorkCounters* counters,
                                       const IndexParams* knobs) const override;
  void UpdateSearchParams(const IndexParams& params) override {
    params_.ef = params.ef;
  }
  size_t MemoryBytes() const override;
  IndexType type() const override { return IndexType::kHnsw; }
  size_t Size() const override { return data_ ? data_->rows() : 0; }

  int max_level() const { return max_level_; }

  /// Graph state: params, seed, entry point, per-node levels, level-0 and
  /// upper-layer adjacency. Restore validates every link target and the
  /// entry point against `data` before the graph is searchable.
  Status SerializeState(ByteWriter* writer) const override;
  Status RestoreState(ByteReader* reader, const FloatMatrix& data) override;

 private:
  /// Distance from `query` to node `id`, with work accounting.
  float Dist(const float* query, uint32_t id, WorkCounters* counters) const;

  /// Beam search within one layer starting from `entry`; returns up to `ef`
  /// nearest *live* nodes sorted by distance ascending. Tombstoned nodes
  /// (filter != null) are traversed — the graph stays connected through
  /// them — but never collected, so the beam keeps expanding until `ef`
  /// live nodes are found or the component is exhausted.
  std::vector<Neighbor> SearchLayer(const float* query, uint32_t entry,
                                    size_t ef, int level,
                                    const RowFilter* filter,
                                    WorkCounters* counters) const;

  std::vector<uint32_t>& LinksAt(uint32_t node, int level);
  const std::vector<uint32_t>& LinksAt(uint32_t node, int level) const;

  /// Maximum degree at `level` (2M at level 0, M above).
  size_t MaxDegree(int level) const;

  Metric metric_;
  IndexParams params_;
  uint64_t seed_;
  const FloatMatrix* data_ = nullptr;

  int max_level_ = -1;
  uint32_t entry_ = 0;
  std::vector<int> node_level_;
  std::vector<std::vector<uint32_t>> links0_;  // level-0 adjacency
  // upper_[node][l-1] = adjacency of `node` at level l (l >= 1).
  std::vector<std::vector<std::vector<uint32_t>>> upper_;
};

}  // namespace vdt

#endif  // VDTUNER_INDEX_HNSW_INDEX_H_
