#include "index/hnsw_index.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <queue>
#include <string>

#include "index/index_io.h"
#include "index/topk.h"

namespace vdt {

namespace {
using Candidate = HnswIndex::Candidate;
using Decision = Candidate::Decision;

/// Build-time companion of the adjacency lists, freed when Build returns.
/// Each list owns a block of slots holding its links' distances to the
/// list's owner, in link order, and remembers what the last SelectNeighbors
/// run left: the list reads [kept | pruned | appended since], the first two
/// runs sorted and carrying that run's decisions. Flat arrays, level-0
/// lists first (2M + 1 slots: a full list plus the back-link that overflows
/// it), then every upper-layer list (M + 1 slots).
class LinkState {
 public:
  LinkState(const std::vector<int>& node_level, size_t m)
      : n_(node_level.size()), stride0_(2 * m + 1), stride_(m + 1) {
    upper_first_.resize(n_);
    size_t lists = n_;
    for (size_t i = 0; i < n_; ++i) {
      upper_first_[i] = lists;
      lists += static_cast<size_t>(node_level[i]);
    }
    dist_.resize(n_ * stride0_ + (lists - n_) * stride_);
    kept_.resize(lists);
    decided_.resize(lists);
  }

  size_t List(uint32_t node, int level) const {
    return level == 0 ? node : upper_first_[node] + level - 1;
  }

  float* Distances(size_t list) {
    return dist_.data() + (list < n_ ? list * stride0_
                                     : n_ * stride0_ + (list - n_) * stride_);
  }

  /// `links` in ascending (distance, id) order, each tagged with the
  /// decision it carries.
  void LoadSorted(size_t list, const std::vector<uint32_t>& links,
                  std::vector<Candidate>* out) {
    const float* dist = Distances(list);
    const size_t kept = kept_[list];
    const size_t decided = decided_[list];
    runs_.clear();
    for (size_t j = 0; j < links.size(); ++j) {
      const Decision recorded = j < kept      ? Decision::kKept
                                : j < decided ? Decision::kPruned
                                              : Decision::kNone;
      runs_.push_back({links[j], dist[j], recorded});
    }
    std::sort(runs_.begin() + decided, runs_.end());
    merged_.resize(decided);
    std::merge(runs_.begin(), runs_.begin() + kept, runs_.begin() + kept,
               runs_.begin() + decided, merged_.begin());
    out->resize(links.size());
    std::merge(merged_.begin(), merged_.end(), runs_.begin() + decided,
               runs_.end(), out->begin());
  }

  /// Replaces `links` with a SelectNeighbors result and records it.
  void Store(size_t list, const std::vector<Candidate>& selected, size_t kept,
             std::vector<uint32_t>* links) {
    float* dist = Distances(list);
    links->clear();
    for (size_t j = 0; j < selected.size(); ++j) {
      links->push_back(selected[j].id);
      dist[j] = selected[j].distance;
    }
    kept_[list] = static_cast<uint16_t>(kept);
    decided_[list] = static_cast<uint16_t>(selected.size());
  }

 private:
  size_t n_;
  size_t stride0_;
  size_t stride_;
  std::vector<size_t> upper_first_;  // list index of each node's level 1
  std::vector<float> dist_;
  // Per-list counts; a degree is at most 2 * 512 (Build validates M).
  std::vector<uint16_t> kept_;
  std::vector<uint16_t> decided_;
  // LoadSorted scratch.
  std::vector<Candidate> runs_;
  std::vector<Candidate> merged_;
};
}  // namespace

float HnswIndex::Dist(const float* query, uint32_t id,
                      WorkCounters* counters) const {
  if (counters != nullptr) ++counters->full_distance_evals;
  return Distance(metric_, query, data_->Row(id), data_->dim());
}

size_t HnswIndex::MaxDegree(int level) const {
  const size_t m = static_cast<size_t>(std::max(2, params_.hnsw_m));
  return level == 0 ? 2 * m : m;
}

std::vector<uint32_t>& HnswIndex::LinksAt(uint32_t node, int level) {
  if (level == 0) return links0_[node];
  return upper_[node][level - 1];
}

const std::vector<uint32_t>& HnswIndex::LinksAt(uint32_t node,
                                                int level) const {
  if (level == 0) return links0_[node];
  return upper_[node][level - 1];
}

std::vector<Neighbor> HnswIndex::SearchLayer(const float* query,
                                             uint32_t entry, size_t ef,
                                             int level,
                                             const RowFilter* filter,
                                             WorkCounters* counters) const {
  const size_t dim = data_->dim();
  std::vector<uint8_t> visited(data_->rows(), 0);

  // Min-heap of frontier candidates; bounded max-heap of results.
  struct FurthestFirst {
    bool operator()(const Neighbor& a, const Neighbor& b) const {
      return b < a;  // invert: the top of the heap is the nearest candidate
    }
  };
  std::priority_queue<Neighbor, std::vector<Neighbor>, FurthestFirst> frontier;
  TopKCollector results(ef);

  const float d0 = Dist(query, entry, counters);
  frontier.push({static_cast<int64_t>(entry), d0});
  if (RowIsLive(filter, entry)) results.Offer(entry, d0);
  visited[entry] = 1;

  // Expansion scratch, reused across hops: the unvisited neighbors of one
  // node, their rows gathered into a contiguous block, and one one-to-many
  // scan over it. Processing order stays link order, so results (and the
  // visited-set evolution) are identical to the per-row loop; the distance
  // values are too, by kernel block-invariance.
  std::vector<uint32_t> expand;
  std::vector<float> gathered;
  std::vector<float> expand_dist;

  while (!frontier.empty()) {
    const Neighbor cur = frontier.top();
    frontier.pop();
    if (results.Full() && cur.distance > results.WorstDistance()) break;
    if (counters != nullptr) ++counters->graph_hops;

    const std::vector<uint32_t>& links =
        LinksAt(static_cast<uint32_t>(cur.id), level);
    expand.clear();
    for (uint32_t next : links) {
      if (visited[next]) continue;
      visited[next] = 1;
      expand.push_back(next);
    }
    if (expand.empty()) continue;
    gathered.resize(expand.size() * dim);
    for (size_t j = 0; j < expand.size(); ++j) {
      std::copy_n(data_->Row(expand[j]), dim, &gathered[j * dim]);
    }
    expand_dist.resize(expand.size());
    DistanceBatch(metric_, query, gathered.data(), dim, expand.size(),
                  expand_dist.data());
    if (counters != nullptr) counters->full_distance_evals += expand.size();

    for (size_t j = 0; j < expand.size(); ++j) {
      const uint32_t next = expand[j];
      const float d = expand_dist[j];
      if (!results.Full() || d < results.WorstDistance()) {
        // Tombstoned nodes stay on the frontier (they route the beam) but
        // never enter the results, which is the internal over-fetch: an
        // unfilled result heap keeps the expansion going.
        frontier.push({static_cast<int64_t>(next), d});
        if (RowIsLive(filter, next)) results.Offer(next, d);
      }
    }
  }
  return results.Take();
}

size_t HnswIndex::SelectNeighbors(Metric metric, const FloatMatrix& data,
                                  std::vector<Candidate>* cands,
                                  size_t max_m) {
  std::vector<Candidate>& c = *cands;
  const size_t dim = data.dim();
  // Stable in-place partition: c[0, kept) holds the kept links and
  // c[kept, done) the pruned ones, both in input order.
  size_t kept = 0;
  size_t done = 0;
  // Until an old decision flips, every old kept link is still kept, so an
  // old pruned link keeps its witness and an old kept link can only be
  // overturned by a link kept for the first time in this run.
  bool flipped = false;
  for (; done < c.size() && kept < max_m; ++done) {
    const Candidate cand = c[done];
    bool keep = flipped || cand.recorded != Decision::kPruned;
    if (keep) {
      const bool new_only = !flipped && cand.recorded == Decision::kKept;
      const float* row = data.Row(cand.id);
      for (size_t s = 0; s < kept; ++s) {
        if (new_only && c[s].recorded != Decision::kNone) continue;
        if (Distance(metric, row, data.Row(c[s].id), dim) < cand.distance) {
          keep = false;
          break;
        }
      }
      if (!keep && cand.recorded == Decision::kKept) flipped = true;
    }
    if (keep) {
      std::rotate(c.begin() + kept, c.begin() + done, c.begin() + done + 1);
      ++kept;
    }
  }
  // Links past the cap were never examined and are dropped; the pruned
  // ones backfill what the kept ones leave free.
  c.resize(std::min(max_m, done));
  for (size_t j = 0; j < c.size(); ++j) {
    c[j].recorded = j < kept ? Decision::kKept : Decision::kPruned;
  }
  return kept;
}

Status HnswIndex::Build(const FloatMatrix& data) {
  if (data.empty()) return Status::InvalidArgument("HNSW build: empty data");
  if (params_.hnsw_m < 2 || params_.hnsw_m > 512) {
    return Status::InvalidArgument("HNSW build: M out of range [2, 512] (got " +
                                   std::to_string(params_.hnsw_m) + ")");
  }
  if (params_.ef_construction < 8) {
    return Status::InvalidArgument(
        "HNSW build: efConstruction must be >= 8 (got " +
        std::to_string(params_.ef_construction) + ")");
  }
  data_ = &data;
  const size_t n = data.rows();

  // Exponentially distributed level draws, up front: levels are the build's
  // only random draws, so this is the same stream the per-node draw used.
  Rng rng(seed_);
  const double mult = 1.0 / std::log(static_cast<double>(params_.hnsw_m));
  node_level_.assign(n, 0);
  links0_.assign(n, {});
  upper_.assign(n, {});
  for (size_t i = 0; i < n; ++i) {
    double u = rng.Uniform();
    while (u <= 1e-300) u = rng.Uniform();
    const int level = static_cast<int>(std::floor(-std::log(u) * mult));
    node_level_[i] = level;
    upper_[i].assign(static_cast<size_t>(level), {});
  }

  // First node becomes the entry point.
  entry_ = 0;
  max_level_ = node_level_[0];

  const size_t ef_c = static_cast<size_t>(params_.ef_construction);
  LinkState state(node_level_, MaxDegree(1));
  std::vector<Candidate> chosen;  // a node's own selection
  std::vector<Candidate> prune;   // an overflowing back-link list
  for (uint32_t i = 1; i < n; ++i) {
    const float* q = data.Row(i);
    const int level = node_level_[i];
    uint32_t ep = entry_;

    // Greedy descent through layers above the node's level.
    for (int lc = max_level_; lc > level; --lc) {
      bool improved = true;
      float d_ep = Dist(q, ep, nullptr);
      while (improved) {
        improved = false;
        for (uint32_t nb : LinksAt(ep, lc)) {
          const float d = Dist(q, nb, nullptr);
          if (d < d_ep) {
            d_ep = d;
            ep = nb;
            improved = true;
          }
        }
      }
    }

    // Insert into each layer from the node's top down: search, select the
    // node's links, link back.
    for (int lc = std::min(level, max_level_); lc >= 0; --lc) {
      const std::vector<Neighbor> nearest =
          SearchLayer(q, ep, ef_c, lc, nullptr, nullptr);
      if (!nearest.empty()) ep = static_cast<uint32_t>(nearest.front().id);

      const size_t max_m = MaxDegree(lc);
      chosen.clear();
      for (const Neighbor& nb : nearest) {
        chosen.push_back({static_cast<uint32_t>(nb.id), nb.distance});
      }
      const size_t kept = SelectNeighbors(metric_, data, &chosen, max_m);
      std::vector<uint32_t>& links = LinksAt(i, lc);
      links.reserve(chosen.size());
      state.Store(state.List(i, lc), chosen, kept, &links);

      // Bidirectional connections with degree-bounded pruning. The
      // back-link's distance is the one just used: the kernels are
      // symmetric, so dist(nb, i) == dist(i, nb) bit for bit.
      for (const Candidate& nb : chosen) {
        std::vector<uint32_t>& back = LinksAt(nb.id, lc);
        const size_t list = state.List(nb.id, lc);
        if (back.size() == max_m && back.capacity() != max_m + 1) {
          // The list is about to overflow and stays full from now on:
          // size it exactly once, since every later prune rewrites it in
          // place (a doubled capacity would stay with the built index).
          std::vector<uint32_t> sized;
          sized.reserve(max_m + 1);
          sized.assign(back.begin(), back.end());
          back.swap(sized);
        }
        state.Distances(list)[back.size()] = nb.distance;
        back.push_back(i);
        if (back.size() > max_m) {
          state.LoadSorted(list, back, &prune);
          const size_t back_kept =
              SelectNeighbors(metric_, data, &prune, max_m);
          state.Store(list, prune, back_kept, &back);
        }
      }
    }
    if (level > max_level_) {
      entry_ = i;
      max_level_ = level;
    }
  }
  return Status::OK();
}

std::vector<Neighbor> HnswIndex::SearchFiltered(const float* query, size_t k,
                                                const RowFilter* filter,
                                                WorkCounters* counters,
                                                const IndexParams* knobs) const {
  assert(data_ != nullptr && data_->rows() > 0);
  uint32_t ep = entry_;

  // Greedy descent to layer 1.
  for (int lc = max_level_; lc >= 1; --lc) {
    bool improved = true;
    float d_ep = Dist(query, ep, counters);
    while (improved) {
      improved = false;
      if (counters != nullptr) ++counters->graph_hops;
      for (uint32_t nb : LinksAt(ep, lc)) {
        const float d = Dist(query, nb, counters);
        if (d < d_ep) {
          d_ep = d;
          ep = nb;
          improved = true;
        }
      }
    }
  }

  const int ef_knob = knobs != nullptr ? knobs->ef : params_.ef;
  const size_t ef = std::max<size_t>(static_cast<size_t>(std::max(1, ef_knob)), k);
  std::vector<Neighbor> found = SearchLayer(query, ep, ef, 0, filter, counters);
  if (found.size() > k) found.resize(k);
  return found;
}

Status HnswIndex::SerializeState(ByteWriter* writer) const {
  if (data_ == nullptr) {
    return Status::FailedPrecondition("HNSW serialize: index not built");
  }
  WriteIndexParams(writer, params_);
  writer->U64(seed_);
  writer->I32(max_level_);
  writer->U32(entry_);
  const size_t n = node_level_.size();
  writer->U64(n);
  for (int level : node_level_) writer->I32(level);
  for (const auto& links : links0_) {
    writer->U32(static_cast<uint32_t>(links.size()));
    for (uint32_t target : links) writer->U32(target);
  }
  // upper_[i] holds exactly node_level_[i] lists, so the levels need no
  // explicit counts — the decoder re-derives them from node_level_.
  for (size_t i = 0; i < n; ++i) {
    for (const auto& links : upper_[i]) {
      writer->U32(static_cast<uint32_t>(links.size()));
      for (uint32_t target : links) writer->U32(target);
    }
  }
  return Status::OK();
}

Status HnswIndex::RestoreState(ByteReader* reader, const FloatMatrix& data) {
  if (data.empty()) {
    return MalformedIndexState(Name(), "state over empty data");
  }
  if (!ReadIndexParams(reader, &params_) || !reader->U64(&seed_) ||
      !reader->I32(&max_level_) || !reader->U32(&entry_)) {
    return MalformedIndexState(Name(), "header");
  }
  uint64_t n = 0;
  if (!reader->U64(&n) || n != data.rows()) {
    return MalformedIndexState(Name(), "node count");
  }
  if (!reader->Fits(n, sizeof(int32_t))) {
    return MalformedIndexState(Name(), "node levels");
  }
  node_level_.assign(static_cast<size_t>(n), 0);
  for (auto& level : node_level_) {
    int32_t v = 0;
    if (!reader->I32(&v) || v < 0 || v > 64) {
      return MalformedIndexState(Name(), "node level");
    }
    level = v;
  }
  // Every link target is validated against the node count (and, on upper
  // layers, the target's own level) here, so traversal never range-checks.
  auto read_links = [&](int level, std::vector<uint32_t>* links) -> bool {
    uint32_t count = 0;
    if (!reader->U32(&count) || !reader->Fits(count, sizeof(uint32_t))) {
      return false;
    }
    links->assign(count, 0);
    for (auto& target : *links) {
      if (!reader->U32(&target) || target >= n) return false;
      if (level > 0 && node_level_[target] < level) return false;
    }
    return true;
  };
  links0_.assign(static_cast<size_t>(n), {});
  for (auto& links : links0_) {
    if (!read_links(0, &links)) {
      return MalformedIndexState(Name(), "level-0 links");
    }
  }
  upper_.assign(static_cast<size_t>(n), {});
  for (size_t i = 0; i < n; ++i) {
    upper_[i].resize(static_cast<size_t>(node_level_[i]));
    for (int level = 1; level <= node_level_[i]; ++level) {
      if (!read_links(level, &upper_[i][level - 1])) {
        return MalformedIndexState(Name(), "upper-layer links");
      }
    }
  }
  if (entry_ >= n || max_level_ != node_level_[entry_]) {
    return MalformedIndexState(Name(), "entry point");
  }
  data_ = &data;
  return Status::OK();
}

size_t HnswIndex::MemoryBytes() const {
  size_t bytes = node_level_.size() * sizeof(int);
  for (const auto& l : links0_) {
    bytes += l.size() * sizeof(uint32_t) + sizeof(l);
  }
  for (const auto& levels : upper_) {
    for (const auto& l : levels) bytes += l.size() * sizeof(uint32_t) + sizeof(l);
  }
  return bytes;
}

}  // namespace vdt
