#include "bench.h"

#include <dirent.h>
#include <malloc.h>
#include <sys/stat.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>

#include "common/random.h"
#include "index/kernels/kernels.h"

namespace vdtbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::ceil(std::clamp(p, 0.0, 1.0) * n));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

Metric TailMetric(Report* report, const std::string& name,
                  const std::vector<double>& values, double p,
                  const std::string& unit) {
  const double beyond = static_cast<double>(values.size()) * (1.0 - p);
  report->Check(beyond >= 10.0,
                name + ": only " + std::to_string(values.size()) +
                    " samples, fewer than 10 beyond the percentile");
  return Metric{name, Percentile(values, p), unit, values.size()};
}

std::vector<std::vector<double>> Chunks(const std::vector<double>& values,
                                        size_t size) {
  std::vector<std::vector<double>> chunks;
  const size_t n = std::max<size_t>(1, values.size() / size);
  for (size_t c = 0; c < n; ++c) {
    const auto begin = values.begin() + static_cast<ptrdiff_t>(c * size);
    const auto end =
        c + 1 == n ? values.end() : begin + static_cast<ptrdiff_t>(size);
    chunks.emplace_back(begin, end);
  }
  return chunks;
}

double BlockQuantile(const std::vector<double>& values, size_t block,
                     double p, double across) {
  std::vector<double> per_block;
  for (const auto& chunk : Chunks(values, block)) {
    per_block.push_back(Percentile(chunk, p));
  }
  return Percentile(per_block, across);
}

Metric LatencyMetric(Report* report, const std::string& name,
                     const std::vector<double>& values, double p,
                     const std::string& unit) {
  const size_t block = p >= 0.99 ? kTailBlock : kMedianBlock;
  // Chunks() never yields a block shorter than `block` unless there is only
  // one, so checking the total suffices.
  report->Check(static_cast<double>(std::min(values.size(), block)) *
                        (1.0 - p) >= 10.0 && values.size() >= block,
                name + ": " + std::to_string(values.size()) +
                    " samples, fewer than one block of " +
                    std::to_string(block));
  return Metric{name, BlockQuantile(values, block, p, kAcrossBlocks), unit,
                values.size()};
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------
namespace {

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

struct TraceState {
  std::atomic<bool> enabled{false};
  std::atomic<uint64_t> next_id{1};
  std::mutex mu;
  std::vector<SpanRecord> spans;  // guarded by mu
  Clock::time_point origin = Clock::now();
};

TraceState& State() {
  static TraceState* state = new TraceState();
  return *state;
}

thread_local uint64_t tl_current_span = 0;

int64_t NsSinceOrigin(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t -
                                                              State().origin)
      .count();
}

}  // namespace

void Tracer::Enable(bool on) { State().enabled.store(on); }
bool Tracer::enabled() {
  return State().enabled.load(std::memory_order_relaxed);
}

void Tracer::Record(const char* name, Clock::time_point start,
                    Clock::time_point end) {
  if (!enabled()) return;
  SpanRecord record{State().next_id.fetch_add(1, std::memory_order_relaxed),
                    tl_current_span, name, NsSinceOrigin(start),
                    NsSinceOrigin(end)};
  std::lock_guard<std::mutex> lock(State().mu);
  State().spans.push_back(record);
}

bool Tracer::WriteJsonLines(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(State().mu);
  for (const SpanRecord& s : State().spans) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\""
        << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

Span::Span(const char* name) : name_(name), start_(Clock::now()) {
  if (Tracer::enabled()) {
    id_ = State().next_id.fetch_add(1, std::memory_order_relaxed);
    parent_ = tl_current_span;
    tl_current_span = id_;
  }
}

Span::~Span() { End(); }

double Span::End() {
  const Clock::time_point end = Clock::now();
  const double seconds = std::chrono::duration<double>(end - start_).count();
  if (!open_) return seconds;
  open_ = false;
  if (id_ != 0) {
    tl_current_span = parent_;
    SpanRecord record{id_, parent_, name_, NsSinceOrigin(start_),
                      NsSinceOrigin(end)};
    std::lock_guard<std::mutex> lock(State().mu);
    State().spans.push_back(record);
  }
  return seconds;
}

// ---------------------------------------------------------------------------
// Process readers
// ---------------------------------------------------------------------------
namespace {

/// The numeric field `key` of a "key: value" /proc file, or 0.
uint64_t ProcField(const char* path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0) {
      std::istringstream fields(line.substr(key.size()));
      uint64_t value = 0;
      fields >> value;
      return value;
    }
  }
  return 0;
}

}  // namespace

double PeakRssMib() {
  return static_cast<double>(ProcField("/proc/self/status", "VmHWM:")) /
         1024.0;
}

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

HostSpeed::HostSpeed() : buffer_(kReferenceFloats) {
  for (size_t i = 0; i < buffer_.size(); ++i) {
    buffer_[i] = static_cast<float>(i % 7);
  }
}

void HostSpeed::Sample() {
  // One float per 64-byte line is summed, so each pass streams the whole
  // buffer through the memory system.
  constexpr size_t kLine = 16;
  std::vector<double> reps;
  float sum = 0;
  for (int rep = 0; rep < 9; ++rep) {
    const double start = ProcessCpuSeconds();
    for (int pass = 0; pass < 40; ++pass) {
      for (size_t i = 0; i < buffer_.size(); i += kLine) sum += buffer_[i];
      buffer_[static_cast<size_t>(pass) * kLine] += 1;
    }
    reps.push_back(ProcessCpuSeconds() - start);
  }
  checksum_ += sum;  // keeps the loads from being optimized away
  samples_.push_back(Median(reps));
}

double HostSpeed::Scale() const {
  return samples_.empty() ? 1.0 : kNominalReferenceSeconds / Median(samples_);
}

void PrintHostSpeed(const HostSpeed& host) {
  std::printf("host speed: reference");
  for (double s : host.samples()) std::printf(" %.5f", s);
  std::printf(" s (nominal %.5f s), scale %.4f\n", kNominalReferenceSeconds,
              host.Scale());
}

uint64_t WcharBytes() { return ProcField("/proc/self/io", "wchar:"); }

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return 0;
  while (dirent* entry = readdir(d)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    const std::string path = dir + "/" + name;
    struct stat st {};
    if (lstat(path.c_str(), &st) != 0) continue;
    if (S_ISDIR(st.st_mode)) {
      total += DirBytes(path);
    } else if (S_ISREG(st.st_mode)) {
      total += static_cast<uint64_t>(st.st_size);
    }
  }
  closedir(d);
  return total;
}

// ---------------------------------------------------------------------------
// Kernel layer probe
// ---------------------------------------------------------------------------

void ProbeKernels(size_t dim, Report* report) {
  namespace k = vdt::kernels;
  const k::Backend& backend = k::Active();
  constexpr size_t kRows = 4096;  // 1.5 MiB at d=96: cache-resident
  vdt::Rng rng(7);
  std::vector<float> rows(kRows * dim);
  std::vector<float> query(dim);
  for (float& v : rows) v = static_cast<float>(rng.Normal());
  for (float& v : query) v = static_cast<float>(rng.Normal());
  std::vector<float> out(kRows);
  const double bytes = static_cast<double>(kRows * dim * sizeof(float));

  auto gbps = [&](const char* span_name, auto fn) {
    std::vector<double> rates;
    for (int rep = 0; rep < 9; ++rep) {
      Span span(span_name);
      int calls = 0;
      while (span.Seconds() < 0.02) {
        fn(query.data(), rows.data(), dim, kRows, out.data());
        ++calls;
      }
      rates.push_back(bytes * calls / span.End() / 1e9);
    }
    return Median(rates);
  };
  report->per_layer.push_back(
      {"kernels.dot_batch_gbps", gbps("kernels.dot_batch", backend.dot_batch),
       "GB/s"});
  report->per_layer.push_back(
      {"kernels.l2_batch_gbps", gbps("kernels.l2_batch", backend.l2_batch),
       "GB/s"});
}

}  // namespace vdtbench
