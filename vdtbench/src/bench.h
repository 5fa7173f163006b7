// Shared pieces of the repository benchmark: the run report, the one
// percentile definition, the span recorder, and /proc readers.
#ifndef VDTBENCH_BENCH_H_
#define VDTBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace vdtbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Command-line arguments of one run.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/run";  // scratch files and traces
};

/// One named value with its unit. `samples` is the sample count behind a
/// percentile (0 when the value is not a percentile).
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};

/// Everything one run produced. A workload appends end-to-end metrics to
/// `end_to_end` on untraced runs and per-layer metrics to `per_layer` on
/// traced runs; any failed output check goes to `failures`.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> failures;
  std::vector<std::pair<std::string, std::string>> provenance;

  void Check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

// ---------------------------------------------------------------------------
// Statistics. One percentile definition throughout: ceiling nearest-rank,
// rank = ceil(p * n) clamped to [1, n], as net::LatencyHistogram::Percentile
// uses, so client-side and server-side views compare.
// ---------------------------------------------------------------------------

/// Percentile of `values` (any order) by ceiling nearest-rank; 0 when empty.
double Percentile(std::vector<double> values, double p);

inline double Median(const std::vector<double>& values) {
  return Percentile(values, 0.5);
}

/// A tail percentile that `report` publishes: checks that at least ten
/// samples lie beyond it and records the sample count.
Metric TailMetric(Report* report, const std::string& name,
                  const std::vector<double>& values, double p,
                  const std::string& unit);

/// Open-loop latencies are summarized per block of consecutive requests,
/// and a run reports the lower quartile over its blocks. The shared host has
/// slow periods of a few seconds that would otherwise decide a run; a
/// regression that slows every block still moves the figure in full. A p99
/// block holds kTailBlock requests (ten beyond its p99), a p50 block
/// kMedianBlock.
inline constexpr size_t kTailBlock = 1000;
inline constexpr size_t kMedianBlock = 100;
inline constexpr double kAcrossBlocks = 0.25;

/// Consecutive chunks of `size` values; the last absorbs the remainder.
std::vector<std::vector<double>> Chunks(const std::vector<double>& values,
                                        size_t size);

/// The `across`-quantile over consecutive blocks of `block` values of each
/// block's p-th percentile.
double BlockQuantile(const std::vector<double>& values, size_t block,
                     double p, double across);

/// The p-th percentile of latencies `values` (in request order) as a run
/// reports it: per block, then the lower quartile across blocks. Published
/// with the sample count; checks that every block has at least ten samples
/// beyond its percentile.
Metric LatencyMetric(Report* report, const std::string& name,
                     const std::vector<double>& values, double p,
                     const std::string& unit);

// ---------------------------------------------------------------------------
// Span recorder. Spans are recorded from the benchmark's own code around
// calls into each library layer: name, start, end, and the enclosing span on
// the same thread. They are kept in memory and written out when the run
// ends. Recording is off unless the run is traced.
// ---------------------------------------------------------------------------

class Tracer {
 public:
  static void Enable(bool on);
  static bool enabled();
  /// Records a span whose start and end are already known (a request
  /// pipelined on a connection); its parent is the thread's open span.
  static void Record(const char* name, Clock::time_point start,
                     Clock::time_point end);
  /// Writes the spans recorded so far, in completion order, as JSON lines
  /// to `path`.
  static bool WriteJsonLines(const std::string& path);
};

/// RAII span; the elapsed time is available whether or not tracing is on,
/// so the same timer feeds both the span and the metric.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  double Seconds() const { return SecondsSince(start_); }
  /// Ends the span early and returns its duration in seconds.
  double End();

 private:
  const char* name_;
  Clock::time_point start_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  bool open_ = true;
};

/// Times `fn` under a span named `name`; returns seconds.
inline double Timed(const char* name, const std::function<void()>& fn) {
  Span span(name);
  fn();
  return span.End();
}

// ---------------------------------------------------------------------------
// Process readers.
// ---------------------------------------------------------------------------

/// Peak resident set size (VmHWM) in MiB.
double PeakRssMib();
/// Returns free heap memory to the system and restarts the VmHWM peak from
/// the current RSS. Workloads call it before their last set-up, once the
/// previous one is released, so peak_rss_mib covers one set-up plus the
/// measurement, not earlier repetitions or the allocator's leftovers.
void ResetPeakRss();
/// CPU time all threads of this process have run so far (user + system).
/// The hypervisor's steal time is not counted in it.
double ProcessCpuSeconds();
/// The host's speed, from the CPU time of a fixed reference computation the
/// benchmark owns: streaming a buffer four times the size of L2. The shared
/// VM has phases of tens of minutes in which its other tenants' memory
/// traffic slows everything down: CPU time per operation rose ~1.4x on both
/// workloads and a streaming loop like this one ~1.44x, while a
/// compute-only loop rose ~1.17x. End-to-end times are scaled to the speed
/// at which the reference takes kNominalReferenceSeconds, so runs in
/// different phases compare. The reference calls nothing in the library,
/// so no change to it moves it.
class HostSpeed {
 public:
  /// Allocates the reference's 8 MiB buffer, held for the object's
  /// lifetime: construct it before the peak-RSS window opens, and
  /// peak_rss_mib includes the buffer as a constant.
  HostSpeed();
  /// Measures the reference (median of nine repetitions) with the program
  /// under test idle, between units of the workload's work.
  void Sample();
  /// kNominalReferenceSeconds over the median sampled reference time;
  /// multiply a CPU time by it to read it at the reference speed.
  double Scale() const;
  const std::vector<double>& samples() const { return samples_; }

 private:
  static constexpr size_t kReferenceFloats = size_t{2} << 20;  // 8 MiB
  std::vector<float> buffer_;
  std::vector<double> samples_;
  float checksum_ = 0;
};
inline constexpr double kNominalReferenceSeconds = 0.015;
/// Prints the reference samples and the scale.
void PrintHostSpeed(const HostSpeed& host);

/// Bytes this process passed to write-type syscalls so far (wchar).
uint64_t WcharBytes();
/// Total size of regular files under `dir`, recursively.
uint64_t DirBytes(const std::string& dir);

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

// An untraced run measures its workload and fills `end_to_end` with the
// same metrics on every workload: setup_s, peak_rss_mib, op_us (CPU time per
// unit of the workload's work) and search_recall. Times are CPU time: on the
// shared VM the hypervisor's steal time moved every wall-clock figure by
// more than any usable bound.
void RunTune(const RunArgs& args, Report* report);
void RunServeRead(const RunArgs& args, Report* report);

// A traced run makes every layer probe whatever its workload, so every
// traced run reports the same per-layer metrics. `overhead` is set on the
// probe that re-runs the workload's own measurement untraced and traced and
// appends the difference as trace.overhead_pct.
void TraceTune(bool overhead, Report* report);
void TraceRead(const RunArgs& args, bool overhead, Report* report);
/// Durable serving with write rounds beside searches, then recovery; checks
/// that acknowledged writes survive.
void TraceWrite(const RunArgs& args, Report* report);

/// Per-layer kernel throughput at `dim` through the kernels::Active()
/// backend (whose name the provenance records); appends kernels.* metrics.
void ProbeKernels(size_t dim, Report* report);

}  // namespace vdtbench

#endif  // VDTBENCH_BENCH_H_
