// Workload `tune`: a fixed-seed VDTuner session on the glove stand-in,
// in-process and closed loop with one caller. The objective is the
// library's cost-model QPS and recall. A run tunes a fixed panel of
// kDatasets stand-ins, then repeats sessions (the repetitions must agree
// exactly) until its time is up, and reports means over the panel: op_us is
// a session's CPU time per iteration, search_recall the recall of the
// configuration the session recommends at recall >= 0.90. TraceTune is the
// tuning layers' probe that every traced run makes.
//
// The panel does not depend on the run's seed. Which configurations a
// session visits depends on its data, so stand-ins drawn per seed made every
// tune metric a property of the draw: best_qps_r99 spread 0.5-0.8 and the
// session time 0.16-0.3 (interquartile range over median) across seeds,
// beyond any bound a regression gate can use.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "bench.h"
#include "tuner/vdtuner.h"
#include "vdms/vdms.h"
#include "workload/workload.h"

namespace vdtbench {
namespace {

using vdt::DatasetProfile;

constexpr DatasetProfile kProfile = DatasetProfile::kGlove;
constexpr size_t kRows = 4000;     // the glove stand-in's default scale
constexpr size_t kDim = 48;
constexpr size_t kQueries = 64;
constexpr size_t kTopK = 64;
constexpr int kIterations = 20;
constexpr size_t kDatasets = 5;
constexpr size_t kTracedDatasets = 3;
constexpr uint64_t kTunerSeed = 42;  // the session's own seed is fixed
constexpr uint64_t kCollectionSeed = 13;

struct TuneInputs {
  vdt::FloatMatrix data;
  vdt::Workload workload;
};

TuneInputs MakeInputs(uint64_t seed) {
  TuneInputs in;
  in.data = vdt::GenerateDataset(kProfile, kRows, kDim, seed);
  in.workload =
      vdt::MakeWorkload(kProfile, in.data, kQueries, kTopK, seed + 1);
  return in;
}

/// Timing decorator on the public Evaluator interface.
class TimedEvaluator : public vdt::Evaluator {
 public:
  explicit TimedEvaluator(vdt::Evaluator* inner) : inner_(inner) {}

  vdt::EvalOutcome Evaluate(const vdt::TuningConfig& config) override {
    Span span("tuner.evaluate");
    vdt::EvalOutcome outcome = inner_->Evaluate(config);
    seconds_ += span.End();
    return outcome;
  }

  double seconds() const { return seconds_; }

 private:
  vdt::Evaluator* inner_;
  double seconds_ = 0;
};

struct Session {
  double wall_s = 0;
  double cpu_s = 0;
  double evaluate_s = 0;
  double cache_hit_ratio = 0;
  std::vector<vdt::Observation> history;
};

Session RunSession(const TuneInputs& in) {
  Session session;
  const double cpu = ProcessCpuSeconds();
  Span span("tuner.session");
  vdt::VdmsEvaluatorOptions eopts;
  eopts.profile = kProfile;
  eopts.seed = kCollectionSeed;
  vdt::VdmsEvaluator evaluator(&in.data, &in.workload, eopts);
  TimedEvaluator timed(&evaluator);
  vdt::ParamSpace space;
  vdt::TunerOptions topts;
  topts.seed = kTunerSeed;
  vdt::VdtunerOptions vd;
  vd.abandon_window = std::clamp(kIterations / 12, 3, 10);
  vdt::VdTuner tuner(&space, &timed, topts, vd);
  for (int i = 0; i < kIterations; ++i) {
    Span step("tuner.step");
    tuner.Step();
  }
  session.wall_s = span.End();
  session.cpu_s = ProcessCpuSeconds() - cpu;
  session.evaluate_s = timed.seconds();
  const double lookups =
      static_cast<double>(evaluator.cache_hits() + evaluator.cache_misses());
  session.cache_hit_ratio =
      lookups > 0 ? static_cast<double>(evaluator.cache_hits()) / lookups : 0;
  session.history = tuner.history();
  return session;
}

/// What must repeat exactly across sessions of one seed: every evaluated
/// configuration with its cost-model QPS and recall.
std::string HistorySignature(const std::vector<vdt::Observation>& history) {
  std::string sig;
  char buf[96];
  for (const vdt::Observation& o : history) {
    std::snprintf(buf, sizeof(buf), "|%d|%.17g|%.17g|", o.failed ? 1 : 0,
                  o.qps, o.recall);
    sig += o.config.ToString() + buf;
  }
  return sig;
}

/// sessions[d] holds the repetitions of the session on stand-in d.
using SessionGrid = std::vector<std::vector<Session>>;

/// Runs sessions on the stand-ins in turn until `budget_s` has passed (at
/// least `min_sessions`), checking each history against the first session
/// on the same stand-in. Counts iterations as attempted operations, and
/// adds the evaluations that failed to `failed_evaluations`. With `host`,
/// samples the host speed before each session.
SessionGrid RunSessions(const std::vector<TuneInputs>& inputs,
                        double budget_s, size_t min_sessions,
                        uint64_t* failed_evaluations, Report* report,
                        HostSpeed* host = nullptr) {
  SessionGrid grid(inputs.size());
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < min_sessions || SecondsSince(start) < budget_s; ++i) {
    std::vector<Session>& sessions = grid[i % inputs.size()];
    if (host != nullptr) host->Sample();
    sessions.push_back(RunSession(inputs[i % inputs.size()]));
    report->attempted += static_cast<uint64_t>(kIterations);
    for (const vdt::Observation& o : sessions.back().history) {
      *failed_evaluations += o.failed ? 1 : 0;
    }
    report->Check(HistorySignature(sessions.back().history) ==
                      HistorySignature(sessions.front().history),
                  "tune: session history differs across repetitions");
  }
  return grid;
}

/// A failed evaluation is the tuner's outcome (the modelled system's replay
/// timed out on a configuration too slow to serve: the paper's failure
/// handling), the same in every repetition, not a failed operation of the
/// benchmark; it is printed, not counted in the result's `failed`.
void PrintFailedEvaluations(uint64_t failed_evaluations, const Report& report) {
  std::printf("failed evaluations: %llu of %llu\n",
              static_cast<unsigned long long>(failed_evaluations),
              static_cast<unsigned long long>(report.attempted));
}

/// Mean over stand-ins of the median over repetitions of `field`.
double MeanOfMedians(const SessionGrid& grid, double Session::*field) {
  double sum = 0;
  for (const auto& sessions : grid) {
    std::vector<double> values;
    for (const Session& s : sessions) values.push_back(s.*field);
    sum += Median(values);
  }
  return sum / static_cast<double>(grid.size());
}

/// Mean over stand-ins of the best cost-model QPS at `recall_floor`.
double MeanBestQps(const SessionGrid& grid, double recall_floor) {
  double sum = 0;
  for (const auto& sessions : grid) {
    sum += vdt::BestPrimaryUnderRecallFloor(sessions.front().history,
                                            recall_floor);
  }
  return sum / static_cast<double>(grid.size());
}

/// Mean over stand-ins of the recall of the configuration with the best
/// cost-model QPS at `recall_floor`: what the session recommends.
double MeanRecommendedRecall(const SessionGrid& grid, double recall_floor) {
  double sum = 0;
  for (const auto& sessions : grid) {
    double best = -1, recall = 0;
    for (const vdt::Observation& o : sessions.front().history) {
      if (!o.failed && o.recall >= recall_floor && o.primary > best) {
        best = o.primary;
        recall = o.recall;
      }
    }
    sum += recall;
  }
  return sum / static_cast<double>(grid.size());
}

vdt::CollectionOptions StandUpOptions(const vdt::TuningConfig& config,
                                      const std::string& name) {
  const vdt::DatasetSpec& spec = vdt::GetDatasetSpec(kProfile);
  vdt::CollectionOptions copts;
  copts.name = name;
  copts.metric = spec.metric;
  copts.system = config.system;
  copts.index.type = config.index_type;
  copts.index.params = config.index;
  copts.scale.dataset_mb = spec.standin_mb;
  copts.scale.memory_mb = spec.PaperMb();
  copts.scale.actual_rows = kRows;
  copts.seed = kCollectionSeed;
  return copts;
}

/// Re-stands-up one configuration of each index family through VdmsEngine
/// calls (the first the session evaluated, else the family default) and
/// times Insert, Flush and the snapshot replay.
void ProbeStandUp(const TuneInputs& in,
                  const std::vector<vdt::Observation>& history,
                  Report* report) {
  vdt::ParamSpace space;
  vdt::VdmsEngine engine;
  double replay_s = 0;
  for (int t = 0; t < vdt::kNumIndexTypes; ++t) {
    const auto type = static_cast<vdt::IndexType>(t);
    vdt::TuningConfig config = space.DefaultConfig(type);
    for (const vdt::Observation& o : history) {
      if (o.config.index_type == type) {
        config = o.config;
        break;
      }
    }
    const std::string family = vdt::IndexTypeName(type);
    const std::string name = "standup_" + std::to_string(t);
    bool ok = engine.CreateCollection(StandUpOptions(config, name)).ok();
    const double insert_s = Timed("vdms.insert", [&] {
      ok = ok && engine.Insert(name, in.data).ok();
    });
    const double flush_s =
        Timed("vdms.flush", [&] { ok = ok && engine.Flush(name).ok(); });
    report->Check(ok, "tune: standing up " + family + " failed");
    report->per_layer.push_back({"vdms.insert_s." + family, insert_s, "s"});
    report->per_layer.push_back({"vdms.flush_s." + family, flush_s, "s"});
    if (!ok) continue;
    vdt::Result<vdt::CollectionHandle> handle = engine.Open(name);
    if (!handle.ok()) continue;
    const auto snapshot = (*handle)->Snapshot();
    replay_s += Timed("vdms.replay", [&] {
      snapshot->Execute(in.workload.queries, kTopK, nullptr, &config.index,
                        nullptr);
    });
  }
  report->per_layer.push_back({"vdms.replay_s", replay_s, "s"});
}

std::string PanelProvenance() {
  return "VDTuner, " + std::to_string(kIterations) + " iterations, tuner seed " +
         std::to_string(kTunerSeed) + ", " + std::to_string(kDatasets) +
         " glove stand-ins " + std::to_string(kRows) + "x" +
         std::to_string(kDim) + " (data seeds 1-" + std::to_string(kDatasets) +
         ", whatever the run's seed)";
}

std::vector<TuneInputs> MakePanel(size_t datasets) {
  std::vector<TuneInputs> inputs;
  for (size_t d = 0; d < datasets; ++d) inputs.push_back(MakeInputs(d + 1));
  return inputs;
}

}  // namespace

void RunTune(const RunArgs& args, Report* report) {
  report->provenance.push_back({"wal_sync", "none (in-memory)"});
  report->provenance.push_back({"tune_session", PanelProvenance()});

  // Set-up: generate the inputs (data, queries, exact ground truth).
  HostSpeed host;
  std::vector<double> setup_s, setup_wall_s;
  std::vector<TuneInputs> inputs;
  constexpr int kSetups = 9;
  for (int rep = 0; rep < kSetups; ++rep) {
    inputs.clear();
    if (rep + 1 == kSetups) ResetPeakRss();
    const Clock::time_point start = Clock::now();
    const double cpu = ProcessCpuSeconds();
    inputs = MakePanel(kDatasets);
    setup_s.push_back(ProcessCpuSeconds() - cpu);
    setup_wall_s.push_back(SecondsSince(start));
  }

  uint64_t failed_evaluations = 0;
  const SessionGrid grid = RunSessions(inputs, args.seconds, kDatasets + 1,
                                       &failed_evaluations, report, &host);
  const double peak_rss_mib = PeakRssMib();
  host.Sample();
  PrintHostSpeed(host);
  PrintFailedEvaluations(failed_evaluations, *report);
  std::printf("wall clock: set-up %.4f s, tune_s %.4f s; best_qps_r90 %.2f "
              "1/s, best_qps_r99 %.2f 1/s\n",
              Median(setup_wall_s), MeanOfMedians(grid, &Session::wall_s),
              MeanBestQps(grid, 0.90), MeanBestQps(grid, 0.99));
  report->end_to_end = {
      {"setup_s", Median(setup_s) * host.Scale(), "s"},
      {"peak_rss_mib", peak_rss_mib, "MiB"},
      {"op_us",
       MeanOfMedians(grid, &Session::cpu_s) / kIterations * 1e6 * host.Scale(),
       "us", report->attempted / kIterations},
      {"search_recall", MeanRecommendedRecall(grid, 0.90), "ratio"},
  };
}

void TraceTune(bool overhead, Report* report) {
  // Sessions on the first kTracedDatasets stand-ins, which keeps the run
  // well inside its time limit. With `overhead`, one untraced round first;
  // the difference of the two rounds is the tracing overhead.
  report->provenance.push_back({"tune_session", PanelProvenance()});
  const std::vector<TuneInputs> inputs = MakePanel(kTracedDatasets);
  uint64_t failed_evaluations = 0;
  SessionGrid plain;
  Tracer::Enable(false);
  if (overhead) {
    plain = RunSessions(inputs, 0, kTracedDatasets, &failed_evaluations, report);
  }
  Tracer::Enable(true);
  const SessionGrid traced =
      RunSessions(inputs, 0, kTracedDatasets, &failed_evaluations, report);
  PrintFailedEvaluations(failed_evaluations, *report);
  double recommend_s = 0, hits = 0;
  for (const auto& sessions : traced) {
    recommend_s += sessions.front().wall_s - sessions.front().evaluate_s;
    hits += sessions.front().cache_hit_ratio;
  }

  auto& layer = report->per_layer;
  layer.push_back({"tuner.recommend_s", recommend_s / kTracedDatasets, "s"});
  layer.push_back(
      {"tuner.evaluate_s", MeanOfMedians(traced, &Session::evaluate_s), "s"});
  layer.push_back(
      {"tuner.evaluator_cache_hit_ratio", hits / kTracedDatasets, "ratio"});
  layer.push_back({"tuner.best_qps_r90", MeanBestQps(traced, 0.90), "1/s"});
  layer.push_back({"tuner.best_qps_r99", MeanBestQps(traced, 0.99), "1/s"});
  ProbeStandUp(inputs.front(), traced.front().front().history, report);
  if (overhead) {
    for (size_t d = 0; d < kTracedDatasets; ++d) {
      report->Check(HistorySignature(traced[d].front().history) ==
                        HistorySignature(plain[d].front().history),
                    "tune: session history differs across repetitions");
    }
    const double plain_s = MeanOfMedians(plain, &Session::cpu_s);
    const double traced_s = MeanOfMedians(traced, &Session::cpu_s);
    layer.push_back(
        {"trace.overhead_pct", 100.0 * (traced_s - plain_s) / plain_s, "%"});
  }
}

}  // namespace vdtbench
