// vdtbench: the repository benchmark's measuring program.
//
//   vdtbench --workload <tune|serve-read> --seed <n>
//            --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Prints one line per metric, then a provenance line, then as the last line
// one JSON object {"correct", "attempted", "failed", "metrics"}: end-to-end
// metrics on an untraced run, per-layer metrics on a traced run. Exits 1
// when any output check fails or a metric name repeats, and 2 on a usage
// error.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>

#include "bench.h"
#include "common/env.h"
#include "common/logging.h"
#include "index/kernels/kernels.h"

namespace {

using vdtbench::Metric;
using vdtbench::Report;
using vdtbench::RunArgs;

bool ParseArgs(int argc, char** argv, RunArgs* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: vdtbench --workload <tune|serve-read> "
                 "--seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]\n");
    return 2;
  }
  vdt::SetLogLevel(vdt::LogLevel::kWarning);

  Report report;
  report.provenance = {
      {"workload", args.workload},
      {"seed", std::to_string(args.seed)},
      {"kernel_backend", vdt::kernels::Active().name},
      {"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
      {"VDT_THREADS", vdt::EnvString("VDT_THREADS", "unset")},
      {"commit", vdt::EnvString("VDTBENCH_COMMIT", "unknown")},
      {"trace", args.trace ? "1" : "0"},
  };
  const bool tune = args.workload == "tune";
  if (!tune && args.workload != "serve-read") {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  vdtbench::Tracer::Enable(false);
  if (!args.trace) {
    if (tune) {
      vdtbench::RunTune(args, &report);
    } else {
      vdtbench::RunServeRead(args, &report);
    }
  } else {
    report.provenance.push_back(
        {"wal_sync", "every-record (write probe), in-memory otherwise"});
    vdtbench::TraceTune(tune, &report);
    vdtbench::TraceRead(args, !tune, &report);
    vdtbench::TraceWrite(args, &report);
    const std::string path = args.work_dir + "/trace-" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".jsonl";
    report.Check(vdtbench::Tracer::WriteJsonLines(path),
                 "could not write trace " + path);
    report.provenance.push_back({"trace_file", path});
  }

  const std::vector<Metric>& metrics =
      args.trace ? report.per_layer : report.end_to_end;
  std::set<std::string> names;
  for (const Metric& m : metrics) {
    report.Check(names.insert(m.name).second, m.name + " reported twice");
  }
  for (const Metric& m : metrics) {
    report.Check(std::isfinite(m.value), m.name + " is not finite");
    std::printf("%-40s %14.4f %-6s", m.name.c_str(), m.value, m.unit.c_str());
    if (m.samples > 0) {
      std::printf("  (n=%llu)", static_cast<unsigned long long>(m.samples));
    }
    std::printf("\n");
  }
  for (const std::string& f : report.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }

  std::string prov = "{\"provenance\": {";
  for (size_t i = 0; i < report.provenance.size(); ++i) {
    prov += (i ? ", \"" : "\"") + JsonEscape(report.provenance[i].first) +
            "\": \"" + JsonEscape(report.provenance[i].second) + "\"";
  }
  std::printf("%s}}\n", prov.c_str());

  const bool correct = report.failures.empty();
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(report.attempted);
  line += ", \"failed\": " + std::to_string(report.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    line += (i ? ", \"" : "\"") + JsonEscape(metrics[i].name) +
            "\": {\"value\": " + Number(metrics[i].value) + ", \"unit\": \"" +
            JsonEscape(metrics[i].unit) + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
