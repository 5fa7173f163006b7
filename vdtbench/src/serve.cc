// Workload `serve-read` and the serving layers' probes of every traced run:
// an in-process VdtServer on loopback serving a glove-profile IVF_FLAT
// collection (2 shards, k=10) to open-loop clients. Every request is timed
// from the moment it was due, so a stall also charges the requests queued
// behind it, and the generator's lateness is reported. Load comes from at
// most two client connections and two server workers.
//
// TraceRead measures the read path; TraceWrite serves the collection
// durably to searches beside write rounds, then recovers it and checks what
// survived. The write-bound latencies and the recovery time are fsync- and
// wake-up-bound, and the shared host's slow periods moved them by more
// than any bound a regression gate can use, so they are per-layer views
// rather than a workload with end-to-end metrics of its own.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/random.h"
#include "index/index.h"
#include "net/client.h"
#include "net/server.h"
#include "storage/wal.h"
#include "vdms/vdms.h"
#include "workload/datasets.h"
#include "workload/workload.h"

namespace vdtbench {
namespace {

using vdt::FloatMatrix;

constexpr vdt::DatasetProfile kProfile = vdt::DatasetProfile::kGlove;
constexpr size_t kRows = 50000;
constexpr size_t kDim = 96;
constexpr int kShards = 2;
constexpr size_t kTopK = 10;
constexpr size_t kQueryPool = 512;
constexpr size_t kServerWorkers = 2;
constexpr const char* kCollection = "bench";

/// The p99 limit the goodput ladder holds each rate to. It sits well above
/// the host's scheduling stalls, so a rate misses it by saturating.
constexpr double kP99LimitUs = 20000;
/// Search rates of the serve-read ladder, climbed until one misses the
/// limit. The first is the reference rate at which op_us and the search
/// latencies are measured. An untraced run drives only the reference rate; a traced run
/// climbs, with one reference block before each higher rung (kReferenceShare
/// of the run in all), so the reference samples are spread over the whole
/// run. It sits far enough below capacity that a slow period of the shared
/// host (capacity has been seen to halve) stretches latency rather than
/// building a queue.
constexpr double kLadderQps[] = {1000, 2000, 3000, 5000, 8000, 12000};
constexpr size_t kRungs = std::size(kLadderQps);
constexpr double kReferenceShare = 0.6;
/// Write-probe traffic: searches, and write rounds of one insert batch plus
/// one delete of older ids; kWriteRounds of them (25 s), so that the p99 of
/// each write kind has ten samples beyond it. Writes keep their connection
/// busy about 5% of the time, so a slow fsync period or a compaction
/// stretches a few writes instead of backing the whole schedule up (at 80
/// rounds/s slow periods of the host backed it up by tens of milliseconds).
constexpr double kMixedSearchQps = 250;
constexpr double kMixedRoundsPerSecond = 40;
constexpr size_t kWriteRounds = 1000;
constexpr size_t kInsertBatch = 32;
constexpr size_t kDeleteBatch = 16;
/// Recall floor of the served IVF_FLAT collection at its default knobs.
constexpr double kRecallFloor = 0.85;

struct ServeInputs {
  FloatMatrix data;
  FloatMatrix queries;
  std::vector<std::vector<int64_t>> truth;
  double ground_truth_s = 0;
};

ServeInputs MakeInputs(uint64_t seed) {
  ServeInputs in;
  in.data = vdt::GenerateDataset(kProfile, kRows, kDim, seed);
  in.queries = vdt::GenerateQueries(kProfile, kQueryPool, kDim, seed + 1);
  in.ground_truth_s = Timed("workload.ground_truth", [&] {
    in.truth = vdt::BuildGroundTruth(in.data, vdt::GetDatasetSpec(kProfile).metric,
                                     in.queries, kTopK);
  });
  return in;
}

vdt::CollectionOptions CollectionOptionsFor() {
  vdt::CollectionOptions copts;
  copts.name = kCollection;
  copts.metric = vdt::GetDatasetSpec(kProfile).metric;
  copts.index.type = vdt::IndexType::kIvfFlat;
  copts.system.num_shards = kShards;
  copts.scale.actual_rows = kRows;
  return copts;
}

/// An engine holding the served collection, and the server in front of it.
struct Fixture {
  std::unique_ptr<vdt::VdmsEngine> engine;
  std::unique_ptr<vdt::net::VdtServer> server;
  double insert_s = 0;
  double flush_s = 0;
};

/// Stops the server before destroying the engine it serves.
void TearDown(Fixture* f) {
  f->server.reset();
  f->engine.reset();
}

Fixture StandUp(const ServeInputs& in, const vdt::VdmsEngineOptions& options,
                Report* report) {
  Fixture f;
  f.engine = std::make_unique<vdt::VdmsEngine>(options);
  bool ok = f.engine->CreateCollection(CollectionOptionsFor()).ok();
  f.insert_s = Timed("vdms.insert", [&] {
    ok = ok && f.engine->Insert(kCollection, in.data).ok();
  });
  f.flush_s =
      Timed("vdms.flush", [&] { ok = ok && f.engine->Flush(kCollection).ok(); });
  vdt::net::ServerOptions sopts;
  sopts.num_workers = kServerWorkers;
  // Deep enough that an overloaded rung queues rather than refuses.
  sopts.queue_depth = 4096;
  f.server = std::make_unique<vdt::net::VdtServer>(f.engine.get(), sopts);
  ok = ok && f.server->Start().ok();
  report->Check(ok, "standing up the served collection failed");
  return f;
}

// ---------------------------------------------------------------------------
// Open-loop driving
// ---------------------------------------------------------------------------

struct Sample {
  double latency_us = 0;  // from the due time to the reply
  double service_us = 0;  // from the send to the reply
  double late_us = 0;     // how late the generator sent it
  bool ok = false;
};

/// Sends request i of `due_s` at start + due_s[i] (or at once when already
/// late) on one connection; `send` issues request i and returns success.
std::vector<Sample> Drive(uint16_t port, Clock::time_point start,
                          const std::vector<double>& due_s,
                          const std::function<bool(vdt::net::VdtClient&,
                                                   size_t)>& send) {
  std::vector<Sample> samples(due_s.size());
  vdt::net::VdtClient client;
  if (!client.Connect("127.0.0.1", port).ok()) return samples;  // all failed
  for (size_t i = 0; i < due_s.size(); ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(due_s[i]));
    std::this_thread::sleep_until(due);
    const Clock::time_point sent = Clock::now();
    samples[i].ok = send(client, i);
    const Clock::time_point done = Clock::now();
    samples[i].latency_us = MicrosBetween(due, done);
    samples[i].service_us = MicrosBetween(sent, done);
    samples[i].late_us = MicrosBetween(due, sent);
  }
  return samples;
}

/// Per-connection search accounting.
struct SearchTally {
  double recall_sum = 0;
  uint64_t distance_evals = 0;
  size_t replies = 0;
};

uint64_t DistanceEvals(const vdt::WorkCounters& w) {
  return w.full_distance_evals + w.coarse_distance_evals +
         w.code_distance_evals + w.reorder_evals;
}

std::vector<double> Column(const std::vector<Sample>& samples,
                           double Sample::*field) {
  std::vector<double> out;
  for (const Sample& s : samples) {
    if (s.ok) out.push_back(s.*field);
  }
  return out;
}

size_t Failures(const std::vector<Sample>& samples) {
  return static_cast<size_t>(std::count_if(
      samples.begin(), samples.end(), [](const Sample& s) { return !s.ok; }));
}

/// Open-loop single-query searches on one pipelined connection, from one
/// thread: request i is written when due (start + due_s[i]) whether or not
/// earlier replies have arrived, and replies are matched by request id, so
/// queueing happens in the server rather than in the generator.
std::vector<Sample> DriveSearches(uint16_t port, Clock::time_point start,
                                  const std::vector<double>& due_s,
                                  const std::vector<size_t>& query_of,
                                  const ServeInputs& in, SearchTally* tally) {
  namespace net = vdt::net;
  const size_t n = due_s.size();
  std::vector<Sample> samples(n);
  std::vector<Clock::time_point> due(n), sent(n);
  for (size_t i = 0; i < n; ++i) {
    due[i] = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(due_s[i]));
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (fd < 0 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (fd >= 0) ::close(fd);
    return samples;  // all failed
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);

  std::vector<uint8_t> out, inbuf;
  size_t out_off = 0, next = 0, received = 0;
  Clock::time_point last_progress = Clock::now();
  bool broken = false;
  while (received < n && !broken) {
    Clock::time_point now = Clock::now();
    for (; next < n && due[next] <= now; ++next) {
      net::SearchRequestWire wire;
      wire.collection = kCollection;
      wire.k = kTopK;
      wire.queries = FloatMatrix(1, kDim);
      std::memcpy(wire.queries.Row(0), in.queries.Row(query_of[next]),
                  kDim * sizeof(float));
      std::vector<uint8_t> frame;
      net::EncodeFrame(static_cast<uint8_t>(net::Op::kSearch),
                       static_cast<uint32_t>(next + 1),
                       net::EncodeSearchRequest(wire), &frame);
      out.insert(out.end(), frame.begin(), frame.end());
      sent[next] = now;
    }
    while (out_off < out.size()) {
      const ssize_t w = ::send(fd, out.data() + out_off, out.size() - out_off,
                               MSG_NOSIGNAL);
      if (w <= 0) {
        broken = w < 0 && errno != EAGAIN && errno != EINTR;
        break;
      }
      out_off += static_cast<size_t>(w);
    }
    if (out_off == out.size()) {
      out.clear();
      out_off = 0;
    }

    pollfd pfd{fd, static_cast<short>(POLLIN | (out.empty() ? 0 : POLLOUT)),
               0};
    const auto wait = next < n ? std::max(due[next] - Clock::now(),
                                          Clock::duration::zero())
                               : std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::milliseconds(100));
    const auto wait_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
    timespec ts{static_cast<time_t>(wait_ns / 1000000000),
                static_cast<long>(wait_ns % 1000000000)};
    if (::ppoll(&pfd, 1, &ts, nullptr) < 0 && errno != EINTR) break;

    uint8_t buf[1 << 16];
    for (;;) {
      const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
      if (r > 0) {
        inbuf.insert(inbuf.end(), buf, buf + r);
        continue;
      }
      broken = r == 0 || (errno != EAGAIN && errno != EINTR);
      break;
    }
    now = Clock::now();
    size_t off = 0;
    net::FrameHeader header;
    while (inbuf.size() - off >= net::kFrameHeaderBytes &&
           net::DecodeFrameHeader(inbuf.data() + off, net::kFrameHeaderBytes,
                                  net::kMaxPayloadBytes, &header)
               .ok() &&
           inbuf.size() - off >= net::kFrameHeaderBytes + header.payload_len) {
      const uint8_t* payload = inbuf.data() + off + net::kFrameHeaderBytes;
      off += net::kFrameHeaderBytes + header.payload_len;
      const size_t i = header.request_id - 1;
      if (i >= n) continue;
      net::SearchReplyWire reply;
      Sample& s = samples[i];
      s.ok = header.op == (static_cast<uint8_t>(net::Op::kSearch) |
                           net::kReplyBit) &&
             net::DecodeSearchReply(payload, header.payload_len, &reply).ok() &&
             reply.neighbors.size() == 1;
      if (s.ok) {
        tally->recall_sum +=
            vdt::RecallAtK(reply.neighbors[0], in.truth[query_of[i]]);
        tally->distance_evals += DistanceEvals(reply.work);
        ++tally->replies;
      }
      Tracer::Record("net.search", sent[i], now);
      s.latency_us = MicrosBetween(due[i], now);
      s.service_us = MicrosBetween(sent[i], now);
      s.late_us = MicrosBetween(due[i], sent[i]);
      ++received;
      last_progress = now;
    }
    inbuf.erase(inbuf.begin(), inbuf.begin() + static_cast<ptrdiff_t>(off));
    // A server that stops answering fails the outstanding requests.
    if (next == n && SecondsSince(last_progress) > 10) break;
  }
  ::close(fd);
  return samples;
}

/// One rate of the ladder: open-loop single-query searches for `seconds`.
struct Rung {
  double qps = 0;
  double elapsed_s = 0;  // from the first due time to the last reply
  double cpu_s = 0;      // process CPU time over the rung
  std::vector<Sample> samples;
  SearchTally tally;
};

Rung RunRung(const ServeInputs& in, uint16_t port, double qps,
             double seconds) {
  Rung rung;
  rung.qps = qps;
  const size_t total = static_cast<size_t>(qps * seconds);
  std::vector<double> due;
  std::vector<size_t> query_of;
  for (size_t i = 0; i < total; ++i) {
    due.push_back(static_cast<double>(i) / qps);
    query_of.push_back(i % kQueryPool);
  }
  Span span("net.search_rung");
  const double cpu = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  rung.samples = DriveSearches(port, start, due, query_of, in, &rung.tally);
  rung.elapsed_s = SecondsSince(start);
  rung.cpu_s = ProcessCpuSeconds() - cpu;
  return rung;
}

/// A rung meets the limit when nothing failed, its p99 from due time is
/// within kP99LimitUs, and no backlog was building: the median latency of
/// the rung's last tenth stays within the limit too.
bool RungPasses(const Rung& rung) {
  if (rung.samples.size() < kTailBlock || Failures(rung.samples) > 0) {
    return false;
  }
  const std::vector<double> latency = Column(rung.samples, &Sample::latency_us);
  if (BlockQuantile(latency, kTailBlock, 0.99, 0.5) > kP99LimitUs) {
    return false;
  }
  const std::vector<double> last_tenth(latency.end() - latency.size() / 10,
                                       latency.end());
  return Median(last_tenth) <= kP99LimitUs;
}

/// The server's view through the Stats op.
vdt::Result<vdt::net::StatsReplyWire> ServerStats(uint16_t port,
                                                  Report* report) {
  vdt::net::VdtClient client;
  vdt::Result<vdt::net::StatsReplyWire> stats =
      client.Connect("127.0.0.1", port).ok()
          ? client.Stats(kCollection)
          : vdt::Result<vdt::net::StatsReplyWire>(
                vdt::Status::Internal("connect failed"));
  report->Check(stats.ok(), "Stats op failed");
  return stats;
}

const vdt::net::EndpointStatsWire& Endpoint(
    const vdt::net::StatsReplyWire& stats, vdt::net::Op op) {
  return stats.endpoints[static_cast<int>(op) - 1];
}

/// The server's search-side view, beside the client's `searches`.
void AppendServerSearchMetrics(uint16_t port,
                               const std::vector<Sample>& searches,
                               Report* report) {
  const auto stats = ServerStats(port, report);
  if (!stats.ok()) return;
  const auto& search = Endpoint(*stats, vdt::net::Op::kSearch);
  const double client_p50 =
      Percentile(Column(searches, &Sample::service_us), 0.5);
  auto& layer = report->per_layer;
  layer.push_back({"net.server_search_p50_us", double(search.p50_us), "us",
                   search.count});
  layer.push_back({"net.server_search_p99_us", double(search.p99_us), "us",
                   search.count});
  layer.push_back(
      {"net.residual_p50_us", client_p50 - double(search.p50_us), "us"});
  layer.push_back({"net.coalesced_share",
                   search.count > 0 ? double(stats->coalesced_requests) /
                                          double(search.count)
                                    : 0.0,
                   "ratio"});
  layer.push_back({"net.coalesce_batch_p50", double(stats->coalesce_batch.p50_us),
                   "count", stats->coalesce_batch.count});
  layer.push_back({"net.busy_rejected", double(stats->busy_rejected), "count"});
  layer.push_back({"net.timed_out", double(stats->timed_out), "count"});
  layer.push_back({"gen.late_p99_us",
                   Percentile(Column(searches, &Sample::late_us), 0.99), "us",
                   searches.size()});
}

/// Sample replies over the wire must be byte-identical to in-process
/// VdmsEngine::Search on the same collection.
void CheckWireMatchesEngine(const ServeInputs& in, const Fixture& f,
                            Report* report) {
  vdt::net::VdtClient client;
  bool ok = client.Connect("127.0.0.1", f.server->port()).ok();
  for (size_t q = 0; ok && q < 64; ++q) {
    const vdt::SearchRequest request =
        vdt::SearchRequest::Single(in.queries.Row(q), kDim, kTopK);
    const auto wire = client.Search(kCollection, request);
    const auto local = f.engine->Search(kCollection, request);
    if (!wire.ok() || !local.ok()) {
      ok = false;
      break;
    }
    vdt::net::SearchReplyWire expected;
    expected.neighbors = local->neighbors;
    expected.work = local->work;
    ok = vdt::net::EncodeSearchReply(*wire) ==
         vdt::net::EncodeSearchReply(expected);
  }
  report->Check(ok, "serve-read: wire reply differs from in-process Search");
}

/// Per-layer probes of the read path: standalone indexes of every family,
/// in-process engine search, snapshot acquisition.
void ProbeReadPath(const ServeInputs& in, const Fixture& f, Report* report) {
  auto& layer = report->per_layer;
  // A 10k-row prefix keeps the graph and quantizer builds short.
  constexpr size_t kIndexRows = 10000;
  FloatMatrix prefix(kIndexRows, kDim);
  std::memcpy(prefix.Row(0), in.data.Row(0), kIndexRows * kDim * sizeof(float));
  for (int t = 0; t < vdt::kNumIndexTypes; ++t) {
    const auto type = static_cast<vdt::IndexType>(t);
    auto index = vdt::CreateIndex(type, vdt::GetDatasetSpec(kProfile).metric,
                                  vdt::IndexParams{}, 7);
    report->Check(index->Build(prefix).ok(),
                  std::string("building standalone ") +
                      vdt::IndexTypeName(type) + " failed");
    std::vector<double> us;
    for (size_t q = 0; q < 256; ++q) {
      vdt::WorkCounters work;
      Span span("index.search");
      index->Search(in.queries.Row(q), kTopK, &work);
      us.push_back(span.End() * 1e6);
    }
    layer.push_back({std::string("index.search_us.") + vdt::IndexTypeName(type),
                     Median(us), "us"});
  }

  std::vector<double> search_us;
  for (size_t i = 0; i < 2000; ++i) {
    const vdt::SearchRequest request = vdt::SearchRequest::Single(
        in.queries.Row(i % kQueryPool), kDim, kTopK);
    Span span("vdms.search");
    (void)f.engine->Search(kCollection, request);
    search_us.push_back(span.End() * 1e6);
  }
  layer.push_back({"vdms.search_p50_us", Median(search_us), "us",
                   search_us.size()});

  vdt::Result<vdt::CollectionHandle> handle = f.engine->Open(kCollection);
  std::vector<double> snapshot_us;
  for (int rep = 0; handle.ok() && rep < 9; ++rep) {
    constexpr int kCalls = 10000;
    Span span("vdms.snapshot");
    for (int i = 0; i < kCalls; ++i) (void)(*handle)->Snapshot();
    snapshot_us.push_back(span.End() * 1e6 / kCalls);
  }
  layer.push_back({"vdms.snapshot_us", Median(snapshot_us), "us"});
}

// ---------------------------------------------------------------------------
// Write-probe pieces
// ---------------------------------------------------------------------------

/// The write schedule of the write probe: per round, kInsertBatch new rows and
/// a delete of the kDeleteBatch oldest live ids, the way a retention window
/// expires data. Segments then cross the compaction threshold one after
/// another rather than all at once.
struct WritePlan {
  FloatMatrix rows;  // every inserted row, in id order after the initial load
  std::vector<std::vector<int64_t>> deletes;  // per round
  size_t rounds = 0;
};

WritePlan MakeWritePlan(uint64_t seed, size_t rounds) {
  WritePlan plan;
  plan.rounds = rounds;
  plan.rows = vdt::GenerateDataset(kProfile, rounds * kInsertBatch, kDim,
                                   seed + 2);
  int64_t oldest = 0;
  for (size_t r = 0; r < rounds; ++r) {
    std::vector<int64_t> ids(kDeleteBatch);
    for (int64_t& id : ids) id = oldest++;
    plan.deletes.push_back(std::move(ids));
  }
  return plan;
}

FloatMatrix InsertBatch(const WritePlan& plan, size_t round) {
  FloatMatrix batch(kInsertBatch, kDim);
  std::memcpy(batch.Row(0), plan.rows.Row(round * kInsertBatch),
              kInsertBatch * kDim * sizeof(float));
  return batch;
}

vdt::VdmsEngineOptions DurableOptions(const std::string& dir) {
  vdt::VdmsEngineOptions options;
  options.data_dir = dir;
  options.wal_sync = vdt::WalSyncPolicy::kEveryRecord;
  return options;
}

/// Outcome of one open-loop mixed phase.
struct MixedPhase {
  std::vector<Sample> searches, inserts, deletes;
  uint64_t acked_insert_rows = 0;
  uint64_t acked_deleted = 0;
};

MixedPhase RunMixedPhase(const ServeInputs& in, const WritePlan& plan,
                         uint16_t port) {
  MixedPhase phase;
  const double seconds =
      static_cast<double>(plan.rounds) / kMixedRoundsPerSecond;
  const size_t total_searches = static_cast<size_t>(kMixedSearchQps * seconds);
  std::vector<double> search_due, write_due;
  std::vector<size_t> query_of;
  for (size_t i = 0; i < total_searches; ++i) {
    search_due.push_back(i / kMixedSearchQps);
    query_of.push_back(i % kQueryPool);
  }
  for (size_t r = 0; r < plan.rounds; ++r) {
    write_due.push_back(r / kMixedRoundsPerSecond);
    write_due.push_back((r + 0.5) / kMixedRoundsPerSecond);
  }
  SearchTally tally;
  std::vector<Sample> writes;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  std::thread searcher([&] {
    phase.searches =
        DriveSearches(port, start, search_due, query_of, in, &tally);
  });
  writes = Drive(port, start, write_due, [&](auto& client, size_t i) {
    const size_t round = i / 2;
    if (i % 2 == 0) {
      Span span("net.insert");
      const auto total = client.Insert(kCollection, InsertBatch(plan, round));
      if (total.ok()) phase.acked_insert_rows += kInsertBatch;
      return total.ok();
    }
    Span span("net.delete");
    const auto deleted = client.Delete(kCollection, plan.deletes[round]);
    if (deleted.ok()) phase.acked_deleted += *deleted;
    return deleted.ok();
  });
  searcher.join();
  for (size_t i = 0; i < writes.size(); ++i) {
    (i % 2 == 0 ? phase.inserts : phase.deletes).push_back(writes[i]);
  }
  return phase;
}

/// The exact live set after the write plan: initial rows plus inserted rows,
/// minus deleted ids. Returns the live rows and their collection ids.
FloatMatrix LiveSet(const ServeInputs& in, const WritePlan& plan,
                    std::vector<int64_t>* ids) {
  std::vector<uint8_t> deleted(kRows + plan.rounds * kInsertBatch, 0);
  for (const auto& round : plan.deletes) {
    for (int64_t id : round) deleted[id] = 1;
  }
  FloatMatrix live(0, kDim);
  for (size_t id = 0; id < deleted.size(); ++id) {
    if (deleted[id]) continue;
    live.AppendRow(id < kRows ? in.data.Row(id) : plan.rows.Row(id - kRows),
                   kDim);
    ids->push_back(static_cast<int64_t>(id));
  }
  return live;
}

/// Recall of a quiesced batch of wire searches against the exact live set.
double QuiescedRecall(const ServeInputs& in, const WritePlan& plan,
                      uint16_t port, double* ground_truth_s, Report* report) {
  constexpr size_t kBatch = 200;
  std::vector<int64_t> ids;
  const FloatMatrix live = LiveSet(in, plan, &ids);
  FloatMatrix queries(kBatch, kDim);
  std::memcpy(queries.Row(0), in.queries.Row(0), kBatch * kDim * sizeof(float));
  std::vector<std::vector<int64_t>> truth;
  *ground_truth_s = Timed("workload.ground_truth", [&] {
    truth = vdt::BuildGroundTruth(live, vdt::GetDatasetSpec(kProfile).metric,
                                  queries, kTopK);
  });
  for (auto& row : truth) {
    for (int64_t& v : row) v = ids[static_cast<size_t>(v)];
  }
  vdt::net::VdtClient client;
  bool ok = client.Connect("127.0.0.1", port).ok();
  double recall = 0;
  for (size_t q = 0; ok && q < kBatch; ++q) {
    const auto reply = client.Search(
        kCollection, vdt::SearchRequest::Single(queries.Row(q), kDim, kTopK));
    ok = reply.ok() && reply->neighbors.size() == 1;
    if (ok) recall += vdt::RecallAtK(reply->neighbors[0], truth[q]);
  }
  report->Check(ok, "write probe: quiesced search batch failed");
  return recall / kBatch;
}

bool SameNeighbors(const vdt::SearchResponse& a, const vdt::SearchResponse& b) {
  if (a.neighbors.size() != b.neighbors.size()) return false;
  for (size_t q = 0; q < a.neighbors.size(); ++q) {
    const auto& x = a.neighbors[q];
    const auto& y = b.neighbors[q];
    if (x.size() != y.size()) return false;
    for (size_t i = 0; i < x.size(); ++i) {
      if (x[i].id != y[i].id ||
          std::memcmp(&x[i].distance, &y[i].distance, sizeof(float)) != 0) {
        return false;
      }
    }
  }
  return true;
}

/// Tears `f` down and recovers the durable directory with VdmsEngine::Open;
/// the recovered engine must hold `expected_live` rows and answer a fixed
/// query batch exactly as before the teardown. Returns the recovery time.
double TearDownAndRecover(const ServeInputs& in, Fixture* f,
                          const std::string& dir, uint64_t expected_live,
                          Report* report) {
  FloatMatrix batch(32, kDim);
  std::memcpy(batch.Row(0), in.queries.Row(kQueryPool - 32),
              32 * kDim * sizeof(float));
  const auto before =
      f->engine->Search(kCollection, vdt::SearchRequest::Batch(batch, kTopK));
  const auto stats = f->engine->GetStats(kCollection);
  report->Check(stats.ok() && stats->live_rows == expected_live,
                "write probe: live rows before teardown != acknowledged");
  TearDown(f);

  vdt::VdmsEngine engine(DurableOptions(dir));
  bool ok = true;
  const double recover_s =
      Timed("vdms.recover", [&] { ok = engine.Open().ok(); });
  const auto after =
      engine.Search(kCollection, vdt::SearchRequest::Batch(batch, kTopK));
  const auto recovered = engine.GetStats(kCollection);
  report->Check(ok && recovered.ok() && recovered->live_rows == expected_live,
                "write probe: recovered live rows != acknowledged inserts "
                "minus acknowledged deletes");
  report->Check(before.ok() && after.ok() && SameNeighbors(*before, *after),
                "write probe: results differ after recovery");
  return recover_s;
}

/// In-process replay of a write plan on a fresh durable collection, closed
/// loop: per-call engine latencies, seal and compaction counts, and the
/// bytes written per byte the client sent (no sockets are involved here).
void ProbeWritePath(const ServeInputs& in, const WritePlan& plan,
                    const std::string& dir, Report* report) {
  std::filesystem::remove_all(dir);
  vdt::VdmsEngine engine(DurableOptions(dir));
  bool ok = engine.CreateCollection(CollectionOptionsFor()).ok() &&
            engine.Insert(kCollection, in.data).ok() &&
            engine.Flush(kCollection).ok();
  const auto initial = engine.GetStats(kCollection);
  ok = ok && initial.ok();
  size_t sealed = ok ? initial->num_sealed_segments : 0;
  size_t seals = 0;
  std::vector<double> insert_us, delete_us;
  const uint64_t wchar_before = WcharBytes();
  for (size_t r = 0; ok && r < plan.rounds; ++r) {
    const FloatMatrix rows = InsertBatch(plan, r);
    {
      Span span("vdms.insert");
      ok = engine.Insert(kCollection, rows).ok();
      insert_us.push_back(span.End() * 1e6);
    }
    const auto stats = engine.GetStats(kCollection);
    if (stats.ok() && stats->num_sealed_segments > sealed) {
      seals += stats->num_sealed_segments - sealed;
    }
    if (stats.ok()) sealed = stats->num_sealed_segments;
    Span span("vdms.delete");
    ok = ok && engine.Delete(kCollection, plan.deletes[r]).ok();
    delete_us.push_back(span.End() * 1e6);
    if (const auto after = engine.GetStats(kCollection); after.ok()) {
      sealed = after->num_sealed_segments;
    }
  }
  const double wchar = double(WcharBytes() - wchar_before);
  const auto final_stats = engine.GetStats(kCollection);
  report->Check(ok && final_stats.ok(), "write probe: in-process replay failed");
  auto& layer = report->per_layer;
  const double user_bytes =
      double(plan.rounds * (kInsertBatch * kDim * sizeof(float) +
                            kDeleteBatch * sizeof(int64_t)));
  layer.push_back({"storage.wchar_per_user_byte", wchar / user_bytes, "ratio"});
  layer.push_back(TailMetric(report, "vdms.insert_p99_us", insert_us, 0.99, "us"));
  layer.push_back(TailMetric(report, "vdms.delete_p99_us", delete_us, 0.99, "us"));
  layer.push_back({"vdms.seals", double(seals), "count"});
  layer.push_back(
      {"vdms.compactions",
       final_stats.ok() && initial.ok()
           ? double(final_stats->num_compactions - initial->num_compactions)
           : 0.0,
       "count"});
  std::filesystem::remove_all(dir);
}

/// WalWriter::AppendInsert + Sync at the workload's batch size and policy.
void ProbeWal(const std::string& dir, Report* report) {
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/probe.wal";
  std::filesystem::remove(path);
  vdt::WalContents contents;
  auto writer = vdt::WalWriter::Open(path, vdt::WalSyncPolicy::kEveryRecord,
                                     &contents);
  report->Check(writer.ok(), "WalWriter::Open failed");
  if (!writer.ok()) return;
  FloatMatrix rows(kInsertBatch, kDim);
  vdt::Rng rng(5);
  for (size_t i = 0; i < kInsertBatch * kDim; ++i) {
    rows.Row(0)[i] = static_cast<float>(rng.Normal());
  }
  std::vector<double> us;
  bool ok = true;
  for (int i = 0; ok && i < 1000; ++i) {
    Span span("storage.wal_append");
    ok = (*writer)->AppendInsert(rows).ok() && (*writer)->Sync().ok();
    us.push_back(span.End() * 1e6);
  }
  report->Check(ok, "WAL append failed");
  writer->reset();
  std::filesystem::remove(path);
  report->per_layer.push_back(TailMetric(report, "storage.wal_append_p50_us",
                                         us, 0.5, "us"));
  report->per_layer.push_back(TailMetric(report, "storage.wal_append_p99_us",
                                         us, 0.99, "us"));
}

void CountOps(const std::vector<Sample>& samples, Report* report) {
  report->attempted += samples.size();
  report->failed += Failures(samples);
}

/// The serve-read measurement: reference blocks interleaved with the climb.
struct Ladder {
  std::vector<Rung> reference;  // kRungs blocks at kLadderQps[0]
  std::vector<Rung> climb;      // higher rates, up to the first miss
};

/// Without `climb`, the reference blocks take the whole run. With `host`,
/// samples the host speed before each reference block.
Ladder RunLadder(const ServeInputs& in, uint16_t port, double seconds,
                 bool climb, Report* report, HostSpeed* host = nullptr) {
  auto run = [&](double qps, double rung_s) {
    Rung rung = RunRung(in, port, qps, rung_s);
    CountOps(rung.samples, report);
    const auto latency = Column(rung.samples, &Sample::latency_us);
    std::printf("rung %6.0f/s: p50 %8.1f us  p99 %8.1f us  late p99 %8.1f us"
                "  failed %zu  %s\n",
                qps, Percentile(latency, 0.5), Percentile(latency, 0.99),
                Percentile(Column(rung.samples, &Sample::late_us), 0.99),
                Failures(rung.samples), RungPasses(rung) ? "pass" : "miss");
    return rung;
  };
  const double block_s = seconds * kReferenceShare / kRungs;
  const double rung_s = seconds * (1 - kReferenceShare) / (kRungs - 1);
  Ladder ladder;
  bool climbing = climb;
  for (size_t r = 0; r < kRungs; ++r) {
    // Once the climb has stopped, the reference takes over the time of the
    // rungs it skips.
    const bool skipped = !climbing && r + 1 < kRungs;
    if (host != nullptr) host->Sample();
    ladder.reference.push_back(
        run(kLadderQps[0], skipped ? block_s + rung_s : block_s));
    if (climbing && r + 1 < kRungs) {
      ladder.climb.push_back(run(kLadderQps[r + 1], rung_s));
      climbing = RungPasses(ladder.climb.back());
    }
  }
  return ladder;
}

/// Successful searches per second at the highest rate that met the limit;
/// the reference blocks count as one rung.
double Goodput(const Ladder& ladder) {
  Rung reference;
  for (const Rung& block : ladder.reference) {
    reference.samples.insert(reference.samples.end(), block.samples.begin(),
                             block.samples.end());
    reference.tally.replies += block.tally.replies;
    reference.elapsed_s += block.elapsed_s;
  }
  if (!RungPasses(reference)) return 0;
  double goodput = double(reference.tally.replies) / reference.elapsed_s;
  for (const Rung& rung : ladder.climb) {
    if (!RungPasses(rung)) break;
    goodput = double(rung.tally.replies) / rung.elapsed_s;
  }
  return goodput;
}

/// Mean recall@k over every reply of the ladder; `replies` gets their count.
double RecallOf(const Ladder& ladder, size_t* replies) {
  double sum = 0;
  *replies = 0;
  for (const auto* rungs : {&ladder.reference, &ladder.climb}) {
    for (const Rung& rung : *rungs) {
      sum += rung.tally.recall_sum;
      *replies += rung.tally.replies;
    }
  }
  return *replies > 0 ? sum / double(*replies) : 0;
}

/// Process CPU time per successful search over the reference blocks, in
/// microseconds: server, kernel networking and the one generator thread.
/// Unlike latency it does not count the time the hypervisor steals.
double ReferenceCpuUs(const Ladder& ladder) {
  double cpu_s = 0;
  size_t replies = 0;
  for (const Rung& block : ladder.reference) {
    cpu_s += block.cpu_s;
    replies += block.tally.replies;
  }
  return replies > 0 ? cpu_s * 1e6 / double(replies) : 0;
}

/// The reference latencies in request order.
std::vector<double> ReferenceLatencies(const Ladder& ladder) {
  std::vector<double> latencies;
  for (const Rung& block : ladder.reference) {
    const auto column = Column(block.samples, &Sample::latency_us);
    latencies.insert(latencies.end(), column.begin(), column.end());
  }
  return latencies;
}

}  // namespace

void RunServeRead(const RunArgs& args, Report* report) {
  report->provenance.push_back({"wal_sync", "none (in-memory)"});
  HostSpeed host;
  ServeInputs in;
  Fixture f;
  std::vector<double> setup_s, setup_wall_s;
  constexpr int kSetups = 3;
  for (int rep = 0; rep < kSetups; ++rep) {
    TearDown(&f);
    in = ServeInputs{};
    if (rep + 1 == kSetups) ResetPeakRss();
    const Clock::time_point start = Clock::now();
    const double cpu = ProcessCpuSeconds();
    in = MakeInputs(args.seed);
    f = StandUp(in, vdt::VdmsEngineOptions{}, report);
    setup_s.push_back(ProcessCpuSeconds() - cpu);
    setup_wall_s.push_back(SecondsSince(start));
  }

  const Ladder ladder =
      RunLadder(in, f.server->port(), args.seconds, false, report, &host);
  const double peak_rss_mib = PeakRssMib();
  host.Sample();
  PrintHostSpeed(host);
  size_t replies = 0;
  const double recall = RecallOf(ladder, &replies);
  report->Check(recall >= kRecallFloor,
                "serve-read: search_recall below the floor " +
                    std::to_string(kRecallFloor));
  CheckWireMatchesEngine(in, f, report);
  const Metric latency =
      LatencyMetric(report, "search_p50_us", ReferenceLatencies(ladder), 0.5,
                    "us");
  std::printf("wall clock: set-up %.4f s, search p50 from due time %.1f us "
              "(n=%llu)\n",
              Median(setup_wall_s), latency.value,
              static_cast<unsigned long long>(latency.samples));
  report->end_to_end = {
      {"setup_s", Median(setup_s) * host.Scale(), "s"},
      {"peak_rss_mib", peak_rss_mib, "MiB"},
      {"op_us", ReferenceCpuUs(ladder) * host.Scale(), "us", replies},
      {"search_recall", recall, "ratio", replies},
  };
  TearDown(&f);
}

void TraceRead(const RunArgs& args, bool overhead, Report* report) {
  Tracer::Enable(false);
  const ServeInputs in = MakeInputs(args.seed);
  Fixture f = StandUp(in, vdt::VdmsEngineOptions{}, report);
  const uint16_t port = f.server->port();
  // The ladder climbs, at half the run's length; with `overhead`, once
  // untraced and then traced.
  Ladder plain;
  if (overhead) plain = RunLadder(in, port, args.seconds / 2, true, report);
  Tracer::Enable(true);
  const Ladder traced = RunLadder(in, port, args.seconds / 2, true, report);
  std::vector<Sample> all;
  uint64_t evals = 0;
  for (const auto* rungs : {&traced.reference, &traced.climb}) {
    for (const Rung& rung : *rungs) {
      all.insert(all.end(), rung.samples.begin(), rung.samples.end());
      evals += rung.tally.distance_evals;
    }
  }
  size_t replies = 0;
  report->Check(RecallOf(traced, &replies) >= kRecallFloor,
                "serve-read: search_recall below the floor " +
                    std::to_string(kRecallFloor));
  CheckWireMatchesEngine(in, f, report);
  AppendServerSearchMetrics(port, all, report);
  auto& layer = report->per_layer;
  // The client's view at the reference rate, and the goodput.
  const std::vector<double> reference = ReferenceLatencies(traced);
  layer.push_back(
      LatencyMetric(report, "net.client_search_p50_us", reference, 0.5, "us"));
  layer.push_back(
      LatencyMetric(report, "net.client_search_p99_us", reference, 0.99, "us"));
  layer.push_back({"net.search_goodput_qps", Goodput(traced), "1/s"});
  layer.push_back({"index.distance_evals_per_query",
                   replies > 0 ? double(evals) / double(replies) : 0, "count"});
  ProbeReadPath(in, f, report);
  ProbeKernels(kDim, report);
  layer.push_back({"workload.ground_truth_s", in.ground_truth_s, "s"});
  if (overhead) {
    const double plain_us = ReferenceCpuUs(plain);
    layer.push_back({"trace.overhead_pct",
                     100.0 * (ReferenceCpuUs(traced) - plain_us) / plain_us,
                     "%"});
  }
  TearDown(&f);
}

void TraceWrite(const RunArgs& args, Report* report) {
  const std::string dir = args.work_dir + "/mixed-data";
  std::filesystem::remove_all(dir);
  Tracer::Enable(false);
  const ServeInputs in = MakeInputs(args.seed);
  const WritePlan plan = MakeWritePlan(args.seed, kWriteRounds);
  Fixture f = StandUp(in, DurableOptions(dir), report);
  const uint16_t port = f.server->port();
  Tracer::Enable(true);
  const MixedPhase phase = RunMixedPhase(in, plan, port);
  CountOps(phase.searches, report);
  CountOps(phase.inserts, report);
  CountOps(phase.deletes, report);
  double gt_s = 0;
  report->Check(QuiescedRecall(in, plan, port, &gt_s, report) >= kRecallFloor,
                "write probe: search_recall below the floor " +
                    std::to_string(kRecallFloor));
  auto& layer = report->per_layer;
  if (const auto stats = ServerStats(port, report); stats.ok()) {
    const auto& insert = Endpoint(*stats, vdt::net::Op::kInsert);
    layer.push_back({"net.server_insert_p99_us", double(insert.p99_us), "us",
                     insert.count});
  }
  // Client latencies from due time.
  for (const auto& [name, samples] :
       {std::pair{"net.client_insert", &phase.inserts},
        std::pair{"net.client_delete", &phase.deletes}}) {
    const auto latency = Column(*samples, &Sample::latency_us);
    for (const auto& [p, suffix] : {std::pair{0.5, "_p50_us"},
                                    std::pair{0.99, "_p99_us"}}) {
      layer.push_back(LatencyMetric(report, std::string(name) + suffix,
                                    latency, p, "us"));
    }
  }
  const uint64_t live_rows =
      kRows + phase.acked_insert_rows - phase.acked_deleted;
  layer.push_back({"storage.checkpoint_s", f.flush_s, "s"});
  layer.push_back({"storage.disk_bytes_per_live_byte",
                   double(DirBytes(dir)) /
                       double(live_rows * kDim * sizeof(float)),
                   "ratio"});
  layer.push_back(
      {"vdms.recover_s", TearDownAndRecover(in, &f, dir, live_rows, report),
       "s"});
  ProbeWritePath(in, plan, dir, report);
  ProbeWal(args.work_dir + "/wal-probe", report);
  std::filesystem::remove_all(dir);
}

}  // namespace vdtbench
