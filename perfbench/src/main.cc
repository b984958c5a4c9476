// perfbench: the repository benchmark (see ../README.md).
//
//   perfbench --workload <tpch_q1|tpch_q6|dashboard_mix> --seed N
//             --seconds S --trace <0|1> [--cache-key K] [--prepare]
//             [--plant-mismatch]
//
// Run from the repository root: tables are cached in .bench_cache/ and
// traces written to .bench_out/.
//
// One process hosts the real bipie query service (server::Server over
// loopback) and closed-loop server::Client load. Every reply is checked
// against the hash-aggregation oracle. --trace 0 prints the end-to-end
// metrics; --trace 1 is the separate traced run that prints the per-layer
// metrics and writes a Chrome trace. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <latch>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cpu.h"
#include "layers.h"
#include "oracle.h"
#include "report.h"
#include "server/client.h"
#include "server/server.h"
#include "spans.h"
#include "storage/table_io.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Share of CPU time the hypervisor gave to other guests (the "steal" field
// of /proc/stat) since the previous call; printed beside the results because
// a noisy host, not the program, explains most run-to-run drift.
double HostStealShare() {
  static uint64_t last_steal = 0, last_total = 0;
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t v[8] = {0};
  in >> cpu;
  for (uint64_t& x : v) in >> x;
  uint64_t total = 0;
  for (uint64_t x : v) total += x;
  const uint64_t steal = v[7];
  const double share =
      total > last_total
          ? static_cast<double>(steal - last_steal) / (total - last_total)
          : 0.0;
  last_steal = steal;
  last_total = total;
  return share;
}

size_t Nproc() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string cache_key = "dev";
  bool prepare = false;
  bool plant_mismatch = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--prepare") {
      a->prepare = true;
    } else if (arg == "--plant-mismatch") {
      a->plant_mismatch = true;
    } else if ((v = value()) == nullptr) {
      return false;
    } else if (arg == "--workload") {
      a->workload = v;
    } else if (arg == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      a->seconds = std::atof(v);
    } else if (arg == "--trace") {
      a->trace = std::atoi(v);
    } else if (arg == "--cache-key") {
      a->cache_key = v;
    } else {
      return false;
    }
  }
  return ParseWorkload(a->workload).has_value() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

// ---------------------------------------------------------------------------
// Set-up: table file on disk -> first reply.

struct Service {
  std::unique_ptr<bipie::Table> table;
  std::unique_ptr<bipie::server::Server> server;

  void Stop() {
    if (server) server->Shutdown();
    server.reset();
    table.reset();
  }
};

struct SetupTiming {
  double total_s = 0;
  double load_s = 0;
};

bipie::Result<SetupTiming> SetUp(const WorkloadSpec& spec,
                                 const std::string& path, Service* svc,
                                 SpanRecorder* rec) {
  ScopedSpan root(rec, "setup");
  SetupTiming timing;
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span(rec, "storage.load_table", root.index());
    bipie::LoadOptions options;  // checksums and deep validation on
    auto table = bipie::LoadTable(path, options);
    if (!table.ok()) return table.status();
    svc->table = std::make_unique<bipie::Table>(std::move(table.value()));
  }
  timing.load_s = Seconds(t0, Clock::now());
  {
    ScopedSpan span(rec, "server.start", root.index());
    bipie::server::ServerOptions options;
    options.admission.max_concurrent_queries = Nproc();
    svc->server = std::make_unique<bipie::server::Server>(options);
    svc->server->AddTable(spec.table_name, svc->table.get());
    BIPIE_RETURN_NOT_OK(svc->server->Start());
  }
  {
    ScopedSpan span(rec, "client.connect_ping", root.index());
    bipie::server::Client client;
    BIPIE_RETURN_NOT_OK(client.Connect("127.0.0.1", svc->server->port()));
    BIPIE_RETURN_NOT_OK(client.Ping(1));
  }
  timing.total_s = Seconds(t0, Clock::now());
  return timing;
}

// ---------------------------------------------------------------------------
// Closed-loop load.

struct Sample {
  double latency_ms = 0;
  double queue_us = 0;
  double exec_ms = 0;
};

struct LoopResult {
  std::vector<Sample> samples;  // correct replies in the timed window
  size_t attempted = 0;
  size_t failed = 0;
  double window_s = 0;
  double cpu_s = 0;
};

LoopResult RunClosedLoop(const WorkloadSpec& spec, uint16_t port,
                         const std::vector<Statement>& stmts,
                         const Expected& expected, uint64_t seed,
                         double warmup_s, double window_s,
                         SpanRecorder* rec) {
  const size_t clients = spec.clients;
  std::vector<LoopResult> per_client(clients);
  std::latch start(static_cast<std::ptrdiff_t>(clients) + 1);
  std::mutex log_mu;
  size_t logged = 0;
  auto log_failure = [&](const std::string& what) {
    std::lock_guard<std::mutex> lock(log_mu);
    if (logged++ < 5) std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  };

  auto client_main = [&](size_t c) {
    LoopResult& out = per_client[c];
    bipie::server::ClientOptions options;
    options.recv_timeout_ms = 60000;
    bipie::server::Client client(options);
    bipie::Status st = client.Connect("127.0.0.1", port);
    if (st.ok() && spec.num_threads != 1) {
      st = client.Set("num_threads", std::to_string(spec.num_threads));
    }
    if (!st.ok()) {
      log_failure("client setup: " + st.ToString());
      ++out.attempted;
      ++out.failed;
      start.count_down();
      return;
    }
    const std::vector<uint32_t> schedule =
        ClientSchedule(seed, c, stmts.size(), 1 << 16);
    size_t next = 0;
    bipie::QueryResult result;
    bipie::server::QueryStatsWire wire;
    // Runs one statement; true when the reply is correct.
    auto one = [&](size_t k) {
      st = client.Query(stmts[k].sql, &result, &wire);
      std::string why;
      if (!st.ok()) {
        log_failure("query " + std::to_string(k) + ": " + st.ToString());
        return false;
      }
      if (!SameResult(result, expected.results[k], &why)) {
        log_failure("statement " + std::to_string(k) + " wrong: " + why);
        return false;
      }
      return true;
    };

    const Clock::time_point warm_end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(warmup_s));
    // Warm-up replies are checked and counted too: a wrong answer fails
    // the run wherever it happens.
    while (Clock::now() < warm_end) {
      ++out.attempted;
      if (!one(schedule[next++ % schedule.size()])) ++out.failed;
    }
    start.arrive_and_wait();

    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(window_s));
    uint64_t seq = 0;
    while (Clock::now() < deadline) {
      const size_t k = schedule[next++ % schedule.size()];
      const uint64_t s0 = rec->NowNs();
      const Clock::time_point t0 = Clock::now();
      const bool ok = one(k);
      const double latency_ms = Seconds(t0, Clock::now()) * 1e3;
      const uint64_t s1 = rec->NowNs();
      ++out.attempted;
      if (!ok) {
        ++out.failed;
        continue;
      }
      out.samples.push_back({latency_ms, wire.queue_wait_ns / 1e3,
                             wire.exec_ns / 1e6});
      if (rec->enabled()) {
        // The Stats frame gives the server-side durations, not their
        // offsets: place them mid-request, splitting the rest (client,
        // framing, loopback) evenly before and after.
        const uint64_t req = (static_cast<uint64_t>(c) << 40) | seq++;
        const uint32_t tid = static_cast<uint32_t>(c + 1);
        const int64_t q = rec->Add("client.query", s0, s1, -1, req, tid);
        const uint64_t inner = std::min<uint64_t>(
            s1 - s0, wire.queue_wait_ns + wire.exec_ns);
        const uint64_t a = s0 + (s1 - s0 - inner) / 2;
        const uint64_t queue = std::min<uint64_t>(wire.queue_wait_ns, inner);
        rec->Add("server.queue_wait", a, a + queue, q, req, tid);
        rec->Add("server.exec", a + queue, a + inner, q, req, tid);
      }
    }
  };

  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) threads.emplace_back(client_main, c);
  start.arrive_and_wait();
  const Clock::time_point t0 = Clock::now();
  const double cpu0 = CpuSeconds();
  for (auto& t : threads) t.join();
  LoopResult total;
  total.window_s = Seconds(t0, Clock::now());
  total.cpu_s = CpuSeconds() - cpu0;
  for (LoopResult& r : per_client) {
    total.attempted += r.attempted;
    total.failed += r.failed;
    total.samples.insert(total.samples.end(), r.samples.begin(),
                         r.samples.end());
  }
  return total;
}

std::vector<double> Column(const std::vector<Sample>& s, double Sample::*f) {
  std::vector<double> out;
  out.reserve(s.size());
  for (const Sample& x : s) out.push_back(x.*f);
  return out;
}

// ---------------------------------------------------------------------------
// Output.

void PrintReport(const Metrics& metrics, bool correct, size_t attempted,
                 size_t failed) {
  std::printf("%-36s %16s  %-10s %s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : metrics) {
    std::printf("%-36s %16.6f  %-10s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::printf("%-36s %16.6f  %-10s n=%zu\n", "failed_ratio",
              attempted ? static_cast<double>(failed) / attempted : 0.0,
              "ratio", attempted);
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Run(const Args& args) {
  const WorkloadSpec spec = SpecFor(*ParseWorkload(args.workload));
  const size_t keep = spec.table_name == "lineitem" ? 2 : 8;
  auto path = EnsureTableFile(spec, args.seed, ".bench_cache", args.cache_key,
                              keep);
  if (!path.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", path.status().ToString().c_str());
    return 2;
  }
  if (args.prepare) return 0;
  const double file_bytes =
      static_cast<double>(std::filesystem::file_size(path.value()));

  std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d "
              "isa=%s nproc=%zu rows=%zu clients=%zu num_threads=%" PRIu64
              "\n",
              args.workload.c_str(), args.seed, args.seconds, args.trace,
              bipie::IsaTierName(bipie::CurrentIsaTier()), Nproc(), spec.rows,
              spec.clients, spec.num_threads);

  SpanRecorder rec(args.trace == 1);
  Metrics metrics;
  auto add = [&](std::string name, double value, const char* unit,
                 size_t samples) {
    metrics.push_back({std::move(name), value, unit, samples});
  };

  // Set-up, repeated so its median is steady; the last service stays up.
  // Loading the 1M-row events table takes ~15 ms, so it affords more
  // repetitions than the 164 MB lineitem file.
  const size_t setup_reps = spec.table_name == "lineitem" ? 9 : 25;
  Service svc;
  std::vector<double> setup_s, load_s;
  for (size_t r = 0; r < setup_reps; ++r) {
    if (r > 0) svc.Stop();
    auto t = SetUp(spec, path.value(), &svc, &rec);
    if (!t.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   t.status().ToString().c_str());
      svc.Stop();
      return 2;
    }
    setup_s.push_back(t.value().total_s);
    load_s.push_back(t.value().load_s);
  }
  const bipie::Table& table = *svc.table;
  const std::vector<Statement> stmts = MakeStatements(spec, args.seed, table);

  // Oracle: untimed with respect to the service, computed once.
  bipie::Result<Expected> expected_or = [&] {
    ScopedSpan span(&rec, "baseline.hash_agg");
    return ComputeExpected(table, stmts, Nproc());
  }();
  if (!expected_or.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 expected_or.status().ToString().c_str());
    svc.Stop();
    return 2;
  }
  Expected expected = std::move(expected_or.value());
  if (args.plant_mismatch) {
    for (bipie::QueryResult& r : expected.results) PlantMismatch(&r);
  }

  const double warmup_s = std::clamp(args.seconds * 0.1, 0.5, 2.0);
  const uint16_t port = svc.server->port();
  size_t attempted = 0, failed = 0;

  SpanRecorder off(false);
  HostStealShare();
  if (args.trace == 0) {
    const LoopResult loop = RunClosedLoop(spec, port, stmts, expected,
                                          args.seed, warmup_s, args.seconds,
                                          &off);
    attempted = loop.attempted;
    failed = loop.failed;
    const std::vector<double> lat = Column(loop.samples, &Sample::latency_ms);
    add("setup_s", Median(setup_s), "s", setup_s.size());
    add("latency_p50_ms", Quantile(lat, 0.5), "ms", lat.size());
    add("latency_p90_ms", Quantile(lat, 0.9), "ms", lat.size());
    add("throughput_qps", lat.size() / loop.window_s, "1/s", lat.size());
    add("peak_rss_mb", PeakRssMb(), "MB", 1);
    add("stored_bytes_per_value",
        file_bytes / (static_cast<double>(spec.rows) * table.num_columns()),
        "B", 1);
  } else {
    // Half the window untraced, half traced: their p50 ratio is the
    // tracing overhead.
    const LoopResult plain = RunClosedLoop(spec, port, stmts, expected,
                                           args.seed, warmup_s,
                                           args.seconds / 2, &off);
    const LoopResult traced = RunClosedLoop(spec, port, stmts, expected,
                                            args.seed, 0.0, args.seconds / 2,
                                            &rec);
    attempted = plain.attempted + traced.attempted;
    failed = plain.failed + traced.failed;

    std::vector<double> ping_us;
    {
      bipie::server::Client probe;
      if (probe.Connect("127.0.0.1", port).ok()) {
        for (uint64_t i = 0; i < 200; ++i) {
          const Clock::time_point t0 = Clock::now();
          if (probe.Ping(i).ok()) {
            ping_us.push_back(Seconds(t0, Clock::now()) * 1e6);
          }
        }
      }
    }

    LayerInputs li;
    li.table = &table;
    const size_t sample = std::min<size_t>(stmts.size(), 16);
    for (size_t k = 0; k < sample; ++k) {
      li.statements.push_back(&stmts[k]);
      li.expected.push_back(&expected.results[k]);
    }
    li.spans = &rec;
    const LayerReport layers = MeasureLayers(li);
    attempted += layers.executions;
    failed += layers.failures;

    const double load = Median(load_s);
    add("storage.load_s", load, "s", load_s.size());
    add("storage.load_mb_per_s", file_bytes / 1e6 / load, "MB/s",
        load_s.size());
    metrics.insert(metrics.end(), layers.metrics.begin(),
                   layers.metrics.end());
    const std::vector<double> lat = Column(traced.samples, &Sample::latency_ms);
    const std::vector<double> queue = Column(traced.samples, &Sample::queue_us);
    const std::vector<double> exec = Column(traced.samples, &Sample::exec_ms);
    std::vector<double> overhead_us;
    for (const Sample& s : traced.samples) {
      overhead_us.push_back((s.latency_ms - s.exec_ms) * 1e3 - s.queue_us);
    }
    add("exec.queue_wait_us_p50", Quantile(queue, 0.5), "us", queue.size());
    add("exec.queue_wait_us_p90", Quantile(queue, 0.9), "us", queue.size());
    add("exec.cpu_busy_ratio",
        traced.cpu_s / (traced.window_s * static_cast<double>(Nproc())),
        "ratio", 1);
    add("server.exec_ms_p50", Quantile(exec, 0.5), "ms", exec.size());
    add("server.overhead_us_p50", Quantile(overhead_us, 0.5), "us",
        overhead_us.size());
    add("server.ping_rtt_us", Median(ping_us), "us", ping_us.size());
    const std::vector<double> plain_lat =
        Column(plain.samples, &Sample::latency_ms);
    add("obs.trace_overhead_ratio",
        Quantile(lat, 0.5) / Quantile(plain_lat, 0.5), "ratio",
        lat.size() + plain_lat.size());
    add("baseline.hash_agg_cpr",
        static_cast<double>(expected.cycles) / expected.rows, "cycles/row",
        stmts.size());

    // Self time per span name: the request spans and the layer spans.
    const std::vector<Span> spans = rec.spans();
    const std::map<std::string, uint64_t> self = SelfTimeByName(spans);
    std::printf("self time per span (ms):\n");
    for (const auto& [name, ns] : self) {
      std::printf("  %-28s %12.3f\n", name.c_str(), ns / 1e6);
    }
    std::error_code ec;
    std::filesystem::create_directories(".bench_out", ec);
    const std::string trace_path = ".bench_out/trace_" + args.workload +
                                   "_" + std::to_string(args.seed) + ".json";
    std::ofstream(trace_path) << ToChromeTrace(spans);
    std::printf("trace: %s (%zu spans)\n", trace_path.c_str(), spans.size());
  }

  svc.Stop();
  std::printf("host cpu steal during measurement: %.2f%%\n",
              100.0 * HostStealShare());
  const bool correct = failed == 0 && attempted > 0;
  PrintReport(metrics, correct, attempted, failed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <tpch_q1|tpch_q6|dashboard_mix> "
                 "--seed N --seconds S --trace <0|1> [--cache-key K] "
                 "[--prepare] [--plant-mismatch]\n");
    return 2;
  }
  return perfbench::Run(args);
}
