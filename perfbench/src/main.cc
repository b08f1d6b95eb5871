// Wire-level benchmark of MammothDB.
//
//   perfbench --workload <olap_plain|olap_compressed|htap_durable>
//             --seed <n> --seconds <s> --trace <0|1> [--perturb-expected 1]
//
// Each run starts an in-process server::Server on a durable directory
// under .bench_build/run/, loads seeded data over the wire, and drives the
// workload's seeded rounds from closed-loop server::Client connections,
// checking every answer. The last line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics"} — the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <thread>

#include "compress/compressed_bat.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace mdb = mammoth;

constexpr double kWarmupSeconds = 0.5;
constexpr int kRecoveryReps = 15;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool perturb_expected = false;
};

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      o->workload = v;
    } else if (k == "--seed") {
      o->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      o->seconds = std::atoi(v.c_str());
    } else if (k == "--trace") {
      o->trace = v == "1";
    } else if (k == "--perturb-expected") {
      o->perturb_expected = v == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o->workload.empty() && o->seconds > 0;
}

/// Fatal set-up error: no result line, non-zero exit. _Exit skips the
/// destructors of server threads that may still be running.
[[noreturn]] void Die(const std::string& what) {
  std::fflush(stdout);
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::_Exit(2);
}

class Runner {
 public:
  Runner(const Options& opts, Workload* w, std::string root)
      : opts_(opts), w_(w), root_(std::move(root)), budget_(w->budget()) {}

  int Run();

 private:
  mdb::server::ServerConfig Config(const std::string& dir) const {
    mdb::server::ServerConfig cfg;
    cfg.max_sessions = 16;
    cfg.workers = budget_.workers;
    cfg.admission.max_inflight = budget_.workers;
    cfg.admission.queue_timeout_ms = 60000;
    cfg.threads = budget_.pool;
    cfg.db_dir = dir;
    w_->Configure(&cfg);
    return cfg;
  }

  mdb::server::Client Connect(mdb::server::Server& s) {
    auto c = mdb::server::Client::Connect("127.0.0.1", s.port());
    if (!c.ok()) Die("connect: " + c.status().ToString());
    return std::move(*c);
  }

  /// Runs `roles.size()` clients in parallel: whole rounds for the
  /// warm-up, then whole rounds until `seconds` have passed. Returns the
  /// measured wall time (gate release to the last client's last round).
  double Phase(std::vector<Conn*> conns, const std::vector<int>& roles,
               double seconds);
  /// One connection replaying every role's rounds in turn, for at most
  /// `max_rounds` rounds or `seconds`; returns its wall time and sets
  /// `*rounds` to the rounds it ran.
  double Replay(Conn* conn, double seconds, uint64_t max_rounds,
                uint64_t* rounds, bool trace_writes);

  void Setup();
  void Recover();
  /// Per-layer counters differenced over the multi-client phase.
  void CounterMetrics(const mammoth::server::ServerStatsSnapshot& a,
                      const mammoth::server::ServerStatsSnapshot& b,
                      const PhaseStats& ps, std::vector<Metric>* out);
  /// The one-client untraced and traced replays, the span summary and
  /// the kernel probes (run on the `unpinned` CPU set when given).
  void TracedReplay(const PhaseStats& ps, const cpu_set_t* unpinned,
                    std::vector<Metric>* out);
  void Finish();

  const Options opts_;
  Workload* w_;
  const std::string root_;
  const Budget budget_;
  std::unique_ptr<mdb::server::Server> server_;
  std::string dir_;
  Tally tally_;
  std::vector<double> setup_s_;
  SetupInfo setup_info_;
  std::vector<Metric> metrics_;
  std::vector<double> recovery_s_;
  uint64_t round_base_ = 0;  ///< keeps round seeds unique across phases
};

double Runner::Phase(std::vector<Conn*> conns, const std::vector<int>& roles,
                     double seconds) {
  StartGate gate(static_cast<int>(conns.size()));
  Clock::time_point start;
  std::mutex start_mu;
  std::vector<std::thread> threads;
  const uint64_t base = round_base_;
  for (size_t i = 0; i < conns.size(); ++i) {
    threads.emplace_back([&, i] {
      Conn& c = *conns[i];
      uint64_t round = base;
      const Clock::time_point warm_end =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(kWarmupSeconds));
      while (Clock::now() < warm_end) w_->Round(roles[i], c, round++, &tally_);
      c.ClearSamples();
      gate.ArriveAndWait();
      {
        std::lock_guard<std::mutex> lock(start_mu);
        if (start == Clock::time_point{}) start = Clock::now();
      }
      const Clock::time_point end =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(seconds));
      while (Clock::now() < end) w_->Round(roles[i], c, round++, &tally_);
    });
  }
  for (std::thread& t : threads) t.join();
  round_base_ += 1u << 20;
  return Seconds(start, Clock::now());
}

double Runner::Replay(Conn* conn, double seconds, uint64_t max_rounds,
                      uint64_t* rounds, bool trace_writes) {
  const uint64_t base = round_base_;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  uint64_t r = 0;
  for (; r < max_rounds && Clock::now() < end; ++r) {
    const int role = static_cast<int>(r % budget_.clients);
    // Writes of every other round of a role run in-process, so each
    // write statement is timed both at the wire and inside the engine.
    conn->set_in_process(trace_writes && (r / budget_.clients) % 2 == 1);
    w_->Round(role, *conn, base + r, &tally_);
  }
  conn->set_in_process(false);
  *rounds = r;
  return Seconds(start, Clock::now());
}

void Runner::Setup() {
  const int reps = opts_.trace ? 1 : w_->setup_reps();
  for (int rep = 0; rep < reps; ++rep) {
    dir_ = root_ + "/db" + std::to_string(rep);
    RemoveTree(dir_);
    if (!MakeDirs(dir_)) Die("cannot create " + dir_);
    const Clock::time_point t0 = Clock::now();
    server_ = std::make_unique<mdb::server::Server>(Config(dir_));
    if (Status st = server_->Start(); !st.ok()) Die("start: " + st.ToString());
    mdb::server::Client c = Connect(*server_);
    SetupInfo info;
    if (Status st = w_->Load(c, &info); !st.ok()) Die("load: " + st.ToString());
    auto first = c.Query(w_->probe_sql());
    if (!first.ok()) Die("first statement: " + first.status().ToString());
    setup_s_.push_back(Seconds(t0, Clock::now()));
    setup_info_ = info;
    c.Close();
    if (rep + 1 < reps) {
      server_->Stop();
      server_.reset();
      RemoveTree(dir_);
    }
  }
}

void Runner::Recover() {
  for (int rep = 0; rep < kRecoveryReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    mdb::server::Server s(Config(dir_));
    if (Status st = s.Start(); !st.ok()) Die("reopen: " + st.ToString());
    mdb::server::Client c = Connect(s);
    auto first = c.Query(w_->probe_sql());
    if (!first.ok()) Die("reopen probe: " + first.status().ToString());
    recovery_s_.push_back(Seconds(t0, Clock::now()));
    if (rep + 1 == kRecoveryReps) {
      tally_.attempted++;
      w_->VerifyRecovered(c, &tally_);
    }
    c.Close();
    s.Stop();
  }
}

/// Pins the calling thread — and so every thread started after it — to
/// the first `n` CPUs of `allowed`. Returns them as "0,1".
std::string PinToCpus(int n, const cpu_set_t& allowed) {
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  std::string list;
  for (int cpu = 0; cpu < CPU_SETSIZE && n > 0; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    CPU_SET(cpu, &pinned);
    if (!list.empty()) list += ',';
    list += std::to_string(cpu);
    --n;
  }
  if (sched_setaffinity(0, sizeof(pinned), &pinned) != 0) return "all";
  return list;
}

int Runner::Run() {
  const unsigned nproc = std::thread::hardware_concurrency();
  cpu_set_t allowed;
  const bool can_pin = sched_getaffinity(0, sizeof(allowed), &allowed) == 0;
  const std::string cpus = can_pin ? PinToCpus(budget_.cpus, allowed) : "all";
  Setup();
  std::printf("# workload=%s seed=%llu seconds=%d trace=%d\n",
              opts_.workload.c_str(),
              static_cast<unsigned long long>(opts_.seed), opts_.seconds,
              opts_.trace ? 1 : 0);
  std::printf(
      "# threads: clients=%d reactor_workers=%d pool=%d (+1 reactor loop) "
      "pinned to cpus %s, nproc=%u\n",
      budget_.clients, budget_.workers, budget_.pool, cpus.c_str(), nproc);
  std::printf("# db_dir fs=%s setup_s=", FsType(dir_).c_str());
  for (double s : setup_s_) std::printf("%.3f ", s);
  std::printf("load_rows=%llu load_s=%.3f\n",
              static_cast<unsigned long long>(setup_info_.rows),
              setup_info_.load_s);

  // The multi-client measured phase (half of the run when traced: the
  // rest goes to the one-client untraced and traced replays).
  std::vector<std::unique_ptr<Conn>> conns;
  std::vector<Conn*> ptrs;
  std::vector<int> roles;
  for (int i = 0; i < budget_.clients; ++i) {
    conns.push_back(std::make_unique<Conn>(Connect(*server_), nullptr));
    ptrs.push_back(conns.back().get());
    roles.push_back(i);
  }
  const double phase_s = opts_.trace ? opts_.seconds / 2.0 : opts_.seconds;
  const uint64_t steal0 = StealTicks();
  const mdb::server::ServerStatsSnapshot s0 = server_->stats();
  const double measured = Phase(ptrs, roles, phase_s);
  const mdb::server::ServerStatsSnapshot s1 = server_->stats();
  const uint64_t steal1 = StealTicks();
  const PhaseStats ps = MergeSamples(
      std::vector<const Conn*>(ptrs.begin(), ptrs.end()), measured);
  for (auto& c : conns) c->client().Close();
  std::printf("# measured %.3f s, %llu statements, steal ticks %llu\n",
              measured, static_cast<unsigned long long>(ps.statements),
              static_cast<unsigned long long>(steal1 - steal0));
  std::printf("# wal: commits=%llu fsyncs=%llu checkpoints=%llu\n",
              static_cast<unsigned long long>(s1.wal.commits_synced -
                                              s0.wal.commits_synced),
              static_cast<unsigned long long>(s1.wal.fsyncs - s0.wal.fsyncs),
              static_cast<unsigned long long>(s1.wal.checkpoints -
                                              s0.wal.checkpoints));
  for (const auto& [cls, lat] : ps.by_class) {
    std::printf("#   %-14s n=%-7zu p50=%.3f ms p99=%.3f ms\n", ClsName(cls),
                lat.size(), Percentile(lat, 0.5), Percentile(lat, 0.99));
  }

  std::vector<Metric> layer;
  if (opts_.trace) {
    CounterMetrics(s0, s1, ps, &layer);
    TracedReplay(ps, can_pin ? &allowed : nullptr, &layer);
  }

  // End of the run: settle the directory; count engine-held bytes,
  // directory bytes and pending deltas; then reopen the directory.
  {
    Conn settle(Connect(*server_), nullptr);
    w_->Settle(settle, &tally_);
    settle.client().Close();
  }
  const mdb::server::ServerStatsSnapshot end_stats = server_->stats();
  server_->Stop();
  uint64_t mem = 0, pending = 0;
  mdb::Catalog* cat = server_->engine()->catalog();
  for (const auto& name : cat->TableNames()) {
    auto t = cat->Get(name);
    if (!t.ok()) continue;
    mem += TableMemBytes(**t);
    pending += (*t)->PendingInsertCount() + (*t)->DeletedCount();
    std::printf("# storage %s:", name.c_str());
    for (size_t c = 0; c < (*t)->NumColumns(); ++c) {
      const auto& codec = (*t)->CompressedColumn(c);
      std::printf(" %s=%s", (*t)->schema()[c].name.c_str(),
                  codec != nullptr ? mdb::compress::CodecName(codec->codec())
                  : (*t)->StringDictColumn(c) != nullptr ? "dict"
                                                         : "plain");
    }
    std::printf(" (codec %zu B, decode caches %zu B)\n",
                (*t)->CompressedBytesTotal(),
                (*t)->CompressedCacheBytesTotal());
  }
  const uint64_t disk = DirBytes(dir_);
  server_.reset();
  Recover();

  const double user = static_cast<double>(w_->UserBytes());
  if (opts_.trace) {
    layer.push_back({"txn.pending_delta_rows", static_cast<double>(pending),
                     "count"});
    layer.push_back(
        {"wal.bytes_per_user_byte",
         static_cast<double>(end_stats.wal.bytes_logged) /
             static_cast<double>(w_->UserBytesWritten()),
         "B/B"});
    metrics_ = layer;
  } else {
    metrics_ = {
        {"setup_s", Percentile(setup_s_, 0.5), "s"},
        {"qps", ps.statements / ps.seconds, "1/s"},
        {"tps", ps.commits / ps.seconds, "1/s"},
        {"p50_ms", Percentile(ps.all, 0.5), "ms"},
        {"p99_ms", Percentile(ps.all, 0.99), "ms"},
        {"point_p50_ms", ps.P50(kPoint), "ms"},
        {"report_p50_ms", ps.ReportP50(), "ms"},
        {"mem_bytes_per_user_byte", static_cast<double>(mem) / user, "B/B"},
        {"disk_bytes_per_user_byte", static_cast<double>(disk) / user, "B/B"},
        {"recovery_s", *std::min_element(recovery_s_.begin(), recovery_s_.end()),
         "s"},
    };
  }
  std::printf("# mem=%llu disk=%llu user=%.0f recovery_s=",
              static_cast<unsigned long long>(mem),
              static_cast<unsigned long long>(disk), user);
  for (double s : recovery_s_) std::printf("%.4f ", s);
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  std::printf("\n# peak RSS %ld MiB (reference only)\n", ru.ru_maxrss / 1024);
  std::printf("# attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(tally_.attempted.load()),
              static_cast<unsigned long long>(tally_.failed.load()));
  for (const std::string& e : tally_.errors) {
    std::printf("# FAILED: %s\n", e.c_str());
  }
  for (const Metric& m : metrics_) {
    std::printf("# %-36s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  Finish();
  return tally_.failed.load() == 0 ? 0 : 1;
}

void Runner::CounterMetrics(const mdb::server::ServerStatsSnapshot& a,
                            const mdb::server::ServerStatsSnapshot& b,
                            const PhaseStats& ps, std::vector<Metric>* out) {
  std::vector<Metric>& layer = *out;
  const double stmts = static_cast<double>(ps.statements);
  auto d = [](uint64_t x, uint64_t y) { return static_cast<double>(y - x); };
  double selects = 0;
  for (const auto& [cls, lat] : ps.by_class) {
    if (IsReport(cls) || cls == kPoint) selects += lat.size();
  }
  layer.push_back({"server.admission_queued_per_kstmt",
                   d(a.admission.queued_total, b.admission.queued_total) *
                       1000.0 / stmts,
                   "count"});
  const double hits = d(a.prepared.hits, b.prepared.hits);
  const double misses = d(a.prepared.misses, b.prepared.misses);
  layer.push_back({"sql.prepared_hit_ratio",
                   hits + misses > 0 ? hits / (hits + misses) : 0, "x"});
  layer.push_back({"sql.load_rows_per_s",
                   static_cast<double>(setup_info_.rows) /
                       setup_info_.load_s,
                   "1/s"});
  const auto& sa = a.shared_scans;
  const auto& sb = b.shared_scans;
  layer.push_back({"scan.loads_per_query",
                   d(sa.chunks_loaded, sb.chunks_loaded) / selects,
                   "count"});
  layer.push_back({"scan.bytes_per_query",
                   d(sa.bytes_loaded, sb.bytes_loaded) / selects, "B"});
  layer.push_back({"scan.skipped_per_query",
                   d(sa.chunks_skipped, sb.chunks_skipped) / selects,
                   "count"});
  const double loaded = d(sa.chunks_loaded, sb.chunks_loaded);
  layer.push_back(
      {"scan.consumers_per_pass",
       loaded > 0 ? d(sa.chunks_delivered, sb.chunks_delivered) / loaded : 0,
       "count"});
  const auto& ka = a.compressed_kernels;
  const auto& kb = b.compressed_kernels;
  const double direct = d(ka.selects_direct, kb.selects_direct) +
                        d(ka.aggrs_direct, kb.aggrs_direct);
  const double all_calls = direct +
                           d(ka.selects_fallback, kb.selects_fallback) +
                           d(ka.aggrs_fallback, kb.aggrs_fallback) +
                           d(ka.project_bounded, kb.project_bounded) +
                           d(ka.project_full, kb.project_full);
  layer.push_back({"compress.codespace_ratio",
                   all_calls > 0 ? direct / all_calls : 0, "x"});
  layer.push_back({"txn.conflicts", d(a.txn.conflicts, b.txn.conflicts),
                   "count"});
  const double synced = d(a.wal.commits_synced, b.wal.commits_synced);
  layer.push_back({"wal.fsyncs_per_commit",
                   synced > 0 ? d(a.wal.fsyncs, b.wal.fsyncs) / synced : 0,
                   "count"});
  layer.push_back({"wal.checkpoints", d(a.wal.checkpoints, b.wal.checkpoints),
                   "count"});
  layer.push_back({"wal.checkpoint_ms", setup_info_.checkpoint_ms, "ms"});
  // Log past the last checkpoint when the measured phase ended.
  layer.push_back({"wal.replay_bytes",
                   d(b.wal.checkpoint_lsn, b.wal.next_lsn), "B"});
}

void Runner::TracedReplay(const PhaseStats& ps, const cpu_set_t* unpinned,
                          std::vector<Metric>* out) {
  std::vector<Metric>& layer = *out;
  // One-client replays: untraced, then traced over the same rounds.
  const double replay_s = opts_.seconds / 4.0;
  Conn plain(Connect(*server_), nullptr);
  uint64_t rounds = 0;
  const uint64_t replay_base = round_base_;
  const double untraced_s = Replay(&plain, replay_s, ~0ull, &rounds, false);
  const PhaseStats up = MergeSamples({&plain}, untraced_s);
  plain.client().Close();

  Tracer tracer;
  mdb::parallel::TaskPool pool(budget_.pool);
  mdb::parallel::ExecContext ctx(&pool);
  TraceCtx tc;
  tc.tracer = &tracer;
  tc.engine = server_->engine();
  tc.session = tc.engine->CreateSession();
  tc.ctx = &ctx;
  Conn traced(Connect(*server_), &tc);
  round_base_ = replay_base;  // replay the same rounds
  uint64_t traced_rounds = 0;
  const double traced_s =
      Replay(&traced, 6.0 * replay_s, rounds, &traced_rounds, true);
  const PhaseStats tp = MergeSamples({&traced}, traced_s);
  traced.client().Close();

  const auto summary = tracer.Summarize();
  auto mean = [&](const std::string& name) {
    auto it = summary.find(name);
    return it == summary.end() ? 0.0 : it->second.mean_us;
  };
  auto med = [](const std::vector<double>& v) { return Percentile(v, 0.5); };
  layer.push_back({"server.roundtrip_us",
                   med(tracer.Durations("server.roundtrip")), "us"});
  layer.push_back({"server.overhead_us", med(tc.overhead_us), "us"});
  layer.push_back({"wire.encode_us", mean("wire.encode"), "us"});
  layer.push_back({"wire.decode_us", mean("wire.decode"), "us"});
  layer.push_back({"wire.result_bytes", med(tc.result_bytes), "B"});
  layer.push_back({"sql.parse_us", mean("sql.parse"), "us"});
  layer.push_back({"sql.compile_us", mean("sql.compile"), "us"});
  layer.push_back({"mal.optimize_us", mean("mal.optimize"), "us"});
  layer.push_back({"mal.plan_text_us", mean("mal.plan_text"), "us"});
  layer.push_back({"mal.interpret_us", mean("mal.interpret"), "us"});
  layer.push_back({"mal.instructions", med(tc.instructions), "count"});
  layer.push_back({"sql.post_us", med(tc.post_us), "us"});
  layer.push_back({"txn.commit_us", mean("inproc.commit"), "us"});

  // Kernel, cost, parallel and codec probes on the workload's columns,
  // free of the pinning so the two-thread pool gets two CPUs.
  if (unpinned != nullptr) sched_setaffinity(0, sizeof(*unpinned), unpinned);
  w_->KernelProbes(server_->engine(), ctx, &layer);

  std::printf("# traced replay: %llu rounds (untraced replay %llu)\n",
              static_cast<unsigned long long>(traced_rounds),
              static_cast<unsigned long long>(rounds));
  std::printf("# span summary (us):  name  count  mean  self\n");
  for (const auto& [name, s] : summary) {
    std::printf("#   %-26s %7zu %10.2f %10.2f\n", name.c_str(), s.count,
                s.mean_us, s.self_us);
  }
  std::printf(
      "# tracing overhead: one-client p50 %.4f ms traced vs %.4f ms "
      "untraced (%+.1f%%), qps %.1f vs %.1f; multi-client untraced p50 "
      "%.4f ms qps %.1f\n",
      Percentile(tp.all, 0.5), Percentile(up.all, 0.5),
      100.0 * (Percentile(tp.all, 0.5) / Percentile(up.all, 0.5) - 1.0),
      tp.statements / tp.seconds, up.statements / up.seconds,
      Percentile(ps.all, 0.5), ps.statements / ps.seconds);
  const std::string trace_path = root_ + "/../trace_" + opts_.workload +
                                 "_seed" + std::to_string(opts_.seed) +
                                 ".json";
  if (tracer.WriteChromeTrace(trace_path)) {
    std::printf("# spans written to %s\n", trace_path.c_str());
  }
}

void Runner::Finish() {
  std::string out = "{\"correct\": ";
  out += tally_.failed.load() == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally_.attempted.load());
  out += ", \"failed\": " + std::to_string(tally_.failed.load());
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", metrics_[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics_[i].name +
           "\": {\"value\": " + num + ", \"unit\": \"" + metrics_[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  if (!ParseArgs(argc, argv, &opts)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--perturb-expected 1]\n");
    return 2;
  }
  std::unique_ptr<Workload> w;
  if (opts.workload == "olap_plain" || opts.workload == "olap_compressed") {
    w = MakeOlap(opts.seed, opts.workload == "olap_compressed",
                 opts.perturb_expected);
  } else if (opts.workload == "htap_durable") {
    w = MakeHtap(opts.seed, opts.perturb_expected);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 opts.workload.c_str());
    return 2;
  }
  const std::string root = ".bench_build/run/" + opts.workload + "-" +
                           std::to_string(getpid());
  if (!MakeDirs(root)) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", root.c_str());
    return 2;
  }
  Runner runner(opts, w.get(), root);
  const int rc = runner.Run();
  RemoveTree(root);
  return rc;
}
