// Shared harness of the wire-level benchmark: statement classes, latency
// samples, the traced connection that re-executes statements in-process
// around each layer's public entry points, host probes and result readers.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/table.h"
#include "mal/interpreter.h"
#include "parallel/exec_context.h"
#include "server/client.h"
#include "server/server.h"
#include "sql/engine.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using mammoth::Result;
using mammoth::Status;
using mammoth::Value;
using mammoth::mal::QueryResult;

inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double Millis(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Statement classes. Every workload reports a p50 for the analytic
/// classes, the prepared point read and the COMMIT round trip.
enum Cls : int {
  kRange,
  kGroup,
  kTopN,
  kNeedle,
  kJoin,
  kHistory,  ///< htap report: COUNT/SUM over one writer's history table
  kPoint,    ///< prepared point read
  kUpdate,   ///< prepared auto-commit UPDATE
  kInsert,   ///< INSERT inside a writer transaction
  kBegin,
  kCommit,        ///< COMMIT of a transaction that writes (olap: read-only)
  kReportCommit,  ///< COMMIT of an htap report transaction
  kNumCls
};
const char* ClsName(int cls);
/// Classes whose SELECTs count as report SELECTs (analytic, snapshot).
inline bool IsReport(int cls) { return cls <= kHistory; }
/// Classes that acknowledge a committed transaction.
inline bool IsCommit(int cls) {
  return cls == kCommit || cls == kReportCommit || cls == kUpdate;
}

/// Percentile by nearest rank (0 <= q <= 1); 0 for an empty sample.
double Percentile(std::vector<double> v, double q);

/// Seeded generator for one (seed, stream) pair: the same pair always
/// yields the same sequence, whatever the thread timing.
inline mammoth::Rng StreamRng(uint64_t seed, uint64_t stream) {
  mammoth::Rng mix(seed * 0x9e3779b97f4a7c15ULL +
                   stream * 0xd1b54a32d192ed03ULL + 0x632be59bd9b4e019ULL);
  return mammoth::Rng(mix.Next());
}

/// Traced-run span store; spans stay in memory until WriteChromeTrace.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0;
    double end_us = 0;
    int parent = -1;  ///< index of the enclosing span, -1 for a root
    int64_t stmt = -1;
  };

  Tracer() : origin_(Clock::now()) {}

  int Begin(const std::string& name, int parent, int64_t stmt) {
    spans_.push_back({name, NowUs(), 0, parent, stmt});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) { spans_[id].end_us = NowUs(); }
  double DurationUs(int id) const {
    return spans_[id].end_us - spans_[id].start_us;
  }

  /// Writes Chrome trace-event JSON (opens offline in Perfetto).
  bool WriteChromeTrace(const std::string& path) const;

  /// Per span name: count, mean duration and mean self time (duration
  /// minus the part covered by direct children), in microseconds.
  struct Summary {
    size_t count = 0;
    double mean_us = 0;
    double self_us = 0;
  };
  std::map<std::string, Summary> Summarize() const;

  /// Durations (us) of every span called `name`.
  std::vector<double> Durations(const std::string& name) const;

 private:
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// What a traced connection re-executes its statements against.
struct TraceCtx {
  Tracer* tracer = nullptr;
  mammoth::sql::Engine* engine = nullptr;
  mammoth::sql::SessionPtr session;  ///< in-process twin of the connection
  const mammoth::parallel::ExecContext* ctx = nullptr;
  int64_t next_stmt = 0;
  /// Per-SELECT layer figures: wire round trip minus in-process execution,
  /// encode and decode (us); Engine::Execute minus its parts called one
  /// by one (us); MAL instructions; encoded result bytes.
  std::vector<double> overhead_us, post_us, instructions, result_bytes;
};

/// A prepared statement known on the wire and in-process.
struct Prepared {
  mammoth::server::PreparedHandle wire;
  uint64_t local_id = 0;  ///< the engine-side id (traced in-process path)
};

/// One client connection of a phase. Untraced it is a thin wrapper that
/// times each wire round trip into its class. Traced, every SELECT is
/// re-executed in-process and split into the layers' public calls;
/// writes of a round with `in_process` set go through Engine instead of
/// the wire, so no statement is applied twice.
class Conn {
 public:
  Conn(mammoth::server::Client client, TraceCtx* trace)
      : client_(std::move(client)), trace_(trace) {}

  Result<QueryResult> Query(int cls, const std::string& sql);
  /// Executes `sql` (with `?` placeholders) as a prepared statement,
  /// preparing it on this connection at first use.
  Result<QueryResult> Execute(int cls, const std::string& sql,
                              const std::vector<Value>& params);

  /// Traced replay: route this round's statements in-process (writes).
  void set_in_process(bool on) { in_process_ = on && trace_ != nullptr; }

  const std::vector<std::pair<int, double>>& samples() const {
    return samples_;
  }
  void ClearSamples() { samples_.clear(); }
  mammoth::server::Client& client() { return client_; }

 private:
  void Reexecute(const std::string& sql, int root, int64_t stmt,
                 double wire_us);
  Result<const Prepared*> Prepare(const std::string& sql);

  mammoth::server::Client client_;
  TraceCtx* trace_;
  bool in_process_ = false;
  std::vector<std::pair<int, double>> samples_;
  std::map<std::string, Prepared> prepared_;
};

/// Statement counts and latencies of one phase, merged over clients.
struct PhaseStats {
  double seconds = 0;
  uint64_t statements = 0;
  uint64_t commits = 0;
  std::vector<double> all;
  std::map<int, std::vector<double>> by_class;
  double P50(int cls) const;
  /// p50 over every report-class SELECT.
  double ReportP50() const;
};
PhaseStats MergeSamples(const std::vector<const Conn*>& conns,
                        double seconds);

/// Barrier: the clients of one phase start measuring together.
class StartGate {
 public:
  explicit StartGate(int n) : left_(n) {}
  void ArriveAndWait();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int left_;
};

/// Host posture for the run record.
uint64_t StealTicks();  ///< "cpu" steal field of /proc/stat
std::string FsType(const std::string& dir);
uint64_t DirBytes(const std::string& dir);  ///< regular files, recursive
void RemoveTree(const std::string& dir);
bool MakeDirs(const std::string& dir);

/// Bytes a table's storage holds, counted through Table's public
/// accessors: plain main tails and string heaps, codec streams, string
/// dictionaries, decode caches, and pending insert/delete deltas.
uint64_t TableMemBytes(const mammoth::Table& t);

/// Cell readers over a decoded result (integers of any width widen).
int64_t CellInt(const QueryResult& r, size_t col, size_t row);
std::string CellStr(const QueryResult& r, size_t col, size_t row);
/// Every cell rendered as text, row-major: exact comparison of results.
std::vector<std::string> Rows(const QueryResult& r);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
