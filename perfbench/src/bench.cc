#include "bench.h"

#include <dirent.h>
#include <sys/stat.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "core/string_heap.h"
#include "mal/optimizer.h"
#include "server/wire.h"
#include "sql/parser.h"

namespace perfbench {

namespace mdb = mammoth;

const char* ClsName(int cls) {
  static const char* kNames[kNumCls] = {
      "range", "group",  "topn",  "needle", "join",   "history",
      "point", "update", "insert", "begin", "commit", "report_commit"};
  return cls >= 0 && cls < kNumCls ? kNames[cls] : "?";
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  return v[rank];
}

// --- Tracer ----------------------------------------------------------------

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%.3f,\"dur\":%.3f", s.start_us,
                  s.end_us - s.start_us);
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << buf
        << ",\"args\":{\"stmt\":" << s.stmt << ",\"parent\":" << s.parent
        << ",\"id\":" << i << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(out);
}

std::map<std::string, Tracer::Summary> Tracer::Summarize() const {
  std::vector<double> child_us(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_us[s.parent] += s.end_us - s.start_us;
  }
  std::map<std::string, Summary> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    Summary& sum = out[spans_[i].name];
    const double d = spans_[i].end_us - spans_[i].start_us;
    sum.count++;
    sum.mean_us += d;
    sum.self_us += d - child_us[i];
  }
  for (auto& [name, sum] : out) {
    sum.mean_us /= static_cast<double>(sum.count);
    sum.self_us /= static_cast<double>(sum.count);
  }
  return out;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.end_us - s.start_us);
  }
  return out;
}

// --- Conn ------------------------------------------------------------------

namespace {

bool IsSelect(const std::string& sql) {
  return sql.size() >= 6 && strncasecmp(sql.data(), "SELECT", 6) == 0;
}

}  // namespace

Result<QueryResult> Conn::Query(int cls, const std::string& sql) {
  if (in_process_) {
    Tracer& tr = *trace_->tracer;
    const int64_t stmt = trace_->next_stmt++;
    const int root = tr.Begin(std::string("inproc.") + ClsName(cls), -1, stmt);
    const int x = tr.Begin("sql.execute", root, stmt);
    auto r = trace_->engine->ExecuteSession(trace_->session, sql, *trace_->ctx);
    tr.End(x);
    tr.End(root);
    return r;
  }
  const Clock::time_point t0 = Clock::now();
  int root = -1;
  int64_t stmt = -1;
  int wire = -1;
  if (trace_ != nullptr) {
    stmt = trace_->next_stmt++;
    root = trace_->tracer->Begin(std::string("stmt.") + ClsName(cls), -1,
                                 stmt);
    wire = trace_->tracer->Begin("server.roundtrip", root, stmt);
  }
  auto r = client_.Query(sql);
  const Clock::time_point t1 = Clock::now();
  samples_.push_back({cls, Millis(t0, t1)});
  if (trace_ != nullptr) {
    trace_->tracer->End(wire);
    if (r.ok() && IsSelect(sql)) {
      Reexecute(sql, root, stmt, trace_->tracer->DurationUs(wire));
    }
    trace_->tracer->End(root);
  }
  return r;
}

void Conn::Reexecute(const std::string& sql, int root, int64_t stmt,
                     double wire_us) {
  Tracer& tr = *trace_->tracer;
  mdb::sql::Engine* engine = trace_->engine;
  const mdb::parallel::ExecContext& ctx = *trace_->ctx;

  const int x = tr.Begin("sql.execute", root, stmt);
  auto whole = engine->ExecuteSession(trace_->session, sql, ctx);
  tr.End(x);
  if (!whole.ok()) return;

  // The parts Engine::Execute runs for a SELECT, each called on its own.
  const int parts = tr.Begin("reexec", root, stmt);
  double parts_us = 0;
  auto timed = [&](const char* name, const auto& fn) {
    const int s = tr.Begin(name, parts, stmt);
    fn();
    tr.End(s);
    parts_us += tr.DurationUs(s);
  };
  Result<mdb::sql::Statement> parsed = Status::Internal("not parsed");
  timed("sql.parse", [&] { parsed = mdb::sql::Parse(sql); });
  if (parsed.ok() && std::holds_alternative<mdb::sql::SelectStmt>(*parsed)) {
    const auto& select = std::get<mdb::sql::SelectStmt>(*parsed);
    Result<mdb::mal::Program> prog = Status::Internal("not compiled");
    timed("sql.compile", [&] { prog = engine->Compile(select); });
    if (prog.ok()) {
      timed("mal.optimize", [&] { mdb::mal::OptimizePipeline(&*prog); });
      timed("mal.plan_text", [&] { (void)prog->ToString(); });
      mdb::mal::RunStats rs;
      Status run = Status::OK();
      timed("mal.interpret", [&] {
        mdb::mal::Interpreter interp(engine->catalog(), nullptr, ctx);
        run = interp.Run(*prog, &rs).status();
      });
      if (run.ok()) {
        trace_->instructions.push_back(static_cast<double>(rs.instructions));
        trace_->post_us.push_back(tr.DurationUs(x) - parts_us);
      }
    }
  }
  tr.End(parts);

  const int enc = tr.Begin("wire.encode", root, stmt);
  auto payload = mdb::server::EncodeResult(*whole, client_.caps());
  tr.End(enc);
  if (!payload.ok()) return;
  const int dec = tr.Begin("wire.decode", root, stmt);
  auto decoded = mdb::server::DecodeResult(*payload);
  tr.End(dec);
  trace_->result_bytes.push_back(static_cast<double>(payload->size()));
  trace_->overhead_us.push_back(wire_us - tr.DurationUs(x) -
                                tr.DurationUs(enc) - tr.DurationUs(dec));
}

Result<QueryResult> Conn::Execute(int cls, const std::string& sql,
                                  const std::vector<Value>& params) {
  MAMMOTH_ASSIGN_OR_RETURN(const Prepared* prep, Prepare(sql));
  const Prepared& p = *prep;
  if (in_process_) {
    Tracer& tr = *trace_->tracer;
    const int64_t stmt = trace_->next_stmt++;
    const int root = tr.Begin(std::string("inproc.") + ClsName(cls), -1, stmt);
    const int x = tr.Begin("sql.execute_prepared", root, stmt);
    auto r = trace_->engine->ExecutePreparedSession(
        trace_->session, p.local_id, params, *trace_->ctx);
    tr.End(x);
    tr.End(root);
    return r;
  }
  const Clock::time_point t0 = Clock::now();
  int root = -1;
  int64_t stmt = -1;
  int wire = -1;
  if (trace_ != nullptr) {
    stmt = trace_->next_stmt++;
    root = trace_->tracer->Begin(std::string("stmt.") + ClsName(cls), -1,
                                 stmt);
    wire = trace_->tracer->Begin("server.roundtrip", root, stmt);
  }
  auto r = client_.ExecutePrepared(p.wire, params);
  samples_.push_back({cls, Millis(t0, Clock::now())});
  if (trace_ != nullptr) {
    trace_->tracer->End(wire);
    if (r.ok() && cls == kPoint) {
      // Prepared reads skip parse and compile; re-execute them whole.
      Tracer& tr = *trace_->tracer;
      const int x = tr.Begin("sql.execute_prepared", root, stmt);
      auto again = trace_->engine->ExecutePreparedSession(
          trace_->session, p.local_id, params, *trace_->ctx);
      tr.End(x);
      (void)again;
    }
    trace_->tracer->End(root);
  }
  return r;
}

Result<const Prepared*> Conn::Prepare(const std::string& sql) {
  auto it = prepared_.find(sql);
  if (it != prepared_.end()) return &it->second;
  Prepared p;
  MAMMOTH_ASSIGN_OR_RETURN(p.wire, client_.Prepare(sql));
  if (trace_ != nullptr) {
    MAMMOTH_ASSIGN_OR_RETURN(auto local, trace_->engine->Prepare(sql));
    p.local_id = local->id;
  }
  return &prepared_.emplace(sql, std::move(p)).first->second;
}

// --- Phase statistics -----------------------------------------------------

double PhaseStats::P50(int cls) const {
  auto it = by_class.find(cls);
  return it == by_class.end() ? 0 : Percentile(it->second, 0.5);
}

double PhaseStats::ReportP50() const {
  std::vector<double> v;
  for (const auto& [cls, lat] : by_class) {
    if (IsReport(cls)) v.insert(v.end(), lat.begin(), lat.end());
  }
  return Percentile(std::move(v), 0.5);
}

PhaseStats MergeSamples(const std::vector<const Conn*>& conns,
                        double seconds) {
  PhaseStats out;
  out.seconds = seconds;
  for (const Conn* c : conns) {
    for (const auto& [cls, ms] : c->samples()) {
      out.all.push_back(ms);
      out.by_class[cls].push_back(ms);
      out.statements++;
      if (IsCommit(cls)) out.commits++;
    }
  }
  return out;
}

void StartGate::ArriveAndWait() {
  std::unique_lock<std::mutex> lock(mu_);
  if (--left_ <= 0) {
    cv_.notify_all();
    return;
  }
  cv_.wait(lock, [&] { return left_ <= 0; });
}

// --- Host probes ----------------------------------------------------------

uint64_t StealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t f[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return 0;
  for (uint64_t& x : f) in >> x;
  return f[7];  // user nice system idle iowait irq softirq steal
}

std::string FsType(const std::string& dir) {
  struct statfs st;
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<uint64_t>(st.f_type)) {
    case 0xEF53: return "ext2/3/4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794c7630: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%llx",
                    static_cast<unsigned long long>(st.f_type));
      return buf;
    }
  }
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return 0;
  while (dirent* e = readdir(d)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    const std::string path = dir + "/" + name;
    struct stat st;
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

void RemoveTree(const std::string& dir) {
  DIR* d = opendir(dir.c_str());
  if (d != nullptr) {
    while (dirent* e = readdir(d)) {
      const std::string name = e->d_name;
      if (name == "." || name == "..") continue;
      const std::string path = dir + "/" + name;
      struct stat st;
      if (lstat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
        RemoveTree(path);
      } else {
        unlink(path.c_str());
      }
    }
    closedir(d);
  }
  rmdir(dir.c_str());
}

bool MakeDirs(const std::string& dir) {
  for (size_t pos = 1; pos <= dir.size(); ++pos) {
    if (pos == dir.size() || dir[pos] == '/') {
      const std::string prefix = dir.substr(0, pos);
      if (mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) return false;
    }
  }
  return true;
}

uint64_t TableMemBytes(const mdb::Table& t) {
  uint64_t bytes = t.CompressedBytesTotal() + t.CompressedCacheBytesTotal();
  for (size_t c = 0; c < t.NumColumns(); ++c) {
    if (t.CompressedColumn(c) != nullptr) continue;  // counted above
    const mdb::BatPtr& main = t.MainColumn(c);
    if (main == nullptr) continue;
    bytes += main->PayloadBytes();
    if (main->heap() != nullptr) bytes += main->heap()->ByteSize();
  }
  // Pending deltas: one row image per insert (string cells as 8-byte
  // offsets into the shared heap counted above), plus the deleted-OID
  // list and its commit stamps.
  uint64_t row_width = 0;
  for (const auto& def : t.schema()) {
    row_width += def.type == mdb::PhysType::kStr ? 8 : mdb::TypeWidth(def.type);
  }
  bytes += t.PendingInsertCount() * (row_width + sizeof(uint64_t));
  bytes += t.DeletedCount() * (sizeof(mdb::Oid) + sizeof(uint64_t));
  return bytes;
}

// --- Result readers ---------------------------------------------------------

int64_t CellInt(const QueryResult& r, size_t col, size_t row) {
  const mdb::Bat& b = *r.columns[col];
  switch (b.type()) {
    case mdb::PhysType::kInt64: return b.ValueAt<int64_t>(row);
    case mdb::PhysType::kInt32: return b.ValueAt<int32_t>(row);
    case mdb::PhysType::kInt16: return b.ValueAt<int16_t>(row);
    case mdb::PhysType::kBool:
    case mdb::PhysType::kInt8: return b.ValueAt<int8_t>(row);
    case mdb::PhysType::kOid: return static_cast<int64_t>(b.OidAt(row));
    case mdb::PhysType::kDouble:
      return static_cast<int64_t>(b.ValueAt<double>(row));
    case mdb::PhysType::kFloat:
      return static_cast<int64_t>(b.ValueAt<float>(row));
    case mdb::PhysType::kStr: return 0;
  }
  return 0;
}

std::string CellStr(const QueryResult& r, size_t col, size_t row) {
  const mdb::Bat& b = *r.columns[col];
  if (b.type() == mdb::PhysType::kStr) return std::string(b.StringAt(row));
  return std::to_string(CellInt(r, col, row));
}

std::vector<std::string> Rows(const QueryResult& r) {
  std::vector<std::string> out;
  for (size_t i = 0; i < r.RowCount(); ++i) {
    std::string row;
    for (size_t c = 0; c < r.columns.size(); ++c) {
      if (c > 0) row += "|";
      row += CellStr(r, c, i);
    }
    out.push_back(std::move(row));
  }
  return out;
}

}  // namespace perfbench
