#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "core/bat.h"
#include "parallel/exec_context.h"
#include "repl/applier.h"
#include "repl/source.h"
#include "server/reactor.h"

namespace mammoth::server {

namespace {

/// Uppercased, whitespace-normalized command text (surrounding blanks
/// and a trailing ';' dropped, interior runs collapsed to one space) —
/// shared by the admin-command intercepts below.
std::string NormalizedCommand(const std::string& sql) {
  size_t b = sql.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return {};
  size_t e = sql.find_last_not_of(" \t\r\n;");
  std::string t = sql.substr(b, e - b + 1);
  for (char& c : t) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  std::string norm;
  for (char c : t) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!norm.empty() && norm.back() != ' ') norm += ' ';
    } else {
      norm += c;
    }
  }
  return norm;
}

/// True when `sql` is the SERVER STATUS command (case-insensitive,
/// surrounding whitespace and a trailing ';' ignored).
bool IsStatusCommand(const std::string& sql) {
  return NormalizedCommand(sql) == "SERVER STATUS";
}

/// True for the PROMOTE admin command (replica → writable primary).
bool IsPromoteCommand(const std::string& sql) {
  return NormalizedCommand(sql) == "PROMOTE";
}

/// Splits "host:port"; kInvalidArgument when the port is absent or bad.
Status ParseHostPort(const std::string& spec, std::string* host,
                     uint16_t* port) {
  const size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon + 1 == spec.size()) {
    return Status::InvalidArgument("replicate_from: expected host:port, got " +
                                   spec);
  }
  *host = spec.substr(0, colon);
  const long p = std::strtol(spec.c_str() + colon + 1, nullptr, 10);
  if (p <= 0 || p > 65535) {
    return Status::InvalidArgument("replicate_from: bad port in " + spec);
  }
  *port = static_cast<uint16_t>(p);
  return Status::OK();
}

}  // namespace

Server::Server(const ServerConfig& config)
    : config_(config),
      shared_scans_(config.shared_scan),
      pool_(std::make_unique<parallel::TaskPool>(
          config.threads > 0 ? config.threads
                             : parallel::DefaultThreadCount())),
      admission_(config.admission, pool_.get()) {
  engine_.AttachSharedScans(&shared_scans_);
}

Server::~Server() { Stop(); }

Status Server::OpenDurableStorage() {
  if (config_.db_dir.empty() || storage_opened_) return Status::OK();
  MAMMOTH_ASSIGN_OR_RETURN(
      wal::OpenedDb db,
      wal::OpenDatabase(config_.db_dir, &engine_, config_.db));
  wal_ = std::move(db.wal);
  recovery_info_ = db.info;
  storage_opened_ = true;
  return Status::OK();
}

repl::ReplicationSource* Server::repl_source() const {
  std::lock_guard<std::mutex> lock(repl_mu_);
  return repl_source_.get();
}

repl::ReplicaApplier* Server::repl_applier() const {
  std::lock_guard<std::mutex> lock(repl_mu_);
  return repl_applier_.get();
}

uint32_t Server::AdvertisedCaps() const {
  uint32_t caps = kWireCapCompressedResults | kWireCapPipeline |
                  kWireCapPrepared | kWireCapParamTypes;
  if (repl_source() != nullptr) caps |= kWireCapReplication;
  return caps;
}

Status Server::AdoptReplica(int fd, uint64_t start_lsn,
                            std::string leftover) {
  repl::ReplicationSource* src = repl_source();
  if (src == nullptr) {
    return Status::Unsupported(
        "repl: this server does not offer replication (no durable "
        "storage, or still a replica)");
  }
  return src->Adopt(fd, start_lsn, std::move(leftover));
}

Result<mal::QueryResult> Server::Promote() {
  std::lock_guard<std::mutex> promote_lock(promote_mu_);
  repl::ReplicaApplier* applier = repl_applier();
  if (applier == nullptr || !replica_role_.load()) {
    return Status::InvalidArgument("PROMOTE: this server is not a replica");
  }
  // Stopping the applier lands on a transaction boundary (transactions
  // apply atomically), so the catalog is exactly the primary's state
  // through replayed_lsn.
  applier->Stop();
  const uint64_t lsn = applier->replayed_lsn();
  const uint64_t next_txn_id = applier->next_txn_id();
  if (!config_.db_dir.empty()) {
    // Become durable: open a fresh WAL whose LSN space continues the
    // primary's, then checkpoint the replayed catalog so the directory
    // is recoverable on its own (and can bootstrap new replicas).
    wal::WalResume resume;
    resume.next_lsn = lsn;
    resume.next_txn_id = next_txn_id;
    MAMMOTH_ASSIGN_OR_RETURN(
        std::unique_ptr<wal::Wal> wal,
        wal::Wal::Open(config_.db_dir, config_.db.wal, resume));
    repl::ReplicationSource::Options ro;
    ro.dir = config_.db_dir;
    ro.semi_sync = config_.repl_semi_sync;
    auto source = std::make_unique<repl::ReplicationSource>(wal.get(), ro);
    {
      // repl_mu_ also covers wal_: stats() snapshots it concurrently.
      std::lock_guard<std::mutex> lock(repl_mu_);
      wal_ = std::move(wal);
      repl_source_ = std::move(source);
    }
    storage_opened_ = true;
    engine_.AttachWal(wal_.get());
    // The engine is still read-only here, but CHECKPOINT is an admin
    // command, not a mutation — it snapshots the catalog as-is.
    MAMMOTH_RETURN_IF_ERROR(engine_.Execute("CHECKPOINT").status());
  }
  engine_.set_read_only(false);
  replica_role_.store(false);
  mal::QueryResult r;
  BatPtr col = Bat::New(PhysType::kInt64);
  col->Append<int64_t>(static_cast<int64_t>(lsn));
  r.names = {"promoted_lsn"};
  r.columns = {std::move(col)};
  return r;
}

Status Server::Start() {
  if (started_.exchange(true)) {
    return Status::InvalidArgument("server already started");
  }
  if (config_.replicate_from.empty()) {
    if (Status st = OpenDurableStorage(); !st.ok()) {
      started_.store(false);
      return st;
    }
    if (wal_ != nullptr) {
      // Durable primary: accept replica subscriptions and gate commit
      // acknowledgement on the semi-sync barrier.
      repl::ReplicationSource::Options ro;
      ro.dir = config_.db_dir;
      ro.semi_sync = config_.repl_semi_sync;
      std::lock_guard<std::mutex> lock(repl_mu_);
      repl_source_ =
          std::make_unique<repl::ReplicationSource>(wal_.get(), ro);
    }
  } else {
    // Replica role: db_dir stays untouched until PROMOTE; the engine is
    // read-only and fed from the primary's WAL stream.
    repl::ReplicaApplier::Options ao;
    if (Status st = ParseHostPort(config_.replicate_from, &ao.host, &ao.port);
        !st.ok()) {
      started_.store(false);
      return st;
    }
    auto applier = std::make_unique<repl::ReplicaApplier>(&engine_, ao);
    if (Status st = applier->Start(); !st.ok()) {
      started_.store(false);
      return st;
    }
    replica_role_.store(true);
    std::lock_guard<std::mutex> lock(repl_mu_);
    repl_applier_ = std::move(applier);
  }
  // Installed unconditionally (cheap when no source exists): Promote()
  // creates a source after startup, and the barrier must see it.
  engine_.SetCommitBarrier([this](uint64_t lsn) {
    repl::ReplicationSource* src = repl_source();
    return src != nullptr ? src->WaitForAck(lsn) : Status::OK();
  });
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Status::IOError("socket(): failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("unparsable host " + config_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError("bind(" + config_.host + ":" +
                           std::to_string(config_.port) +
                           "): " + std::strerror(errno));
  }
  // A deep backlog matters for the reactor: a C10K connect burst must
  // not see ECONNREFUSED just because the loop is mid-tick.
  if (::listen(listen_fd_, 1024) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError(std::string("listen(): ") + std::strerror(errno));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  reactor_ = std::make_unique<Reactor>(this);
  if (Status st = reactor_->Start(listen_fd_); !st.ok()) {
    reactor_.reset();
    ::close(listen_fd_);
    listen_fd_ = -1;
    started_.store(false);
    return st;
  }
  return Status::OK();
}

void Server::BeginDrain() {
  draining_.store(true);
  admission_.Shutdown();
  if (reactor_ != nullptr) reactor_->BeginDrain();
}

void Server::Stop() {
  if (!started_.load() || stopped_.exchange(true)) return;
  BeginDrain();
  // The applier stops first (it is a client of someone else's engine);
  // the source stops after the front-end so draining sessions' commits
  // still see the barrier behave normally.
  if (repl::ReplicaApplier* applier = repl_applier(); applier != nullptr) {
    applier->Stop();
  }
  // The reactor bounds its own drain (drain_force_millis) against
  // non-reading pipelined clients, then closes everything.
  if (reactor_ != nullptr) reactor_->Stop();
  if (repl::ReplicationSource* src = repl_source(); src != nullptr) {
    src->Stop();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

Result<Server::WireJob> Server::DecodeJob(const Frame& frame) {
  WireJob job;
  switch (frame.type) {
    case FrameType::kQuery:
      job.sql = frame.payload;
      return job;
    case FrameType::kQuerySeq: {
      MAMMOTH_ASSIGN_OR_RETURN(SeqPayload sp, SplitSeq(frame.payload));
      job.seq = sp.seq;
      job.sql = std::string(sp.rest);
      return job;
    }
    case FrameType::kExecute: {
      MAMMOTH_ASSIGN_OR_RETURN(SeqPayload sp, SplitSeq(frame.payload));
      MAMMOTH_ASSIGN_OR_RETURN(ExecuteRequest req, DecodeExecute(sp.rest));
      job.seq = sp.seq;
      job.is_execute = true;
      job.stmt_id = req.stmt_id;
      job.params = std::move(req.params);
      return job;
    }
    default:
      return Status::InvalidArgument("unexpected frame type from client");
  }
}

std::string Server::RunJob(const WireJob& job, uint32_t caps,
                           const sql::SessionPtr& session) {
  // seq 0 = old-protocol untagged response; otherwise the response
  // carries the request's sequence number (out-of-order completion).
  auto respond = [&](FrameType plain, FrameType tagged,
                     std::string_view payload) {
    if (job.seq == 0) return EncodeFrame(plain, payload);
    return EncodeFrame(tagged, PrependSeq(job.seq, payload));
  };
  auto fail = [&](const Status& st) {
    return respond(FrameType::kError, FrameType::kErrorSeq, EncodeError(st));
  };
  if (!job.is_execute && IsStatusCommand(job.sql)) {
    // Introspection answers even under admission pressure.
    auto payload = EncodeResult(StatusResult(stats()));
    if (!payload.ok()) return fail(payload.status());
    return respond(FrameType::kResult, FrameType::kResultSeq, *payload);
  }
  if (!job.is_execute && IsPromoteCommand(job.sql)) {
    // Failover path: must answer even when admission is saturated.
    auto promoted = Promote();
    if (!promoted.ok()) return fail(promoted.status());
    auto payload = EncodeResult(*promoted);
    if (!payload.ok()) return fail(payload.status());
    return respond(FrameType::kResult, FrameType::kResultSeq, *payload);
  }
  auto ticket = admission_.Admit();
  if (!ticket.ok()) {
    // Typed rejection (kTimedOut / kUnavailable); the session survives.
    return fail(ticket.status());
  }
  auto result =
      job.is_execute
          ? engine_.ExecutePreparedSession(session, job.stmt_id, job.params,
                                           ticket->context())
          : engine_.ExecuteSession(session, job.sql, ticket->context());
  if (!result.ok()) {
    ++queries_failed_;
    return fail(result.status());
  }
  uint64_t saved = 0;
  auto payload = EncodeResult(*result, caps, &saved);
  if (!payload.ok()) {
    ++queries_failed_;
    return fail(payload.status());
  }
  wire_result_bytes_saved_ += saved;
  ++queries_ok_;
  return respond(FrameType::kResult, FrameType::kResultSeq, *payload);
}

std::string Server::HandlePrepareFrame(uint32_t seq, const std::string& text,
                                       uint32_t caps) {
  // No admission: preparing is one parse, and clients prepare on the
  // hot path right after connecting.
  auto entry = engine_.Prepare(text);
  if (!entry.ok()) {
    return EncodeFrame(FrameType::kErrorSeq,
                       PrependSeq(seq, EncodeError(entry.status())));
  }
  PreparedReply reply;
  reply.stmt_id = (*entry)->id;
  reply.nparams = (*entry)->nparams;
  {
    // param_types is (re)written under plan_mu by concurrent Prepares
    // of the same text; copy it out under the same lock.
    std::lock_guard<std::mutex> lock((*entry)->plan_mu);
    reply.param_types = (*entry)->param_types;
  }
  return EncodeFrame(FrameType::kPrepared, EncodePrepared(seq, reply, caps));
}

ServerStatsSnapshot Server::stats() const {
  ServerStatsSnapshot s;
  s.sessions_total = sessions_total_.load();
  s.sessions_rejected = sessions_rejected_.load();
  s.queries_ok = queries_ok_.load();
  s.queries_failed = queries_failed_.load();
  s.bytes_in = bytes_in_.load();
  s.bytes_out = bytes_out_.load();
  s.sessions_open = sessions_open_.load();
  s.draining = draining_.load();
  s.admission = admission_.stats();
  s.shared_scans = shared_scans_.stats();
  s.compression = engine_.compression_stats();
  s.recycler = engine_.recycler_stats();
  s.compressed_kernels = compress::GetKernelStats();
  s.txn = engine_.txn_stats();
  s.wire_result_bytes_saved = wire_result_bytes_saved_.load();
  s.prepared = engine_.prepared_stats();
  s.epoll_sessions = static_cast<uint64_t>(s.sessions_open);
  if (reactor_ != nullptr) {
    s.pipelined_in_flight = reactor_->pipelined_in_flight();
  }
  wal::Wal* wal = nullptr;
  {
    // Promote() installs wal_ while sessions run; snapshot under the
    // same lock that guards the replication pointers.
    std::lock_guard<std::mutex> lock(repl_mu_);
    wal = wal_.get();
  }
  if (wal != nullptr) {
    s.durable = true;
    s.wal = wal->stats();
    s.wal_recovered_txns = recovery_info_.txns_applied;
  }
  s.repl_role = replica_role_.load() ? 1 : 0;
  if (repl::ReplicationSource* src = repl_source(); src != nullptr) {
    const repl::ReplicationSource::Stats rs = src->stats();
    s.repl_replicas = rs.replicas;
    s.repl_shipped_lsn = rs.min_shipped_lsn;
    s.repl_acked_lsn = rs.min_acked_lsn;
    s.repl_lag_bytes = rs.lag_bytes;
    s.repl_snapshots += rs.snapshots_served;
  }
  if (repl::ReplicaApplier* applier = repl_applier(); applier != nullptr) {
    const repl::ReplicaApplier::Stats as = applier->stats();
    s.repl_replayed_lsn = as.replayed_lsn;
    s.repl_source_durable_lsn = as.source_durable_lsn;
    s.repl_txns_applied = as.txns_applied;
    s.repl_snapshots += as.snapshots_received;
    if (s.repl_role == 1 && as.source_durable_lsn > as.replayed_lsn) {
      s.repl_lag_bytes = as.source_durable_lsn - as.replayed_lsn;
    }
  }
  return s;
}

mal::QueryResult Server::StatusResult(const ServerStatsSnapshot& s) {
  BatPtr counters = Bat::NewString(nullptr);
  BatPtr values = Bat::New(PhysType::kInt64);
  auto row = [&](std::string_view name, uint64_t value) {
    counters->AppendString(name);
    values->Append<int64_t>(static_cast<int64_t>(value));
  };
  row("wire_version", kWireVersion);
  row("draining", s.draining ? 1 : 0);
  row("sessions_open", static_cast<uint64_t>(s.sessions_open));
  row("sessions_total", s.sessions_total);
  row("sessions_rejected", s.sessions_rejected);
  row("queries_ok", s.queries_ok);
  row("queries_failed", s.queries_failed);
  row("queries_admitted", s.admission.admitted);
  row("queries_queued_total", s.admission.queued_total);
  row("queries_queued_now", static_cast<uint64_t>(s.admission.queued));
  row("queries_inflight", static_cast<uint64_t>(s.admission.inflight));
  row("queries_peak_inflight",
      static_cast<uint64_t>(s.admission.peak_inflight));
  row("queries_timed_out", s.admission.timed_out);
  row("queries_rejected", s.admission.rejected);
  row("bytes_in", s.bytes_in);
  row("bytes_out", s.bytes_out);
  row("shared_scans_attached", s.shared_scans.scans_attached);
  row("shared_scans_direct", s.shared_scans.scans_direct);
  row("shared_chunks_loaded", s.shared_scans.chunks_loaded);
  row("shared_chunks_delivered", s.shared_scans.chunks_delivered);
  row("shared_chunks_skipped", s.shared_scans.chunks_skipped);
  row("shared_loads_saved", s.shared_scans.loads_saved);
  row("shared_chunks_decompressed", s.shared_scans.chunks_decompressed);
  row("shared_bytes_loaded", s.shared_scans.bytes_loaded);
  row("shared_bytes_delivered", s.shared_scans.bytes_delivered);
  row("compressed_tables", s.compression.compressed_tables);
  row("compressed_columns", s.compression.compressed_columns);
  row("compressed_bytes", s.compression.compressed_bytes);
  row("compressed_logical_bytes", s.compression.logical_bytes);
  row("wire_result_bytes_saved", s.wire_result_bytes_saved);
  row("epoll_sessions", s.epoll_sessions);
  row("pipelined_in_flight", s.pipelined_in_flight);
  row("prepared_cache_entries", s.prepared.entries);
  row("prepared_cache_hits", s.prepared.hits);
  row("prepared_cache_misses", s.prepared.misses);
  row("prepared_cache_evictions", s.prepared.evictions);
  row("durable", s.durable ? 1 : 0);
  row("wal_txns", s.wal.txns_logged);
  row("wal_commits_synced", s.wal.commits_synced);
  row("wal_fsyncs", s.wal.fsyncs);
  row("wal_bytes", s.wal.bytes_logged);
  row("wal_checkpoints", s.wal.checkpoints);
  row("wal_durable_lsn", s.wal.durable_lsn);
  row("wal_recovered_txns", s.wal_recovered_txns);
  row("repl_role", s.repl_role);
  row("repl_replicas", s.repl_replicas);
  row("repl_shipped_lsn", s.repl_shipped_lsn);
  row("repl_acked_lsn", s.repl_acked_lsn);
  row("repl_replayed_lsn", s.repl_replayed_lsn);
  row("repl_source_durable_lsn", s.repl_source_durable_lsn);
  row("repl_lag_bytes", s.repl_lag_bytes);
  row("repl_txns_applied", s.repl_txns_applied);
  row("repl_snapshots", s.repl_snapshots);
  row("recycler_compressed_bytes", s.recycler.compressed_bytes);
  row("compressed_kernel_selects", s.compressed_kernels.selects_direct);
  row("compressed_kernel_select_fallbacks",
      s.compressed_kernels.selects_fallback);
  row("compressed_kernel_aggrs", s.compressed_kernels.aggrs_direct);
  row("compressed_kernel_aggr_fallbacks",
      s.compressed_kernels.aggrs_fallback);
  row("compressed_project_bounded", s.compressed_kernels.project_bounded);
  row("compressed_project_full", s.compressed_kernels.project_full);
  row("compressed_cache_bytes", s.compression.cache_bytes);
  row("txn_begun", s.txn.begun);
  row("txn_committed", s.txn.committed);
  row("txn_rolled_back", s.txn.rolled_back);
  row("txn_conflicts", s.txn.conflicts);
  row("txn_active", s.txn.active);
  mal::QueryResult result;
  result.names = {"counter", "value"};
  result.columns = {std::move(counters), std::move(values)};
  return result;
}

}  // namespace mammoth::server
