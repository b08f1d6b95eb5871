// htap_durable: TPC-B-like load beside queries on a durable server.
// Two writers each own half of the accounts and one history table; per
// round a writer reads one of its accounts (prepared), updates it
// (prepared, auto-commit) and appends a balanced pair of history rows in
// a BEGIN/COMMIT transaction. One report client runs snapshot
// transactions of analytic SELECTs over accounts and the history tables.
// Writers touch disjoint tables and keys, so no write conflicts arise.
//
// Checks: a point read returns the value its owner last wrote; snapshot
// invariants hold inside every report (fixed row counts, balanced
// history sums, an identical SELECT repeated agrees, history counts never
// shrink); after reopening the directory it holds exactly the
// acknowledged writes.
#include <algorithm>
#include <array>
#include <chrono>
#include <thread>

#include "workload.h"

namespace perfbench {
namespace {

namespace mdb = mammoth;

// Below the shared-scan threshold (256Ki rows): scans take the direct path.
constexpr int kAccounts = 200'000;
constexpr int kBranches = 1000;
constexpr int kCustomers = 10000;   // needle: ~20 accounts each
constexpr int kHistoryRows = 100'000;  // preloaded per writer
constexpr int kWriters = 2;
constexpr int kRangeAccounts = 40'000;  // range: 20% of the accounts
constexpr int kInsertBatch = 10000;
// The report client starts at most one transaction per period (a closed
// loop with think time), so writers mostly find the engine lock free and
// their p50s measure the commit path rather than lock waits.
constexpr auto kReportPeriod = std::chrono::milliseconds(120);
constexpr uint64_t kSettleRounds = 100;  // writer rounds logged after the
                                         // final checkpoint

const std::array<const char*, 8> kRegions = {
    "north", "south", "east", "west", "central", "coast", "hills", "plains"};

struct HistRow {
  int64_t hid;
  int32_t aid;
  int32_t delta;
  std::string Text() const {
    return std::to_string(hid) + "|" + std::to_string(aid) + "|" +
           std::to_string(delta);
  }
};

class Htap : public Workload {
 public:
  Htap(uint64_t seed, bool perturb) : seed_(seed), perturb_(perturb) {
    Generate();
  }

  Budget budget() const override { return {kWriters + 1, kWriters + 1, 1, 1}; }
  void Configure(mdb::server::ServerConfig* cfg) const override {
    // fsync on every commit with group commit (the defaults), and a log
    // small enough that checkpoints recur within a run.
    cfg->db.wal.checkpoint_log_bytes = size_t{64} << 10;
  }
  int setup_reps() const override { return 3; }
  std::string probe_sql() const override {
    return "SELECT COUNT(*) FROM branches";
  }

  Status Load(mdb::server::Client& c, SetupInfo* info) override {
    // Every set-up starts from the generated state.
    balance_ = initial_balance_;
    for (int w = 0; w < kWriters; ++w) {
      history_[w] = initial_history_[w];
      next_hid_[w] = kHistoryRows;
      last_count_[w] = 0;
    }
    for (const char* ddl :
         {"CREATE TABLE branches (bid INT, region TEXT)",
          "CREATE TABLE accounts (aid INT, bid INT, cust INT, abalance BIGINT)",
          "CREATE TABLE history_0 (hid BIGINT, aid INT, delta INT)",
          "CREATE TABLE history_1 (hid BIGINT, aid INT, delta INT)"}) {
      MAMMOTH_RETURN_IF_ERROR(c.Query(ddl).status());
    }
    const Clock::time_point t0 = Clock::now();
    for (const std::string& sql : inserts_) {
      MAMMOTH_RETURN_IF_ERROR(c.Query(sql).status());
    }
    info->load_s = Seconds(t0, Clock::now());
    info->rows = kBranches + kAccounts + kWriters * kHistoryRows;
    const Clock::time_point t1 = Clock::now();
    MAMMOTH_RETURN_IF_ERROR(c.Query("CHECKPOINT").status());
    info->checkpoint_ms = Seconds(t1, Clock::now()) * 1e3;
    return Status::OK();
  }

  void Round(int role, Conn& c, uint64_t round, Tally* tally) override {
    mdb::Rng rng = StreamRng(seed_, (round << 4) | static_cast<uint64_t>(role));
    if (role < kWriters) {
      WriterRound(role, c, rng, tally);
    } else {
      ReportRound(c, rng, tally);
    }
  }

  // A checkpoint, then a fixed tail of writer rounds: every run leaves the
  // same amount of log to replay, so recovery_s does not depend on where
  // the last log-size checkpoint happened to fall.
  void Settle(Conn& c, Tally* tally) override {
    tally->Ok(c.client().Query("CHECKPOINT"), "CHECKPOINT");
    for (uint64_t i = 0; i < kSettleRounds; ++i) {
      Round(static_cast<int>(i % kWriters), c, (uint64_t{1} << 40) + i, tally);
    }
  }

  void VerifyRecovered(mdb::server::Client& c, Tally* tally) override {
    auto acc = c.Query("SELECT aid, abalance FROM accounts");
    if (!acc.ok() || acc->RowCount() != kAccounts) {
      tally->Fail("recovered accounts: wrong row count");
    } else {
      std::vector<int> seen(kAccounts, 0);
      bool ok = true;
      for (size_t i = 0; i < acc->RowCount(); ++i) {
        const int64_t aid = CellInt(*acc, 0, i);
        if (aid < 0 || aid >= kAccounts || seen[aid]++ != 0 ||
            CellInt(*acc, 1, i) != Expected(aid)) {
          ok = false;
        }
      }
      tally->Check(ok, "recovered accounts differ from acknowledged writes");
    }
    for (int w = 0; w < kWriters; ++w) {
      auto h = c.Query("SELECT hid, aid, delta FROM history_" +
                       std::to_string(w));
      if (!h.ok()) {
        tally->Fail("recovered history: " + h.status().ToString());
        continue;
      }
      std::vector<std::string> got = Rows(*h), want;
      for (const HistRow& r : history_[w]) want.push_back(r.Text());
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      tally->Check(got == want, "recovered history_" + std::to_string(w) +
                                    " differs from acknowledged commits");
    }
  }

  uint64_t UserBytes() const override {
    uint64_t history = 0;
    for (int w = 0; w < kWriters; ++w) history += history_[w].size();
    return static_cast<uint64_t>(kAccounts) * kAccountBytes + branch_bytes_ +
           history * kHistoryBytes;
  }
  uint64_t UserBytesWritten() const override {
    return UserBytes() + updates_.load() * kAccountBytes;
  }

  void KernelProbes(mdb::sql::Engine* engine,
                    const mdb::parallel::ExecContext& ctx,
                    std::vector<Metric>* out) override {
    ProbeKernels(engine, ctx,
                 {"accounts", "aid", 50'000, 50'000 + kRangeAccounts - 1,
                  "bid", "abalance", "branches", "bid"},
                 out);
  }

 private:
  static constexpr uint64_t kAccountBytes = 4 + 4 + 4 + 8;
  static constexpr uint64_t kHistoryBytes = 8 + 4 + 4;

  int64_t Expected(int64_t aid) const {
    return balance_[aid] + (perturb_ && aid == 0 ? 1 : 0);
  }

  void WriterRound(int w, Conn& c, mdb::Rng& rng, Tally* tally) {
    const int aid = static_cast<int>(rng.Uniform(kAccounts / kWriters)) *
                        kWriters + w;
    auto p = c.Execute(kPoint, "SELECT abalance FROM accounts WHERE aid = ?",
                       {Value::Int(aid)});
    if (tally->Ok(p, "point read")) {
      tally->Check(p->RowCount() == 1 && CellInt(*p, 0, 0) == Expected(aid),
                   "point read of account " + std::to_string(aid) +
                       " is not its last acknowledged value");
    }
    const int64_t value = static_cast<int64_t>(rng.Uniform(1'000'000));
    auto u = c.Execute(kUpdate,
                       "UPDATE accounts SET abalance = ? WHERE aid = ?",
                       {Value::Int(value), Value::Int(aid)});
    if (tally->Ok(u, "update")) {
      balance_[aid] = value;
      updates_++;
    }
    const int32_t delta = static_cast<int32_t>(1 + rng.Uniform(1000));
    const HistRow rows[2] = {{next_hid_[w], aid, delta},
                             {next_hid_[w] + 1, aid, -delta}};
    tally->Ok(c.Query(kBegin, "BEGIN"), "BEGIN");
    std::string sql = "INSERT INTO history_" + std::to_string(w) + " VALUES ";
    for (int i = 0; i < 2; ++i) {
      sql += (i ? ",(" : "(") + std::to_string(rows[i].hid) + "," +
             std::to_string(rows[i].aid) + "," + std::to_string(rows[i].delta) +
             ")";
    }
    tally->Ok(c.Query(kInsert, sql), "history insert");
    if (tally->Ok(c.Query(kCommit, "COMMIT"), "COMMIT")) {
      history_[w].push_back(rows[0]);
      history_[w].push_back(rows[1]);
      next_hid_[w] += 2;
    }
  }

  void ReportRound(Conn& c, mdb::Rng& rng, Tally* tally) {
    const Clock::time_point next = Clock::now() + kReportPeriod;
    tally->Ok(c.Query(kBegin, "BEGIN"), "report BEGIN");
    const int a = static_cast<int>(rng.Uniform(kAccounts - kRangeAccounts));
    const std::string range =
        "SELECT COUNT(*), SUM(abalance) FROM accounts WHERE aid >= " +
        std::to_string(a) + " AND aid <= " +
        std::to_string(a + kRangeAccounts - 1);
    auto r1 = c.Query(kRange, range);
    if (tally->Ok(r1, "range")) {
      tally->Check(CellInt(*r1, 0, 0) == kRangeAccounts + (perturb_ ? 1 : 0),
                   "range count");
    }
    auto g = c.Query(kGroup,
                     "SELECT bid, COUNT(*), SUM(abalance) FROM accounts GROUP "
                     "BY bid");
    if (tally->Ok(g, "group")) {
      bool ok = g->RowCount() == kBranches;
      for (size_t i = 0; ok && i < g->RowCount(); ++i) {
        ok = CellInt(*g, 1, i) == kAccounts / kBranches;
      }
      tally->Check(ok, "group: every branch holds its accounts");
    }
    const int t = static_cast<int>(rng.Uniform(kAccounts / 2));
    auto top = c.Query(kTopN,
                       "SELECT aid, abalance FROM accounts WHERE aid >= " +
                           std::to_string(t) +
                           " ORDER BY abalance DESC LIMIT 10");
    if (tally->Ok(top, "topn")) {
      bool ok = top->RowCount() == 10;
      for (size_t i = 0; ok && i < top->RowCount(); ++i) {
        ok = CellInt(*top, 0, i) >= t &&
             (i == 0 || CellInt(*top, 1, i - 1) >= CellInt(*top, 1, i));
      }
      tally->Check(ok, "topn order");
    }
    const int cu = static_cast<int>(rng.Uniform(kCustomers));
    auto n = c.Query(kNeedle,
                     "SELECT COUNT(*), SUM(abalance) FROM accounts WHERE "
                     "cust = " + std::to_string(cu));
    if (tally->Ok(n, "needle")) {
      tally->Check(CellInt(*n, 0, 0) == cust_count_[cu], "needle count");
    }
    const size_t reg = rng.Uniform(kRegions.size());
    auto j = c.Query(kJoin,
                     std::string("SELECT accounts.bid, SUM(accounts.abalance) "
                                 "FROM accounts, branches WHERE accounts.bid "
                                 "= branches.bid AND branches.region = '") +
                         kRegions[reg] + "' GROUP BY accounts.bid");
    if (tally->Ok(j, "join")) {
      std::vector<int64_t> bids;
      for (size_t i = 0; i < j->RowCount(); ++i) bids.push_back(CellInt(*j, 0, i));
      std::sort(bids.begin(), bids.end());
      tally->Check(bids == region_bids_[reg], "join: branches of the region");
    }
    for (int w = 0; w < kWriters; ++w) {
      auto h = c.Query(kHistory, "SELECT COUNT(*), SUM(delta) FROM history_" +
                                     std::to_string(w));
      if (tally->Ok(h, "history")) {
        const int64_t count = CellInt(*h, 0, 0);
        // Pairs commit atomically and sum to zero: a snapshot seeing half
        // a transaction would break both checks.
        tally->Check(count >= last_count_[w] && count % 2 == 0 &&
                         CellInt(*h, 1, 0) == 0,
                     "history snapshot of writer " + std::to_string(w));
        last_count_[w] = count;
      }
    }
    auto r2 = c.Query(kRange, range);
    if (tally->Ok(r2, "range repeat") && r1.ok()) {
      tally->Check(Rows(*r2) == Rows(*r1),
                   "repeated SELECT differs inside one transaction");
    }
    tally->Ok(c.Query(kReportCommit, "COMMIT"), "report COMMIT");
    std::this_thread::sleep_until(next);
  }

  void Generate() {
    mdb::Rng rng = StreamRng(seed_, 2);
    std::vector<uint8_t> region(kBranches);
    std::string sql = "INSERT INTO branches VALUES ";
    branch_bytes_ = 0;
    // Equal-sized regions (seeded shuffle of a round-robin assignment).
    for (int b = 0; b < kBranches; ++b) {
      region[b] = static_cast<uint8_t>(b % kRegions.size());
    }
    for (int b = kBranches - 1; b > 0; --b) {
      std::swap(region[b], region[rng.Uniform(b + 1)]);
    }
    for (int b = 0; b < kBranches; ++b) {
      region_bids_[region[b]].push_back(b);
      sql += (b ? ",(" : "(") + std::to_string(b) + ",'" +
             kRegions[region[b]] + "')";
      branch_bytes_ += 4 + std::string(kRegions[region[b]]).size();
    }
    inserts_.push_back(std::move(sql));
    initial_balance_.resize(kAccounts);
    cust_count_.assign(kCustomers, 0);
    for (int base = 0; base < kAccounts; base += kInsertBatch) {
      sql = "INSERT INTO accounts VALUES ";
      for (int aid = base; aid < std::min(base + kInsertBatch, kAccounts);
           ++aid) {
        const int cust = static_cast<int>(rng.Uniform(kCustomers));
        cust_count_[cust]++;
        initial_balance_[aid] = static_cast<int64_t>(rng.Uniform(1'000'000));
        sql += (aid > base ? ",(" : "(") + std::to_string(aid) + "," +
               std::to_string(aid / (kAccounts / kBranches)) + "," +
               std::to_string(cust) + "," +
               std::to_string(initial_balance_[aid]) + ")";
      }
      inserts_.push_back(std::move(sql));
    }
    for (int w = 0; w < kWriters; ++w) {
      for (int base = 0; base < kHistoryRows; base += kInsertBatch) {
        sql = "INSERT INTO history_" + std::to_string(w) + " VALUES ";
        for (int i = base; i < base + kInsertBatch; i += 2) {
          const int32_t aid = static_cast<int32_t>(rng.Uniform(kAccounts));
          const int32_t delta = static_cast<int32_t>(1 + rng.Uniform(1000));
          for (const HistRow& r :
               {HistRow{i, aid, delta}, HistRow{i + 1, aid, -delta}}) {
            sql += (r.hid > base ? ",(" : "(") + std::to_string(r.hid) + "," +
                   std::to_string(r.aid) + "," + std::to_string(r.delta) + ")";
            initial_history_[w].push_back(r);
          }
        }
        inserts_.push_back(std::move(sql));
      }
    }
  }

  const uint64_t seed_;
  const bool perturb_;
  std::vector<std::string> inserts_;
  uint64_t branch_bytes_ = 0;
  std::array<std::vector<int64_t>, 8> region_bids_;
  std::vector<int64_t> cust_count_;
  std::vector<int64_t> initial_balance_;
  std::array<std::vector<HistRow>, kWriters> initial_history_;

  // Acknowledged state. balance_[aid] is written only by aid's owner;
  // history_[w], next_hid_[w] only by writer w; last_count_ only by the
  // report role — so the roles' threads share no element.
  std::vector<int64_t> balance_;
  std::array<std::vector<HistRow>, kWriters> history_;
  std::array<int64_t, kWriters> next_hid_{};
  std::array<int64_t, kWriters> last_count_{};
  std::atomic<uint64_t> updates_{0};
};

}  // namespace

std::unique_ptr<Workload> MakeHtap(uint64_t seed, bool perturb_expected) {
  return std::make_unique<Htap>(seed, perturb_expected);
}

}  // namespace perfbench
