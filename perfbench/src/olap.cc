// olap_plain / olap_compressed: a seeded star schema (sales fact table,
// stores dimension) loaded over the wire into a durable server and
// checkpointed into merged main storage — compressed in place first for
// olap_compressed. Two clients run snapshot transactions of the five
// analytic classes plus prepared point reads. Every answer is compared
// with one computed by plain loops over the generator's arrays.
#include <algorithm>
#include <array>

#include "workload.h"

namespace perfbench {
namespace {

namespace mdb = mammoth;

constexpr size_t kSalesRows = 1'500'000;
constexpr int kStores = 1000;
constexpr int kCustomers = 10000;  // needle: ~0.01% of the rows each
constexpr int kDays = 3650;
constexpr int kRangeDays = 730;    // range: ~20% of the days
constexpr size_t kInsertBatch = 10000;
constexpr int kVariants = 32;      // seeded parameter sets per class

const std::array<const char*, 8> kRegions = {
    "north", "south", "east", "west", "central", "coast", "hills", "plains"};
// Channel mix: 'direct' and 'email' (channel < 'p') are half the rows.
const std::array<const char*, 5> kChannels = {"direct", "email", "partner",
                                              "retail", "web"};
const std::array<int, 5> kChannelPct = {25, 25, 20, 15, 15};

class Olap : public Workload {
 public:
  Olap(uint64_t seed, bool compressed, bool perturb)
      : seed_(seed), compressed_(compressed) {
    Generate();
    BuildExpected(perturb);
  }

  Budget budget() const override { return {2, 2, 1, 2}; }
  void Configure(mdb::server::ServerConfig* cfg) const override {
    // Only the explicit CHECKPOINT after loading folds the log; nothing
    // is written afterwards.
    cfg->db.wal.checkpoint_log_bytes = 0;
  }
  int setup_reps() const override { return 1; }
  std::string probe_sql() const override {
    return "SELECT COUNT(*) FROM stores";
  }

  Status Load(mdb::server::Client& c, SetupInfo* info) override {
    MAMMOTH_RETURN_IF_ERROR(
        c.Query("CREATE TABLE stores (sid INT, region TEXT)").status());
    MAMMOTH_RETURN_IF_ERROR(
        c.Query("CREATE TABLE sales (id INT, store INT, cust INT, day INT, "
                "qty INT, price BIGINT, channel TEXT)")
            .status());
    const Clock::time_point t0 = Clock::now();
    for (const std::string& sql : inserts_) {
      MAMMOTH_RETURN_IF_ERROR(c.Query(sql).status());
    }
    info->load_s = Seconds(t0, Clock::now());
    info->rows = kSalesRows + kStores;
    if (compressed_) {
      MAMMOTH_RETURN_IF_ERROR(c.Query("ALTER TABLE sales COMPRESS").status());
      MAMMOTH_RETURN_IF_ERROR(c.Query("ALTER TABLE stores COMPRESS").status());
    }
    const Clock::time_point t1 = Clock::now();
    MAMMOTH_RETURN_IF_ERROR(c.Query("CHECKPOINT").status());
    info->checkpoint_ms = Seconds(t1, Clock::now()) * 1e3;
    return Status::OK();
  }

  void Round(int role, Conn& c, uint64_t round, Tally* tally) override {
    mdb::Rng rng = StreamRng(seed_, (round << 4) | static_cast<uint64_t>(role));
    // Per transaction: two of each analytic class but one top-N (the
    // costliest; its tail is the p99), and six point lookups. With BEGIN
    // and COMMIT, eight statements are cheaper than the needles and seven
    // dearer, so p50_ms falls inside the needle class, not between classes.
    std::array<int, 15> slots = {kRange,  kRange,  kGroup, kGroup, kTopN,
                                 kNeedle, kNeedle, kJoin,  kJoin,  kPoint,
                                 kPoint,  kPoint,  kPoint, kPoint, kPoint};
    for (size_t i = slots.size() - 1; i > 0; --i) {
      std::swap(slots[i], slots[rng.Uniform(i + 1)]);
    }
    tally->Ok(c.Query(kBegin, "BEGIN"), "BEGIN");
    for (int cls : slots) {
      if (cls == kPoint) {
        const size_t id = rng.Uniform(kSalesRows);
        auto r = c.Execute(kPoint,
                           "SELECT id, cust, price FROM sales WHERE id = ?",
                           {Value::Int(static_cast<int64_t>(id))});
        if (tally->Ok(r, "point")) {
          tally->Check(Rows(*r) == std::vector<std::string>{PointRow(id)},
                       "point answer for id " + std::to_string(id));
        }
        continue;
      }
      const int v = static_cast<int>(rng.Uniform(kVariants));
      const Variant& q = variants_[cls][v];
      auto r = c.Query(cls, q.sql);
      if (tally->Ok(r, q.sql)) {
        std::vector<std::string> rows = Rows(*r);
        if (cls == kGroup || cls == kJoin) std::sort(rows.begin(), rows.end());
        tally->Check(rows == q.expected, "wrong answer: " + q.sql);
      }
    }
    tally->Ok(c.Query(kCommit, "COMMIT"), "COMMIT");
  }

  void VerifyRecovered(mdb::server::Client& c, Tally* tally) override {
    auto n = c.Query("SELECT COUNT(*) FROM sales");
    tally->Check(n.ok() && n->RowCount() == 1 &&
                     CellInt(*n, 0, 0) == static_cast<int64_t>(kSalesRows),
                 "recovered sales row count");
    for (int cls = kRange; cls <= kJoin; ++cls) {
      const Variant& q = variants_[cls][0];
      auto r = c.Query(q.sql);
      if (!r.ok()) {
        tally->Fail("recovered: " + r.status().ToString());
        continue;
      }
      std::vector<std::string> rows = Rows(*r);
      if (cls == kGroup || cls == kJoin) std::sort(rows.begin(), rows.end());
      tally->Check(rows == q.expected, "recovered answer: " + q.sql);
    }
  }

  uint64_t UserBytes() const override { return user_bytes_; }
  uint64_t UserBytesWritten() const override { return user_bytes_; }

  void KernelProbes(mdb::sql::Engine* engine,
                    const mdb::parallel::ExecContext& ctx,
                    std::vector<Metric>* out) override {
    ProbeKernels(engine, ctx,
                 {"sales", "day", 1000, 1000 + kRangeDays - 1, "store",
                  "price", "stores", "sid"},
                 out);
  }

 private:
  struct Variant {
    std::string sql;
    std::vector<std::string> expected;  ///< Rows(), sorted for group/join
  };

  std::string PointRow(size_t id) const {
    return std::to_string(id) + "|" + std::to_string(cust_[id]) + "|" +
           std::to_string(price_[id]);
  }

  void Generate() {
    mdb::Rng rng = StreamRng(seed_, 1);
    // Every region holds the same number of stores (a seeded shuffle of
    // a round-robin assignment), so join variants do equal work.
    region_.resize(kStores);
    for (int s = 0; s < kStores; ++s) {
      region_[s] = static_cast<uint8_t>(s % kRegions.size());
    }
    for (int s = kStores - 1; s > 0; --s) {
      std::swap(region_[s], region_[rng.Uniform(s + 1)]);
    }
    store_.resize(kSalesRows);
    cust_.resize(kSalesRows);
    day_.resize(kSalesRows);
    qty_.resize(kSalesRows);
    price_.resize(kSalesRows);
    channel_.resize(kSalesRows);
    for (size_t i = 0; i < kSalesRows; ++i) {
      store_[i] = static_cast<int32_t>(rng.Uniform(kStores));
      cust_[i] = static_cast<int32_t>(rng.Uniform(kCustomers));
      // Loaded in time order: day grows with the row, plus a month of
      // jitter (late-arriving orders).
      day_[i] = static_cast<int32_t>(i * kDays / kSalesRows +
                                     rng.Uniform(30)) % kDays;
      qty_[i] = static_cast<int32_t>(1 + rng.Uniform(20));
      price_[i] = static_cast<int64_t>(100 + rng.Uniform(1'000'000));
      int pick = static_cast<int>(rng.Uniform(100));
      uint8_t ch = 0;
      while (pick >= kChannelPct[ch]) pick -= kChannelPct[ch++];
      channel_[i] = ch;
    }

    user_bytes_ = 0;
    std::string sql = "INSERT INTO stores VALUES ";
    for (int s = 0; s < kStores; ++s) {
      sql += (s ? ",(" : "(") + std::to_string(s) + ",'" +
             kRegions[region_[s]] + "')";
      user_bytes_ += 4 + std::string(kRegions[region_[s]]).size();
    }
    inserts_.push_back(std::move(sql));
    for (size_t base = 0; base < kSalesRows; base += kInsertBatch) {
      sql = "INSERT INTO sales VALUES ";
      for (size_t i = base; i < std::min(base + kInsertBatch, kSalesRows);
           ++i) {
        sql += (i > base ? ",(" : "(") + std::to_string(i) + "," +
               std::to_string(store_[i]) + "," + std::to_string(cust_[i]) +
               "," + std::to_string(day_[i]) + "," + std::to_string(qty_[i]) +
               "," + std::to_string(price_[i]) + ",'" +
               kChannels[channel_[i]] + "')";
        user_bytes_ += 5 * 4 + 8 + std::string(kChannels[channel_[i]]).size();
      }
      inserts_.push_back(std::move(sql));
    }
  }

  /// Plain loops over the generator's arrays — independent of the engine.
  void BuildExpected(bool perturb) {
    for (int cls = kRange; cls <= kJoin; ++cls) {
      mdb::Rng rng = StreamRng(seed_, 100 + static_cast<uint64_t>(cls));
      for (int v = 0; v < kVariants; ++v) {
        Variant q;
        if (cls == kRange) {
          const int a = static_cast<int>(rng.Uniform(kDays - kRangeDays));
          const int b = a + kRangeDays - 1;
          q.sql = "SELECT COUNT(*), SUM(price) FROM sales WHERE day >= " +
                  std::to_string(a) + " AND day <= " + std::to_string(b);
          int64_t n = 0, sum = 0;
          for (size_t i = 0; i < kSalesRows; ++i) {
            if (day_[i] >= a && day_[i] <= b) n++, sum += price_[i];
          }
          q.expected = {std::to_string(n) + "|" + std::to_string(sum)};
        } else if (cls == kGroup) {
          // A fixed-width customer window: every variant groups 80% of
          // the rows, so the work does not depend on the seed.
          const int lo = static_cast<int>(rng.Uniform(kCustomers / 5));
          const int hi = lo + kCustomers * 4 / 5 - 1;
          q.sql = "SELECT store, COUNT(*), SUM(price) FROM sales WHERE "
                  "cust >= " + std::to_string(lo) + " AND cust <= " +
                  std::to_string(hi) + " GROUP BY store";
          std::vector<int64_t> n(kStores), sum(kStores);
          for (size_t i = 0; i < kSalesRows; ++i) {
            if (cust_[i] >= lo && cust_[i] <= hi) {
              n[store_[i]]++, sum[store_[i]] += price_[i];
            }
          }
          for (int s = 0; s < kStores; ++s) {
            if (n[s] > 0) {
              q.expected.push_back(std::to_string(s) + "|" +
                                   std::to_string(n[s]) + "|" +
                                   std::to_string(sum[s]));
            }
          }
        } else if (cls == kTopN) {
          // Half the channels over 80% of the days: ~40% of the rows.
          const int a = static_cast<int>(rng.Uniform(kDays / 5));
          const int b = a + kDays * 4 / 5 - 1;
          q.sql = "SELECT id, price FROM sales WHERE channel < 'p' AND "
                  "day >= " + std::to_string(a) + " AND day <= " +
                  std::to_string(b) + " ORDER BY price DESC LIMIT 10";
          std::vector<size_t> hit;
          for (size_t i = 0; i < kSalesRows; ++i) {
            if (channel_[i] <= 1 && day_[i] >= a && day_[i] <= b) {
              hit.push_back(i);
            }
          }
          // ORDER BY is stable: ties keep row order.
          std::stable_sort(hit.begin(), hit.end(), [&](size_t x, size_t y) {
            return price_[x] > price_[y];
          });
          for (size_t k = 0; k < std::min<size_t>(10, hit.size()); ++k) {
            q.expected.push_back(std::to_string(hit[k]) + "|" +
                                 std::to_string(price_[hit[k]]));
          }
        } else if (cls == kNeedle) {
          const int cu = static_cast<int>(rng.Uniform(kCustomers));
          q.sql = "SELECT COUNT(*), SUM(price) FROM sales WHERE cust = " +
                  std::to_string(cu);
          int64_t n = 0, sum = 0;
          for (size_t i = 0; i < kSalesRows; ++i) {
            if (cust_[i] == cu) n++, sum += price_[i];
          }
          q.expected = {std::to_string(n) + "|" + std::to_string(sum)};
        } else {
          const size_t r = rng.Uniform(kRegions.size());
          q.sql = std::string(
                      "SELECT sales.store, SUM(sales.qty) FROM sales, stores "
                      "WHERE sales.store = stores.sid AND stores.region = '") +
                  kRegions[r] + "' GROUP BY sales.store";
          std::vector<int64_t> sum(kStores, -1);
          for (size_t i = 0; i < kSalesRows; ++i) {
            if (region_[store_[i]] == r) {
              sum[store_[i]] = std::max<int64_t>(sum[store_[i]], 0) + qty_[i];
            }
          }
          for (int s = 0; s < kStores; ++s) {
            if (sum[s] >= 0) {
              q.expected.push_back(std::to_string(s) + "|" +
                                   std::to_string(sum[s]));
            }
          }
        }
        // Group order is first appearance; compare those as sets.
        if (cls == kGroup || cls == kJoin) {
          std::sort(q.expected.begin(), q.expected.end());
        }
        if (perturb && v == 0) q.expected.front() += "0";
        variants_[cls][v] = std::move(q);
      }
    }
  }

  const uint64_t seed_;
  const bool compressed_;
  std::vector<uint8_t> region_;
  std::vector<int32_t> store_, cust_, day_, qty_;
  std::vector<int64_t> price_;
  std::vector<uint8_t> channel_;
  std::vector<std::string> inserts_;
  uint64_t user_bytes_ = 0;
  std::array<std::array<Variant, kVariants>, kJoin + 1> variants_;
};

}  // namespace

std::unique_ptr<Workload> MakeOlap(uint64_t seed, bool compressed,
                                   bool perturb_expected) {
  return std::make_unique<Olap>(seed, compressed, perturb_expected);
}

}  // namespace perfbench
