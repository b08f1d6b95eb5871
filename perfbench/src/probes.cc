// Direct timings of the layers below SQL on a workload's own columns:
// the BAT kernels (core), the calibrated sequential-scan bound (cost),
// serial vs pooled selects (parallel), select over delta-resident vs
// merged rows, and the codecs (compress). Each figure is the median of
// several repetitions.
#include <algorithm>
#include <functional>

#include "compress/compressed_bat.h"
#include "core/group.h"
#include "core/join.h"
#include "core/select.h"
#include "core/sort.h"
#include "cost/calibrator.h"
#include "parallel/task_pool.h"
#include "workload.h"

namespace perfbench {

namespace mdb = mammoth;

namespace {

constexpr int kReps = 5;

/// Median wall time (ns) of `fn` over kReps runs after one warm-up.
double MedianNs(const std::function<void()>& fn) {
  fn();
  std::vector<double> ns;
  for (int i = 0; i < kReps; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    ns.push_back(Seconds(t0, Clock::now()) * 1e9);
  }
  return Percentile(ns, 0.5);
}

mdb::BatPtr Column(mdb::sql::Engine* engine, const std::string& table,
                   const std::string& col) {
  auto t = engine->catalog()->Get(table);
  if (!t.ok()) return nullptr;
  auto b = (*t)->ScanColumn(col);
  return b.ok() ? *b : nullptr;
}

/// The same range select through SQL over rows still in the insert
/// delta, then after MergeDeltas folded them into main storage.
double DeltaSelectRatio(const mdb::BatPtr& range, const mdb::BatPtr& measure,
                        int64_t lo, int64_t hi) {
  mdb::sql::Engine side;
  if (!side.Execute("CREATE TABLE d (r INT, m BIGINT)").ok()) return 0;
  auto t = side.catalog()->Get("d");
  if (!t.ok()) return 0;
  const size_t n = std::min<size_t>(range->Count(), size_t{1} << 19);
  for (size_t i = 0; i < n; ++i) {
    if (!(*t)->Insert({Value::Int(range->ValueAt<int32_t>(i)),
                       Value::Int(measure->ValueAt<int64_t>(i))})
             .ok()) {
      return 0;
    }
  }
  const std::string q = "SELECT COUNT(*), SUM(m) FROM d WHERE r >= " +
                        std::to_string(lo) + " AND r <= " + std::to_string(hi);
  const double delta_ns = MedianNs([&] { (void)side.Execute(q); });
  if (!(*t)->MergeDeltas().ok()) return 0;
  const double merged_ns = MedianNs([&] { (void)side.Execute(q); });
  return merged_ns > 0 ? delta_ns / merged_ns : 0;
}

}  // namespace

void ProbeKernels(mdb::sql::Engine* engine,
                  const mdb::parallel::ExecContext& ctx,
                  const ProbeColumns& cols, std::vector<Metric>* out) {
  const mdb::BatPtr range = Column(engine, cols.table, cols.range_col);
  const mdb::BatPtr group = Column(engine, cols.table, cols.group_col);
  const mdb::BatPtr measure = Column(engine, cols.table, cols.measure_col);
  const mdb::BatPtr dim = Column(engine, cols.dim_table, cols.dim_key);
  if (!range || !group || !measure || !dim) return;
  const double n = static_cast<double>(range->Count());
  const Value lo = Value::Int(cols.lo), hi = Value::Int(cols.hi);

  const double select_ns = MedianNs([&] {
    (void)mdb::algebra::RangeSelect(range, nullptr, lo, hi, true, true,
                                    false, ctx);
  });
  // The workloads run kernels on a pool of one (see README); the speedup
  // is what a two-thread pool gives this select over one thread.
  mdb::parallel::TaskPool pool2(2);
  const double pooled_ns = MedianNs([&] {
    (void)mdb::algebra::RangeSelect(range, nullptr, lo, hi, true, true,
                                    false, mdb::parallel::ExecContext(&pool2));
  });
  const double serial_ns = MedianNs([&] {
    (void)mdb::algebra::RangeSelect(range, nullptr, lo, hi, true, true,
                                    false, mdb::parallel::ExecContext::Serial());
  });
  const double group_ns = MedianNs([&] {
    auto g = mdb::algebra::Group(group, nullptr, 0, ctx);
    if (g.ok()) (void)mdb::algebra::AggrSum(measure, g->groups, g->ngroups, ctx);
  });
  const double join_ns =
      MedianNs([&] { (void)mdb::algebra::HashJoin(group, dim); });
  const double sort_ns = MedianNs([&] {
    (void)mdb::algebra::RefineSort(measure, nullptr, nullptr, true, ctx);
  });
  const double topn_ns =
      MedianNs([&] { (void)mdb::algebra::TopN(measure, 10, true, ctx); });
  // The calibrator streams 8-byte words; scale to the scanned width.
  const double width = static_cast<double>(mdb::TypeWidth(range->type()));
  const double seq_ns =
      mdb::cost::MeasureSequentialLatencyNs(range->PayloadBytes()) * width /
      8.0;

  out->push_back({"core.select_ns_per_row", select_ns / n, "ns"});
  out->push_back({"core.group_ns_per_row", group_ns / n, "ns"});
  out->push_back({"core.join_ns_per_row", join_ns / n, "ns"});
  out->push_back({"core.sort_ns_per_row", sort_ns / n, "ns"});
  out->push_back({"core.topn_ns_per_row", topn_ns / n, "ns"});
  out->push_back({"core.delta_select_ratio",
                  DeltaSelectRatio(range, measure, cols.lo, cols.hi), "x"});
  out->push_back({"cost.seq_ns_per_value", seq_ns, "ns"});
  out->push_back({"core.select_vs_bound", select_ns / n / seq_ns, "x"});
  out->push_back({"parallel.select_speedup", serial_ns / pooled_ns, "x"});

  // Codecs over the same columns, whatever the table's own policy:
  // CompressBest picks the codec MergeDeltas would.
  double encode_s = 0, logical = 0, packed = 0, decode_ns = 0, values = 0;
  for (const mdb::BatPtr& b : {range, group, measure}) {
    const Clock::time_point t0 = Clock::now();
    auto c = mdb::compress::CompressedBat::CompressBest(b);
    encode_s += Seconds(t0, Clock::now());
    if (!c.ok()) continue;
    logical += static_cast<double>(c->LogicalBytes());
    packed += static_cast<double>(c->CompressedBytes());
    decode_ns += MedianNs([&] { (void)c->Decode(); });
    values += static_cast<double>(c->Count());
  }
  out->push_back({"compress.encode_s", encode_s, "s"});
  out->push_back({"compress.storage_ratio", packed > 0 ? logical / packed : 0,
                  "x"});
  out->push_back({"compress.decode_ns_per_value",
                  values > 0 ? decode_ns / values : 0, "ns"});
}

}  // namespace perfbench
