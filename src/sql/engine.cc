#include "sql/engine.h"

#include <algorithm>
#include <cctype>
#include <map>

#include "core/project.h"
#include "core/select.h"
#include "core/sort.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "wal/db.h"
#include "wal/record.h"
#include "wal/wal.h"

namespace mammoth::sql {

namespace {

/// Matches the CHECKPOINT admin command (case-insensitive, surrounding
/// whitespace ignored) — intercepted before the SQL parser, like the
/// server's SERVER STATUS.
bool IsCheckpointCommand(const std::string& statement) {
  std::string t;
  for (char c : statement) {
    if (!std::isspace(static_cast<unsigned char>(c))) {
      t.push_back(static_cast<char>(std::toupper(c)));
    }
  }
  return t == "CHECKPOINT";
}

/// Upper-cased first bare word of a statement, used to route the
/// PREPARE / EXECUTE surface before the regular parser.
std::string FirstWord(const std::string& statement) {
  size_t i = 0;
  while (i < statement.size() &&
         std::isspace(static_cast<unsigned char>(statement[i]))) {
    ++i;
  }
  std::string w;
  while (i < statement.size() &&
         (std::isalpha(static_cast<unsigned char>(statement[i])) ||
          statement[i] == '_')) {
    w.push_back(static_cast<char>(
        std::toupper(static_cast<unsigned char>(statement[i]))));
    ++i;
  }
  return w;
}

mal::OpCode AggOpCode(AggFn fn) {
  switch (fn) {
    case AggFn::kSum:
      return mal::OpCode::kAggrSum;
    case AggFn::kCount:
      return mal::OpCode::kAggrCount;
    case AggFn::kMin:
      return mal::OpCode::kAggrMin;
    case AggFn::kMax:
      return mal::OpCode::kAggrMax;
    case AggFn::kAvg:
      return mal::OpCode::kAggrAvg;
    case AggFn::kNone:
      break;
  }
  return mal::OpCode::kAggrCount;
}

// Wire-level parameter type codes (server/wire.h ParamType), duplicated
// as raw values so sql/ stays below the server layer.
constexpr uint8_t kParamUnknown = 0;
constexpr uint8_t kParamInt = 1;
constexpr uint8_t kParamReal = 2;
constexpr uint8_t kParamStr = 3;

uint8_t WireParamType(PhysType t) {
  if (t == PhysType::kStr) return kParamStr;
  if (t == PhysType::kDouble || t == PhysType::kFloat) return kParamReal;
  return kParamInt;
}

/// Best-effort placeholder typing for the kPrepared reply: INSERT
/// placeholders take the type of their column position, WHERE / SET
/// placeholders the type of the column they compare against. HAVING
/// placeholders (aggregate outputs) and anything unresolvable stay
/// kUnknown — the metadata is advisory; binding still type-checks.
std::vector<uint8_t> InferParamTypes(const Statement& stmt, Catalog* catalog,
                                     uint32_t nparams) {
  std::vector<uint8_t> types(nparams, kParamUnknown);
  if (nparams == 0) return types;
  auto note = [&](const Value& v, uint8_t t) {
    if (v.is_param() && v.param_index() < types.size()) {
      types[v.param_index()] = t;
    }
  };
  auto column_type = [&](const std::vector<std::string>& tables,
                         const ColumnRef& ref) -> uint8_t {
    for (const std::string& name : tables) {
      if (!ref.table.empty() && ref.table != name) continue;
      Result<TablePtr> t = catalog->Get(name);
      if (!t.ok()) continue;
      Result<size_t> idx = (*t)->ColumnIndex(ref.column);
      if (!idx.ok()) continue;
      return WireParamType((*t)->schema()[*idx].type);
    }
    return kParamUnknown;
  };
  if (const auto* sel = std::get_if<SelectStmt>(&stmt)) {
    for (const Predicate& p : sel->where) {
      if (!p.is_join) note(p.literal, column_type(sel->tables, p.column));
    }
  } else if (const auto* ins = std::get_if<InsertStmt>(&stmt)) {
    Result<TablePtr> t = catalog->Get(ins->table);
    if (t.ok()) {
      const std::vector<ColumnDef>& schema = (*t)->schema();
      for (const std::vector<Value>& row : ins->rows) {
        for (size_t c = 0; c < row.size() && c < schema.size(); ++c) {
          note(row[c], WireParamType(schema[c].type));
        }
      }
    }
  } else if (const auto* del = std::get_if<DeleteStmt>(&stmt)) {
    for (const Predicate& p : del->where) {
      note(p.literal, column_type({del->table}, p.column));
    }
  } else if (const auto* upd = std::get_if<UpdateStmt>(&stmt)) {
    for (const auto& [col, v] : upd->sets) {
      note(v, column_type({upd->table}, ColumnRef{"", col}));
    }
    for (const Predicate& p : upd->where) {
      note(p.literal, column_type({upd->table}, p.column));
    }
  }
  return types;
}

}  // namespace

Session::Session() = default;
Session::~Session() = default;

Engine::Engine() : catalog_(std::make_shared<Catalog>()) {
  default_session_ = CreateSession();
}

SessionPtr Engine::CreateSession() {
  SessionPtr s = std::make_shared<Session>();
  s->id_ = next_session_id_.fetch_add(1, std::memory_order_relaxed);
  return s;
}

Result<mal::Program> Engine::Compile(const SelectStmt& stmt) const {
  if (stmt.tables.empty() || stmt.tables.size() > 2) {
    return Status::Unimplemented("FROM supports one or two tables");
  }
  std::vector<TablePtr> tables;
  for (const std::string& name : stmt.tables) {
    MAMMOTH_ASSIGN_OR_RETURN(TablePtr t, catalog_->Get(name));
    tables.push_back(std::move(t));
  }
  const bool is_join_query = tables.size() == 2;

  // Resolves a (possibly qualified) column reference to (table idx, name).
  struct Resolved {
    size_t table;
    std::string column;
    bool operator==(const Resolved&) const = default;
  };
  auto resolve = [&](const ColumnRef& ref) -> Result<Resolved> {
    if (!ref.table.empty()) {
      for (size_t t = 0; t < tables.size(); ++t) {
        if (stmt.tables[t] == ref.table) {
          MAMMOTH_RETURN_IF_ERROR(
              tables[t]->ColumnIndex(ref.column).status());
          return Resolved{t, ref.column};
        }
      }
      return Status::NotFound("table " + ref.table + " not in FROM");
    }
    size_t found = tables.size();
    for (size_t t = 0; t < tables.size(); ++t) {
      if (tables[t]->ColumnIndex(ref.column).ok()) {
        if (found != tables.size()) {
          return Status::InvalidArgument("ambiguous column " + ref.column);
        }
        found = t;
      }
    }
    if (found == tables.size()) {
      return Status::NotFound("no column named " + ref.column);
    }
    return Resolved{found, ref.column};
  };

  // Expand SELECT * and validate shape.
  std::vector<SelectItem> items;
  for (const SelectItem& item : stmt.items) {
    if (item.star) {
      for (size_t t = 0; t < tables.size(); ++t) {
        for (const ColumnDef& def : tables[t]->schema()) {
          SelectItem col;
          col.column.column = def.name;
          if (is_join_query) col.column.table = stmt.tables[t];
          items.push_back(std::move(col));
        }
      }
    } else {
      items.push_back(item);
    }
  }
  bool has_agg = false, has_plain = false;
  for (const SelectItem& item : items) {
    (item.agg == AggFn::kNone ? has_plain : has_agg) = true;
    if (!item.column.empty()) {
      MAMMOTH_RETURN_IF_ERROR(resolve(item.column).status());
    }
  }
  if (has_agg && has_plain && stmt.group_by.empty()) {
    return Status::InvalidArgument(
        "mixing aggregates and plain columns needs GROUP BY");
  }
  std::vector<Resolved> group_cols;
  for (const ColumnRef& g : stmt.group_by) {
    MAMMOTH_ASSIGN_OR_RETURN(Resolved r, resolve(g));
    group_cols.push_back(std::move(r));
  }
  if (!group_cols.empty()) {
    for (const SelectItem& item : items) {
      if (item.agg != AggFn::kNone) continue;
      MAMMOTH_ASSIGN_OR_RETURN(Resolved r, resolve(item.column));
      if (std::find(group_cols.begin(), group_cols.end(), r) ==
          group_cols.end()) {
        return Status::InvalidArgument("column " + item.column.ToString() +
                                       " not in GROUP BY");
      }
    }
  }

  // Split WHERE into per-table filters and the join condition.
  std::vector<std::vector<const Predicate*>> local(tables.size());
  const Predicate* join_pred = nullptr;
  Resolved join_lhs{0, ""}, join_rhs{0, ""};
  for (const Predicate& p : stmt.where) {
    if (p.is_join) {
      MAMMOTH_ASSIGN_OR_RETURN(Resolved lhs, resolve(p.column));
      MAMMOTH_ASSIGN_OR_RETURN(Resolved rhs, resolve(p.rhs_column));
      if (!is_join_query || lhs.table == rhs.table) {
        return Status::Unimplemented(
            "join predicate must connect the two FROM tables");
      }
      if (join_pred != nullptr) {
        return Status::Unimplemented("only one join predicate supported");
      }
      join_pred = &p;
      // Normalize: lhs on table 0.
      if (lhs.table == 0) {
        join_lhs = lhs;
        join_rhs = rhs;
      } else {
        join_lhs = rhs;
        join_rhs = lhs;
      }
    } else {
      MAMMOTH_ASSIGN_OR_RETURN(Resolved r, resolve(p.column));
      local[r.table].push_back(&p);
    }
  }
  if (is_join_query && join_pred == nullptr) {
    return Status::Unimplemented(
        "two-table queries need an equi-join predicate (no cross products)");
  }

  mal::Program prog;
  std::map<std::pair<size_t, std::string>, int> bound, projected, joined;
  auto bind = [&](size_t t, const std::string& col) {
    auto key = std::make_pair(t, col);
    auto it = bound.find(key);
    if (it != bound.end()) return it->second;
    const int v = prog.Bind(stmt.tables[t], col);
    bound.emplace(key, v);
    return v;
  };

  // Per-table WHERE: a chain of theta-selects over the shrinking candidate
  // list — the column-at-a-time evaluation of a conjunction (§3), pushed
  // below the join. The optimizer's SelectFusion collapses >=/<= pairs.
  std::vector<int> cands(tables.size());
  for (size_t t = 0; t < tables.size(); ++t) {
    cands[t] = prog.BindCandidates(stmt.tables[t]);
    for (const Predicate* p : local[t]) {
      MAMMOTH_ASSIGN_OR_RETURN(Resolved r, resolve(p->column));
      cands[t] = prog.ThetaSelect(bind(t, r.column), cands[t], p->literal,
                                  p->op);
    }
  }

  // The pre-join projection of a column: values of the selected rows.
  auto project_local = [&](size_t t, const std::string& col) {
    auto key = std::make_pair(t, col);
    auto it = projected.find(key);
    if (it != projected.end()) return it->second;
    const int v = prog.Project(cands[t], bind(t, col));
    projected.emplace(key, v);
    return v;
  };

  // Join: build the join index over the filtered key columns, then map
  // every later column fetch through it (§4.3's join-index + projection).
  int jl = -1, jr = -1;
  if (is_join_query) {
    const int lkey = project_local(0, join_lhs.column);
    const int rkey = project_local(1, join_rhs.column);
    std::tie(jl, jr) = prog.Join(lkey, rkey);
  }

  // The post-join image of a column, aligned with the join result.
  auto project_value = [&](const Resolved& r) {
    if (!is_join_query) return project_local(r.table, r.column);
    auto key = std::make_pair(r.table, r.column);
    auto it = joined.find(key);
    if (it != joined.end()) return it->second;
    const int base = project_local(r.table, r.column);
    const int v = prog.Project(r.table == 0 ? jl : jr, base);
    joined.emplace(key, v);
    return v;
  };
  // Variable whose count equals the output row count (for COUNT(*)).
  const int rows_var = is_join_query ? jl : cands[0];

  if (!group_cols.empty()) {
    int groups = -1, extents = -1, ngroups = -1;
    for (const Resolved& g : group_cols) {
      std::tie(groups, extents, ngroups) =
          prog.Group(project_value(g), groups, ngroups);
    }
    for (const SelectItem& item : items) {
      if (item.agg == AggFn::kNone) {
        MAMMOTH_ASSIGN_OR_RETURN(Resolved r, resolve(item.column));
        prog.Result(prog.Project(extents, project_value(r)), item.Label());
      } else if (item.agg == AggFn::kCount && item.column.empty()) {
        prog.Result(
            prog.Aggr(mal::OpCode::kAggrCount, groups, groups, ngroups),
            item.Label());
      } else {
        MAMMOTH_ASSIGN_OR_RETURN(Resolved r, resolve(item.column));
        prog.Result(prog.Aggr(AggOpCode(item.agg), project_value(r), groups,
                              ngroups),
                    item.Label());
      }
    }
  } else if (has_agg) {
    for (const SelectItem& item : items) {
      if (item.agg == AggFn::kCount && item.column.empty()) {
        prog.Result(prog.Aggr(mal::OpCode::kAggrCount, rows_var, -1, -1),
                    item.Label());
      } else {
        MAMMOTH_ASSIGN_OR_RETURN(Resolved r, resolve(item.column));
        prog.Result(
            prog.Aggr(AggOpCode(item.agg), project_value(r), -1, -1),
            item.Label());
      }
    }
  } else {
    for (const SelectItem& item : items) {
      MAMMOTH_ASSIGN_OR_RETURN(Resolved r, resolve(item.column));
      prog.Result(project_value(r), item.Label());
    }
  }
  return prog;
}

Result<mal::QueryResult> Engine::RunSelect(const SelectStmt& stmt,
                                           const parallel::ExecContext& ctx,
                                           const txn::Snapshot& snap) {
  MAMMOTH_ASSIGN_OR_RETURN(mal::Program prog, Compile(stmt));
  if (optimize_) mal::OptimizePipeline(&prog);
  return RunCompiledSelect(std::move(prog), stmt, ctx, snap);
}

Result<mal::QueryResult> Engine::RunCompiledSelect(
    mal::Program prog, const SelectStmt& stmt,
    const parallel::ExecContext& ctx, const txn::Snapshot& snap) {
  // Route base-table scans through the attached shared-scan scheduler
  // (if any) unless the caller's context already carries one.
  parallel::ExecContext run_ctx = ctx;
  if (shared_scans_ != nullptr && ctx.shared_scans() == nullptr) {
    run_ctx = ctx.WithSharedScans(shared_scans_);
  }
  mal::Interpreter interp(catalog_.get(), recycler_, run_ctx, snap);
  MAMMOTH_ASSIGN_OR_RETURN(mal::QueryResult result, interp.Run(prog));

  auto find_label = [&](const std::string& label) -> Result<size_t> {
    for (size_t i = 0; i < result.names.size(); ++i) {
      if (result.names[i] == label) return i;
    }
    return Status::InvalidArgument("column " + label +
                                   " is not in the select list");
  };

  // HAVING: post-aggregation filtering, evaluated with the same select
  // kernels over the materialized result columns.
  if (!stmt.having.empty()) {
    BatPtr cands;  // null = all result rows
    for (const HavingPred& h : stmt.having) {
      MAMMOTH_ASSIGN_OR_RETURN(size_t idx, find_label(h.label));
      MAMMOTH_ASSIGN_OR_RETURN(
          cands, algebra::ThetaSelect(result.columns[idx], cands, h.literal,
                                      h.op, ctx));
    }
    for (BatPtr& col : result.columns) {
      MAMMOTH_ASSIGN_OR_RETURN(col, algebra::Project(cands, col, ctx));
    }
  }

  // ORDER BY: lexicographic re-ordering via the RefineSort chain, major
  // key first — each subsequent key only sorts inside the tie groups the
  // previous keys left, instead of re-sorting the whole table per key.
  if (!stmt.order_by.empty()) {
    BatPtr order, ties;
    for (const OrderKey& key : stmt.order_by) {
      MAMMOTH_ASSIGN_OR_RETURN(size_t idx, find_label(key.label));
      MAMMOTH_ASSIGN_OR_RETURN(
          algebra::RefineSortResult r,
          algebra::RefineSort(result.columns[idx], order, ties, key.desc,
                              ctx));
      order = std::move(r.order);
      ties = std::move(r.tie_groups);
      if (r.ngroups == order->Count()) break;  // order is already total
    }
    for (BatPtr& col : result.columns) {
      MAMMOTH_ASSIGN_OR_RETURN(col, algebra::Project(order, col, ctx));
    }
  }
  // LIMIT: positional slice — O(k) thanks to the dense-head design.
  if (stmt.limit >= 0 &&
      static_cast<size_t>(stmt.limit) < result.RowCount()) {
    const BatPtr slice =
        Bat::NewDense(0, static_cast<size_t>(stmt.limit));
    for (BatPtr& col : result.columns) {
      MAMMOTH_ASSIGN_OR_RETURN(col, algebra::Project(slice, col, ctx));
    }
  }
  // Snapshot rule (see engine.h): string result columns share the
  // table's StringHeap, which a later INSERT may append to (and
  // reallocate) once the shared lock is gone — re-intern them into
  // private compact heaps so the result is immutable.
  for (BatPtr& col : result.columns) {
    if (col == nullptr || col->type() != PhysType::kStr) continue;
    BatPtr detached = Bat::NewString(nullptr);
    detached->Reserve(col->Count());
    for (size_t i = 0; i < col->Count(); ++i) {
      detached->AppendString(col->StringAt(i));
    }
    detached->set_hseqbase(col->hseqbase());
    detached->mutable_props() = col->props();
    col = std::move(detached);
  }
  return result;
}

Status Engine::RunCreate(const CreateStmt& stmt, wal::TxnBuilder* txn) {
  MAMMOTH_ASSIGN_OR_RETURN(TablePtr t,
                           Table::Create(stmt.table, stmt.columns));
  MAMMOTH_RETURN_IF_ERROR(catalog_->Register(t));
  txn->CreateTable(stmt.table, stmt.columns);
  if (stmt.compressed) {
    // CREATE TABLE ... COMPRESSED: the table is empty, so this just arms
    // the policy (MergeDeltas compresses eligible columns as rows arrive).
    MAMMOTH_RETURN_IF_ERROR(t->SetCompression(true));
    txn->SetCompression(stmt.table, true);
  }
  return Status::OK();
}

Status Engine::RunAlter(const AlterStmt& stmt, wal::TxnBuilder* txn) {
  MAMMOTH_ASSIGN_OR_RETURN(TablePtr t, catalog_->Get(stmt.table));
  MAMMOTH_RETURN_IF_ERROR(t->SetCompression(stmt.compress));
  txn->SetCompression(stmt.table, stmt.compress);
  return Status::OK();
}

Status Engine::ClaimTable(WriteCtx* w, const TablePtr& t) {
  if (!t->AcquireWrite(w->txn_id)) {
    tm_.CountConflict();
    return Status::Conflict("table " + t->name() +
                            " is write-locked by another transaction");
  }
  if (w->session != nullptr) {
    for (const auto& [claimed, mark] : w->session->write_set_) {
      if (claimed.get() == t.get()) return Status::OK();
    }
    // First contact in this transaction: the mark taken here is what
    // ROLLBACK restores (everything this txn will do to `t` comes after).
    w->session->write_set_.emplace_back(t, t->Mark());
  } else {
    for (const TablePtr& claimed : w->touched) {
      if (claimed.get() == t.get()) return Status::OK();
    }
    w->touched.push_back(t);
  }
  return Status::OK();
}

Status Engine::RunInsert(const InsertStmt& stmt, wal::TxnBuilder* txn,
                         WriteCtx* w) {
  MAMMOTH_ASSIGN_OR_RETURN(TablePtr t, catalog_->Get(stmt.table));
  MAMMOTH_RETURN_IF_ERROR(ClaimTable(w, t));
  // Statement atomicity: rows are appended one at a time, so a failure on
  // the Nth row (arity/kind mismatch) must not leave rows 1..N-1 behind.
  const Table::DeltaMark mark = t->Mark();
  for (const std::vector<Value>& row : stmt.rows) {
    Status st = t->Insert(row, w->stamp);
    if (!st.ok()) {
      t->Rollback(mark);
      return st;
    }
  }
  txn->InsertRows(stmt.table, t->schema(), stmt.rows);
  return Status::OK();
}

Status Engine::RunDelete(const DeleteStmt& stmt, wal::TxnBuilder* txn,
                         WriteCtx* w) {
  MAMMOTH_ASSIGN_OR_RETURN(TablePtr t, catalog_->Get(stmt.table));
  MAMMOTH_RETURN_IF_ERROR(ClaimTable(w, t));
  if (stmt.where.empty()) {
    BatPtr all = t->VisibleCandidates(w->snap);
    MAMMOTH_RETURN_IF_ERROR(t->Delete(all, w->stamp, &w->snap));
    txn->DeletePositions(stmt.table, *all);
    return Status::OK();
  }
  // Evaluate the predicate with the select machinery: the qualifying
  // candidate list *is* the deletion list. The interpreter reads through
  // the statement's snapshot, so only visible rows are targeted.
  mal::Program prog;
  int cands = prog.BindCandidates(stmt.table);
  for (const Predicate& p : stmt.where) {
    if (p.is_join) {
      return Status::InvalidArgument("DELETE predicates must be literal");
    }
    if (!p.column.table.empty() && p.column.table != stmt.table) {
      return Status::NotFound("table " + p.column.table + " not in DELETE");
    }
    MAMMOTH_RETURN_IF_ERROR(t->ColumnIndex(p.column.column).status());
    const int col = prog.Bind(stmt.table, p.column.column);
    cands = prog.ThetaSelect(col, cands, p.literal, p.op);
  }
  prog.Result(cands, "oids");
  mal::Interpreter interp(catalog_.get(), nullptr,
                          parallel::ExecContext::Default(), w->snap);
  MAMMOTH_ASSIGN_OR_RETURN(mal::QueryResult r, interp.Run(prog, nullptr));
  MAMMOTH_RETURN_IF_ERROR(t->Delete(r.columns[0], w->stamp, &w->snap));
  txn->DeletePositions(stmt.table, *r.columns[0]);
  return Status::OK();
}

Status Engine::RunUpdate(const UpdateStmt& stmt, wal::TxnBuilder* txn,
                         WriteCtx* w) {
  MAMMOTH_ASSIGN_OR_RETURN(TablePtr t, catalog_->Get(stmt.table));
  MAMMOTH_RETURN_IF_ERROR(ClaimTable(w, t));
  // Resolve SET targets and validate value kinds.
  std::vector<std::pair<size_t, Value>> sets;
  for (const auto& [col, value] : stmt.sets) {
    MAMMOTH_ASSIGN_OR_RETURN(size_t idx, t->ColumnIndex(col));
    const bool is_str_col = t->schema()[idx].type == PhysType::kStr;
    if (is_str_col != value.is_str()) {
      return Status::TypeMismatch("UPDATE " + col + ": value kind mismatch");
    }
    sets.emplace_back(idx, value);
  }

  // Qualifying rows: the same candidate machinery as DELETE.
  BatPtr oids;
  if (stmt.where.empty()) {
    oids = t->VisibleCandidates(w->snap);
  } else {
    mal::Program prog;
    int cands = prog.BindCandidates(stmt.table);
    for (const Predicate& p : stmt.where) {
      if (p.is_join) {
        return Status::InvalidArgument("UPDATE predicates must be literal");
      }
      MAMMOTH_RETURN_IF_ERROR(t->ColumnIndex(p.column.column).status());
      const int col = prog.Bind(stmt.table, p.column.column);
      cands = prog.ThetaSelect(col, cands, p.literal, p.op);
    }
    prog.Result(cands, "oids");
    mal::Interpreter interp(catalog_.get(), nullptr,
                            parallel::ExecContext::Default(), w->snap);
    MAMMOTH_ASSIGN_OR_RETURN(mal::QueryResult r, interp.Run(prog, nullptr));
    oids = r.columns[0];
  }
  if (oids->Count() == 0) return Status::OK();

  // MonetDB-style update: re-insert the modified image, delete the old
  // rows (both through the delta BATs).
  std::vector<BatPtr> columns;
  for (size_t c = 0; c < t->NumColumns(); ++c) {
    MAMMOTH_ASSIGN_OR_RETURN(BatPtr col, t->ScanColumn(c));
    columns.push_back(std::move(col));
  }
  std::vector<std::vector<Value>> new_rows;
  new_rows.reserve(oids->Count());
  for (size_t i = 0; i < oids->Count(); ++i) {
    const size_t row = static_cast<size_t>(oids->OidAt(i));
    std::vector<Value> new_row(t->NumColumns());
    for (size_t c = 0; c < t->NumColumns(); ++c) {
      const Bat& col = *columns[c];
      switch (col.type()) {
        case PhysType::kStr:
          new_row[c] = Value::Str(std::string(col.StringAt(row)));
          break;
        case PhysType::kDouble:
          new_row[c] = Value::Real(col.ValueAt<double>(row));
          break;
        case PhysType::kFloat:
          new_row[c] = Value::Real(col.ValueAt<float>(row));
          break;
        case PhysType::kInt64:
          new_row[c] = Value::Int(col.ValueAt<int64_t>(row));
          break;
        case PhysType::kOid:
          new_row[c] = Value::Int(static_cast<int64_t>(col.OidAt(row)));
          break;
        case PhysType::kInt32:
          new_row[c] = Value::Int(col.ValueAt<int32_t>(row));
          break;
        case PhysType::kInt16:
          new_row[c] = Value::Int(col.ValueAt<int16_t>(row));
          break;
        case PhysType::kBool:
        case PhysType::kInt8:
          new_row[c] = Value::Int(col.ValueAt<int8_t>(row));
          break;
      }
    }
    for (const auto& [idx, value] : sets) new_row[idx] = value;
    new_rows.push_back(std::move(new_row));
  }
  // Apply insert+delete as one atomic unit: any failure rolls the table
  // back to the pre-statement delta state.
  const Table::DeltaMark mark = t->Mark();
  for (const std::vector<Value>& new_row : new_rows) {
    Status st = t->Insert(new_row, w->stamp);
    if (!st.ok()) {
      t->Rollback(mark);
      return st;
    }
  }
  if (Status st = t->Delete(oids, w->stamp, &w->snap); !st.ok()) {
    t->Rollback(mark);
    return st;
  }
  txn->UpdateCells(stmt.table, t->schema(), *oids, new_rows);
  return Status::OK();
}

namespace {

/// Folds every table's deltas into its main BATs before a checkpoint.
/// The snapshot is saved merged and compacted (OIDs renumbered densely),
/// so the live tables must adopt that same OID space — otherwise the
/// positions in post-checkpoint Delete/Update log records would not
/// resolve against the snapshot at recovery. Requires the exclusive
/// lock; shared BATs are replaced, never mutated, so results already
/// handed out stay valid.
Status MergeForCheckpoint(Catalog* catalog) {
  for (const auto& name : catalog->TableNames()) {
    MAMMOTH_ASSIGN_OR_RETURN(TablePtr t, catalog->Get(name));
    MAMMOTH_RETURN_IF_ERROR(t->MergeDeltas());
  }
  return Status::OK();
}

}  // namespace

Result<mal::QueryResult> Engine::RunCheckpoint() {
  if (wal_ == nullptr) {
    return Status::InvalidArgument(
        "CHECKPOINT: no durable storage attached (open a database "
        "directory first)");
  }
  std::unique_lock<std::shared_mutex> lock(rw_mu_);
  // The merge compacts away the delta versions open snapshots still
  // read; demand quiescence instead of silently breaking them.
  if (tm_.ActiveCount() > 0) {
    return Status::Unavailable(
        "CHECKPOINT: " + std::to_string(tm_.ActiveCount()) +
        " transaction(s) open — retry when they finish");
  }
  MAMMOTH_RETURN_IF_ERROR(MergeForCheckpoint(catalog_.get()));
  MAMMOTH_ASSIGN_OR_RETURN(uint64_t lsn, wal_->Checkpoint(*catalog_));
  mal::QueryResult r;
  BatPtr col = Bat::New(PhysType::kInt64);
  col->Append<int64_t>(static_cast<int64_t>(lsn));
  r.names = {"checkpoint_lsn"};
  r.columns = {std::move(col)};
  return r;
}

Result<mal::QueryResult> Engine::CommitDurable(
    const wal::TxnBuilder& txn, std::unique_lock<std::shared_mutex>* lock) {
  if (wal_ == nullptr || txn.empty()) return mal::QueryResult{};
  MAMMOTH_ASSIGN_OR_RETURN(uint64_t lsn, wal_->LogTransaction(txn.ops()));
  // The log-size checkpoint trigger needs a quiescent delta state (the
  // merge is stamp-blind); with transactions open it simply waits for a
  // later commit. The committing transaction itself already ended.
  if (wal_->ShouldCheckpoint() && tm_.ActiveCount() == 0) {
    // Log-size trigger: keep the exclusive lock (the checkpoint needs a
    // quiescent catalog), make the log durable, fold it into a snapshot.
    MAMMOTH_RETURN_IF_ERROR(wal_->Sync(lsn));
    // The replication barrier runs *before* the checkpoint: the
    // checkpoint GCs segments below its LSN, and a semi-sync primary
    // must not discard bytes a replica has yet to ack (the source would
    // have to fall back to a full snapshot transfer for a lag measured
    // in milliseconds).
    if (commit_barrier_) MAMMOTH_RETURN_IF_ERROR(commit_barrier_(lsn));
    MAMMOTH_RETURN_IF_ERROR(MergeForCheckpoint(catalog_.get()));
    MAMMOTH_RETURN_IF_ERROR(wal_->Checkpoint(*catalog_).status());
    return mal::QueryResult{};
  }
  // Group commit: release the exclusive lock *before* waiting on the
  // fsync, so commits of concurrent sessions pile into one sync batch
  // (the append above already fixed this transaction's log position).
  lock->unlock();
  MAMMOTH_RETURN_IF_ERROR(wal_->Sync(lsn));
  if (commit_barrier_) MAMMOTH_RETURN_IF_ERROR(commit_barrier_(lsn));
  return mal::QueryResult{};
}

Status Engine::ApplyReplicatedTxn(const std::vector<wal::Record>& ops) {
  std::unique_lock<std::shared_mutex> lock(rw_mu_);
  catalog_version_.fetch_add(1, std::memory_order_relaxed);
  // Whole-txn atomicity for replica readers: the rows are applied with a
  // replica-local commit timestamp minted up front, and open snapshots
  // (ts < this one) never see any of them — a read-only transaction on a
  // replica observes shipped transactions all-or-nothing.
  const uint64_t ts = tm_.NextCommitTs();
  for (const wal::Record& op : ops) {
    MAMMOTH_RETURN_IF_ERROR(wal::ApplyRecord(catalog_.get(), op, ts));
  }
  std::vector<std::string> noted;
  for (const wal::Record& op : ops) {
    if (op.table.empty()) continue;
    if (std::find(noted.begin(), noted.end(), op.table) != noted.end()) {
      continue;
    }
    noted.push_back(op.table);
    Result<TablePtr> t = catalog_->Get(op.table);
    if (t.ok()) (*t)->NoteCommit(ts);
  }
  if (recycler_ != nullptr) recycler_->Clear();
  return Status::OK();
}

Status Engine::ResetCatalogForReplication(std::shared_ptr<Catalog> catalog) {
  if (catalog == nullptr) {
    return Status::InvalidArgument("replication: null catalog");
  }
  std::unique_lock<std::shared_mutex> lock(rw_mu_);
  catalog_version_.fetch_add(1, std::memory_order_relaxed);
  catalog_ = std::move(catalog);
  if (recycler_ != nullptr) recycler_->Clear();
  return Status::OK();
}

Result<mal::QueryResult> Engine::Execute(const std::string& statement,
                                         const parallel::ExecContext& ctx) {
  return ExecuteSession(default_session_, statement, ctx);
}

Result<mal::QueryResult> Engine::ExecuteSession(
    const SessionPtr& session, const std::string& statement,
    const parallel::ExecContext& ctx) {
  if (session == nullptr) {
    return Status::InvalidArgument("engine: null session");
  }
  // One statement at a time per session: pipelined wire frames of one
  // connection may race here, and transaction state transitions must be
  // serial. Lock order: session mutex before the engine lock.
  std::lock_guard<std::mutex> session_lock(session->mu_);
  if (IsCheckpointCommand(statement)) return RunCheckpoint();
  // The prepared-statement surface is routed before the regular parser
  // (like CHECKPOINT): its statement body must stay raw text.
  const std::string head = FirstWord(statement);
  if (head == "PREPARE") return RunPrepareSql(statement);
  if (head == "EXECUTE") return RunExecuteSql(session.get(), statement, ctx);
  MAMMOTH_ASSIGN_OR_RETURN(Statement stmt, Parse(statement));
  return ExecuteParsed(session.get(), std::move(stmt), ctx);
}

void Engine::AbortSession(const SessionPtr& session) {
  if (session == nullptr) return;
  std::lock_guard<std::mutex> session_lock(session->mu_);
  if (session->in_txn_) RollbackLocked(session.get());
}

Result<mal::QueryResult> Engine::RunBegin(Session* session) {
  if (session->in_txn_) {
    return Status::InvalidArgument(
        "BEGIN: a transaction is already open on this session");
  }
  // Allowed on a replica too: a read-only transaction gives repeatable
  // reads across shipped-txn application (DML inside is still refused).
  session->snap_ = tm_.Begin();
  session->in_txn_ = true;
  session->poisoned_ = false;
  session->poison_ = Status::OK();
  session->ops_ = std::make_unique<wal::TxnBuilder>();
  session->write_set_.clear();
  return mal::QueryResult{};
}

Result<mal::QueryResult> Engine::RunCommit(Session* session) {
  if (!session->in_txn_) {
    return Status::InvalidArgument("COMMIT without BEGIN");
  }
  if (session->poisoned_) {
    // An aborted transaction cannot commit: roll it back and surface the
    // original failure (keeping its status code — a kConflict stays
    // typed so clients know to retry).
    Status poison = session->poison_;
    RollbackLocked(session);
    return poison;
  }
  if (session->write_set_.empty()) {
    // Read-only transaction: nothing to publish, nothing to log.
    tm_.End(session->snap_.txn_id, /*committed=*/true);
    session->in_txn_ = false;
    session->ops_.reset();
    return mal::QueryResult{};
  }
  std::unique_lock<std::shared_mutex> lock(rw_mu_);
  catalog_version_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t txn_id = session->snap_.txn_id;
  // Publication point: restamping pending rows with the fresh commit
  // timestamp happens under the exclusive lock, so no reader observes a
  // half-committed transaction; snapshots minted from here on see all of
  // it. Write claims are released inside CommitVersions.
  const uint64_t ts = tm_.NextCommitTs();
  for (auto& [t, mark] : session->write_set_) t->CommitVersions(txn_id, ts);
  tm_.End(txn_id, /*committed=*/true);
  wal::TxnBuilder ops = std::move(*session->ops_);
  session->in_txn_ = false;
  session->ops_.reset();
  session->write_set_.clear();
  // Durability: the whole transaction goes out as one Begin..Commit WAL
  // batch (group commit applies to it like to any auto-commit statement).
  return CommitDurable(ops, &lock);
}

Result<mal::QueryResult> Engine::RunRollback(Session* session) {
  if (!session->in_txn_) {
    return Status::InvalidArgument("ROLLBACK without BEGIN");
  }
  RollbackLocked(session);
  return mal::QueryResult{};
}

void Engine::RollbackLocked(Session* session) {
  const uint64_t txn_id = session->snap_.txn_id;
  if (!session->write_set_.empty()) {
    std::unique_lock<std::shared_mutex> lock(rw_mu_);
    catalog_version_.fetch_add(1, std::memory_order_relaxed);
    // Single-owner rule: this transaction's pending rows are the delta
    // tail of every claimed table, so restoring the first-claim mark is
    // a physical undo — the table ends byte-identical to before BEGIN.
    // Nothing is logged: the WAL never saw the buffered ops.
    for (auto& [t, mark] : session->write_set_) {
      t->Rollback(mark);
      t->ReleaseWrite(txn_id);
    }
  }
  tm_.End(txn_id, /*committed=*/false);
  session->in_txn_ = false;
  session->poisoned_ = false;
  session->poison_ = Status::OK();
  session->ops_.reset();
  session->write_set_.clear();
}

Result<mal::QueryResult> Engine::ExecuteParsed(
    Session* session, Statement stmt, const parallel::ExecContext& ctx) {
  // Transaction control first — it touches only session + manager state
  // (BEGIN in particular takes no engine lock: minting a snapshot must
  // not wait behind a writer, or readers would block on a stalled txn).
  if (std::get_if<BeginStmt>(&stmt) != nullptr) return RunBegin(session);
  if (std::get_if<CommitStmt>(&stmt) != nullptr) return RunCommit(session);
  if (std::get_if<RollbackStmt>(&stmt) != nullptr) {
    return RunRollback(session);
  }
  if (session->in_txn_ && session->poisoned_) {
    return Status::InvalidArgument(
        "current transaction is aborted, statements ignored until "
        "ROLLBACK (" + std::string(session->poison_.message()) + ")");
  }

  // Reads share the lock; everything that mutates catalog or table
  // state is exclusive (concurrency rule in engine.h). Inside an open
  // transaction the SELECT resolves against the transaction's snapshot
  // (plus its own pending writes); otherwise against latest-committed.
  if (auto* sel = std::get_if<SelectStmt>(&stmt)) {
    std::shared_lock<std::shared_mutex> lock(rw_mu_);
    const txn::Snapshot snap =
        session->in_txn_ ? session->snap_ : tm_.LatestSnapshot();
    return RunSelect(*sel, ctx, snap);
  }
  // Replica role: refuse every mutation up front — this covers plain and
  // prepared DDL/DML alike, since prepared DML re-enters here after
  // parameter binding.
  if (read_only_.load(std::memory_order_acquire)) {
    return Status::ReadOnly(
        "this node is a read replica: writes go to the primary");
  }
  // DDL stays auto-commit: an open transaction's WAL batch carries row
  // ops only, and ROLLBACK's physical truncation cannot undo a catalog
  // registration. The refusal aborts the transaction (uniform poisoning:
  // any failed statement inside BEGIN..COMMIT does).
  const bool is_ddl = std::holds_alternative<CreateStmt>(stmt) ||
                      std::holds_alternative<AlterStmt>(stmt);
  if (is_ddl && session->in_txn_) {
    Status st = Status::InvalidArgument(
        "DDL inside an explicit transaction is not supported: COMMIT or "
        "ROLLBACK first");
    session->poisoned_ = true;
    session->poison_ = st;
    return st;
  }

  std::unique_lock<std::shared_mutex> lock(rw_mu_);
  // Any mutation invalidates cached prepared plans wholesale: stale
  // plans recompile lazily at their next EXECUTE. Bumped up front so
  // even a failed statement errs toward recompilation, never toward a
  // stale plan.
  catalog_version_.fetch_add(1, std::memory_order_relaxed);
  if (auto* cre = std::get_if<CreateStmt>(&stmt)) {
    wal::TxnBuilder txn;
    MAMMOTH_RETURN_IF_ERROR(RunCreate(*cre, &txn));
    return CommitDurable(txn, &lock);
  }
  if (auto* alt = std::get_if<AlterStmt>(&stmt)) {
    // Representation change: it rewrites column storage in place, which
    // open snapshots may still be reading — demand transaction
    // quiescence, and drop cached plans/results keyed on the old layout.
    if (tm_.ActiveCount() > 0) {
      return Status::Unavailable(
          "ALTER TABLE: " + std::to_string(tm_.ActiveCount()) +
          " transaction(s) open — retry when they finish");
    }
    wal::TxnBuilder txn;
    Status st = RunAlter(*alt, &txn);
    if (recycler_ != nullptr) recycler_->Clear();
    MAMMOTH_RETURN_IF_ERROR(st);
    return CommitDurable(txn, &lock);
  }

  // DML. Inside BEGIN..COMMIT the statement stamps its rows pending
  // (visible only to this transaction) and buffers its WAL ops on the
  // session; auto-commit mints a throwaway transaction identity and
  // publishes at the end of the statement. Either way the recycler is
  // NOT flushed: cached intermediates are keyed on snapshot-visible
  // state (Table::VisibleStateKey), so entries for other tables — and
  // pre-mutation snapshots of this one — stay correct and reusable.
  WriteCtx w;
  wal::TxnBuilder local_ops;
  wal::TxnBuilder* ops = nullptr;
  const bool explicit_txn = session->in_txn_;
  if (explicit_txn) {
    w.txn_id = session->snap_.txn_id;
    w.snap = session->snap_;
    w.session = session;
    ops = session->ops_.get();
  } else {
    w.txn_id = tm_.AllocTxnId();
    w.snap = tm_.LatestSnapshot();
    w.snap.txn_id = w.txn_id;  // the statement sees its own writes
    ops = &local_ops;
  }
  w.stamp = txn::PendingStamp(w.txn_id);

  Status st;
  if (auto* ins = std::get_if<InsertStmt>(&stmt)) {
    st = RunInsert(*ins, ops, &w);
  } else if (auto* upd = std::get_if<UpdateStmt>(&stmt)) {
    st = RunUpdate(*upd, ops, &w);
  } else {
    st = RunDelete(std::get<DeleteStmt>(stmt), ops, &w);
  }
  if (!st.ok()) {
    // The statement already undid its partial physical effect (Run*
    // roll back to a statement-local mark) and logged nothing.
    if (explicit_txn) {
      // Poison: earlier statements of the transaction stay pending (and
      // claimed) until ROLLBACK; later statements fail fast.
      session->poisoned_ = true;
      session->poison_ = st;
    } else {
      for (const TablePtr& t : w.touched) t->ReleaseWrite(w.txn_id);
    }
    return st;
  }
  if (explicit_txn) {
    // Buffered: visibility and durability both arrive at COMMIT.
    return mal::QueryResult{};
  }
  // Auto-commit: restamp this statement's rows committed and publish.
  const uint64_t ts = tm_.NextCommitTs();
  for (const TablePtr& t : w.touched) t->CommitVersions(w.txn_id, ts);
  return CommitDurable(local_ops, &lock);
}

Result<mal::QueryResult> Engine::ExecuteScript(const std::string& script,
                                               const parallel::ExecContext&
                                                   ctx) {
  mal::QueryResult last;
  size_t start = 0;
  while (start < script.size()) {
    size_t end = script.find(';', start);
    if (end == std::string::npos) end = script.size();
    std::string stmt = script.substr(start, end - start);
    start = end + 1;
    // Skip empty fragments (whitespace between statements).
    if (stmt.find_first_not_of(" \t\r\n") == std::string::npos) continue;
    MAMMOTH_ASSIGN_OR_RETURN(mal::QueryResult r, Execute(stmt, ctx));
    if (!r.names.empty()) last = std::move(r);
  }
  return last;
}

Result<std::shared_ptr<PreparedStatement>> Engine::Prepare(
    const std::string& statement) {
  MAMMOTH_ASSIGN_OR_RETURN(std::shared_ptr<PreparedStatement> entry,
                           prepared_.GetOrPrepare(statement));
  if (entry->nparams > 0) {
    // (Re)infer placeholder types against the current catalog — a shared
    // entry prepared before a DDL would otherwise hand out stale hints.
    std::shared_lock<std::shared_mutex> lock(rw_mu_);
    std::vector<uint8_t> types =
        InferParamTypes(entry->ast, catalog_.get(), entry->nparams);
    lock.unlock();
    std::lock_guard<std::mutex> plan_lock(entry->plan_mu);
    entry->param_types = std::move(types);
  }
  return entry;
}

Result<mal::QueryResult> Engine::ExecutePrepared(
    uint64_t stmt_id, const std::vector<Value>& params,
    const parallel::ExecContext& ctx) {
  return ExecutePreparedSession(default_session_, stmt_id, params, ctx);
}

Result<mal::QueryResult> Engine::ExecutePreparedSession(
    const SessionPtr& session, uint64_t stmt_id,
    const std::vector<Value>& params, const parallel::ExecContext& ctx) {
  if (session == nullptr) {
    return Status::InvalidArgument("engine: null session");
  }
  std::lock_guard<std::mutex> session_lock(session->mu_);
  return ExecutePreparedLocked(session.get(), stmt_id, params, ctx);
}

Result<mal::QueryResult> Engine::ExecutePreparedLocked(
    Session* session, uint64_t stmt_id, const std::vector<Value>& params,
    const parallel::ExecContext& ctx) {
  MAMMOTH_ASSIGN_OR_RETURN(std::shared_ptr<PreparedStatement> entry,
                           prepared_.Lookup(stmt_id));
  if (params.size() != entry->nparams) {
    return Status::InvalidArgument(
        "prepared: statement expects " + std::to_string(entry->nparams) +
        " parameters, got " + std::to_string(params.size()));
  }
  if (auto* sel = std::get_if<SelectStmt>(&entry->ast)) {
    if (session->in_txn_ && session->poisoned_) {
      return Status::InvalidArgument(
          "current transaction is aborted, statements ignored until "
          "ROLLBACK (" + std::string(session->poison_.message()) + ")");
    }
    std::shared_lock<std::shared_mutex> lock(rw_mu_);
    const txn::Snapshot snap =
        session->in_txn_ ? session->snap_ : tm_.LatestSnapshot();
    const uint64_t version = catalog_version_.load(std::memory_order_relaxed);
    mal::Program prog;
    {
      // (Re)compile under the entry's plan lock when absent or stale.
      // DDL/DML bump catalog_version_ only under the exclusive lock, so
      // the staleness check cannot race while we hold the shared lock.
      std::lock_guard<std::mutex> plan_lock(entry->plan_mu);
      if (!entry->has_plan || entry->plan_version != version) {
        MAMMOTH_ASSIGN_OR_RETURN(mal::Program fresh, Compile(*sel));
        if (optimize_) mal::OptimizePipeline(&fresh);
        entry->plan = std::move(fresh);
        entry->has_plan = true;
        entry->plan_version = version;
        prepared_.CountMiss();
      } else {
        prepared_.CountHit();
      }
      prog = entry->plan;  // copy: substitution must not touch the cache
    }
    MAMMOTH_RETURN_IF_ERROR(SubstituteProgram(&prog, params));
    if (entry->nparams == 0) {
      return RunCompiledSelect(std::move(prog), *sel, ctx, snap);
    }
    // HAVING literals live in the AST, not the plan — bind a private copy.
    Statement bound = entry->ast;
    MAMMOTH_RETURN_IF_ERROR(SubstituteStatement(&bound, params));
    return RunCompiledSelect(std::move(prog), std::get<SelectStmt>(bound),
                             ctx, snap);
  }
  // Prepared DML: bind a private AST copy and take the normal exclusive
  // path (joining the session's open transaction, if any). Only the
  // parse is skipped — plans are cached for SELECTs only, since mutation
  // cost is dominated by the delta machinery.
  prepared_.CountHit();
  Statement bound = entry->ast;
  MAMMOTH_RETURN_IF_ERROR(SubstituteStatement(&bound, params));
  return ExecuteParsed(session, std::move(bound), ctx);
}

Result<mal::QueryResult> Engine::RunPrepareSql(const std::string& statement) {
  // Hand-scanned (not lexed) so the statement body keeps its raw text:
  //   PREPARE <name> AS <statement>
  size_t i = 0;
  auto next_word = [&]() -> std::string {
    while (i < statement.size() &&
           std::isspace(static_cast<unsigned char>(statement[i]))) {
      ++i;
    }
    std::string w;
    while (i < statement.size() &&
           (std::isalnum(static_cast<unsigned char>(statement[i])) ||
            statement[i] == '_')) {
      w.push_back(statement[i++]);
    }
    return w;
  };
  next_word();  // "PREPARE" (routing already matched it)
  const std::string name = next_word();
  if (name.empty()) {
    return Status::InvalidArgument("PREPARE: expected a statement name");
  }
  std::string as = next_word();
  for (char& c : as) c = static_cast<char>(std::toupper(c));
  if (as != "AS") {
    return Status::InvalidArgument("PREPARE: expected AS after the name");
  }
  while (i < statement.size() &&
         std::isspace(static_cast<unsigned char>(statement[i]))) {
    ++i;
  }
  const std::string body = statement.substr(i);
  MAMMOTH_ASSIGN_OR_RETURN(std::shared_ptr<PreparedStatement> entry,
                           Prepare(body));
  prepared_.BindName(name, entry->id);
  mal::QueryResult r;
  BatPtr id_col = Bat::New(PhysType::kInt64);
  id_col->Append<int64_t>(static_cast<int64_t>(entry->id));
  BatPtr np_col = Bat::New(PhysType::kInt64);
  np_col->Append<int64_t>(static_cast<int64_t>(entry->nparams));
  r.names = {"stmt_id", "nparams"};
  r.columns = {std::move(id_col), std::move(np_col)};
  return r;
}

Result<mal::QueryResult> Engine::RunExecuteSql(
    Session* session, const std::string& statement,
    const parallel::ExecContext& ctx) {
  // EXECUTE <name> [( lit [, lit]* )] [;]
  MAMMOTH_ASSIGN_OR_RETURN(std::vector<Token> toks, Lex(statement));
  if (toks.size() < 2 || toks[1].kind != TokKind::kIdent) {
    return Status::InvalidArgument("EXECUTE: expected a statement name");
  }
  const std::string name = toks[1].text;
  std::vector<Value> params;
  size_t i = 2;  // toks ends with kEnd, so toks[i] below stays in range
  if (toks[i].IsSymbol("(")) {
    ++i;
    if (!toks[i].IsSymbol(")")) {
      while (true) {
        const Token& t = toks[i];
        if (t.kind == TokKind::kInt) {
          params.push_back(Value::Int(t.int_val));
        } else if (t.kind == TokKind::kReal) {
          params.push_back(Value::Real(t.real_val));
        } else if (t.kind == TokKind::kString) {
          params.push_back(Value::Str(t.text));
        } else {
          return Status::InvalidArgument(
              "EXECUTE: parameters must be literals");
        }
        ++i;
        if (!toks[i].IsSymbol(",")) break;
        ++i;
      }
    }
    if (!toks[i].IsSymbol(")")) {
      return Status::InvalidArgument("EXECUTE: expected ')'");
    }
    ++i;
  }
  if (toks[i].IsSymbol(";")) ++i;
  if (toks[i].kind != TokKind::kEnd) {
    return Status::InvalidArgument("EXECUTE: trailing input after ')'");
  }
  MAMMOTH_ASSIGN_OR_RETURN(uint64_t id, prepared_.ResolveName(name));
  return ExecutePreparedLocked(session, id, params, ctx);
}

Engine::CompressionStats Engine::compression_stats() const {
  std::shared_lock<std::shared_mutex> lock(rw_mu_);
  CompressionStats s;
  for (const std::string& name : catalog_->TableNames()) {
    Result<TablePtr> t = catalog_->Get(name);
    if (!t.ok()) continue;
    if ((*t)->compression_enabled()) ++s.compressed_tables;
    s.compressed_columns += (*t)->CompressedColumnCount();
    s.compressed_bytes += (*t)->CompressedBytesTotal();
    s.logical_bytes += (*t)->CompressedLogicalBytesTotal();
    s.cache_bytes += (*t)->CompressedCacheBytesTotal();
  }
  return s;
}

}  // namespace mammoth::sql
