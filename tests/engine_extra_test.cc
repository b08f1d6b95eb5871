// Engine paths not covered by sql_test: optimizer-off equivalence, empty
// inputs, string grouping, degenerate LIMIT, COUNT(col), and the
// compiled MAL plan.

#include <gtest/gtest.h>

#include <variant>

#include "sql/engine.h"
#include "sql/parser.h"

namespace mammoth::sql {
namespace {

class EngineExtraTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(engine_
                    .ExecuteScript(
                        "CREATE TABLE pets (species VARCHAR(16), legs INT, "
                        "mass DOUBLE);"
                        "INSERT INTO pets VALUES ('dog', 4, 12.0), "
                        "('cat', 4, 4.5), ('parrot', 2, 0.4), "
                        "('dog', 4, 30.0), ('snake', 0, 2.0);")
                    .ok());
  }
  /// The unoptimized MAL program the engine compiles for `sql`.
  Result<mal::Program> CompileSelect(const std::string& sql) {
    MAMMOTH_ASSIGN_OR_RETURN(Statement stmt, Parse(sql));
    return engine_.Compile(std::get<SelectStmt>(stmt));
  }

  Engine engine_;
};

TEST_F(EngineExtraTest, OptimizerOffGivesSameAnswer) {
  const std::string q =
      "SELECT species, count(*), sum(mass) FROM pets "
      "WHERE legs >= 1 AND legs <= 4 GROUP BY species ORDER BY species";
  auto prog = CompileSelect(q);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  const size_t plain_instrs = prog->instrs().size();
  EXPECT_GE(mal::OptimizePipeline(&*prog).fused, 1u);
  EXPECT_LT(prog->instrs().size(), plain_instrs);

  auto on = engine_.Execute(q);
  ASSERT_TRUE(on.ok());
  engine_.EnableOptimizer(false);
  auto off = engine_.Execute(q);
  ASSERT_TRUE(off.ok());

  ASSERT_EQ(on->RowCount(), off->RowCount());
  for (size_t i = 0; i < on->RowCount(); ++i) {
    EXPECT_EQ(on->columns[0]->StringAt(i), off->columns[0]->StringAt(i));
    EXPECT_EQ(on->columns[1]->ValueAt<int64_t>(i),
              off->columns[1]->ValueAt<int64_t>(i));
    EXPECT_DOUBLE_EQ(on->columns[2]->ValueAt<double>(i),
                     off->columns[2]->ValueAt<double>(i));
  }
}

TEST_F(EngineExtraTest, GroupByStringColumn) {
  auto r = engine_.Execute(
      "SELECT species, count(*) FROM pets GROUP BY species "
      "ORDER BY species");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->RowCount(), 4u);
  EXPECT_EQ(r->columns[0]->StringAt(1), "dog");
  EXPECT_EQ(r->columns[1]->ValueAt<int64_t>(1), 2);
}

TEST_F(EngineExtraTest, CountColumnEqualsCountStar) {
  auto r = engine_.Execute("SELECT count(legs), count(*) FROM pets");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->columns[0]->ValueAt<int64_t>(0), 5);
  EXPECT_EQ(r->columns[1]->ValueAt<int64_t>(0), 5);
}

TEST_F(EngineExtraTest, LimitZeroAndBeyondRowCount) {
  auto zero = engine_.Execute("SELECT species FROM pets LIMIT 0");
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(zero->RowCount(), 0u);
  auto big = engine_.Execute("SELECT species FROM pets LIMIT 99");
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(big->RowCount(), 5u);
}

TEST_F(EngineExtraTest, EmptyTableQueries) {
  ASSERT_TRUE(engine_.Execute("CREATE TABLE void (x INT)").ok());
  auto scan = engine_.Execute("SELECT x FROM void");
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->RowCount(), 0u);
  auto agg = engine_.Execute("SELECT count(*), sum(x) FROM void");
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg->columns[0]->ValueAt<int64_t>(0), 0);
  EXPECT_EQ(agg->columns[1]->ValueAt<int64_t>(0), 0);
  auto grouped = engine_.Execute("SELECT x, count(*) FROM void GROUP BY x");
  ASSERT_TRUE(grouped.ok());
  EXPECT_EQ(grouped->RowCount(), 0u);
}

TEST_F(EngineExtraTest, SelectAfterEveryMutationKind) {
  ASSERT_TRUE(
      engine_.Execute("UPDATE pets SET mass = 1.0 WHERE species = 'snake'")
          .ok());
  ASSERT_TRUE(engine_.Execute("DELETE FROM pets WHERE legs = 2").ok());
  ASSERT_TRUE(
      engine_.Execute("INSERT INTO pets VALUES ('gecko', 4, 0.05)").ok());
  auto r = engine_.Execute(
      "SELECT count(*), min(mass), max(legs) FROM pets");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->columns[0]->ValueAt<int64_t>(0), 5);  // 5 -1 +1
  EXPECT_DOUBLE_EQ(r->columns[1]->ValueAt<double>(0), 0.05);
  EXPECT_EQ(r->columns[2]->ValueAt<int32_t>(0), 4);
}

TEST_F(EngineExtraTest, HavingOnStringLabel) {
  auto r = engine_.Execute(
      "SELECT species, count(*) FROM pets GROUP BY species "
      "HAVING species != 'dog' ORDER BY species");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->RowCount(), 3u);
  for (size_t i = 0; i < r->RowCount(); ++i) {
    EXPECT_NE(r->columns[0]->StringAt(i), "dog");
  }
}

TEST_F(EngineExtraTest, PlanTextExposesPipeline) {
  auto prog = CompileSelect("SELECT sum(mass) FROM pets WHERE legs = 4");
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  mal::OptimizePipeline(&*prog);
  const std::string plan = prog->ToString();
  EXPECT_NE(plan.find("aggr.sum"), std::string::npos);
  EXPECT_NE(plan.find("sql.tid"), std::string::npos);
}

}  // namespace
}  // namespace mammoth::sql
