// Quickstart (Figure 1 end-to-end): the SQL front-end compiles queries into
// MAL programs executed by the BAT-algebra back-end. This example builds
// the paper's own BATs — the `name`/`age` columns of Figure 1 — runs
// select(age, 1927), and shows the generated MAL plan.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>
#include <string>
#include <variant>

#include "mal/optimizer.h"
#include "sql/engine.h"
#include "sql/parser.h"

int main() {
  mammoth::sql::Engine engine;

  auto check = [](const mammoth::Status& status) {
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      std::exit(1);
    }
  };

  // The table behind Figure 1.
  check(engine
            .Execute("CREATE TABLE people (name VARCHAR(32), age INT)")
            .status());
  check(engine
            .Execute("INSERT INTO people VALUES "
                     "('John Wayne', 1907), ('Roger Moore', 1927), "
                     "('Bob Fosse', 1927), ('Will Smith', 1968)")
            .status());

  // The MAL program the engine runs for a SELECT: the SQL front-end's
  // output, then the optimizer pipeline over it.
  auto plan = [&](const std::string& sql) {
    auto stmt = mammoth::sql::Parse(sql);
    check(stmt.status());
    auto prog = engine.Compile(std::get<mammoth::sql::SelectStmt>(*stmt));
    check(prog.status());
    const mammoth::mal::PipelineReport report =
        mammoth::mal::OptimizePipeline(&*prog);
    return prog->ToString() + "-- " + report.ToString() + "\n";
  };

  // The paper's example: R := select(age, 1927).
  const std::string point = "SELECT name, age FROM people WHERE age = 1927";
  auto result = engine.Execute(point);
  check(result.status());

  std::printf("Query: %s\n\n", point.c_str());
  std::printf("MAL plan (front-end output, after the optimizer pipeline):\n%s\n",
              plan(point).c_str());
  std::printf("Result:\n%s\n", result->ToText().c_str());

  // Aggregation with grouping, ordering, and a range predicate — the MAL
  // optimizer fuses the >=/<= pair into one range select.
  const std::string grouped =
      "SELECT age, count(*) FROM people "
      "WHERE age >= 1900 AND age <= 1970 GROUP BY age ORDER BY age";
  result = engine.Execute(grouped);
  check(result.status());
  std::printf("Grouped query plan:\n%s\nResult:\n%s\n",
              plan(grouped).c_str(), result->ToText().c_str());

  // Updates go to delta BATs; queries see them immediately (§3.2).
  check(engine.Execute("DELETE FROM people WHERE name = 'Will Smith'")
            .status());
  check(engine.Execute("INSERT INTO people VALUES ('Grace Hopper', 1906)")
            .status());
  result = engine.Execute("SELECT count(*) FROM people");
  check(result.status());
  std::printf("After one DELETE and one INSERT:\n%s\n",
              result->ToText().c_str());
  return 0;
}
