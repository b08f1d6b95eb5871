// An interactive mini-monet shell over the SQL front-end: type SQL
// statements terminated by ';'. Dot-commands expose the architecture:
//
//   .plan SELECT ...;   show the optimized MAL program instead of running
//   .mal <file>         execute a MAL program from a file (see mal/parser.h)
//   .tables             list catalog tables
//   .save <dir>         persist the catalog    .load <dir>  restore it
//   .recycler <MB>      attach a recycler      .stats       recycler stats
//   .quit
//
// Works interactively or scripted:  ./build/examples/mammoth_shell < run.sql
//
// With `--connect host:port` the shell becomes a wire-protocol client of
// a running mammoth_server instead of embedding an engine: statements
// travel as Query frames, results come back as columnar Result frames
// (`SERVER STATUS` shows the server's counters). Dot-commands other than
// .help/.quit are local-engine features and are unavailable remotely.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "common/timer.h"
#include "core/persist.h"
#include "mal/parser.h"
#include "recycle/recycler.h"
#include "server/client.h"
#include "sql/engine.h"
#include "sql/parser.h"

namespace {

using namespace mammoth;

void PrintStatus(const Status& status) {
  if (!status.ok()) std::printf("!! %s\n", status.ToString().c_str());
}

int RunRemote(const std::string& target) {
  const size_t colon = target.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "--connect expects host:port\n");
    return 2;
  }
  const std::string host = target.substr(0, colon);
  const int port = std::atoi(target.c_str() + colon + 1);
  auto client = server::Client::Connect(
      host, static_cast<uint16_t>(port));
  if (!client.ok()) {
    std::fprintf(stderr, "!! connect %s failed: %s\n", target.c_str(),
                 client.status().ToString().c_str());
    return 1;
  }
  std::printf("connected to %s (server '%s', session %llu) — "
              "SQL ends with ';', '.quit' exits\n",
              target.c_str(), client->hello().server_name.c_str(),
              static_cast<unsigned long long>(client->hello().session_id));
  std::string buffer;
  std::string line;
  while (true) {
    std::printf(buffer.empty() ? "mammoth> " : "    ...> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (buffer.empty() && !line.empty() && line[0] == '.') {
      if (line.rfind(".quit", 0) == 0 || line.rfind(".exit", 0) == 0) break;
      std::printf(".quit — everything else runs server-side "
                  "(try SERVER STATUS;)\n");
      continue;
    }
    buffer += line + "\n";
    if (line.find(';') == std::string::npos) continue;
    buffer = buffer.substr(0, buffer.find(';'));

    WallTimer timer;
    auto result = client->Query(buffer);
    buffer.clear();
    if (!result.ok()) {
      PrintStatus(result.status());
      if (!client->connected()) return 1;  // transport gone
      continue;
    }
    if (!result->names.empty()) {
      std::printf("%s", result->ToText(40).c_str());
    }
    std::printf("-- %.2f ms (%zu rows)\n", timer.ElapsedMillis(),
                result->RowCount());
  }
  client->Close();
  std::printf("\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--connect" && i + 1 < argc) {
      return RunRemote(argv[i + 1]);
    }
  }

  sql::Engine engine;
  std::unique_ptr<recycle::Recycler> recycler;

  std::printf("MammothDB shell — SQL statements end with ';', "
              "'.help' for commands\n");
  std::string buffer;
  std::string line;
  while (true) {
    std::printf(buffer.empty() ? "mammoth> " : "    ...> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;

    // Dot commands act immediately.
    if (buffer.empty() && !line.empty() && line[0] == '.') {
      std::istringstream iss(line);
      std::string cmd;
      iss >> cmd;
      if (cmd == ".quit" || cmd == ".exit") break;
      if (cmd == ".help") {
        std::printf(".plan <sql>; | .mal <file> | .tables | .save <dir> | "
                    ".load <dir> | .recycler <MB> | .stats | .quit\n");
      } else if (cmd == ".tables") {
        for (const std::string& name : engine.catalog()->TableNames()) {
          auto t = engine.catalog()->Get(name);
          std::printf("%s (%zu rows)\n", name.c_str(),
                      t.ok() ? (*t)->VisibleRowCount() : 0);
        }
      } else if (cmd == ".save" || cmd == ".load") {
        std::string dir;
        iss >> dir;
        if (dir.empty()) {
          std::printf("!! usage: %s <dir>\n", cmd.c_str());
        } else if (cmd == ".save") {
          PrintStatus(SaveCatalog(*engine.catalog(), dir));
        } else {
          auto loaded = LoadCatalog(dir);
          if (loaded.ok()) {
            for (const std::string& name : (*loaded)->TableNames()) {
              auto t = (*loaded)->Get(name);
              if (t.ok()) PrintStatus(engine.catalog()->Register(*t));
            }
            std::printf("loaded %zu table(s)\n",
                        (*loaded)->TableNames().size());
          } else {
            PrintStatus(loaded.status());
          }
        }
      } else if (cmd == ".recycler") {
        size_t mb = 64;
        iss >> mb;
        recycler = std::make_unique<recycle::Recycler>(mb << 20);
        engine.AttachRecycler(recycler.get());
        std::printf("recycler attached (%zu MB, LRU)\n", mb);
      } else if (cmd == ".stats") {
        if (recycler == nullptr) {
          std::printf("no recycler attached\n");
        } else {
          const auto& s = recycler->stats();
          std::printf("hits=%zu misses=%zu subsumed=%zu entries=%zu "
                      "bytes=%zu saved=%.3fs\n",
                      s.hits, s.misses, s.subsumption_hits, s.entries,
                      s.bytes, s.seconds_saved);
        }
      } else if (cmd == ".mal") {
        std::string path;
        iss >> path;
        std::ifstream f(path);
        if (!f) {
          std::printf("!! cannot open %s\n", path.c_str());
          continue;
        }
        std::stringstream text;
        text << f.rdbuf();
        auto prog = mal::ParseMal(text.str());
        if (!prog.ok()) {
          PrintStatus(prog.status());
          continue;
        }
        mal::Interpreter interp(engine.catalog(), recycler.get());
        auto r = interp.Run(*prog);
        if (r.ok()) {
          std::printf("%s", r->ToText().c_str());
        } else {
          PrintStatus(r.status());
        }
      } else if (cmd == ".plan") {
        std::string rest;
        std::getline(iss, rest);
        while (rest.find(';') == std::string::npos &&
               std::getline(std::cin, line)) {
          rest += "\n" + line;
        }
        rest = rest.substr(0, rest.find(';'));
        auto stmt = sql::Parse(rest);
        if (!stmt.ok()) {
          PrintStatus(stmt.status());
          continue;
        }
        auto* sel = std::get_if<sql::SelectStmt>(&*stmt);
        if (sel == nullptr) {
          std::printf("!! .plan takes a SELECT\n");
          continue;
        }
        auto prog = engine.Compile(*sel);
        if (!prog.ok()) {
          PrintStatus(prog.status());
          continue;
        }
        const auto report = mal::OptimizePipeline(&*prog);
        std::printf("%s-- %s\n", prog->ToString().c_str(),
                    report.ToString().c_str());
      } else {
        std::printf("!! unknown command %s\n", cmd.c_str());
      }
      continue;
    }

    buffer += line + "\n";
    if (line.find(';') == std::string::npos) continue;

    WallTimer timer;
    const size_t hits_before = engine.recycler_stats().hits;
    auto result = engine.Execute(buffer);
    buffer.clear();
    if (!result.ok()) {
      PrintStatus(result.status());
      continue;
    }
    if (!result->names.empty()) {
      std::printf("%s", result->ToText(40).c_str());
    }
    std::printf("-- %.2f ms (%zu recycler hits)\n", timer.ElapsedMillis(),
                engine.recycler_stats().hits - hits_before);
  }
  std::printf("\n");
  return 0;
}
