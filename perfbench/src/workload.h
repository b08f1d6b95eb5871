// The interface each benchmark workload implements, and the driver entry
// point that runs one workload end to end.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

/// Threads the run may keep busy: client connections, reactor workers
/// (admission slots) and the kernel TaskPool, and the CPUs the whole
/// process is pinned to (every thread inherits the main thread's
/// affinity). Kept within nproc.
struct Budget {
  int clients = 1;
  int workers = 1;
  int pool = 1;
  int cpus = 1;
};

/// What one set-up measured.
struct SetupInfo {
  uint64_t rows = 0;
  double load_s = 0;         ///< batched INSERTs over the wire
  double checkpoint_ms = 0;  ///< the explicit CHECKPOINT after loading
};

/// Operations attempted and failed, shared by a phase's clients. A
/// statement that errors or returns a wrong answer counts as failed.
struct Tally {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
  std::mutex mu;
  std::vector<std::string> errors;  ///< first few, for the run record

  void Fail(const std::string& what) {
    failed++;
    std::lock_guard<std::mutex> lock(mu);
    if (errors.size() < 5) errors.push_back(what);
  }
  /// Counts one attempted statement; false (and a failure) on an error.
  template <typename T>
  bool Ok(const Result<T>& r, const std::string& what) {
    attempted++;
    if (r.ok()) return true;
    Fail(what + ": " + r.status().ToString());
    return false;
  }
  /// Counts a check on an already-counted statement.
  void Check(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual Budget budget() const = 0;
  /// Durable-storage policy (flush, checkpoint threshold).
  virtual void Configure(mammoth::server::ServerConfig* cfg) const = 0;
  /// Set-ups per run; setup_s is their median.
  virtual int setup_reps() const = 0;
  /// Creates and loads the tables through `c`, then checkpoints (and
  /// compresses). Must leave the database in the same state every time.
  virtual Status Load(mammoth::server::Client& c, SetupInfo* info) = 0;
  /// The statement whose acceptance ends set-up and recovery.
  virtual std::string probe_sql() const = 0;

  /// One whole round of `role`: a fixed-shape, seeded statement
  /// sequence whose answers are checked.
  virtual void Round(int role, Conn& c, uint64_t round, Tally* tally) = 0;
  /// Runs after every client is done and before the server stops: brings
  /// the directory to the state recovery is timed on.
  virtual void Settle(Conn& c, Tally* tally) {
    (void)c;
    (void)tally;
  }
  /// After reopening the directory: it must hold exactly the
  /// acknowledged state.
  virtual void VerifyRecovered(mammoth::server::Client& c, Tally* tally) = 0;

  /// Logical bytes of the user rows visible at the end of the run, and of
  /// every user row written (load plus measured phase).
  virtual uint64_t UserBytes() const = 0;
  virtual uint64_t UserBytesWritten() const = 0;

  /// Direct kernel, cost-model and codec timings on the workload's own
  /// columns (core.*, cost.*, parallel.*, compress.* per-layer metrics).
  /// Runs while no client is active.
  virtual void KernelProbes(mammoth::sql::Engine* engine,
                            const mammoth::parallel::ExecContext& ctx,
                            std::vector<Metric>* out) = 0;
};

std::unique_ptr<Workload> MakeOlap(uint64_t seed, bool compressed,
                                   bool perturb_expected);
std::unique_ptr<Workload> MakeHtap(uint64_t seed, bool perturb_expected);

/// Kernel probes shared by both families: median-of-reps timings of the
/// BAT kernels over the named columns.
struct ProbeColumns {
  std::string table;
  std::string range_col;  ///< int32, selected with [lo, hi]
  int64_t lo = 0, hi = 0;
  std::string group_col;  ///< int32 group key
  std::string measure_col;  ///< int64 summed / sorted / top-N
  std::string dim_table, dim_key;  ///< hash-join build side
};
void ProbeKernels(mammoth::sql::Engine* engine,
                  const mammoth::parallel::ExecContext& ctx,
                  const ProbeColumns& cols, std::vector<Metric>* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
