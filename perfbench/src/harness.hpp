// Shared machinery of the benchmark binary: timing, the in-memory span
// recorder of the traced run, selection-latency samples, the
// benchmark's own ground truth, correctness checks and the result that
// main() prints as the final JSON line.
//
// Everything here is benchmark code: the program under test is reached
// only through its public headers, from the workload files.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "collbench/dataset.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Median of a sample (mean of the two middle values for even sizes).
double median(std::vector<double> xs);

/// Quantile by the nearest-rank rule: the smallest sample with at least
/// q of the samples at or below it.
double nearest_rank(std::vector<double> xs, double q);

// ---- tracing ------------------------------------------------------------

/// In-memory span recorder for the traced run. Spans are opened around
/// calls into the program; each records its name, start, duration, the
/// span that was open when it started, and how many items it covered
/// (a span around a batch of 16 selections has count 16). Disabled, a
/// span costs one branch.
class Tracer {
 public:
  struct Record {
    const char* name = "";
    std::uint64_t start_ns = 0;
    std::uint64_t dur_ns = 0;
    std::uint64_t count = 1;
    int parent = -1;
  };

  class Span {
   public:
    Span(Tracer& tracer, const char* name, std::uint64_t count = 1);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
    int index_ = -1;
  };

  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  /// Per-name aggregate over every recorded span.
  struct Totals {
    std::uint64_t spans = 0;
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
  };
  Totals totals(const std::string& name) const;

  /// Write every span as Chrome trace "X" events.
  void write_chrome_trace(const std::filesystem::path& path) const;

 private:
  bool on_;
  int open_ = -1;
  std::vector<Record> records_;
};

// ---- selection latency --------------------------------------------------

/// Per-selection latency samples: each sample is one timed batch of
/// consecutive single-query selections divided by the batch size. Only
/// the current round's samples are kept, so the benchmark's own memory
/// does not grow with the number of rounds (it shows in peak RSS). A
/// workload that serves several banks of very different speed (table4's
/// twelve learner cells) files each batch under its bank's cell, so that
/// the p50 is taken per cell rather than at a boundary between cells.
class SelectSamples {
 public:
  /// Cell of the batches added next.
  std::size_t cell = 0;
  std::uint64_t batches = 0;
  std::uint64_t selections = 0;
  std::uint64_t wall_ns = 0;

  void add_batch(std::uint64_t dur_ns, std::size_t n) {
    if (round_.size() <= cell) round_.resize(cell + 1);
    round_[cell].push_back(static_cast<double>(dur_ns) /
                           static_cast<double>(n));
    ++batches;
    selections += n;
    wall_ns += dur_ns;
  }

  /// Close the current round: record its per-cell medians and its p99
  /// over all cells, and drop its samples.
  void end_round();

  /// Per cell, the median over the rounds of the round's median.
  std::vector<double> cell_p50s() const;
  /// Geometric mean of cell_p50s(), so that each cell weighs the same
  /// whatever its speed; the plain p50 when every batch is in one cell.
  double p50() const;
  /// Median over the rounds of each round's 99th percentile, so that a
  /// burst of host interference in one round does not set the tail.
  double p99() const { return median(round_p99_); }
  /// Fewest samples in one round.
  std::size_t min_round_samples() const { return fewest_; }

 private:
  std::vector<std::vector<double>> round_;       ///< [cell] this round
  std::vector<std::vector<double>> cell_p50s_;   ///< [cell][round]
  std::vector<double> round_p99_;
  std::size_t fewest_ = 0;
};

// ---- ground truth -------------------------------------------------------

/// The benchmark's own truth for a measured dataset: the per-(uid,
/// instance) median of the raw observations and the exhaustive best per
/// instance, computed from raw records without Dataset::time_us/best.
class Truth {
 public:
  void add(const mpicp::bench::Record& rec);
  /// Freeze: compute medians and per-instance bests.
  void finish();

  std::size_t rows() const { return rows_; }
  /// Median time of (uid, inst); throws when the pair was never measured.
  double time_us(int uid, const mpicp::bench::Instance& inst) const;
  /// Exhaustive-search best time at an instance.
  double best_us(const mpicp::bench::Instance& inst) const;

 private:
  static std::uint64_t instance_key(const mpicp::bench::Instance& inst);

  std::size_t rows_ = 0;
  std::map<std::pair<std::uint64_t, int>, std::vector<double>> samples_;
  std::unordered_map<std::uint64_t, std::unordered_map<int, double>> median_;
  std::unordered_map<std::uint64_t, double> best_;
};

/// Parse a "uid,nodes,ppn,msize,time_us" CSV with the benchmark's own
/// reader (header line skipped) into a Truth. Throws on a malformed row:
/// the committed datasets are clean.
Truth read_truth_csv(const std::filesystem::path& path);

// ---- results ------------------------------------------------------------

/// Operations of one kind attempted and failed.
struct OpCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Everything one run reports.
struct Report {
  bool correct = true;
  std::vector<std::string> failures;

  OpCount selections, fits, refits, des_runs;

  std::vector<double> setup_s, run_s, tune_s;
  double regret = 0.0;
  SelectSamples select;

  /// Per-layer metrics of the traced run: name -> (value, unit).
  std::map<std::string, std::pair<double, std::string>> layers;
  /// Free-form lines printed before the result (inputs, table rows).
  std::vector<std::string> notes;

  /// Record a correctness check; a failing one makes the run incorrect.
  void check(bool ok, const std::string& what);
  /// Same, building the message only when the check fails (hot loops).
  void check(bool ok, const char* what) {
    if (!ok) check(false, std::string(what));
  }
  void note(const std::string& line) { notes.push_back(line); }
  void layer(const std::string& name, double value, const std::string& unit) {
    layers[name] = {value, unit};
  }
};

/// Inputs every workload receives from the command line.
struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::filesystem::path data_dir = "data";
  std::filesystem::path out_dir = ".bench_build/perfbench/out";
  /// Threads of the program's pool for the workloads that use it.
  int pool_threads = 2;
};

/// Keep timing rounds until `seconds` have passed, but never fewer than
/// `min_rounds`: every run executes whole rounds of the same operations.
bool more_rounds(std::size_t done, std::uint64_t start_ns, double seconds,
                 std::size_t min_rounds = 3);

/// Peak RSS of this process in MiB (getrusage).
double peak_rss_mb();

}  // namespace perfbench
