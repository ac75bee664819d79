// retrain: a seeded drifting, corrupted MeasurementStream pumped through
// a StreamPipeline into a live BankRegistry on one thread. Set-up
// produces the row stream; a round pumps it into a fresh registry and,
// every kSelectEvery rows once a bank is live, answers a fixed batch of
// repeated instances (memo hits between swaps). Regret is scored against
// MeasurementStream::true_time_us of the regime active at the row.
#include <algorithm>
#include <cstdio>
#include <string>

#include "collbench/streamgen.hpp"
#include "support/parallel.hpp"
#include "tune/registry.hpp"
#include "tune/stream.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using mpicp::bench::Instance;

constexpr std::size_t kRows = 240'000;
constexpr std::size_t kShiftEvery = 6'000;
constexpr std::size_t kSelectEvery = 200;
constexpr int kRepeats = 4;  ///< each batch instance is asked this often

mpicp::bench::StreamSpec stream_spec() {
  mpicp::bench::StreamSpec spec;
  spec.uids = {1, 2, 3, 4, 5, 6};
  spec.nodes = {2, 4, 8, 16};
  spec.ppns = {1, 4};
  spec.msizes = {64, 4096, 65536, 1048576};
  spec.machine_seed = 101;
  for (std::size_t at = kShiftEvery; at < kRows; at += kShiftEvery) {
    spec.shifts.push_back({at, 101 + at / kShiftEvery * 101});
  }
  spec.fault_rate = 0.08;
  spec.seed = 7;
  return spec;
}

mpicp::tune::StreamOptions pipeline_options() {
  mpicp::tune::StreamOptions opts;
  opts.selector.learner = "gam";
  opts.window_capacity = 2048;
  opts.min_refit_rows = 512;
  opts.holdout_every = 4;
  opts.refit_cooldown = 32;
  opts.backoff_initial = 64;
  opts.accept_tolerance = 1.05;
  return opts;
}

/// The fixed selection batch: the corners of the stream's grid.
std::vector<Instance> batch_instances() {
  std::vector<Instance> out;
  for (const int n : {2, 16}) {
    for (const int ppn : {1, 4}) {
      for (const std::uint64_t m : {std::uint64_t{64}, std::uint64_t{1048576}}) {
        out.push_back({n, ppn, m});
      }
    }
  }
  return out;
}

/// The produced rows, packed back to back: row i is
/// text[start[i], start[i + 1]). One buffer read front to back keeps the
/// pump's input out of the way of the pipeline's own memory traffic.
struct Rows {
  std::string text;
  std::vector<std::uint32_t> start{0};
  std::vector<std::uint8_t> dropped;
  std::size_t faulted = 0;
  std::size_t dropped_total = 0;
};

}  // namespace

void run_retrain(const RunConfig& cfg, Tracer& tracer, Report& report) {
  const mpicp::support::ScopedThreads pool(1);
  const mpicp::bench::StreamSpec spec = stream_spec();
  const mpicp::tune::BankKey key{"Hydra", spec.coll};
  const std::vector<Instance> batch = batch_instances();
  const std::size_t regimes = spec.shifts.size() + 1;

  // Set-up: produce the row stream, the truth per (regime, instance, uid)
  // and the seeded order in which each selection batch is asked.
  Rows rows;
  std::vector<double> truth;  // [regime][instance][uid index]
  std::vector<double> best;   // [regime][instance]
  std::vector<std::uint32_t> order;
  const auto set_up = [&] {
    mpicp::bench::MeasurementStream stream(spec);
    rows = {};
    rows.start.reserve(kRows + 1);
    rows.dropped.reserve(kRows);
    for (std::size_t lo = 0; lo < kRows; lo += 1024) {
      const std::size_t hi = std::min(kRows, lo + 1024);
      Tracer::Span span(tracer, "collbench.stream_next", hi - lo);
      for (std::size_t i = lo; i < hi; ++i) {
        auto row = stream.next();
        rows.dropped.push_back(row.dropped ? 1 : 0);
        rows.text += row.text;
        rows.start.push_back(static_cast<std::uint32_t>(rows.text.size()));
      }
    }
    rows.faulted = stream.rows_faulted();
    rows.dropped_total = stream.rows_dropped();
    truth.assign(regimes * batch.size() * spec.uids.size(), 0.0);
    best.assign(regimes * batch.size(), 0.0);
    for (std::size_t r = 0; r < regimes; ++r) {
      const std::size_t at = r == 0 ? 0 : spec.shifts[r - 1].at_row;
      for (std::size_t b = 0; b < batch.size(); ++b) {
        double& lo = best[r * batch.size() + b];
        for (std::size_t u = 0; u < spec.uids.size(); ++u) {
          const double t = stream.true_time_us(at, spec.uids[u], batch[b]);
          truth[(r * batch.size() + b) * spec.uids.size() + u] = t;
          lo = u == 0 ? t : std::min(lo, t);
        }
      }
    }
    // One timed batch per interleave, so the memo misses after a swap
    // always fall into one batch whatever the seed: the tail the p99
    // reads has the same make-up in every run.
    auto rng = input_rng(cfg.seed, 20);
    order = query_order(batch.size(), kRepeats, rng);
  };

  std::vector<int> picks;
  std::vector<std::size_t> pick_rows;  // production row of each pick slot
  std::vector<int> all_picks;
  double first_regret = 0.0;
  const std::uint64_t start = now_ns();
  for (std::size_t round = 0;
       tracer.on() ? round < 1 : more_rounds(round, start, cfg.seconds);
       ++round) {
    timed_set_ups(set_up, 1, report.setup_s);
    mpicp::tune::BankRegistry registry;
    mpicp::tune::StreamPipeline pipeline(registry, pipeline_options());
    std::vector<std::size_t> alarms;
    all_picks.clear();
    pick_rows.clear();
    double refit_s = 0.0;
    std::uint64_t push_ns = 0;  // rows that ran no refit
    bool live = false;
    std::string line;

    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < kRows; ++i) {
      if (rows.dropped[i] == 0) {
        line.assign(rows.text, rows.start[i], rows.start[i + 1] - rows.start[i]);
        const std::uint64_t p0 = now_ns();
        const auto out = pipeline.push_row(key, line);
        const std::uint64_t dur = now_ns() - p0;
        if (out.refit_attempted) {
          refit_s += static_cast<double>(dur) * 1e-9;
          ++report.refits.attempted;
        } else {
          push_ns += dur;
        }
        if (out.drift != mpicp::tune::DriftSignal::kNone) alarms.push_back(i);
      }
      if ((i + 1) % kSelectEvery != 0) continue;
      live = live || registry.version(key) != 0;
      if (!live) continue;
      timed_selections(
          batch, order, order.size(),
          [&](const Instance& inst) { return registry.select_uid(key, inst); },
          report.select, picks, tracer, "tune.registry.select",
          report.selections);
      all_picks.insert(all_picks.end(), picks.begin(), picks.end());
      pick_rows.push_back(i);
    }
    report.run_s.push_back(seconds_since(t0));
    report.select.end_round();
    report.tune_s.push_back(refit_s);

    // ---- checks, outside the timed phase ----------------------------------
    const auto stats = pipeline.stats();
    report.refits.failed += stats.refits_failed;
    report.check(stats.rows_seen == kRows - rows.dropped_total &&
                     stats.rows_quarantined ==
                         rows.faulted - rows.dropped_total &&
                     stats.rows_ingested ==
                         stats.rows_seen - stats.rows_quarantined,
                 "retrain: quarantine reconciles with the generator's fault log");
    for (std::size_t k = 0; k < spec.shifts.size(); ++k) {
      const std::size_t from = spec.shifts[k].at_row;
      const std::size_t to =
          k + 1 < spec.shifts.size() ? spec.shifts[k + 1].at_row : kRows;
      report.check(std::any_of(alarms.begin(), alarms.end(),
                               [&](std::size_t a) { return a >= from && a < to; }),
                   "retrain: a drift alarm between every shift and the next");
    }
    // Regret against the regime truth; every pick a stream uid.
    double regret = 0.0;
    for (std::size_t j = 0; j < pick_rows.size(); ++j) {
      std::size_t regime = 0;
      while (regime < spec.shifts.size() &&
             spec.shifts[regime].at_row <= pick_rows[j]) {
        ++regime;
      }
      for (std::size_t q = 0; q < order.size(); ++q) {
        const int pick = all_picks[j * order.size() + q];
        const auto u = std::find(spec.uids.begin(), spec.uids.end(), pick);
        report.check(u != spec.uids.end(), "retrain: every pick is a stream uid");
        if (u == spec.uids.end()) continue;
        const std::size_t cell = regime * batch.size() + order[q];
        regret += truth[cell * spec.uids.size() +
                        static_cast<std::size_t>(u - spec.uids.begin())] /
                  best[cell];
      }
    }
    regret /= static_cast<double>(all_picks.size());
    // The memo answers exactly what the serving bank computes itself.
    const auto bank = registry.lookup(key);
    for (const Instance& inst : batch) {
      report.check(bank != nullptr &&
                       registry.select_uid(key, inst) == bank->select_uid(inst),
                   "retrain: memoized picks equal CompiledBank::select_uid");
    }
    if (round == 0) {
      first_regret = regret;
      report.regret = regret;
      char line[200];
      std::snprintf(line, sizeof line,
                    "retrain: %zu rows, %zu shifts, %llu alarms, %llu refits "
                    "(%llu published), %zu selections, regret %.6f",
                    kRows, spec.shifts.size(),
                    static_cast<unsigned long long>(stats.drift_detections),
                    static_cast<unsigned long long>(stats.refits_attempted),
                    static_cast<unsigned long long>(stats.refits_published),
                    all_picks.size(), regret);
      report.note(line);
    } else {
      report.check(regret == first_regret,
                   "retrain: regret repeats exactly across rounds");
    }

    if (tracer.on()) {
      std::uint64_t hits = 0;
      std::uint64_t misses = 0;
      for (const auto& shard : registry.shard_stats()) {
        hits += shard.memo_hits;
        misses += shard.memo_misses;
      }
      double lag = 0.0;
      for (const auto& shift : spec.shifts) {
        const auto a = std::lower_bound(alarms.begin(), alarms.end(),
                                        shift.at_row);
        lag += a == alarms.end() ? static_cast<double>(kRows - shift.at_row)
                                 : static_cast<double>(*a - shift.at_row);
      }
      const double pushes = static_cast<double>(
          stats.rows_seen - stats.refits_attempted);
      report.layer("tune.registry.memo_hit_ratio",
                   static_cast<double>(hits) / static_cast<double>(hits + misses),
                   "ratio");
      report.layer("tune.stream.push_us",
                   static_cast<double>(push_ns) * 1e-3 / pushes, "us");
      report.layer("tune.stream.refit_ms",
                   refit_s / static_cast<double>(stats.refits_attempted) * 1e3,
                   "ms");
      report.layer("tune.stream.refit_publish_ratio",
                   static_cast<double>(stats.refits_published) /
                       static_cast<double>(stats.refits_attempted),
                   "ratio");
      report.layer("tune.stream.detect_lag_rows",
                   lag / static_cast<double>(spec.shifts.size()), "rows");
    }
  }
  if (tracer.on()) {
    report.layer("collbench.stream_next_ns",
                 ns_per_item(tracer, "collbench.stream_next"), "ns");
  }
}

}  // namespace perfbench
