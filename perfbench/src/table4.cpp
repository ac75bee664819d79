// table4: the paper's Table IV on the committed d4 (Open MPI Allreduce,
// Jupiter) and d6 (Intel MPI Alltoall, Hydra) datasets. A round ingests
// both files, then for knn, gam and xgboost on the large and the small
// training split fits, compiles, evaluates on the test nodes and answers
// every test instance one query at a time. No simulator runs here.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "collbench/defaults.hpp"
#include "collbench/specs.hpp"
#include "support/parallel.hpp"
#include "tune/compiled_bank.hpp"
#include "tune/evaluator.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using mpicp::bench::Instance;

// Span names must outlive the tracer, so they are literals per learner.
struct Learner {
  const char* name;
  const char* fit_span;
  const char* select_span;
};
constexpr Learner kLearners[] = {
    {"knn", "ml.fit.knn", "tune.select.knn"},
    {"gam", "ml.fit.gam", "tune.select.gam"},
    {"xgboost", "ml.fit.xgboost", "tune.select.xgboost"},
};
constexpr int kQueryRepeats = 2;
constexpr std::size_t kBatch = 8;

struct Input {
  const mpicp::bench::DatasetSpec* spec = nullptr;
  std::filesystem::path path;
  Truth truth;
  std::vector<Instance> test;  ///< test-split instances, (n, ppn, m) order
};

}  // namespace

void run_table4(const RunConfig& cfg, Tracer& tracer, Report& report) {
  const mpicp::support::ScopedThreads pool(cfg.pool_threads);

  // Set-up: read both datasets with the benchmark's own reader (the
  // truth for every check) and draw the seeded query orders.
  std::vector<Input> inputs;
  std::vector<std::vector<std::uint32_t>> orders;
  const auto set_up = [&] {
    inputs.clear();
    orders.clear();
    auto rng = input_rng(cfg.seed, 3);
    for (const char* name : {"d4", "d6"}) {
      Input in;
      in.spec = &mpicp::bench::dataset_spec(name);
      in.path = cfg.data_dir / (std::string(name) + ".csv");
      in.truth = read_truth_csv(in.path);
      const auto split = mpicp::bench::node_split(in.spec->machine);
      for (const int n : split.test) {
        for (const int ppn : in.spec->ppns) {
          for (const std::uint64_t m : in.spec->msizes) {
            in.test.push_back({n, ppn, m});
          }
        }
      }
      for (int c = 0; c < 6; ++c) {
        orders.push_back(query_order(in.test.size(), kQueryRepeats, rng));
      }
      inputs.push_back(std::move(in));
    }
  };

  std::vector<int> picks;
  double first_regret = 0.0;
  const std::uint64_t start = now_ns();
  for (std::size_t round = 0;
       tracer.on() ? round < 1 : more_rounds(round, start, cfg.seconds);
       ++round) {
    timed_set_ups(set_up, tracer.on() ? 1 : kSetupBatch, report.setup_s);
    const std::uint64_t t0 = now_ns();
    std::uint64_t unmeasured_ns = 0;  // checks inside the round
    double tune_s = 0.0;
    double regret_sum = 0.0;
    std::size_t scored = 0;
    std::size_t cell_index = 0;
    for (const Input& in : inputs) {
      const auto& spec = *in.spec;
      mpicp::bench::IngestReport ingest;
      const mpicp::bench::Dataset ds = [&] {
        Tracer::Span s(tracer, "collbench.ingest", in.truth.rows());
        return mpicp::bench::Dataset::load_csv_tolerant(
            in.path, spec.name, spec.lib, spec.coll, spec.machine, &ingest);
      }();
      const auto split = mpicp::bench::node_split(spec.machine);
      const auto default_logic = mpicp::bench::make_default_for(ds);
      for (const Learner& learner : kLearners) {
        double large_speedup = 0.0;
        for (const bool small : {false, true}) {
          const auto& order = orders[cell_index++];
          const std::uint64_t tune0 = now_ns();
          mpicp::tune::Selector selector(
              mpicp::tune::SelectorOptions{.learner = learner.name});
          const mpicp::tune::FitReport& fit = [&]() -> const auto& {
            Tracer::Span s(tracer, learner.fit_span);
            return selector.fit(
                ds, small ? split.train_small : split.train_full);
          }();
          const mpicp::tune::CompiledBank bank = [&] {
            Tracer::Span s(tracer, "tune.compile");
            return selector.compile();
          }();
          tune_s += seconds_since(tune0);
          ++report.fits.attempted;
          report.fits.failed += fit.uids_unusable() > 0 ? 1 : 0;

          const mpicp::tune::Evaluation eval = [&] {
            Tracer::Span s(tracer, "tune.evaluate");
            return mpicp::tune::evaluate(ds, selector, *default_logic,
                                         split.test);
          }();
          report.select.cell = cell_index - 1;
          timed_selections(
              in.test, order, kBatch,
              [&](const Instance& inst) { return bank.select_uid(inst); },
              report.select, picks, tracer, learner.select_span,
              report.selections);
          if (tracer.on()) {
            Tracer::Span s(tracer, "tune.grid", in.test.size());
            (void)bank.select_grid(in.test);
          }

          // ---- checks, excluded from the round time -----------------------
          const std::uint64_t c0 = now_ns();
          const std::string cell = spec.name + "/" + learner.name +
                                   (small ? "/small" : "/large");
          std::vector<int> pick_of(in.test.size(), 0);
          bool consistent = true;
          for (std::size_t i = 0; i < order.size(); ++i) {
            report.check(valid_uid(spec.lib, spec.coll, picks[i]),
                         cell + ": every pick is a valid uid");
            int& p = pick_of[order[i]];
            consistent = consistent && (p == 0 || p == picks[i]);
            p = picks[i];
          }
          report.check(consistent,
                       cell + ": repeated queries get the same pick");
          report.check(ingest.clean() && ingest.rows_ingested == in.truth.rows(),
                       spec.name + ": tolerant ingest took every row");
          report.check(eval.rows.size() == in.test.size(),
                       cell + ": evaluate scored every test instance");
          double regret = 0.0;
          double speedup = 0.0;  // mean t(default) / t(pick)
          for (std::size_t i = 0; i < in.test.size(); ++i) {
            const Instance& inst = in.test[i];
            const double t_pick = in.truth.time_us(pick_of[i], inst);
            regret += t_pick / in.truth.best_us(inst);
            speedup +=
                in.truth.time_us(default_logic->select_uid(inst), inst) /
                t_pick;
            report.check(i < eval.rows.size() && eval.rows[i].inst == inst &&
                             eval.rows[i].predicted_uid == pick_of[i],
                         cell + ": single-query picks equal evaluate's");
          }
          regret_sum += regret;
          scored += in.test.size();
          regret /= static_cast<double>(in.test.size());
          speedup /= static_cast<double>(in.test.size());
          report.check(
              std::abs(eval.summary.mean_norm_predicted - regret) <=
                  1e-9 * regret,
              cell + ": EvalSummary::mean_norm_predicted equals the "
                     "recomputed regret");
          // Table IV shapes: ML beats Open MPI's default, Intel's tuned
          // default is break-even, the small split matches the large.
          if (spec.lib == mpicp::sim::MpiLib::kOpenMPI) {
            report.check(speedup > 1.0,
                         cell + ": mean speed-up over the default > 1");
          } else {
            report.check(speedup >= 0.95 && speedup <= 1.05,
                         cell + ": mean speed-up within [0.95, 1.05]");
          }
          if (small) {
            report.check(std::abs(speedup / large_speedup - 1.0) <= 0.05,
                         cell + ": small split within 5% of the large");
          } else {
            large_speedup = speedup;
          }
          if (round == 0) {
            char line[160];
            std::snprintf(line, sizeof line,
                          "table4 %-18s speed-up %.4f  regret %.4f", cell.c_str(),
                          speedup, regret);
            report.note(line);
            // Differential: compiled tier against the interpreted selector
            // on a seeded sample of test and off-grid instances.
            auto rng = input_rng(cfg.seed, 4 + cell_index);
            for (int i = 0; i < 16; ++i) {
              const Instance inst =
                  i % 2 == 0 ? in.test[rng() % in.test.size()]
                             : random_instance(rng, spec.nodes, spec.ppns);
              report.check(bank.select_uid(inst) == selector.select_uid(inst),
                           cell + ": compiled picks equal Selector::select_uid");
            }
          }
          unmeasured_ns += now_ns() - c0;
        }
      }
    }
    report.run_s.push_back(static_cast<double>(now_ns() - t0 - unmeasured_ns) *
                           1e-9);
    report.tune_s.push_back(tune_s);
    report.select.end_round();
    const double regret = regret_sum / static_cast<double>(scored);
    if (round == 0) {
      first_regret = regret;
      report.regret = regret;
    } else {
      report.check(regret == first_regret,
                   "table4: regret repeats exactly across rounds");
    }
  }

  if (tracer.on()) {
    const auto ingest = tracer.totals("collbench.ingest");
    report.layer("collbench.ingest_s", mean_span_s(tracer, "collbench.ingest"),
                 "s");
    report.layer("collbench.ingest_rows_per_s",
                 static_cast<double>(ingest.count) /
                     (static_cast<double>(ingest.total_ns) * 1e-9),
                 "1/s");
    for (const Learner& learner : kLearners) {
      const std::string l = learner.name;
      report.layer("ml.fit_s." + l, mean_span_s(tracer, learner.fit_span), "s");
      report.layer("tune.select_ns." + l,
                   ns_per_item(tracer, learner.select_span), "ns");
    }
    report.layer("tune.compile_s", mean_span_s(tracer, "tune.compile"), "s");
    report.layer("tune.evaluate_s", mean_span_s(tracer, "tune.evaluate"), "s");
    report.layer("tune.grid_ns", ns_per_item(tracer, "tune.grid"), "ns");
  }
}

}  // namespace perfbench
