// campaign: the paper's whole offline loop on a trimmed d1 grid
// (Open MPI Bcast on Hydra). A round runs the DES campaign through
// bench::generate_dataset, writes the dataset as CSV and reads it back
// through the tolerant ingest, fits one learner, compiles the bank,
// evaluates the held-out node counts and answers the held-out instances
// one query at a time. Almost all of a round is simulator time.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "collbench/defaults.hpp"
#include "collbench/generator.hpp"
#include "collbench/specs.hpp"
#include "simmpi/coll/types.hpp"
#include "simmpi/executor.hpp"
#include "simnet/machine.hpp"
#include "simnet/network.hpp"
#include "support/parallel.hpp"
#include "tune/compiled_bank.hpp"
#include "tune/evaluator.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using mpicp::bench::DatasetSpec;
using mpicp::bench::Instance;

// Table III's Hydra split, trimmed: train on 4, 8, 16 nodes and hold out
// 7 and 13, at ppn 1 and 2, over all ten message sizes. The noise seed
// stays d1's, so the truth, and with it the regret, repeats exactly. Ten
// observations per configuration (d1 takes five) cost no extra DES runs
// and make the fit long enough that waking the pool's second thread is
// a small part of it.
const std::vector<int> kTrainNodes = {4, 8, 16};
const std::vector<int> kTestNodes = {7, 13};
constexpr const char* kLearner = "gam";
constexpr int kQueryRepeats = 500;
// 20,000 selections per round in batches of 20: 1,000 samples a round,
// ten beyond the round's p99.
constexpr std::size_t kBatch = 20;

DatasetSpec campaign_spec() {
  DatasetSpec spec = mpicp::bench::dataset_spec("d1");
  spec.name = "campaign";
  spec.nodes = {4, 8, 16, 7, 13};
  spec.ppns = {1, 2};
  spec.budget.max_reps = 10;
  return spec;
}

std::size_t des_runs(const DatasetSpec& spec) {
  return spec.nodes.size() * spec.ppns.size() * spec.msizes.size() *
         mpicp::sim::algorithm_configs(spec.lib, spec.coll).size();
}

bool same_records(const std::vector<mpicp::bench::Record>& a,
                  const std::vector<mpicp::bench::Record>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const auto& x, const auto& y) {
                      return x.uid == y.uid && x.nodes == y.nodes &&
                             x.ppn == y.ppn && x.msize == y.msize &&
                             x.time_us == y.time_us;
                    });
}

/// Traced only: replay the campaign grid through the simulator's public
/// layers, timing program construction and execution separately.
void replay_des(const DatasetSpec& spec, Tracer& tracer, Report& report) {
  const auto machine = mpicp::sim::machine_by_name(spec.machine);
  const auto& configs = mpicp::sim::algorithm_configs(spec.lib, spec.coll);
  std::uint64_t msgs = 0;
  std::uint64_t slowest_ns = 0;
  for (const int n : spec.nodes) {
    for (const int ppn : spec.ppns) {
      mpicp::sim::Network net(machine, n, ppn);
      const mpicp::sim::Comm comm(n, ppn);
      mpicp::sim::Executor exec(net);
      for (const auto& cfg : configs) {
        for (const std::uint64_t m : spec.msizes) {
          const std::uint64_t t0 = now_ns();
          mpicp::sim::BuiltCollective built = [&] {
            Tracer::Span s(tracer, "simmpi.build");
            return mpicp::sim::build_algorithm(spec.lib, spec.coll, cfg, comm,
                                               m, 0, false);
          }();
          Tracer::Span s(tracer, "simmpi.exec");
          msgs += exec.run(built.programs).num_messages;
          slowest_ns = std::max(slowest_ns, now_ns() - t0);
        }
      }
    }
  }
  report.des_runs.attempted += des_runs(spec);
  const auto build = tracer.totals("simmpi.build");
  const auto run = tracer.totals("simmpi.exec");
  report.layer("simmpi.build_s", static_cast<double>(build.total_ns) * 1e-9,
               "s");
  report.layer("simmpi.exec_s", static_cast<double>(run.total_ns) * 1e-9, "s");
  report.layer("simmpi.msgs", static_cast<double>(msgs), "count");
  report.layer("simmpi.ns_per_msg",
               static_cast<double>(run.total_ns) / static_cast<double>(msgs),
               "ns");
  report.layer("simmpi.max_run_ms", static_cast<double>(slowest_ns) * 1e-6,
               "ms");
}

}  // namespace

void run_campaign(const RunConfig& cfg, Tracer& tracer, Report& report) {
  const mpicp::support::ScopedThreads pool(cfg.pool_threads);
  const DatasetSpec spec = campaign_spec();
  const auto lib = spec.lib;
  const auto coll = spec.coll;

  std::vector<Instance> held_out;
  for (const int n : kTestNodes) {
    for (const int ppn : spec.ppns) {
      for (const std::uint64_t m : spec.msizes) held_out.push_back({n, ppn, m});
    }
  }

  // Set-up: the query stream, plus one small warm-up generation (the
  // smallest allocation of the grid) so lazily built simulator state is
  // paid here rather than in the first timed round.
  std::vector<std::uint32_t> order;
  const auto set_up = [&] {
    auto rng = input_rng(cfg.seed, 1);
    order = query_order(held_out.size(), kQueryRepeats, rng);
    DatasetSpec warm = spec;
    warm.nodes = {spec.nodes.front()};
    warm.ppns = {spec.ppns.front()};
    const auto warm_ds = mpicp::bench::generate_dataset(warm);
    report.des_runs.attempted += des_runs(warm);
  };

  const auto csv = cfg.out_dir / "campaign.csv";
  std::filesystem::create_directories(cfg.out_dir);
  std::vector<mpicp::bench::Record> first_records;
  std::vector<int> picks;
  double first_regret = 0.0;
  const std::uint64_t start = now_ns();
  for (std::size_t round = 0;
       tracer.on() ? round < 1 : more_rounds(round, start, cfg.seconds);
       ++round) {
    timed_set_ups(set_up, tracer.on() ? 1 : kSetupBatch, report.setup_s);
    const std::uint64_t t0 = now_ns();
    mpicp::bench::Dataset generated = [&] {
      Tracer::Span s(tracer, "collbench.generate");
      return mpicp::bench::generate_dataset(spec);
    }();
    report.des_runs.attempted += des_runs(spec);
    generated.save_csv(csv);
    mpicp::bench::IngestReport ingest;
    const mpicp::bench::Dataset ds = [&] {
      Tracer::Span s(tracer, "collbench.ingest", generated.num_records());
      return mpicp::bench::Dataset::load_csv_tolerant(
          csv, spec.name, lib, coll, spec.machine, &ingest);
    }();

    const std::uint64_t tune0 = now_ns();
    mpicp::tune::Selector selector(
        mpicp::tune::SelectorOptions{.learner = kLearner});
    const mpicp::tune::FitReport& fit = [&]() -> const auto& {
      Tracer::Span s(tracer, "ml.fit.gam");
      return selector.fit(ds, kTrainNodes);
    }();
    ++report.fits.attempted;
    report.fits.failed += fit.uids_unusable() > 0 ? 1 : 0;
    const mpicp::tune::CompiledBank bank = [&] {
      Tracer::Span s(tracer, "tune.compile");
      return selector.compile();
    }();
    report.tune_s.push_back(seconds_since(tune0));

    const auto default_logic = mpicp::bench::make_default_for(ds);
    const mpicp::tune::Evaluation eval = [&] {
      Tracer::Span s(tracer, "tune.evaluate");
      return mpicp::tune::evaluate(ds, selector, *default_logic, kTestNodes);
    }();
    timed_selections(
        held_out, order, kBatch,
        [&](const Instance& inst) { return bank.select_uid(inst); },
        report.select, picks, tracer, "tune.select.campaign",
        report.selections);
    report.run_s.push_back(seconds_since(t0));
    report.select.end_round();

    // ---- checks, outside the timed phase --------------------------------
    if (round == 0) {
      first_records = generated.records();
    } else {
      report.check(same_records(generated.records(), first_records),
                   "campaign: repeated generations produced identical records");
    }
    report.check(same_records(ds.records(), generated.records()) &&
                     ingest.clean(),
                 "campaign: the CSV round trip preserved every record");
    Truth truth;
    for (const auto& rec : generated.records()) truth.add(rec);
    truth.finish();

    // One pick per held-out instance; every repeat must agree with it.
    std::vector<int> pick_of(held_out.size(), 0);
    bool consistent = true;
    for (std::size_t i = 0; i < order.size(); ++i) {
      report.check(valid_uid(lib, coll, picks[i]),
                   "campaign: every pick is a valid Bcast uid");
      int& p = pick_of[order[i]];
      if (p == 0) p = picks[i];
      consistent = consistent && p == picks[i];
    }
    report.check(consistent, "campaign: repeated queries get the same pick");

    double regret = 0.0;
    double speedup = 0.0;
    for (std::size_t h = 0; h < held_out.size(); ++h) {
      const Instance& inst = held_out[h];
      const double t_pick = truth.time_us(pick_of[h], inst);
      regret += t_pick / truth.best_us(inst);
      speedup += truth.time_us(default_logic->select_uid(inst), inst) / t_pick;
    }
    regret /= static_cast<double>(held_out.size());
    speedup /= static_cast<double>(held_out.size());
    for (const auto& row : eval.rows) {
      const auto it = std::find(held_out.begin(), held_out.end(), row.inst);
      report.check(it != held_out.end() &&
                       pick_of[static_cast<std::size_t>(
                           it - held_out.begin())] == row.predicted_uid,
                   "campaign: single-query picks equal evaluate's picks");
    }
    report.check(eval.rows.size() == held_out.size() &&
                     std::abs(eval.summary.mean_norm_predicted - regret) <=
                         1e-9 * regret,
                 "campaign: EvalSummary::mean_norm_predicted equals the "
                 "recomputed regret");
    report.check(speedup > 1.0,
                 "campaign: mean speed-up over the Open MPI default > 1");
    if (round == 0) {
      first_regret = regret;
      report.regret = regret;
      report.note("campaign: " + std::to_string(generated.num_records()) +
                  " records, held-out instances " +
                  std::to_string(held_out.size()) + ", mean speed-up " +
                  std::to_string(speedup) + ", regret " +
                  std::to_string(regret));
      // Differential: compiled tier against the interpreted selector on
      // the held-out grid and a seeded off-grid sample.
      auto rng = input_rng(cfg.seed, 2);
      std::vector<Instance> sample = held_out;
      for (int i = 0; i < 64; ++i) {
        sample.push_back(random_instance(rng, spec.nodes, spec.ppns));
      }
      for (const Instance& inst : sample) {
        report.check(bank.select_uid(inst) == selector.select_uid(inst),
                     "campaign: compiled picks equal Selector::select_uid");
      }
    } else {
      report.check(regret == first_regret,
                   "campaign: regret repeats exactly across rounds");
    }
  }

  if (tracer.on()) {
    replay_des(spec, tracer, report);
    report.layer("collbench.generate_s", mean_span_s(tracer, "collbench.generate"),
                 "s");
  }
}

}  // namespace perfbench
