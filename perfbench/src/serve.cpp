// serve: the BankRegistry read path under one closed-loop client on one
// thread. Set-up fits one bank per committed dataset and distils both:
// the d4 xgboost bank's rules clear the agreement floor, so the rule
// tier answers Jupiter/allreduce; the d6 gam bank's rules do not, so
// the compiled tier and its memo answer Hydra/alltoall. A round
// publishes both into a fresh registry and answers a seeded flood of
// queries whose message sizes are continuous in 1 B..4 MiB, so almost
// every query misses the memo and the memo grows by one entry each.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "collbench/defaults.hpp"
#include "collbench/specs.hpp"
#include "support/parallel.hpp"
#include "tune/evaluator.hpp"
#include "tune/registry.hpp"
#include "tune/ruletable.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using mpicp::bench::Instance;
using mpicp::tune::BankKey;

constexpr std::size_t kQueries = 1'000'000;
constexpr std::size_t kBatch = 16;

/// One served bank and everything the checks need about it.
struct Served {
  const mpicp::bench::DatasetSpec* spec = nullptr;
  BankKey key;
  Truth truth;
  std::unique_ptr<mpicp::bench::Dataset> ds;
  std::unique_ptr<mpicp::tune::Selector> selector;
  std::shared_ptr<const mpicp::tune::CompiledBank> bank;
  std::shared_ptr<const mpicp::tune::RuleTable> rules;  ///< null: compiled
};

struct Flood {
  std::vector<Instance> inst;
  std::vector<std::uint8_t> bank;  ///< index into the served banks
};

}  // namespace

void run_serve(const RunConfig& cfg, Tracer& tracer, Report& report) {
  const mpicp::support::ScopedThreads pool(1);

  std::vector<Served> served;
  Flood flood;
  const int setups = tracer.on() ? 1 : kSetupReps;
  for (int s = 0; s < setups; ++s) {
    served.clear();
    flood = {};
    const std::uint64_t t0 = now_ns();
    double tune_s = 0.0;
    mpicp::tune::BankRegistry registry;
    for (const auto& [name, learner] :
         {std::pair{"d4", "xgboost"}, std::pair{"d6", "gam"}}) {
      Served b;
      b.spec = &mpicp::bench::dataset_spec(name);
      b.key = {b.spec->machine, b.spec->coll};
      const auto path = cfg.data_dir / (std::string(name) + ".csv");
      b.truth = read_truth_csv(path);
      mpicp::bench::IngestReport ingest;
      b.ds = std::make_unique<mpicp::bench::Dataset>(
          mpicp::bench::Dataset::load_csv_tolerant(
              path, b.spec->name, b.spec->lib, b.spec->coll, b.spec->machine,
              &ingest));
      report.check(ingest.clean(), std::string(name) + ": clean ingest");

      const std::uint64_t tune0 = now_ns();
      b.selector = std::make_unique<mpicp::tune::Selector>(
          mpicp::tune::SelectorOptions{.learner = learner});
      const auto& fit = b.selector->fit(
          *b.ds, mpicp::bench::node_split(b.spec->machine).train_full);
      ++report.fits.attempted;
      report.fits.failed += fit.uids_unusable() > 0 ? 1 : 0;
      b.bank = std::make_shared<const mpicp::tune::CompiledBank>(
          b.selector->compile());
      (void)registry.publish(b.key, b.bank);
      const auto outcome = [&] {
        Tracer::Span span(tracer, "tune.distill");
        return registry.distill_and_publish(b.key, b.ds->instances());
      }();
      tune_s += seconds_since(tune0);
      b.rules = registry.lookup_rules(b.key);
      char line[160];
      std::snprintf(line, sizeof line,
                    "serve %s/%s: rule agreement %.4f, %s tier", name, learner,
                    outcome.agreement,
                    mpicp::tune::to_string(registry.tier(b.key)));
      if (s == 0) report.note(line);
      served.push_back(std::move(b));
    }
    report.check(served[0].rules != nullptr && served[1].rules == nullptr,
                 "serve: the rule tier answers d4 and the compiled tier d6");

    auto rng = input_rng(cfg.seed, 10);
    flood.inst.reserve(kQueries);
    flood.bank.reserve(kQueries);
    for (std::size_t i = 0; i < kQueries; ++i) {
      const std::uint8_t k = rng() % 2;
      const auto& spec = *served[k].spec;
      flood.bank.push_back(k);
      // Uniform over the byte range, so nearly every (m, n, N) is new.
      flood.inst.push_back({spec.nodes[rng() % spec.nodes.size()],
                            spec.ppns[rng() % spec.ppns.size()],
                            1 + rng() % (std::uint64_t{4} << 20)});
    }
    report.setup_s.push_back(seconds_since(t0));
    report.tune_s.push_back(tune_s);
  }

  std::vector<int> picks(kQueries, -1);
  const std::uint64_t start = now_ns();
  for (std::size_t round = 0;
       tracer.on() ? round < 1 : more_rounds(round, start, cfg.seconds);
       ++round) {
    mpicp::tune::BankRegistry registry;
    for (const Served& b : served) {
      const std::uint64_t version = [&] {
        Tracer::Span span(tracer, "tune.registry.publish");
        return registry.publish(b.key, b.bank);
      }();
      if (b.rules != nullptr) {
        report.check(registry.publish_rules(b.key, b.rules, version) == version,
                     "serve: the distilled rules attach to the fresh bank");
      }
    }
    const BankKey keys[2] = {served[0].key, served[1].key};

    const std::uint64_t t0 = now_ns();
    for (std::size_t lo = 0; lo < kQueries; lo += kBatch) {
      const std::size_t hi = std::min(kQueries, lo + kBatch);
      Tracer::Span span(tracer, "tune.registry.select", hi - lo);
      const std::uint64_t b0 = now_ns();
      for (std::size_t i = lo; i < hi; ++i) {
        try {
          picks[i] = registry.select_uid(keys[flood.bank[i]], flood.inst[i]);
        } catch (const std::exception&) {
          picks[i] = -1;
        }
      }
      report.select.add_batch(now_ns() - b0, hi - lo);
    }
    report.run_s.push_back(seconds_since(t0));
    report.select.end_round();

    // ---- checks, outside the timed phase ----------------------------------
    report.selections.attempted += kQueries;
    for (std::size_t i = 0; i < kQueries; ++i) {
      const auto& spec = *served[flood.bank[i]].spec;
      report.selections.failed += picks[i] <= 0 ? 1 : 0;
      report.check(valid_uid(spec.lib, spec.coll, picks[i]),
                   "serve: every pick is a valid uid of its collective");
    }
    std::uint64_t memo_hits = 0;
    std::uint64_t memo_misses = 0;
    for (const auto& shard : registry.shard_stats()) {
      memo_hits += shard.memo_hits;
      memo_misses += shard.memo_misses;
    }
    if (round > 0) continue;
    report.note("serve: " + std::to_string(kQueries) + " queries, memo hits " +
                std::to_string(memo_hits) + ", misses " +
                std::to_string(memo_misses));
    if (tracer.on()) {
      report.layer("tune.registry.memo_entries",
                   static_cast<double>(memo_misses), "count");
    }

    // Differential checks on a seeded sample of the flood: the rule tier
    // against the unlowered decision tree, the compiled tier against the
    // interpreted selector.
    const auto tree =
        mpicp::tune::distill(*served[0].bank, served[0].ds->instances()).rules;
    auto rng = input_rng(cfg.seed, 11);
    for (int i = 0; i < 512; ++i) {
      const std::size_t q = rng() % kQueries;
      const Served& b = served[flood.bank[q]];
      const Instance& inst = flood.inst[q];
      if (b.rules != nullptr) {
        report.check(picks[q] == tree.uid_for(inst),
                     "serve: rule-tier picks equal DecisionRules::uid_for");
      } else {
        report.check(picks[q] == b.selector->select_uid(inst),
                     "serve: compiled-tier picks equal Selector::select_uid");
      }
    }

    // Regret: each served bank answers its dataset's test split through
    // the registry, scored against the benchmark's own truth and
    // cross-checked with tune::evaluate on the same selector.
    double regret_sum = 0.0;
    std::size_t scored = 0;
    for (const Served& b : served) {
      const auto split = mpicp::bench::node_split(b.spec->machine);
      const auto default_logic = mpicp::bench::make_default_for(*b.ds);
      const auto eval = mpicp::tune::evaluate(*b.ds, *b.selector,
                                              *default_logic, split.test);
      double regret = 0.0;
      for (const auto& row : eval.rows) {
        const int pick = registry.select_uid(b.key, row.inst);
        report.check(pick == row.predicted_uid,
                     "serve: registry picks equal evaluate's on the test split");
        regret += b.truth.time_us(pick, row.inst) / b.truth.best_us(row.inst);
      }
      regret_sum += regret;
      scored += eval.rows.size();
      regret /= static_cast<double>(eval.rows.size());
      report.check(
          std::abs(eval.summary.mean_norm_predicted - regret) <= 1e-9 * regret,
          "serve: EvalSummary::mean_norm_predicted equals the recomputed "
          "regret");
    }
    report.regret = regret_sum / static_cast<double>(scored);
  }

  if (tracer.on()) {
    report.layer("tune.distill_s", mean_span_s(tracer, "tune.distill"), "s");
    report.layer("tune.registry.select_ns",
                 ns_per_item(tracer, "tune.registry.select"), "ns");
    report.layer("tune.registry.publish_us",
                 ns_per_item(tracer, "tune.registry.publish") * 1e-3, "us");
  }
}

}  // namespace perfbench
