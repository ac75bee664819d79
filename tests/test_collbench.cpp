// Tests for the benchmarking layer: noise model, budgeted runner,
// dataset container, dataset specs and default-logic baselines.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <tuple>
#include <vector>

#include "collbench/dataset.hpp"
#include "collbench/defaults.hpp"
#include "collbench/generator.hpp"
#include "collbench/noise.hpp"
#include "collbench/runner.hpp"
#include "collbench/specs.hpp"
#include "simmpi/coll/decision.hpp"
#include "simnet/machine.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"
#include "support/stats.hpp"

namespace mpicp::bench {
namespace {

TEST(Noise, SystematicFactorIsDeterministic) {
  const NoiseModel a(42);
  const NoiseModel b(42);
  const double fa = a.systematic_factor(1, 3, 16, 8, 1024);
  EXPECT_DOUBLE_EQ(fa, b.systematic_factor(1, 3, 16, 8, 1024));
  EXPECT_NE(fa, a.systematic_factor(1, 4, 16, 8, 1024));
  EXPECT_GT(fa, 0.0);
}

TEST(Noise, SystematicFactorNearOne) {
  const NoiseModel model(7);
  for (int uid = 1; uid <= 50; ++uid) {
    const double f = model.systematic_factor(0, uid, 8, 4, 4096);
    EXPECT_GT(f, 0.5);
    EXPECT_LT(f, 2.0);
  }
}

TEST(Noise, ObservationsCenterOnTruth) {
  const NoiseModel model(11);
  support::Xoshiro256 rng(1);
  std::vector<double> obs(4001);
  for (auto& o : obs) o = model.observe_us(1000.0, rng);
  std::sort(obs.begin(), obs.end());
  EXPECT_NEAR(obs[obs.size() / 2], 1000.0, 30.0);  // median ~ truth
  for (const double o : obs) EXPECT_GT(o, 0.0);
}

TEST(Noise, SmallRunsAreNoisier) {
  const NoiseModel model(13);
  support::Xoshiro256 rng1(2);
  support::Xoshiro256 rng2(2);
  double spread_small = 0.0;
  double spread_large = 0.0;
  for (int i = 0; i < 2000; ++i) {
    spread_small += std::abs(model.observe_us(5.0, rng1) / 5.0 - 1.0);
    spread_large +=
        std::abs(model.observe_us(1e6, rng2) / 1e6 - 1.0);
  }
  EXPECT_GT(spread_small, 1.5 * spread_large);
}

TEST(Runner, RespectsRepCap) {
  sim::Network net(sim::hydra_machine(), 4, 2);
  const NoiseModel noise(1);
  support::Xoshiro256 rng(1);
  const auto& cfg =
      sim::algorithm_configs(sim::MpiLib::kOpenMPI, sim::Collective::kBcast)
          .front();
  const RunnerResult res =
      run_benchmark(net, sim::MpiLib::kOpenMPI, sim::Collective::kBcast,
                    cfg, 1024, noise, {.max_reps = 7, .budget_us = 1e9},
                    rng);
  EXPECT_EQ(res.observations_us.size(), 7u);
  EXPECT_GT(res.des_time_us, 0.0);
  EXPECT_GT(res.true_time_us, 0.0);
}

TEST(Runner, BudgetTruncatesExpensiveRuns) {
  sim::Network net(sim::hydra_machine(), 16, 8);
  const NoiseModel noise(1);
  support::Xoshiro256 rng(1);
  // The linear broadcast of 4 MiB takes several milliseconds; a 1 ms
  // budget must stop after the first observation.
  const auto& cfg =
      sim::algorithm_configs(sim::MpiLib::kOpenMPI, sim::Collective::kBcast)
          .front();
  ASSERT_EQ(cfg.name, "linear");
  const RunnerResult res = run_benchmark(
      net, sim::MpiLib::kOpenMPI, sim::Collective::kBcast, cfg, 4u << 20,
      noise, {.max_reps = 500, .budget_us = 1000.0}, rng);
  EXPECT_EQ(res.observations_us.size(), 1u);
}

TEST(Dataset, MedianAggregationAndBest) {
  Dataset ds("t", sim::MpiLib::kOpenMPI, sim::Collective::kBcast, "Hydra");
  for (const double t : {10.0, 30.0, 20.0}) {
    ds.add({1, 4, 2, 64, t});
  }
  ds.add({2, 4, 2, 64, 15.0});
  const Instance inst{4, 2, 64};
  EXPECT_DOUBLE_EQ(ds.time_us(1, inst), 20.0);
  EXPECT_DOUBLE_EQ(ds.time_us(2, inst), 15.0);
  const auto best = ds.best(inst);
  EXPECT_EQ(best.uid, 2);
  EXPECT_DOUBLE_EQ(best.time_us, 15.0);
  EXPECT_FALSE(ds.has(3, inst));
  EXPECT_THROW(ds.time_us(3, inst), InvalidArgument);
}

TEST(Dataset, CsvRoundTrip) {
  Dataset ds("t", sim::MpiLib::kIntelMPI, sim::Collective::kAllreduce,
             "Hydra");
  ds.add({1, 4, 2, 64, 12.5});
  ds.add({2, 8, 4, 1024, 99.25});
  const auto path =
      std::filesystem::temp_directory_path() / "mpicp_ds_test.csv";
  ds.save_csv(path);
  const Dataset loaded = Dataset::load_csv(
      path, "t", sim::MpiLib::kIntelMPI, sim::Collective::kAllreduce,
      "Hydra");
  EXPECT_EQ(loaded.num_records(), 2u);
  EXPECT_DOUBLE_EQ(loaded.time_us(2, {8, 4, 1024}), 99.25);
  std::filesystem::remove(path);
}

TEST(Specs, TableIIShape) {
  const auto& specs = all_dataset_specs();
  ASSERT_EQ(specs.size(), 8u);
  EXPECT_EQ(specs[0].name, "d1");
  EXPECT_EQ(specs[0].coll, sim::Collective::kBcast);
  EXPECT_EQ(specs[4].lib, sim::MpiLib::kIntelMPI);
  EXPECT_EQ(specs[7].machine, "SuperMUC-NG");
  EXPECT_EQ(specs[5].msizes.size(), 8u);  // alltoall: 8 sizes
  EXPECT_EQ(specs[0].msizes.size(), 10u);
  EXPECT_THROW(dataset_spec("d9"), InvalidArgument);
}

TEST(Specs, SplitsAreSubsetsOfGrids) {
  for (const auto& spec : all_dataset_specs()) {
    const NodeSplit split = node_split(spec.machine);
    for (const int n : split.train_full) {
      EXPECT_NE(std::find(spec.nodes.begin(), spec.nodes.end(), n),
                spec.nodes.end())
          << spec.name << " train node " << n;
    }
    for (const int n : split.test) {
      EXPECT_NE(std::find(spec.nodes.begin(), spec.nodes.end(), n),
                spec.nodes.end())
          << spec.name << " test node " << n;
    }
    // Train and test node sets must be disjoint.
    for (const int n : split.test) {
      EXPECT_EQ(std::find(split.train_full.begin(), split.train_full.end(),
                          n),
                split.train_full.end());
    }
  }
}

TEST(Generator, SmallSpecProducesFullGrid) {
  DatasetSpec spec = dataset_spec("d2");
  spec.name = "tiny";
  spec.nodes = {2, 3};
  spec.ppns = {1, 2};
  spec.msizes = {16, 1024};
  spec.budget = {.max_reps = 2, .budget_us = 1e9};
  const Dataset ds = generate_dataset(spec);
  const auto& configs =
      sim::algorithm_configs(spec.lib, spec.coll);
  EXPECT_EQ(ds.num_records(), configs.size() * 2 * 2 * 2 * 2);
  // Every instance has a best.
  for (const Instance& inst : ds.instances()) {
    EXPECT_GT(ds.best(inst).time_us, 0.0);
  }
}

TEST(Generator, DeterministicInSeed) {
  DatasetSpec spec = dataset_spec("d2");
  spec.nodes = {2};
  spec.ppns = {2};
  spec.msizes = {256};
  spec.budget = {.max_reps = 2, .budget_us = 1e9};
  const Dataset a = generate_dataset(spec);
  const Dataset b = generate_dataset(spec);
  ASSERT_EQ(a.num_records(), b.num_records());
  for (std::size_t i = 0; i < a.num_records(); ++i) {
    EXPECT_DOUBLE_EQ(a.records()[i].time_us, b.records()[i].time_us);
  }
}

/// Several allocations and every Open MPI Bcast uid, including the
/// segmented ones at 64 segments (64 KiB in 1 KiB segments).
DatasetSpec fanout_spec() {
  DatasetSpec spec = dataset_spec("d1");
  spec.name = "fanout";
  spec.nodes = {2, 5, 3};
  spec.ppns = {1, 2};
  spec.msizes = {16, 65536};
  spec.budget = {.max_reps = 3, .budget_us = 1e9};
  return spec;
}

std::string csv_bytes(const Dataset& ds, const std::string& tag) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("mpicp_fanout_" + tag + ".csv");
  ds.save_csv(path);
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  std::filesystem::remove(path);
  return os.str();
}

// The fan-out must not show: at 1, 2 and 4 threads the CSV bytes and
// the generation counters are identical, and progress is reported from
// the calling thread only, never decreasing, ending at (total, total).
TEST(Generator, OutputIsIdenticalAtEveryThreadCount) {
  namespace metrics = support::metrics;
  const DatasetSpec spec = fanout_spec();
  const std::size_t total = spec.nodes.size() * spec.ppns.size() *
                            spec.msizes.size() *
                            sim::algorithm_configs(spec.lib, spec.coll).size();
  std::string serial_csv;
  std::pair<std::uint64_t, std::uint64_t> serial_counts;
  for (const int t : {1, 2, 4}) {
    const support::ScopedThreads threads(t);
    const std::uint64_t runs0 = metrics::counter("collbench.des_runs").value();
    const std::uint64_t msgs0 = metrics::counter("sim.messages").value();
    const auto caller = std::this_thread::get_id();
    std::mutex mu;  // guards calls; a contract violation must not race
    std::vector<std::pair<std::size_t, std::size_t>> calls;
    bool foreign_thread = false;
    const Dataset ds =
        generate_dataset(spec, [&](std::size_t done, std::size_t all) {
          const std::lock_guard<std::mutex> lock(mu);
          foreign_thread =
              foreign_thread || std::this_thread::get_id() != caller;
          calls.emplace_back(done, all);
        });
    const std::string csv = csv_bytes(ds, std::to_string(t));
    const std::pair<std::uint64_t, std::uint64_t> counts{
        metrics::counter("collbench.des_runs").value() - runs0,
        metrics::counter("sim.messages").value() - msgs0};

    EXPECT_FALSE(foreign_thread) << "threads=" << t;
    ASSERT_FALSE(calls.empty());
    for (std::size_t i = 0; i < calls.size(); ++i) {
      EXPECT_EQ(calls[i].second, total);
      if (i > 0) {
        EXPECT_GE(calls[i].first, calls[i - 1].first);
      }
    }
    EXPECT_EQ(calls.back(), std::make_pair(total, total));
    if (t == 1) {
      serial_csv = csv;
      serial_counts = counts;
      EXPECT_GT(csv.size(), total * 20);  // a header plus a row per run
      EXPECT_EQ(counts.first, total);
      EXPECT_GT(counts.second, total);  // most runs send several messages
    } else {
      EXPECT_EQ(csv, serial_csv) << "threads=" << t;
      EXPECT_EQ(counts, serial_counts) << "threads=" << t;
    }
  }
}

TEST(Dataset, BestIsTheLowestUidArgminOfMedians) {
  DatasetSpec spec = fanout_spec();
  spec.nodes = {2, 3};
  const Dataset gen = generate_dataset(spec);

  // Plant ties: at every instance, give one more uid exactly the
  // winner's samples, alternately a uid below and above the winner.
  using Key = std::tuple<int, int, int, std::uint64_t>;
  std::map<Key, std::vector<double>> samples;
  for (const Record& r : gen.records()) {
    samples[{r.uid, r.nodes, r.ppn, r.msize}].push_back(r.time_us);
  }
  const std::vector<int> uids = gen.uids();
  const std::vector<Instance> instances = gen.instances();
  std::size_t planted = 0;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Instance& in = instances[i];
    const int winner = gen.best(in).uid;
    const auto at = std::find(uids.begin(), uids.end(), winner);
    const bool below = i % 2 == 0 && at != uids.begin();
    const int twin = below ? *(at - 1) : (at + 1 != uids.end() ? *(at + 1) : 0);
    if (twin == 0) continue;
    samples[{twin, in.nodes, in.ppn, in.msize}] =
        samples[{winner, in.nodes, in.ppn, in.msize}];
    ++planted;
  }
  ASSERT_GE(planted, instances.size() - 1);
  Dataset ds("ties", spec.lib, spec.coll, spec.machine);
  for (const auto& [key, times] : samples) {
    const auto& [uid, n, ppn, m] = key;
    for (const double t : times) ds.add({uid, n, ppn, m, t});
  }

  for (const Instance& in : ds.instances()) {
    int want_uid = 0;
    double want_time = 0.0;
    for (const auto& [key, times] : samples) {  // ascending uid
      const auto& [uid, n, ppn, m] = key;
      if (n != in.nodes || ppn != in.ppn || m != in.msize) continue;
      const double med = support::median(times);
      if (want_uid == 0 || med < want_time) {
        want_uid = uid;
        want_time = med;
      }
    }
    const Dataset::Best got = ds.best(in);
    EXPECT_EQ(got.uid, want_uid)
        << in.nodes << "x" << in.ppn << " m=" << in.msize;
    EXPECT_EQ(got.time_us, want_time);
  }
}

TEST(Defaults, OpenMpiFixedRulesAreStable) {
  const auto logic = make_openmpi_default(sim::Collective::kBcast);
  EXPECT_EQ(logic->name(), "openmpi-fixed");
  const int small = logic->select_uid({8, 4, 64});
  const int large = logic->select_uid({8, 4, 4u << 20});
  EXPECT_NE(small, large);
  // Small messages: binomial family (alg 6 in the registry).
  const auto& cfg = sim::config_by_uid(sim::MpiLib::kOpenMPI,
                                       sim::Collective::kBcast, small);
  EXPECT_EQ(cfg.alg_id, 6);
}

TEST(Defaults, OpenMpiDecisionCoversAllCollectives) {
  for (const auto coll : {sim::Collective::kBcast,
                          sim::Collective::kAllreduce,
                          sim::Collective::kAlltoall}) {
    for (const std::uint64_t m : standard_msizes()) {
      for (const int p : {2, 16, 256, 1024}) {
        const int uid = sim::openmpi_default_uid(coll, p, m);
        EXPECT_NO_THROW(
            sim::config_by_uid(sim::MpiLib::kOpenMPI, coll, uid));
      }
    }
  }
}

TEST(Defaults, IntelTunedTablePicksGridBest) {
  Dataset ds("t", sim::MpiLib::kIntelMPI, sim::Collective::kAllreduce,
             "Hydra");
  // Two uids; uid 2 faster at (4, 2, 64), uid 1 faster at (4, 2, 1024).
  ds.add({1, 4, 2, 64, 20.0});
  ds.add({2, 4, 2, 64, 10.0});
  ds.add({1, 4, 2, 1024, 30.0});
  ds.add({2, 4, 2, 1024, 60.0});
  const auto logic = make_intel_default(ds, {4});
  EXPECT_EQ(logic->select_uid({4, 2, 64}), 2);
  EXPECT_EQ(logic->select_uid({4, 2, 1024}), 1);
  // Off-grid instances snap to the nearest grid point.
  EXPECT_EQ(logic->select_uid({5, 2, 100}), 2);
  EXPECT_EQ(logic->select_uid({7, 2, 2000}), 1);
}

}  // namespace
}  // namespace mpicp::bench
