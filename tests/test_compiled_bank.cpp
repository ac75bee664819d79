// Equivalence and serving tests for the compiled model bank
// (tune/compiled_bank.hpp): the lowered SoA form must reproduce the
// interpreted Selector bit for bit — for every learner, at every thread
// count, under fault injection — while adding batched selection, a
// memoized cache and a save/load round trip of its own.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "collbench/dataset.hpp"
#include "ml/flatten.hpp"
#include "ml/forest.hpp"
#include "ml/gam.hpp"
#include "ml/gbt.hpp"
#include "ml/io.hpp"
#include "ml/matrix.hpp"
#include "support/faultinject.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "tune/compiled_bank.hpp"
#include "tune/selector.hpp"

namespace mpicp {
namespace {

namespace fi = support::faultinject;
namespace metrics = support::metrics;

/// Seeded synthetic dataset: 3-6 algorithms with distinct random cost
/// models over a random grid (same recipe as the property suite; every
/// draw is fully determined by the seed).
bench::Dataset random_dataset(std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  bench::Dataset ds("compiled", sim::MpiLib::kOpenMPI,
                    sim::Collective::kBcast, "Hydra");
  const int num_uids = 3 + static_cast<int>(rng.uniform_int(4));
  const std::vector<int> nodes = {2, 4, 8, 16};
  const std::vector<int> ppns = {1, 1 + static_cast<int>(rng.uniform_int(8))};
  const std::vector<std::uint64_t> msizes = {
      std::uint64_t{1} << rng.uniform_int(8),
      std::uint64_t{1} << (8 + rng.uniform_int(8)),
      std::uint64_t{1} << (16 + rng.uniform_int(6))};
  for (int uid = 1; uid <= num_uids; ++uid) {
    const double a = rng.uniform(1.0, 50.0);
    const double b = rng.uniform(0.0, 5.0);
    const double c = rng.uniform(1e-4, 1e-2);
    for (const int n : nodes) {
      for (const int ppn : ppns) {
        for (const std::uint64_t m : msizes) {
          const double p = static_cast<double>(n) * ppn;
          const double t = a * std::log2(p + 1) + b * p +
                           c * static_cast<double>(m) + 1.0;
          for (int rep = 0; rep < 3; ++rep) {
            ds.add({uid, n, ppn, m, rng.lognormal_median(t, 0.08)});
          }
        }
      }
    }
  }
  return ds;
}

std::vector<bench::Instance> random_instances(std::uint64_t seed,
                                              int count) {
  support::Xoshiro256 rng(seed);
  std::vector<bench::Instance> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    out.push_back({1 + static_cast<int>(rng.uniform_int(64)),
                   1 + static_cast<int>(rng.uniform_int(16)),
                   std::uint64_t{1} << rng.uniform_int(22)});
  }
  return out;
}

constexpr const char* kAllLearners[] = {"xgboost", "rf",     "knn",
                                        "gam",     "linear", "median"};

/// Exact (bit-level) equality of interpreted vs compiled predictions on
/// one instance. EXPECT_EQ on doubles is deliberate: the compiled bank
/// promises the same arithmetic, not merely close arithmetic.
void expect_identical(const tune::Selector& selector,
                      const tune::CompiledBank& bank,
                      const bench::Instance& inst) {
  const auto interpreted = selector.predict_all(inst);
  const auto compiled = bank.predict_all(inst);
  ASSERT_EQ(interpreted.size(), compiled.size());
  for (std::size_t i = 0; i < interpreted.size(); ++i) {
    EXPECT_EQ(interpreted[i].uid, compiled[i].uid);
    EXPECT_EQ(interpreted[i].usable, compiled[i].usable);
    EXPECT_EQ(interpreted[i].time_us, compiled[i].time_us)
        << "uid " << interpreted[i].uid << " at m=" << inst.msize
        << " n=" << inst.nodes << " ppn=" << inst.ppn;
  }
}

// ---- bit-identity across learners, seeds and thread counts ---------------

class CompiledEquivalence
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CompiledEquivalence, EveryLearnerBitIdenticalAtEveryThreadCount) {
  const std::uint64_t seed = GetParam();
  const bench::Dataset ds = random_dataset(seed);
  const auto instances = random_instances(seed ^ 0xabcdef, 24);
  for (const char* learner : kAllLearners) {
    tune::Selector selector(tune::SelectorOptions{.learner = learner});
    ASSERT_GT(selector.fit(ds, ds.node_counts()).uids_total(), 0u)
        << learner;
    const tune::CompiledBank bank = selector.compile();
    ASSERT_EQ(bank.uids(), selector.uids()) << learner;
    for (const int threads : {1, 4}) {
      support::ScopedThreads scoped(threads);
      for (const bench::Instance& inst : instances) {
        expect_identical(selector, bank, inst);
        EXPECT_EQ(selector.select_uid(inst), bank.select_uid(inst))
            << learner << " @" << threads << " threads";
      }
      // The batched grid path agrees with per-instance selection.
      const std::vector<int> picked = bank.select_grid(instances);
      ASSERT_EQ(picked.size(), instances.size());
      for (std::size_t i = 0; i < instances.size(); ++i) {
        EXPECT_EQ(picked[i], selector.select_uid(instances[i]))
            << learner << " grid[" << i << "] @" << threads;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledEquivalence,
                         ::testing::Values(11u, 23u, 47u));

// ---- fault-injection equivalence -----------------------------------------

TEST(CompiledBank, ForcedPredictionsMatchInterpretedPath) {
  const bench::Dataset ds = random_dataset(5);
  tune::Selector selector(tune::SelectorOptions{.learner = "knn"});
  ASSERT_GT(selector.fit(ds, ds.node_counts()).uids_total(), 2u);
  const tune::CompiledBank bank = selector.compile();
  const std::vector<int> uids = selector.uids();
  const bench::Instance inst{8, 4, 4096};

  // Poison one uid: both paths must exclude it identically.
  {
    fi::ScopedFaults faults(
        {.forced_predictions = {{uids.front(), -1.0}}});
    expect_identical(selector, bank, inst);
    EXPECT_EQ(selector.select_uid(inst), bank.select_uid(inst));
  }
  // Poison every uid: both paths must degrade to the library default.
  {
    fi::Faults faults;
    for (const int uid : uids) {
      faults.forced_predictions[uid] = std::nan("");
    }
    fi::ScopedFaults scoped(std::move(faults));
    const int interpreted = selector.select_uid_or_default(
        inst, sim::MpiLib::kOpenMPI, sim::Collective::kBcast);
    const int compiled = bank.select_uid_or_default(
        inst, sim::MpiLib::kOpenMPI, sim::Collective::kBcast);
    EXPECT_EQ(interpreted, compiled);
  }
}

// ---- blocked batched layout vs legacy fused argmin ------------------------

TEST(CompiledBankLayouts, BatchedGridAndBothEnvelopesMatchLegacyArgmin) {
  const bench::Dataset ds = random_dataset(19);
  std::vector<bench::Instance> grid = ds.instances();
  const std::vector<bench::Instance> off = random_instances(57, 48);
  grid.insert(grid.end(), off.begin(), off.end());

  for (const char* learner : kAllLearners) {
    tune::Selector selector(tune::SelectorOptions{.learner = learner});
    ASSERT_GT(selector.fit(ds, ds.node_counts()).uids_total(), 0u)
        << learner;
    const tune::CompiledBank bank = selector.compile();

    // Both envelope versions load: v1 is the PR 8 format byte-for-byte,
    // v2 nests the blocked flatbank geometry. Each re-lowers its
    // blocked form on load.
    namespace fs = std::filesystem;
    const fs::path p1 = fs::temp_directory_path() /
                        (std::string("mpicp_cb_v1_") + learner + ".txt");
    const fs::path p2 = fs::temp_directory_path() /
                        (std::string("mpicp_cb_v2_") + learner + ".txt");
    bank.save(p1, 1);
    bank.save(p2, 2);
    const tune::CompiledBank v1 = tune::CompiledBank::load(p1);
    const tune::CompiledBank v2 = tune::CompiledBank::load(p2);
    fs::remove(p1);
    fs::remove(p2);

    std::vector<int> batched(grid.size(), 0);
    for (const int threads : {1, 4}) {
      support::ScopedThreads scoped(threads);
      const std::vector<int> legacy = bank.select_grid_legacy(grid);
      bank.select_grid_into(grid, batched);
      ASSERT_EQ(legacy.size(), grid.size());
      for (std::size_t i = 0; i < grid.size(); ++i) {
        ASSERT_EQ(batched[i], legacy[i])
            << learner << " batched argmin @" << threads << " threads, m="
            << grid[i].msize << " n=" << grid[i].nodes
            << " ppn=" << grid[i].ppn;
      }
      EXPECT_EQ(v1.select_grid(grid), legacy)
          << learner << " v1 envelope @" << threads << " threads";
      EXPECT_EQ(v2.select_grid(grid), legacy)
          << learner << " v2 envelope @" << threads << " threads";
    }
  }
}

TEST(CompiledBankLayouts, BatchedGridHonorsFaultInjection) {
  const bench::Dataset ds = random_dataset(19);
  const std::vector<bench::Instance> grid = ds.instances();
  for (const char* learner : {"xgboost", "rf"}) {
    tune::Selector selector(tune::SelectorOptions{.learner = learner});
    ASSERT_GT(selector.fit(ds, ds.node_counts()).uids_total(), 2u)
        << learner;
    const tune::CompiledBank bank = selector.compile();
    const std::vector<int> uids = selector.uids();

    // Poison one uid: the batched path must exclude it exactly like the
    // legacy fused walk does.
    fi::ScopedFaults faults({.forced_predictions = {{uids.front(), -1.0}}});
    const std::vector<int> legacy = bank.select_grid_legacy(grid);
    const std::vector<int> batched = bank.select_grid(grid);
    EXPECT_EQ(batched, legacy) << learner;
    for (const int pick : batched) {
      EXPECT_NE(pick, uids.front()) << learner;
    }
  }
}

// ---- selection cache ------------------------------------------------------

TEST(CompiledBank, SelectionCacheCountsHitsAndMisses) {
  const bench::Dataset ds = random_dataset(7);
  tune::Selector selector(tune::SelectorOptions{.learner = "gam"});
  ASSERT_GT(selector.fit(ds, ds.node_counts()).uids_total(), 0u);
  tune::CompiledBank bank = selector.compile();
  EXPECT_FALSE(bank.cache_enabled());

  bank.set_cache_enabled(true);
  const std::uint64_t hits0 =
      metrics::counter("compiled.cache.hits").value();
  const std::uint64_t misses0 =
      metrics::counter("compiled.cache.misses").value();

  const bench::Instance a{8, 4, 1024};
  const bench::Instance b{16, 2, 65536};
  const int first = bank.select_uid(a);
  EXPECT_EQ(bank.select_uid(a), first);   // hit
  EXPECT_EQ(bank.select_uid(a), first);   // hit
  (void)bank.select_uid(b);               // second distinct key: miss

  const auto stats = bank.cache_stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(metrics::counter("compiled.cache.hits").value() - hits0, 2u);
  EXPECT_EQ(metrics::counter("compiled.cache.misses").value() - misses0,
            2u);

  // Cached answers are the same answers.
  bank.set_cache_enabled(false);
  EXPECT_EQ(bank.cache_stats().hits, 0u);  // transition clears stats
  EXPECT_EQ(bank.select_uid(a), first);
}

TEST(CompiledBank, CachedGridSelectionMatchesUncached) {
  const bench::Dataset ds = random_dataset(9);
  tune::Selector selector(tune::SelectorOptions{.learner = "rf"});
  ASSERT_GT(selector.fit(ds, ds.node_counts()).uids_total(), 0u);
  tune::CompiledBank bank = selector.compile();

  // A grid with repeated instances: the memo must not change answers.
  auto grid = random_instances(31, 12);
  const auto repeats = grid;
  grid.insert(grid.end(), repeats.begin(), repeats.end());
  const std::vector<int> uncached = bank.select_grid(grid);
  bank.set_cache_enabled(true);
  const std::vector<int> cached = bank.select_grid(grid);
  EXPECT_EQ(uncached, cached);
  const auto stats = bank.cache_stats();
  EXPECT_EQ(stats.hits + stats.misses, grid.size());
  EXPECT_LE(stats.misses, repeats.size());  // every repeat is a hit
}

// ---- save / load round trip ----------------------------------------------

TEST(CompiledBank, SaveLoadRoundTripIsExact) {
  const bench::Dataset ds = random_dataset(13);
  const auto instances = random_instances(17, 16);
  for (const char* learner : kAllLearners) {
    tune::Selector selector(tune::SelectorOptions{.learner = learner});
    ASSERT_GT(selector.fit(ds, ds.node_counts()).uids_total(), 0u)
        << learner;
    const tune::CompiledBank bank = selector.compile();

    const std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        (std::string("mpicp_compiled_bank_") + learner + ".txt");
    bank.save(path);
    const tune::CompiledBank loaded = tune::CompiledBank::load(path);
    std::filesystem::remove(path);

    EXPECT_EQ(loaded.uids(), bank.uids()) << learner;
    for (const bench::Instance& inst : instances) {
      const auto before = bank.predict_all(inst);
      const auto after = loaded.predict_all(inst);
      ASSERT_EQ(before.size(), after.size());
      for (std::size_t i = 0; i < before.size(); ++i) {
        EXPECT_EQ(before[i].time_us, after[i].time_us)
            << learner << " uid " << before[i].uid;
        EXPECT_EQ(before[i].usable, after[i].usable);
      }
    }
  }
}

// ---- incremental lowering of a mixed flat bank ---------------------------

// Feature layout of the flat-bank probes: (log2 m, nodes, ppn) on a grid
// and seven uniform noise columns. A model that splits on column 9 (past
// the rank-cell table's eight features) serves through the blocked walk;
// the fitted models here all get tables, so hand-built ensembles below
// cover the blocked walk.
constexpr std::size_t kFlatDim = 10;

ml::Matrix flat_grid_features(std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  const std::vector<int> nodes = {2, 4, 8, 16};
  const std::vector<int> ppns = {1, 2, 4};
  ml::Matrix x(nodes.size() * ppns.size() * 8, kFlatDim);
  std::size_t r = 0;
  for (const int n : nodes) {
    for (const int ppn : ppns) {
      for (int e = 0; e < 22; e += 3) {
        const auto row = x.row(r++);
        row[0] = e;
        row[1] = n;
        row[2] = ppn;
        for (std::size_t f = 3; f < kFlatDim; ++f) row[f] = rng.uniform();
      }
    }
  }
  return x;
}

/// Positive synthetic runtimes; `k` varies the cost model per model, and
/// `use_noise` makes column 9 matter.
std::vector<double> flat_targets(const ml::Matrix& x, int k, bool use_noise) {
  std::vector<double> y(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const auto row = x.row(i);
    const double p = row[1] * row[2];
    y[i] = (1.0 + (1.0 + 0.3 * k) * std::log2(p + 1) +
            (0.01 + 0.002 * k) * std::exp2(row[0]) / p) *
           (use_noise ? 1.0 + 4.0 * row[9] : 1.0);
  }
  return y;
}

/// Probe vectors: every training row, off-grid sizes and allocations,
/// NaN / infinite values in each feature, and an all-NaN vector.
std::vector<std::vector<double>> flat_probes(const ml::Matrix& train) {
  std::vector<std::vector<double>> out;
  for (std::size_t i = 0; i < train.rows(); ++i) {
    out.emplace_back(train.row(i).begin(), train.row(i).end());
  }
  support::Xoshiro256 rng(77);
  for (int i = 0; i < 32; ++i) {
    std::vector<double> v(kFlatDim);
    v[0] = rng.uniform(-2.0, 25.0);  // off-grid log2 sizes
    v[1] = 1.0 + static_cast<double>(rng.uniform_int(40));
    v[2] = 1.0 + static_cast<double>(rng.uniform_int(8));
    for (std::size_t f = 3; f < kFlatDim; ++f) v[f] = rng.uniform();
    out.push_back(v);
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (std::size_t f = 0; f < kFlatDim; ++f) {
    for (const double bad : {nan, inf, -inf}) {
      std::vector<double> v(train.row(5).begin(), train.row(5).end());
      v[f] = bad;
      out.push_back(v);
    }
  }
  std::vector<double> all_nan(kFlatDim, nan);
  out.push_back(all_nan);
  return out;
}

/// Appends one random tree in preorder (the RegressionTree layout):
/// splits on features [0, max_feature) at one of `thresholds` evenly
/// spaced values across the feature's range, leaves appearing from
/// depth 2 on.
void random_tree_nodes(support::Xoshiro256& rng, int depth, int max_depth,
                       int max_feature, int thresholds,
                       std::vector<std::array<double, 6>>& nodes) {
  const std::size_t self = nodes.size();
  nodes.push_back({-1, 0.0, -1, -1, rng.uniform(-1.0, 1.0), 0.0});
  if (depth >= max_depth || (depth >= 2 && rng.uniform() < 0.15)) return;
  const auto f = rng.uniform_int(max_feature);
  const double scale = f < 3 ? 24.0 : 1.0;  // grid columns span ~0..24
  nodes[self][0] = static_cast<double>(f);
  nodes[self][1] =
      scale * static_cast<double>(rng.uniform_int(thresholds)) / thresholds;
  nodes[self][2] = static_cast<double>(nodes.size());
  random_tree_nodes(rng, depth + 1, max_depth, max_feature, thresholds,
                    nodes);
  nodes[self][3] = static_cast<double>(nodes.size());
  random_tree_nodes(rng, depth + 1, max_depth, max_feature, thresholds,
                    nodes);
}

/// A squared-loss GBT with hand-built random trees, loaded through its
/// text format. Fitted ensembles on grid data always get a rank-cell
/// table; these do not (a feature past the table's eight, or too many
/// cells), so the blocked walk is exercised on its own, both on trees
/// that fit the block and on trees that spill into the node pool.
std::unique_ptr<ml::Regressor> random_deep_gbt(std::uint64_t seed,
                                               int max_feature,
                                               int thresholds) {
  support::Xoshiro256 rng(seed);
  std::stringstream text;
  ml::io::write_tag(text, "gbt");
  ml::io::write_value(text, static_cast<int>(ml::GbtObjective::kSquared));
  ml::io::write_value(text, 1.5);
  ml::io::write_value(text, static_cast<int>(kFlatDim));
  ml::io::write_value(text, 0.25);
  constexpr std::size_t kTrees = 6;
  ml::io::write_value(text, kTrees);
  std::vector<std::array<double, 6>> nodes;
  for (std::size_t t = 0; t < kTrees; ++t) {
    nodes.clear();
    // Odd trees fit inside the block; even ones spill past it.
    random_tree_nodes(rng, 0, t % 2 == 1 ? 6 : 11, max_feature,
                      thresholds, nodes);
    ml::io::write_tag(text, "tree");
    ml::io::write_value(text, nodes.size());
    for (const auto& n : nodes) {
      ml::io::write_value(text, static_cast<int>(n[0]));
      ml::io::write_value(text, n[1]);
      ml::io::write_value(text, static_cast<int>(n[2]));
      ml::io::write_value(text, static_cast<int>(n[3]));
      ml::io::write_value(text, n[4]);
      ml::io::write_value(text, n[5]);
    }
  }
  auto gbt = std::make_unique<ml::GradientBoostedTrees>();
  gbt->load(text);
  return gbt;
}

TEST(FlatBank, IncrementalAddMatchesWholeLoadAndOneModelBanks) {
  const ml::Matrix x = flat_grid_features(3);
  std::vector<std::unique_ptr<ml::Regressor>> models;
  for (int k = 0; k < 10; ++k) {
    ml::GbtParams params;
    params.rounds = 40;
    if (k % 3 == 0) params.objective = ml::GbtObjective::kSquared;
    auto gbt = std::make_unique<ml::GradientBoostedTrees>(params);
    gbt->fit(x, flat_targets(x, k, k == 7));
    models.push_back(std::move(gbt));
    if (k % 3 == 1) {  // interleave GAMs between the tree ensembles
      auto gam = std::make_unique<ml::GamRegressor>();
      ml::Matrix grid_only(x.rows(), 3);
      for (std::size_t r = 0; r < x.rows(); ++r) {
        for (std::size_t f = 0; f < 3; ++f) grid_only.row(r)[f] = x.row(r)[f];
      }
      gam->fit(grid_only, flat_targets(x, k, false));
      models.push_back(std::move(gam));
    }
  }
  for (int k = 0; k < 3; ++k) {
    ml::ForestParams params;
    params.num_trees = 12;
    params.max_depth = 4 + 4 * k;  // deep trees spill past the block
    params.seed = 100 + k;
    auto rf = std::make_unique<ml::RandomForest>(params);
    rf->fit(x, flat_targets(x, 20 + k, k == 1));
    models.push_back(std::move(rf));
  }

  // Untabled ensembles between the tabled ones: one splits on column 9,
  // one has more threshold-rank cells than a table holds.
  models.insert(models.begin() + 4, random_deep_gbt(5, kFlatDim, 64));
  models.insert(models.begin() + 9, random_deep_gbt(6, 3, 4096));

  ml::FlatBank bank;
  for (const auto& model : models) (void)bank.add(*model);
  ASSERT_EQ(bank.size(), models.size());

  // save() -> load() lowers the whole bank at once; the saved bytes
  // survive the round trip unchanged.
  std::stringstream saved;
  bank.save(saved);
  ml::FlatBank loaded;
  loaded.load(saved);
  std::stringstream resaved;
  loaded.save(resaved);
  EXPECT_EQ(saved.str(), resaved.str());

  const auto probes = flat_probes(x);
  ml::FlatScratch s1;
  ml::FlatScratch s2;
  ml::FlatScratch s3;
  for (std::size_t i = 0; i < models.size(); ++i) {
    ml::FlatBank single;
    (void)single.add(*models[i]);
    for (std::size_t p = 0; p < probes.size(); ++p) {
      const std::span<const double> v(probes[p]);
      bank.begin_query(s1);
      loaded.begin_query(s2);
      single.begin_query(s3);
      const double got = bank.predict_one(i, v, s1);
      // The interpreted GAM reads one smoother per entry of its input.
      const std::span<const double> own =
          models[i]->name() == "gam" ? v.first(3) : v;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(models[i]->predict_one(own)))
          << "model " << i << " probe " << p;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(loaded.predict_one(i, v, s2)))
          << "model " << i << " probe " << p;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(single.predict_one(0, v, s3)))
          << "model " << i << " probe " << p;
      const double legacy = bank.predict_one_legacy(i, v, s1);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(legacy))
          << "model " << i << " probe " << p;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(legacy),
                std::bit_cast<std::uint64_t>(
                    loaded.predict_one_legacy(i, v, s2)))
          << "model " << i << " probe " << p;
    }
    if (!bank.is_tree_ensemble(i)) continue;
    ASSERT_TRUE(loaded.is_tree_ensemble(i));
    // Batched scoring, in kTreeBatch-wide slices of a packed matrix.
    std::vector<double> packed;
    for (const auto& v : probes) {
      packed.insert(packed.end(), v.begin(), v.end());
    }
    for (std::size_t b0 = 0; b0 < probes.size();
         b0 += ml::FlatBank::kTreeBatch) {
      const std::size_t count =
          std::min(ml::FlatBank::kTreeBatch, probes.size() - b0);
      double out_add[ml::FlatBank::kTreeBatch];
      double out_load[ml::FlatBank::kTreeBatch];
      bank.predict_tree_batch(i, packed.data() + b0 * kFlatDim, kFlatDim,
                              count, out_add, 1);
      loaded.predict_tree_batch(i, packed.data() + b0 * kFlatDim, kFlatDim,
                                count, out_load, 1);
      for (std::size_t b = 0; b < count; ++b) {
        bank.begin_query(s1);
        const double one = bank.predict_one(i, probes[b0 + b], s1);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(out_add[b]),
                  std::bit_cast<std::uint64_t>(one))
            << "model " << i << " probe " << b0 + b;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(out_add[b]),
                  std::bit_cast<std::uint64_t>(out_load[b]))
            << "model " << i << " probe " << b0 + b;
      }
    }
  }
}

// ---- contracts ------------------------------------------------------------

TEST(CompiledBank, CompilingAnUnfittedSelectorThrows) {
  tune::Selector selector;
  EXPECT_THROW((void)selector.compile(), std::exception);
}

TEST(CompiledBank, ServingFromAnEmptyBankThrows) {
  const tune::CompiledBank bank;
  EXPECT_THROW((void)bank.select_uid({4, 4, 1024}), std::exception);
  EXPECT_THROW((void)bank.predict_all({4, 4, 1024}), std::exception);
}

}  // namespace
}  // namespace mpicp
