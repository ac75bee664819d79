#include "collbench/generator.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "simnet/machine.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/trace.hpp"

namespace mpicp::bench {

Dataset generate_dataset(const DatasetSpec& spec,
                         const ProgressFn& progress) {
  MPICP_SPAN("collbench.generate");
  const sim::MachineDesc machine = sim::machine_by_name(spec.machine);
  const NoiseModel noise(spec.seed);
  const auto& configs = sim::algorithm_configs(spec.lib, spec.coll);

  // One task per (nodes, ppn, config), in the serial loop order. Each
  // task owns its Network (transfers mutate per-node state) and its
  // observation stream, so its results do not depend on which thread
  // runs it or when. Run i's observations (at most max_reps) land in
  // the fixed slice [i * max_reps, i * max_reps + counts[i]) of one
  // buffer the calling thread allocates, and are appended in run order
  // afterwards, which makes the dataset identical at any thread count.
  const std::size_t nconfigs = configs.size();
  const std::size_t nppns = spec.ppns.size();
  const std::size_t nmsizes = spec.msizes.size();
  const std::size_t ntasks = spec.nodes.size() * nppns * nconfigs;
  const std::size_t total = ntasks * nmsizes;
  const auto reps = static_cast<std::size_t>(spec.budget.max_reps);
  std::vector<double> observations(total * reps);
  std::vector<std::size_t> counts(total);
  std::vector<std::uint64_t> messages(ntasks);
  const auto allocation = [&](std::size_t t) {
    return std::pair<int, int>{spec.nodes[t / (nppns * nconfigs)],
                               spec.ppns[t / nconfigs % nppns]};
  };

  // Progress is reported from the calling thread only, so a callback
  // needs no locking; it sees the shared count, which only grows.
  const auto caller = std::this_thread::get_id();
  std::atomic<std::size_t> done{0};
  std::size_t reported = 0;  // calling thread only
  support::parallel_for(ntasks, 1, [&](std::size_t t) {
    const auto [n, ppn] = allocation(t);
    const sim::AlgoConfig& cfg = configs[t % nconfigs];
    sim::Network net(machine, n, ppn);
    // One deterministic observation stream per (config, allocation):
    // reproducible regardless of generation order.
    support::Xoshiro256 rng(support::hash_combine(
        {spec.seed, static_cast<std::uint64_t>(cfg.uid),
         static_cast<std::uint64_t>(n), static_cast<std::uint64_t>(ppn)}));
    for (std::size_t k = 0; k < nmsizes; ++k) {
      const std::uint64_t m = spec.msizes[k];
      const RunnerResult res = run_benchmark(
          net, spec.lib, spec.coll, cfg, m, noise, spec.budget, rng);
      const std::size_t run = t * nmsizes + k;
      std::copy(res.observations_us.begin(), res.observations_us.end(),
                observations.begin() + static_cast<std::ptrdiff_t>(run * reps));
      counts[run] = res.observations_us.size();
      messages[t] += res.num_messages;
      const std::size_t now = ++done;
      if (progress && std::this_thread::get_id() == caller &&
          now / 64 > reported / 64) {
        reported = now;
        progress(now, total);
      }
    }
  });

  Dataset ds(spec.name, spec.lib, spec.coll, spec.machine);
  ds.reserve(std::accumulate(counts.begin(), counts.end(), std::size_t{0}));
  for (std::size_t run = 0; run < total; ++run) {
    const std::size_t t = run / nmsizes;
    const auto [n, ppn] = allocation(t);
    const int uid = configs[t % nconfigs].uid;
    for (std::size_t j = 0; j < counts[run]; ++j) {
      ds.add({uid, n, ppn, spec.msizes[run % nmsizes],
              observations[run * reps + j]});
    }
  }
  const std::uint64_t sent =
      std::accumulate(messages.begin(), messages.end(), std::uint64_t{0});
  support::metrics::counter("collbench.des_runs").inc(total);
  support::metrics::counter("sim.messages").inc(sent);
  if (progress) progress(total, total);
  return ds;
}

Dataset load_or_generate(const DatasetSpec& spec,
                         const std::filesystem::path& data_dir,
                         const ProgressFn& progress) {
  const std::filesystem::path path = data_dir / (spec.name + ".csv");
  if (std::filesystem::exists(path)) {
    return Dataset::load_csv(path, spec.name, spec.lib, spec.coll,
                             spec.machine);
  }
  Dataset ds = generate_dataset(spec, progress);
  ds.save_csv(path);
  return ds;
}

std::filesystem::path default_data_dir() {
  if (const char* env = std::getenv("MPICP_DATA_DIR")) return env;
  return "data";
}

}  // namespace mpicp::bench
