// The four workloads. Each runs whole timed rounds for the configured
// seconds (one traced round), times its set-up several times (once
// traced), checks the program's outputs outside the timed phases, and
// fills the Report. With the tracer on, each also records its per-layer metrics.
#pragma once

#include <algorithm>
#include <cstdint>
#include <exception>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "collbench/dataset.hpp"
#include "harness.hpp"
#include "simmpi/coll/registry.hpp"

namespace perfbench {

void run_campaign(const RunConfig& cfg, Tracer& tracer, Report& report);
void run_table4(const RunConfig& cfg, Tracer& tracer, Report& report);
void run_serve(const RunConfig& cfg, Tracer& tracer, Report& report);
void run_retrain(const RunConfig& cfg, Tracer& tracer, Report& report);

/// Set-up repetitions per untraced run of serve, whose 0.5 s set-up fits
/// and distils its banks; setup_s is their median.
inline constexpr int kSetupReps = 5;

/// The other workloads set up again before every round, so that their
/// set-up samples span the run as the rounds do: the host's speed flips
/// between states every few hundred ms, and back-to-back set-ups at the
/// start of a run read one state. The 30 ms set-ups (campaign, table4)
/// run as a batch of this many per sample; retrain's 0.3 s set-up once.
inline constexpr int kSetupBatch = 5;

/// Run `set_up` `reps` times back to back and record the mean time of one.
template <typename SetUp>
void timed_set_ups(const SetUp& set_up, int reps, std::vector<double>& out) {
  const std::uint64_t t0 = now_ns();
  for (int r = 0; r < reps; ++r) set_up();
  out.push_back(seconds_since(t0) / reps);
}

/// Seeded generator of the benchmark's own inputs (query orders,
/// samples, query floods); independent of the program's RNGs.
inline std::mt19937_64 input_rng(std::uint64_t seed, std::uint64_t stream) {
  std::seed_seq seq{seed, stream, std::uint64_t{0x9e3779b97f4a7c15}};
  return std::mt19937_64(seq);
}

/// `repeats` copies of 0..n-1 in seeded random order.
std::vector<std::uint32_t> query_order(std::size_t n, int repeats,
                                       std::mt19937_64& rng);

/// True when `uid` names a configuration of (lib, coll).
bool valid_uid(mpicp::sim::MpiLib lib, mpicp::sim::Collective coll, int uid);

/// A seeded off-grid instance: message size log-uniform in 1 B..4 MiB,
/// nodes and ppn drawn from the given grids.
mpicp::bench::Instance random_instance(std::mt19937_64& rng,
                                       std::span<const int> nodes,
                                       std::span<const int> ppns);

/// Answer `queries[order[i]]` one call at a time, timing batches of
/// `batch` consecutive selections into `samples` (and, traced, one span
/// per batch named `span`). Picks land in `picks[i]`; a call that throws
/// yields -1 and counts as a failed selection.
template <typename SelectFn>
void timed_selections(std::span<const mpicp::bench::Instance> queries,
                      std::span<const std::uint32_t> order, std::size_t batch,
                      const SelectFn& select, SelectSamples& samples,
                      std::vector<int>& picks, Tracer& tracer,
                      const char* span, OpCount& ops) {
  picks.assign(order.size(), -1);
  for (std::size_t lo = 0; lo < order.size(); lo += batch) {
    const std::size_t hi = std::min(order.size(), lo + batch);
    Tracer::Span s(tracer, span, hi - lo);
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = lo; i < hi; ++i) {
      try {
        picks[i] = select(queries[order[i]]);
      } catch (const std::exception&) {
        picks[i] = -1;
      }
    }
    samples.add_batch(now_ns() - t0, hi - lo);
  }
  ops.attempted += order.size();
  for (const int pick : picks) ops.failed += pick <= 0 ? 1 : 0;
}

/// Span totals as a per-item time: total duration / items covered.
double ns_per_item(const Tracer& tracer, const std::string& name);
/// Span totals as the mean duration of one span, in seconds.
double mean_span_s(const Tracer& tracer, const std::string& name);

}  // namespace perfbench
