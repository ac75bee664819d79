// mpicp_perfbench: one workload per process.
//
//   mpicp_perfbench --workload <campaign|table4|serve|retrain> --seed <n>
//                   --seconds <s> --trace <0|1> [--data <dir>] [--out <dir>]
//                   [--git-sha <sha>]
//
// --trace 0 runs the named workload with every span off and prints the
// end-to-end metrics. --trace 1 runs one traced set-up and round of
// every workload and prints the per-layer metrics. Either way the last
// line of standard output is one JSON object: correct, attempted, failed
// and metrics.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>

#include "harness.hpp"
#include "support/parallel.hpp"
#include "support/trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Workload {
  const char* name;
  void (*run)(const RunConfig&, Tracer&, Report&);
};

constexpr Workload kWorkloads[] = {
    {"campaign", run_campaign},
    {"table4", run_table4},
    {"serve", run_serve},
    {"retrain", run_retrain},
};

int usage() {
  std::fprintf(stderr,
               "usage: mpicp_perfbench --workload <campaign|table4|serve|"
               "retrain> --seed <n> --seconds <s> --trace <0|1> "
               "[--data <dir>] [--out <dir>] [--git-sha <sha>]\n");
  return 2;
}

void add_ops(OpCount& into, const OpCount& from) {
  into.attempted += from.attempted;
  into.failed += from.failed;
}

void print_metric(std::string& json, const std::string& name, double value,
                  const std::string& unit) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  json += (json.empty() ? "" : ", ") + std::string("\"") + name +
          "\": {\"value\": " + buf + ", \"unit\": \"" + unit + "\"}";
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string git_sha = "unknown";
  RunConfig cfg;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--data") {
      cfg.data_dir = value;
    } else if (flag == "--out") {
      cfg.out_dir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      return usage();
    }
  }
  const Workload* selected = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload == w.name) selected = &w;
  }
  if (selected == nullptr || (trace != 0 && trace != 1) ||
      !(cfg.seconds > 0.0) || argc % 2 == 0) {
    return usage();
  }
  cfg.pool_threads = std::min(2, mpicp::support::hardware_threads());

  // The program's own spans stay off in every run; the traced run records
  // the benchmark's spans around the calls into each layer.
  const mpicp::support::trace::ScopedEnabled program_spans(false);
  std::printf("# host: nproc=%u compiler=\"%s\" build=%s git=%s pool=%d\n",
              std::thread::hardware_concurrency(), __VERSION__,
              MPICP_PERFBENCH_BUILD_TYPE, git_sha.c_str(), cfg.pool_threads);
  std::printf("# run: workload=%s seed=%llu seconds=%g trace=%d\n",
              selected->name, static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, trace);

  Report total;
  try {
    if (trace == 0) {
      Tracer off(false);
      selected->run(cfg, off, total);
    } else {
      for (const Workload& w : kWorkloads) {
        Tracer tracer(true);
        Report r;
        w.run(cfg, tracer, r);
        tracer.write_chrome_trace(cfg.out_dir /
                                  (std::string("trace-") + w.name + ".json"));
        std::printf("# traced round of %s: %.6f s (set-up %.6f s)\n", w.name,
                    r.run_s.front(), r.setup_s.front());
        for (const auto& [k, v] : r.layers) total.layers[k] = v;
        for (const auto& f : r.failures) total.check(false, f);
        for (const auto& n : r.notes) total.note(n);
        add_ops(total.selections, r.selections);
        add_ops(total.fits, r.fits);
        add_ops(total.refits, r.refits);
        add_ops(total.des_runs, r.des_runs);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mpicp_perfbench: %s\n", e.what());
    return 1;
  }

  for (const auto& n : total.notes) std::printf("# %s\n", n.c_str());
  const OpCount* kinds[] = {&total.selections, &total.fits, &total.refits,
                            &total.des_runs};
  const char* kind_names[] = {"selections", "fits", "refits", "des_runs"};
  OpCount all;
  std::printf("# operations (attempted/failed):");
  for (int k = 0; k < 4; ++k) {
    std::printf(" %s %llu/%llu", kind_names[k],
                static_cast<unsigned long long>(kinds[k]->attempted),
                static_cast<unsigned long long>(kinds[k]->failed));
    add_ops(all, *kinds[k]);
  }
  std::printf("\n");

  std::string metrics;
  if (trace == 0) {
    const auto& s = total.select;
    std::printf("# samples: setups %zu, rounds %zu, selection batches %zu\n",
                total.setup_s.size(), total.run_s.size(),
                static_cast<std::size_t>(s.batches));
    if (const auto cells = s.cell_p50s(); cells.size() > 1) {
      std::printf("# select p50 per cell (ns):");
      for (const double x : cells) std::printf(" %.0f", x);
      std::printf("\n");
    }
    for (const auto& [name, xs] :
         {std::pair{"setup_s", &total.setup_s}, std::pair{"run_s", &total.run_s},
          std::pair{"tune_s", &total.tune_s}}) {
      std::printf("# %s:", name);
      for (const double x : *xs) std::printf(" %.4f", x);
      std::printf("\n");
    }
    // Each round's p99 needs at least ten samples beyond it.
    total.check(s.min_round_samples() >= 1000,
                "at least 1000 selection batch samples per round for the p99");
    print_metric(metrics, "setup_s", median(total.setup_s), "s");
    print_metric(metrics, "run_s", median(total.run_s), "s");
    print_metric(metrics, "tune_s", median(total.tune_s), "s");
    print_metric(metrics, "regret", total.regret, "ratio");
    print_metric(metrics, "select_p50_ns", s.p50(), "ns");
    print_metric(metrics, "select_p99_ns", s.p99(), "ns");
    print_metric(metrics, "select_qps",
                 static_cast<double>(s.selections) /
                     (static_cast<double>(s.wall_ns) * 1e-9),
                 "1/s");
    print_metric(metrics, "peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    for (const auto& [name, v] : total.layers) {
      print_metric(metrics, name, v.first, v.second);
    }
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      total.correct ? "true" : "false",
      static_cast<unsigned long long>(all.attempted),
      static_cast<unsigned long long>(all.failed), metrics.c_str());
  return 0;
}
