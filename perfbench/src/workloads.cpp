#include "workloads.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::vector<std::uint32_t> query_order(std::size_t n, int repeats,
                                       std::mt19937_64& rng) {
  std::vector<std::uint32_t> order;
  order.reserve(n * static_cast<std::size_t>(repeats));
  for (int r = 0; r < repeats; ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      order.push_back(static_cast<std::uint32_t>(i));
    }
  }
  // Fisher-Yates with the benchmark's own generator, so the order does
  // not depend on the standard library's shuffle.
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng() % i]);
  }
  return order;
}

bool valid_uid(mpicp::sim::MpiLib lib, mpicp::sim::Collective coll, int uid) {
  return uid >= 1 &&
         static_cast<std::size_t>(uid) <=
             mpicp::sim::algorithm_configs(lib, coll).size();
}

mpicp::bench::Instance random_instance(std::mt19937_64& rng,
                                       std::span<const int> nodes,
                                       std::span<const int> ppns) {
  const double log2_m =
      22.0 * static_cast<double>(rng() >> 11) * 0x1.0p-53;  // [0, 22)
  mpicp::bench::Instance inst;
  inst.nodes = nodes[rng() % nodes.size()];
  inst.ppn = ppns[rng() % ppns.size()];
  inst.msize = static_cast<std::uint64_t>(std::exp2(log2_m));
  return inst;
}

double ns_per_item(const Tracer& tracer, const std::string& name) {
  const Tracer::Totals t = tracer.totals(name);
  return t.count == 0 ? 0.0
                      : static_cast<double>(t.total_ns) /
                            static_cast<double>(t.count);
}

double mean_span_s(const Tracer& tracer, const std::string& name) {
  const Tracer::Totals t = tracer.totals(name);
  return t.spans == 0 ? 0.0
                      : static_cast<double>(t.total_ns) * 1e-9 /
                            static_cast<double>(t.spans);
}

}  // namespace perfbench
