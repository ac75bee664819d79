#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double nearest_rank(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(xs.size())));
  return xs[std::clamp<std::size_t>(rank, 1, xs.size()) - 1];
}

void SelectSamples::end_round() {
  std::vector<double> all;
  if (cell_p50s_.size() < round_.size()) cell_p50s_.resize(round_.size());
  for (std::size_t c = 0; c < round_.size(); ++c) {
    if (round_[c].empty()) continue;
    all.insert(all.end(), round_[c].begin(), round_[c].end());
    cell_p50s_[c].push_back(median(round_[c]));
    round_[c].clear();
  }
  fewest_ = round_p99_.empty() ? all.size() : std::min(fewest_, all.size());
  round_p99_.push_back(nearest_rank(std::move(all), 0.99));
}

std::vector<double> SelectSamples::cell_p50s() const {
  std::vector<double> out;
  for (const auto& xs : cell_p50s_) {
    if (!xs.empty()) out.push_back(median(xs));
  }
  return out;
}

double SelectSamples::p50() const {
  const std::vector<double> cells = cell_p50s();
  double log_sum = 0.0;
  for (const double x : cells) log_sum += std::log(x);
  return cells.empty()
             ? 0.0
             : std::exp(log_sum / static_cast<double>(cells.size()));
}

// ---- tracing ------------------------------------------------------------

Tracer::Span::Span(Tracer& tracer, const char* name, std::uint64_t count)
    : tracer_(tracer) {
  if (!tracer_.on_) return;
  index_ = static_cast<int>(tracer_.records_.size());
  tracer_.records_.push_back({name, now_ns(), 0, count, tracer_.open_});
  tracer_.open_ = index_;
}

Tracer::Span::~Span() {
  if (index_ < 0) return;
  Record& rec = tracer_.records_[static_cast<std::size_t>(index_)];
  rec.dur_ns = now_ns() - rec.start_ns;
  tracer_.open_ = rec.parent;
}

Tracer::Totals Tracer::totals(const std::string& name) const {
  Totals t;
  for (const Record& rec : records_) {
    if (name != rec.name) continue;
    ++t.spans;
    t.count += rec.count;
    t.total_ns += rec.dur_ns;
  }
  return t;
}

void Tracer::write_chrome_trace(const std::filesystem::path& path) const {
  std::filesystem::create_directories(path.parent_path());
  std::ofstream os(path);
  const std::uint64_t epoch = records_.empty() ? 0 : records_.front().start_ns;
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    os << (i == 0 ? "" : ",") << "\n{\"name\":\"" << r.name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
       << static_cast<double>(r.start_ns - epoch) * 1e-3
       << ",\"dur\":" << static_cast<double>(r.dur_ns) * 1e-3
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << r.parent
       << ",\"count\":" << r.count << "}}";
  }
  os << "\n]}\n";
}

// ---- ground truth -------------------------------------------------------

std::uint64_t Truth::instance_key(const mpicp::bench::Instance& inst) {
  return (inst.msize << 24) | (static_cast<std::uint64_t>(inst.nodes) << 12) |
         static_cast<std::uint64_t>(inst.ppn);
}

void Truth::add(const mpicp::bench::Record& rec) {
  ++rows_;
  samples_[{instance_key({rec.nodes, rec.ppn, rec.msize}), rec.uid}]
      .push_back(rec.time_us);
}

void Truth::finish() {
  for (const auto& [key, times] : samples_) {
    const double med = median(times);
    median_[key.first][key.second] = med;
    // Ties keep the lower uid: the map visits uids in ascending order.
    const auto it = best_.find(key.first);
    if (it == best_.end() || med < it->second) best_[key.first] = med;
  }
  samples_.clear();
}

double Truth::time_us(int uid, const mpicp::bench::Instance& inst) const {
  const auto it = median_.find(instance_key(inst));
  if (it != median_.end()) {
    const auto u = it->second.find(uid);
    if (u != it->second.end()) return u->second;
  }
  throw std::runtime_error("truth: no measurement for uid " +
                           std::to_string(uid));
}

double Truth::best_us(const mpicp::bench::Instance& inst) const {
  const auto it = best_.find(instance_key(inst));
  if (it == best_.end()) throw std::runtime_error("truth: unknown instance");
  return it->second;
}

Truth read_truth_csv(const std::filesystem::path& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open " + path.string());
  Truth truth;
  std::string line;
  std::getline(is, line);  // header
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    mpicp::bench::Record rec;
    char* p = line.data();
    char* end = nullptr;
    rec.uid = static_cast<int>(std::strtol(p, &end, 10));
    rec.nodes = static_cast<int>(std::strtol(end + 1, &end, 10));
    rec.ppn = static_cast<int>(std::strtol(end + 1, &end, 10));
    rec.msize = std::strtoull(end + 1, &end, 10);
    rec.time_us = std::strtod(end + 1, &end);
    if (*end != '\0' || !(rec.time_us > 0.0)) {
      throw std::runtime_error("malformed row in " + path.string() + ": " +
                               line);
    }
    truth.add(rec);
  }
  truth.finish();
  return truth;
}

// ---- results ------------------------------------------------------------

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  // Report each distinct failure once, however often a loop hits it.
  if (std::find(failures.begin(), failures.end(), what) != failures.end()) {
    return;
  }
  failures.push_back(what);
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

bool more_rounds(std::size_t done, std::uint64_t start_ns, double seconds,
                 std::size_t min_rounds) {
  return done < min_rounds || seconds_since(start_ns) < seconds;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
