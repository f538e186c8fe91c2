#include "common.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "sim/cost_model.hpp"

namespace perfbench {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::size_t log_uniform(double u, std::size_t lo, std::size_t hi) {
  const double a = std::log2(static_cast<double>(lo));
  const double b = std::log2(static_cast<double>(hi));
  return std::clamp<std::size_t>(
      static_cast<std::size_t>(std::llround(std::exp2(a + u * (b - a)))), lo,
      hi);
}

double percentile(std::vector<std::uint64_t>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  return static_cast<double>(samples[std::clamp<std::size_t>(
      rank, 1, samples.size()) - 1]);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Usage Usage::now() {
  Usage u;
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  u.cpu_s = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
            static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
                1e6;
  // "cpu user nice system idle iowait irq softirq steal ..." in ticks.
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double field = 0.0;
  stat >> cpu;
  for (int i = 0; i < 8 && (stat >> field); ++i) {
  }
  if (cpu == "cpu" && stat) {
    u.steal_s = field / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }
  u.wall_s = static_cast<double>(now_ns()) / 1e9;
  return u;
}

void Usage::report(Result& out, std::uint64_t ops,
                   const std::string& what) const {
  out.set("cpu_us_per_op",
          ops == 0 ? 0.0 : cpu_s * 1e6 / static_cast<double>(ops));
  char line[200];
  std::snprintf(line, sizeof(line),
                "%s: %.2f CPU s over %.2f s; hypervisor stole %.2f CPU s "
                "(%.0f%% of one CPU)",
                what.c_str(), cpu_s, wall_s, steal_s,
                wall_s > 0 ? 100.0 * steal_s / wall_s : 0.0);
  out.note(line);
}

CpuRotation::CpuRotation(std::size_t width) : width_(width) {
  if (::sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) ::sched_setaffinity(0, sizeof(original_), &original_);
}

void CpuRotation::tick(std::uint64_t wall_ns) {
  if (wall_ns - moved_at_ < kRotateNs) return;
  moved_at_ = wall_ns;
  next();
}

void CpuRotation::next() {
  if (width_ == 0 || width_ >= cpus_.size()) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (std::size_t i = 0; i < width_; ++i) {
    CPU_SET(cpus_[(next_ + i) % cpus_.size()], &mask);
  }
  next_ = (next_ + 1) % cpus_.size();
  ::sched_setaffinity(0, sizeof(mask), &mask);
}

void restart_peak_rss() {
  ::malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

Slices slice_medians(std::span<const std::uint64_t> at,
                     std::span<const std::uint64_t> value, std::uint64_t t0,
                     std::uint64_t t1, int slices) {
  Slices out;
  out.slices = std::max(1, slices);
  const double width =
      static_cast<double>(t1 - t0) / static_cast<double>(out.slices);
  std::vector<std::vector<std::uint64_t>> parts(
      static_cast<std::size_t>(out.slices));
  std::vector<double> counts(parts.size(), 0.0);
  for (std::size_t i = 0; i < at.size(); ++i) {
    if (at[i] < t0 || at[i] >= t1) continue;
    const auto k = std::min(
        parts.size() - 1,
        static_cast<std::size_t>(static_cast<double>(at[i] - t0) / width));
    counts[k] += 1.0;
    if (!value.empty()) parts[k].push_back(value[i]);
    ++out.samples;
  }
  std::vector<double> rates, p50s, p99s;
  for (std::size_t k = 0; k < parts.size(); ++k) {
    rates.push_back(counts[k] / (width / 1e9));
    p50s.push_back(percentile(parts[k], 0.50));
    p99s.push_back(percentile(parts[k], 0.99));
  }
  out.rate = median(rates);
  out.rates = rates;
  out.p50 = median(p50s);
  out.p99 = median(p99s);
  return out;
}

void set_latency(Result& out, const Slices& s, const std::string& what) {
  out.set("lat_p50_us", s.p50 / 1e3);
  out.set("lat_p99_us", s.p99 / 1e3);
  char line[120];
  std::snprintf(line, sizeof(line), "lat p50 %.1f us, p99 %.1f us: ",
                s.p50 / 1e3, s.p99 / 1e3);
  out.note(line + what + "; " + std::to_string(s.samples) +
           " samples, median of " + std::to_string(s.slices) + " slices");
}

void report_timed(Result& out, const Timed& t, const std::string& what,
                  std::size_t per_sample) {
  const int slices = static_cast<int>(
      std::clamp<std::size_t>(t.end_ns.size() / 1000, 1, kSlices));
  Slices s = slice_medians(t.end_ns, t.op_ns, t.start_ns, t.stop_ns, slices);
  const auto n = static_cast<double>(per_sample);
  s.rate *= n;
  s.p50 /= n;
  s.p99 /= n;
  for (double& r : s.rates) r *= n;
  out.set("ops_per_s", s.rate);
  note_slice_rates(out, s.rates);
  set_latency(out, s, "host time per " + what);
}

void note_slice_rates(Result& out, const std::vector<double>& rates) {
  std::string line = "ops/s per slice:";
  for (const double r : rates) {
    line += " " + std::to_string(static_cast<long>(r));
  }
  out.note(line);
}

void SimTally::add_launch(const hypercast::sim::MultiSimResult& result,
                          std::span<const hypercast::sim::CollectiveJob> jobs) {
  makespan_us_ += hypercast::sim::to_microseconds(result.makespan());
  ++launches_;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& r = result.per_job[i];
    max_delay_us_ +=
        hypercast::sim::to_microseconds(r.max_delay() - jobs[i].start);
    avg_delay_us_ +=
        r.avg_delay() / 1e3 - hypercast::sim::to_microseconds(jobs[i].start);
    ++multicasts_;
  }
}

void SimTally::add_striped(
    const hypercast::sim::MultiSimResult& result,
    std::span<const hypercast::hcube::NodeId> destinations) {
  makespan_us_ += hypercast::sim::to_microseconds(result.makespan());
  ++launches_;
  hypercast::sim::SimTime worst = 0;
  double sum = 0.0;
  for (const hypercast::hcube::NodeId d : destinations) {
    hypercast::sim::SimTime last = 0;
    for (const auto& job : result.per_job) last = std::max(last, job.delay(d));
    worst = std::max(worst, last);
    sum += static_cast<double>(last);
  }
  max_delay_us_ += hypercast::sim::to_microseconds(worst);
  avg_delay_us_ += destinations.empty()
                       ? 0.0
                       : sum / static_cast<double>(destinations.size()) / 1e3;
  ++multicasts_;
}

void SimTally::report(Result& out) const {
  const double launches = std::max<double>(1.0, static_cast<double>(launches_));
  const double casts = std::max<double>(1.0, static_cast<double>(multicasts_));
  out.set("sim_makespan_us", makespan_us_ / launches);
  out.set("sim_max_delay_us", max_delay_us_ / casts);
  out.set("sim_avg_delay_us", avg_delay_us_ / casts);
  out.note("sim_*: " + std::to_string(launches_) + " launches, " +
           std::to_string(multicasts_) + " multicasts (simulated, nCUBE-2)");
}

Spans::Scope::Scope(Spans& spans, const char* name) : spans_(spans) {
  if (!spans_.enabled_) return;
  const std::int64_t parent = spans_.open_.empty() ? -1 : spans_.open_.back();
  if (parent < 0) ++spans_.ops_;
  index_ = static_cast<std::int64_t>(spans_.records_.size());
  spans_.records_.push_back(Record{name, spans_.ops_, parent, now_ns(), 0});
  spans_.open_.push_back(index_);
}

Spans::Scope::~Scope() {
  if (index_ < 0) return;
  spans_.records_[static_cast<std::size_t>(index_)].end = now_ns();
  spans_.open_.pop_back();
}

std::map<std::string, Spans::Summary> Spans::summarize() const {
  std::vector<std::uint64_t> child_ns(records_.size(), 0);
  for (const Record& r : records_) {
    if (r.parent >= 0) {
      child_ns[static_cast<std::size_t>(r.parent)] += r.end - r.start;
    }
  }
  std::map<std::string, Summary> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    Summary& s = out[r.name];
    const std::uint64_t dur = r.end - r.start;
    s.count += 1;
    s.total_ns += dur;
    s.self_ns += dur - std::min(dur, child_ns[i]);
  }
  return out;
}

double Spans::unattributed_frac() const {
  std::uint64_t root_total = 0;
  std::uint64_t covered = 0;
  for (const Record& r : records_) {
    if (r.parent < 0) {
      root_total += r.end - r.start;
    } else if (records_[static_cast<std::size_t>(r.parent)].parent < 0) {
      covered += r.end - r.start;
    }
  }
  if (root_total == 0) return 0.0;
  return static_cast<double>(root_total - std::min(root_total, covered)) /
         static_cast<double>(root_total);
}

double Spans::mean_ns(const std::string& name) const {
  const auto all = summarize();
  const auto it = all.find(name);
  if (it == all.end() || it->second.count == 0) return 0.0;
  return static_cast<double>(it->second.total_ns) /
         static_cast<double>(it->second.count);
}

double Spans::total_ns(const std::string& name) const {
  const auto all = summarize();
  const auto it = all.find(name);
  return it == all.end() ? 0.0 : static_cast<double>(it->second.total_ns);
}

void Spans::write_chrome(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace file " + path);
  const std::uint64_t t0 = records_.empty() ? 0 : records_.front().start;
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                  "\"span\":%zu,\"parent\":%lld}}",
                  i == 0 ? "" : ",", r.name,
                  static_cast<double>(r.start - t0) / 1e3,
                  static_cast<double>(r.end - r.start) / 1e3,
                  static_cast<unsigned long long>(r.op), i,
                  static_cast<long long>(r.parent));
    os << line;
  }
  os << "\n]}\n";
}

void Spans::note_summary(Result& out) const {
  const auto all = summarize();
  std::uint64_t root_total = 0;
  for (const Record& r : records_) {
    if (r.parent < 0) root_total += r.end - r.start;
  }
  for (const auto& [name, s] : all) {
    char line[200];
    std::snprintf(line, sizeof(line),
                  "span %-22s count %8llu  mean %10.2f us  self %6.2f%% of op "
                  "time",
                  name.c_str(), static_cast<unsigned long long>(s.count),
                  static_cast<double>(s.total_ns) /
                      static_cast<double>(std::max<std::uint64_t>(1, s.count)) /
                      1e3,
                  root_total == 0 ? 0.0
                                  : 100.0 * static_cast<double>(s.self_ns) /
                                        static_cast<double>(root_total));
    out.note(line);
  }
}

void set_cache_metrics(Result& out,
                       const hypercast::coll::ScheduleCache::Stats& before,
                       const hypercast::coll::ScheduleCache::Stats& after) {
  const auto hits =
      static_cast<double>(after.total_hits() - before.total_hits());
  const auto lookups = static_cast<double>(after.lookups() - before.lookups());
  out.set("cache.hit_rate", lookups > 0 ? hits / lookups : 0.0);
  out.set("cache.l1_hit_frac",
          hits > 0 ? static_cast<double>(after.l1_hits - before.l1_hits) / hits
                   : 0.0);
  out.set("cache.misses", static_cast<double>(after.misses - before.misses));
  out.set("cache.evictions",
          static_cast<double>(after.evictions - before.evictions));
  out.set("cache.resident_mib",
          static_cast<double>(after.bytes) / (1024.0 * 1024.0));
}

void set_trace_overhead(Result& out, double untraced_ops_per_s,
                        double traced_ops_per_s) {
  out.set("bench.trace_overhead_frac",
          untraced_ops_per_s <= 0.0
              ? 0.0
              : 1.0 - traced_ops_per_s / untraced_ops_per_s);
  char line[160];
  std::snprintf(line, sizeof(line),
                "trace overhead: %.1f ops/s untraced vs %.1f ops/s traced",
                untraced_ops_per_s, traced_ops_per_s);
  out.note(line);
}

}  // namespace perfbench
