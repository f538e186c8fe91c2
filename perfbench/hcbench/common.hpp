#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <sched.h>
#include <time.h>

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "coll/schedule_cache.hpp"
#include "obs/obs.hpp"
#include "sim/wormhole_sim.hpp"

namespace perfbench {

using hypercast::obs::now_ns;

/// CPU time of the whole process (all threads), in ns. In-process op
/// loops are timed on this clock: on a shared VM the hypervisor steals
/// wall-clock time from a running op (on the guest this was written on,
/// by 20-40% of a run while the host was busy), but not CPU time.
inline std::uint64_t cpu_now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Command line of one benchmark run (see run.py for the contract).
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Test hook: flip one byte in this many checked outputs before they
  /// are compared, to prove a wrong output reaches `failed`.
  std::uint64_t corrupt = 0;
  /// Where the traced run writes its spans (Chrome trace JSON).
  std::string trace_out;
};

/// Set-up repetitions per untraced run; setup_s is their median.
inline constexpr int kSetupReps = 15;
/// A timed phase is cut into (at most) this many equal slices; rates and
/// latencies are medians over slices.
inline constexpr int kSlices = 8;

/// What one run reports: the op accounting, the metrics it measured
/// (run.py attaches units and checks names against BENCHMARK.json) and
/// free-form report lines printed ahead of the result.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;

  void set(const std::string& name, double value) { metrics[name] = value; }
  void note(const std::string& line) { notes.push_back(line); }
};

std::uint64_t splitmix64(std::uint64_t x);
/// Uniform double in [0, 1) from 64 random bits.
inline double unit(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}
/// The integer at position u in [0, 1) of [lo, hi] on a log scale, so a
/// uniform u gives every octave equal odds.
std::size_t log_uniform(double u, std::size_t lo, std::size_t hi);

/// Nearest-rank percentile of `samples` (sorted in place); 0 if empty.
double percentile(std::vector<std::uint64_t>& samples, double q);
double median(std::vector<double> values);
/// Gives the memory freed so far back to the OS and restarts the count
/// behind peak_rss_mib, so that it covers the run from here on: the state
/// a set-up leaves counts, the garbage of discarded set-ups does not.
void restart_peak_rss();
/// Peak resident memory (VmHWM) since the last restart_peak_rss.
double peak_rss_mib();

/// Process CPU time and the host's steal time (all CPUs, from
/// /proc/stat) at one instant; differences cover an interval.
struct Usage {
  double cpu_s = 0.0;
  double steal_s = 0.0;
  double wall_s = 0.0;

  static Usage now();
  Usage operator-(const Usage& o) const {
    return {cpu_s - o.cpu_s, steal_s - o.steal_s, wall_s - o.wall_s};
  }
  /// Sets cpu_us_per_op over `ops` successful ops and notes the share of
  /// the interval's CPU time the hypervisor stole.
  void report(Result& out, std::uint64_t ops, const std::string& what) const;
};

/// Moves the calling thread over the CPUs it may run on every kRotateNs
/// of wall time, pinning it to `width` neighbouring CPUs at a time, and
/// gives it back its affinity when destroyed. On a shared VM each vCPU
/// runs at its own speed, set by what shares its physical core, and a
/// loop left alone stays on one vCPU for a whole run: on the guest this
/// was written on, the same stripe_faulted run read 525 or 877 ops/s
/// depending on the vCPU it landed on, each steady for 30 s. Moving over
/// every vCPU in turn makes a run average over them (eight same-seed
/// runs: quartile spread 0.35 left alone, 0.04 moved every 5 ms). Threads
/// the op starts inherit the mask, so `width` is the number of threads
/// the op runs on; 0 leaves the thread where it is.
class CpuRotation {
 public:
  static constexpr std::uint64_t kRotateNs = 5'000'000;

  explicit CpuRotation(std::size_t width);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Moves on if kRotateNs have passed since the last move.
  void tick(std::uint64_t wall_ns);
  /// Moves on now.
  void next();

 private:
  cpu_set_t original_{};
  std::vector<int> cpus_;
  std::size_t width_;
  std::size_t next_ = 0;
  std::uint64_t moved_at_ = 0;
};

/// Builds `holder` kSetupReps times with `make()`, destroying the previous
/// one first and outside the measurement, and sets setup_s to the median
/// process CPU seconds (all threads) one build took. CPU time rather than
/// wall time, because on a shared VM the hypervisor's steal moves the
/// latter by 2x between runs; work moved into set-up still shows. Each
/// build runs on the next `width` CPUs (see CpuRotation; 0 for a set-up
/// that starts threads which must outlive it).
template <typename T, typename Make>
void set_up_repeatedly(Result& out, std::unique_ptr<T>& holder,
                       std::size_t width, Make&& make) {
  std::vector<double> cpu_s;
  CpuRotation cpus(width);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    holder.reset();
    cpus.next();
    const Usage before = Usage::now();
    holder = make();
    cpu_s.push_back((Usage::now() - before).cpu_s);
  }
  out.set("setup_s", median(cpu_s));
  restart_peak_rss();
  std::string line = "setup_s: median of CPU s per set-up:";
  for (const double s : cpu_s) line += " " + std::to_string(s);
  out.note(line);
}

/// Counter-based random bits: a splitmix64 stream from `seed`.
class Bits {
 public:
  explicit Bits(std::uint64_t seed) : state_(seed) {}
  std::uint64_t operator()() { return splitmix64(state_ += 0x632be59bd9b4e019ull); }

 private:
  std::uint64_t state_;
};

/// A timed interval cut into equal slices, each summarized on its own:
/// a stall that hits one slice moves one of the values the medians are
/// taken over, not the whole run's figure.
struct Slices {
  double rate = 0.0;  ///< median over slices of events per second
  double p50 = 0.0;   ///< median over slices of the slice's median value
  double p99 = 0.0;   ///< median over slices of the slice's 99th percentile
  int slices = 0;
  std::size_t samples = 0;
  std::vector<double> rates;  ///< per slice
};

/// Slices [t0, t1) into `slices` parts; event i happened at `at[i]` with
/// value `value[i]` (`value` may be empty when only the rate is wanted).
Slices slice_medians(std::span<const std::uint64_t> at,
                     std::span<const std::uint64_t> value, std::uint64_t t0,
                     std::uint64_t t1, int slices);

/// An in-process op loop's outcome. Times are on the process CPU clock
/// (cpu_now_ns).
struct Timed {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double ops_per_s = 0.0;  ///< successful ops per CPU second, whole loop
  /// Successful ops per wall-clock second, whole loop: unlike ops_per_s
  /// it rises when an op's work spreads over more threads.
  double wall_ops_per_s = 0.0;
  std::uint64_t start_ns = 0;
  std::uint64_t stop_ns = 0;
  Usage used;
  // Per successful op:
  std::vector<std::uint64_t> end_ns;
  std::vector<std::uint64_t> op_ns;
};

/// Runs `op()` (returning true when the op's output checked out) until
/// `duration_ns` of wall-clock time has passed, moving over the CPUs
/// `op_threads` at a time (see CpuRotation).
template <typename Op>
Timed timed_loop(std::uint64_t duration_ns, std::size_t op_threads, Op&& op) {
  Timed t;
  CpuRotation cpus(op_threads);
  const Usage before = Usage::now();
  const std::uint64_t wall_start = now_ns();
  const std::uint64_t start = cpu_now_ns();
  std::uint64_t now = start;
  for (std::uint64_t wall = wall_start; wall - wall_start < duration_ns;
       wall = now_ns()) {
    cpus.tick(wall);
    const bool ok = op();
    const std::uint64_t end = cpu_now_ns();
    if (ok) {
      t.end_ns.push_back(end);
      t.op_ns.push_back(end - now);
    }
    now = end;
    ++t.attempted;
    if (!ok) ++t.failed;
  }
  t.used = Usage::now() - before;
  t.start_ns = start;
  t.stop_ns = now + 1;
  t.ops_per_s = static_cast<double>(t.attempted - t.failed) /
                (static_cast<double>(now - start) / 1e9);
  t.wall_ops_per_s = static_cast<double>(t.attempted - t.failed) /
                     (static_cast<double>(now_ns() - wall_start) / 1e9);
  return t;
}

/// ops_per_s and lat_p50_us/lat_p99_us of an in-process loop. It is cut
/// into as many slices as keep at least 1000 samples in each (so each
/// slice's p99 has ten samples beyond it), at most kSlices. Each sample
/// covers `per_sample` ops: rates are multiplied and times divided by it.
/// `what` names the op in the report.
void report_timed(Result& out, const Timed& t, const std::string& what,
                  std::size_t per_sample = 1);

/// Sets lat_p50_us / lat_p99_us (ns values) and notes how they were taken.
void set_latency(Result& out, const Slices& s, const std::string& what);
/// Notes the per-slice rates behind an ops_per_s figure.
void note_slice_rates(Result& out, const std::vector<double>& rates);

/// The simulated delivery quality of a set of launches, in simulated µs
/// under the nCUBE-2 cost model: the latest delivery per launch, and the
/// worst and mean delivery delay of each multicast measured from its own
/// start, each averaged over what was added.
class SimTally {
 public:
  /// Each job is one multicast.
  void add_launch(const hypercast::sim::MultiSimResult& result,
                  std::span<const hypercast::sim::CollectiveJob> jobs);
  /// All jobs together are one striped multicast: a destination is
  /// served when its last active stripe arrives.
  void add_striped(const hypercast::sim::MultiSimResult& result,
                   std::span<const hypercast::hcube::NodeId> destinations);
  void report(Result& out) const;
  std::size_t launches() const { return launches_; }

 private:
  double makespan_us_ = 0.0;
  double max_delay_us_ = 0.0;
  double avg_delay_us_ = 0.0;
  std::size_t launches_ = 0;
  std::size_t multicasts_ = 0;
};

/// The benchmark's own span recorder: spans are timed around calls into
/// the program's public functions, kept in memory, and written out when
/// the run ends. Spans of one op share the op id; a span's parent is the
/// span open around it. A disabled recorder records nothing.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// RAII span. A span opened with no span around it is an op (a root).
  class Scope {
   public:
    Scope(Spans& spans, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    std::int64_t index_ = -1;
  };

  struct Summary {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;  ///< total minus time covered by children
  };

  /// Per span name; self time is each span minus its direct children.
  std::map<std::string, Summary> summarize() const;
  /// Share of op (root span) time that no child span covers.
  double unattributed_frac() const;
  /// Drops every recorded span (e.g. those of a warm-up pass).
  void clear() {
    records_.clear();
    ops_ = 0;
  }
  /// Mean duration of spans named `name`, in ns (0 if none).
  double mean_ns(const std::string& name) const;
  double total_ns(const std::string& name) const;

  /// Chrome trace-event JSON (one complete event per span).
  void write_chrome(const std::string& path) const;
  /// Report lines: per span name count, mean, self share of op time.
  void note_summary(Result& out) const;

 private:
  struct Record {
    const char* name;
    std::uint64_t op;
    std::int64_t parent;
    std::uint64_t start;
    std::uint64_t end;
  };

  bool enabled_;
  std::vector<Record> records_;
  std::vector<std::int64_t> open_;
  std::uint64_t ops_ = 0;
};

/// cache.hit_rate, cache.l1_hit_frac, cache.misses, cache.evictions over
/// an interval, and cache.resident_mib at its end.
void set_cache_metrics(Result& out,
                       const hypercast::coll::ScheduleCache::Stats& before,
                       const hypercast::coll::ScheduleCache::Stats& after);

/// Result of the same op loop run untraced and traced inside a --trace 1
/// run: bench.trace_overhead_frac = 1 - traced / untraced rate.
void set_trace_overhead(Result& out, double untraced_ops_per_s,
                        double traced_ops_per_s);

Result run_serve(const Args& args, bool hot);
Result run_stripe(const Args& args);
Result run_des(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_HPP
