// serve_hot / serve_cold: the binary protocol over loopback to an
// in-process net::Server (wsort, cache on, 2 workers) driven by the
// benchmark's own single-threaded client. serve_hot requests are
// XOR-translations of a small pool of canonical shapes, so after warm-up
// every request is a cache hit and the socket, event loop, queue, batch
// coalescing and encode dominate. serve_cold requests each carry a fresh
// random destination set, so every request misses: wsort construction,
// cache insert/evict and larger responses dominate.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string_view>

#include "client.hpp"
#include "coll/serve_pipeline.hpp"
#include "common.hpp"
#include "net/server.hpp"
#include "obs/registry.hpp"
#include "sim/wormhole_sim.hpp"
#include "workload/random_sets.hpp"

namespace perfbench {

namespace net = hypercast::net;
namespace coll = hypercast::coll;
namespace core = hypercast::core;
namespace hcube = hypercast::hcube;
namespace sim = hypercast::sim;
namespace workload = hypercast::workload;

namespace {

constexpr hcube::Dim kDim = 10;
constexpr std::size_t kHotShapes = 16;        // canonical shapes
constexpr std::size_t kHotTranslations = 64;  // sources per shape
constexpr std::size_t kHotDests = 48;
constexpr std::size_t kColdMinDests = 16;
constexpr std::size_t kColdMaxDests = 512;

constexpr int kConnections = 2;
constexpr std::size_t kWindow = 128;  // closed loop: requests outstanding
/// Open-loop rates, fixed so that every commit is offered the same load:
/// about half the closed-loop rate of the code this benchmark was
/// written against on a 4-core x86 host.
constexpr double kHotRate = 16000.0;
constexpr double kColdRate = 4000.0;

constexpr std::uint64_t kSampleEvery = 61;  // byte-checked responses
constexpr std::size_t kMaxSamples = 1024;
constexpr std::uint64_t kSimRequests = 1024;  // DES-replayed requests
constexpr std::size_t kReplayBatch = 16;      // in-process replay batch
constexpr std::uint64_t kBuildSample = 256;  // uncached builds timed
// Cold warm-up step: fine enough that how far it overshoots the start of
// eviction, and so the set-up's work, varies little by seed.
constexpr std::uint64_t kColdWarmChunk = 500;
constexpr std::uint64_t kColdWarmLimit = 400000;

/// The request stream: request `index` is a pure function of (seed,
/// index), so the checks and the in-process replay regenerate any
/// request the client sent.
class Stream {
 public:
  Stream(bool hot, std::uint64_t seed) : hot_(hot), seed_(seed), topo_(kDim) {
    if (!hot_) return;
    workload::Rng rng(workload::derive_seed(seed, 0x407, 0));
    for (std::size_t s = 0; s < kHotShapes; ++s) {
      const auto shape =
          workload::random_destinations(topo_, 0, kHotDests, rng);
      for (std::size_t t = 0; t < kHotTranslations; ++t) {
        const auto source = static_cast<hcube::NodeId>(
            rng() % topo_.num_nodes());
        std::vector<hcube::NodeId> dests(shape.size());
        for (std::size_t i = 0; i < shape.size(); ++i) {
          dests[i] = shape[i] ^ source;
        }
        pool_.push_back({source, std::move(dests)});
      }
    }
  }

  std::size_t pool_size() const { return pool_.size(); }

  void fill_pool(std::size_t i, net::RequestMsg& msg) const {
    msg.dim = kDim;
    msg.resolution = hcube::Resolution::HighToLow;
    msg.source = pool_[i].first;
    msg.destinations = pool_[i].second;
  }

  void fill(std::uint64_t index, net::RequestMsg& msg) const {
    if (hot_) {
      fill_pool(splitmix64(seed_ ^ splitmix64(index)) % pool_.size(), msg);
      return;
    }
    // Drawn in the client's send loop, so it must stay cheap: rejection
    // sampling over a bitmap (m <= N/2, so under two draws per node).
    Bits bits(splitmix64(seed_ ^ splitmix64(index ^ 0xc01d)));
    const std::size_t m = log_uniform(unit(bits()), kColdMinDests, kColdMaxDests);
    const std::size_t n = topo_.num_nodes();
    msg.dim = kDim;
    msg.resolution = hcube::Resolution::HighToLow;
    msg.source = static_cast<hcube::NodeId>(bits() % n);
    std::vector<bool> taken(n, false);
    taken[msg.source] = true;
    msg.destinations.clear();
    while (msg.destinations.size() < m) {
      const auto v = static_cast<hcube::NodeId>(bits() % n);
      if (taken[v]) continue;
      taken[v] = true;
      msg.destinations.push_back(v);
    }
  }

  core::MulticastRequest request(std::uint64_t index) const {
    net::RequestMsg msg;
    fill(index, msg);
    return msg.to_request();
  }

 private:
  bool hot_;
  std::uint64_t seed_;
  hcube::Topology topo_;
  std::vector<std::pair<hcube::NodeId, std::vector<hcube::NodeId>>> pool_;
};

/// Number at `path` in a hypercast-stats-v1 document: each key is looked
/// up after the previous one (names are unique within their section).
double stats_number(const std::string& doc,
                    std::initializer_list<std::string_view> path) {
  std::size_t pos = 0;
  for (const std::string_view key : path) {
    const std::string quoted = "\"" + std::string(key) + "\"";
    pos = doc.find(quoted, pos);
    if (pos == std::string::npos) {
      throw std::runtime_error("/stats lacks " + std::string(key));
    }
    pos += quoted.size();
  }
  pos = doc.find(':', pos);
  return std::strtod(doc.c_str() + pos + 1, nullptr);
}

/// The server's ScheduleCache::stats() as exposed over the wire.
coll::ScheduleCache::Stats cache_stats(const std::string& stats) {
  const auto field = [&](std::string_view name) {
    return static_cast<std::uint64_t>(
        stats_number(stats, {"gauges", "cache", name}));
  };
  coll::ScheduleCache::Stats s;
  s.hits = field("hits");
  s.l1_hits = field("l1_hits");
  s.misses = field("misses");
  s.evictions = field("evictions");
  s.bytes = field("bytes");
  return s;
}

/// A started server with a connected client, warmed to steady state.
struct Live {
  std::unique_ptr<net::Server> server;
  std::unique_ptr<LoadClient> client;
  std::uint64_t next_index = 0;  ///< first stream index not yet sent
  double resident_mib = 0.0;     ///< cache bytes when timing starts

  ~Live() {
    client.reset();
    if (server) server->stop();
  }
};

void require_all_ok(const LoadClient::Phase& ph, const char* what) {
  if (ph.ok != ph.sent) {
    throw std::runtime_error(std::string(what) + ": " +
                             std::to_string(ph.sent - ph.ok) +
                             " requests not answered Ok");
  }
}

std::unique_ptr<Live> set_up(const Stream& stream, bool hot) {
  auto live = std::make_unique<Live>();
  net::ServerConfig config;
  config.workers = 2;
  live->server = std::make_unique<net::Server>(config);
  live->server->start();
  live->client = std::make_unique<LoadClient>(live->server->port(),
                                              kConnections);
  const auto ignore = [](std::uint64_t, const net::ResponseMsg&) {};
  const coll::ScheduleCache& cache = *live->server->cache();
  constexpr std::uint64_t kForever = 600'000'000'000ull;
  if (hot) {
    // Serve the whole pool until a pass adds nothing: every pooled
    // request is then resident (relative and materialized entries).
    const auto from_pool = [&](std::uint64_t i, net::RequestMsg& msg) {
      stream.fill_pool(i, msg);
    };
    for (int pass = 0;; ++pass) {
      const std::uint64_t misses = cache.stats().misses;
      require_all_ok(live->client->closed(0, stream.pool_size(), kForever,
                                          kWindow, from_pool, ignore),
                     "serve_hot warm-up");
      if (pass > 0 && cache.stats().misses == misses) break;
      if (pass == 8) throw std::runtime_error("serve_hot: pool not resident");
    }
    if (cache.stats().evictions != 0) {
      throw std::runtime_error("serve_hot: pool does not fit the cache");
    }
  } else {
    // Fill until the cache is at its byte budget and evicting.
    const auto gen = [&](std::uint64_t i, net::RequestMsg& msg) {
      stream.fill(i, msg);
    };
    std::uint64_t evictions = 0;
    for (;;) {
      require_all_ok(live->client->closed(live->next_index, kColdWarmChunk,
                                          kForever, kWindow, gen, ignore),
                     "serve_cold warm-up");
      live->next_index += kColdWarmChunk;
      const std::uint64_t now = cache.stats().evictions;
      if (evictions > 0 && now > evictions) break;
      evictions = now;
      if (live->next_index >= kColdWarmLimit) {
        throw std::runtime_error("serve_cold: cache never started evicting");
      }
    }
  }
  live->resident_mib =
      static_cast<double>(cache.stats().bytes) / (1024.0 * 1024.0);
  return live;
}

/// Byte-compares sampled Ok responses against encode_schedule of an
/// uncached wsort build of the same request; returns the mismatches.
std::uint64_t check_samples(
    const Stream& stream,
    std::vector<std::pair<std::uint64_t, std::string>>& samples,
    std::uint64_t corrupt) {
  const coll::ServePipeline reference("wsort", nullptr);
  std::uint64_t wrong = 0;
  std::string expected;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    auto& [index, body] = samples[i];
    if (i < corrupt && !body.empty()) body[body.size() / 2] ^= 0x5a;
    expected.clear();
    net::encode_schedule(*reference.serve(stream.request(index)), expected);
    if (expected != body) ++wrong;
  }
  return wrong;
}

void tally_sim(const Stream& stream, Result& out) {
  const coll::ServePipeline reference("wsort", nullptr);
  const sim::SimConfig config;
  SimTally tally;
  for (std::uint64_t i = 0; i < kSimRequests; ++i) {
    const auto schedule = reference.serve(stream.request(i));
    const sim::CollectiveJob job{schedule.get(), 0, 0};
    tally.add_launch(sim::simulate_collectives({&job, 1}, config), {&job, 1});
  }
  tally.report(out);
}

struct Replay {
  /// One sample per batch of kReplayBatch requests, on a process CPU
  /// clock that runs only inside the op (encoding the requests is the
  /// client's work).
  Timed timed;
  std::uint64_t requests = 0;
  std::uint64_t resp_bytes = 0;
};

/// The server's per-request work without its sockets, event loop and
/// queue: decode_request -> to_request/validate -> serve_batch ->
/// encode_ok_response over the request stream from `index`, in batches,
/// for `duration_ns`.
Replay replay(const Stream& stream, const coll::ServePipeline& pipeline,
              std::uint64_t& index, std::uint64_t duration_ns, Spans& spans) {
  Replay r;
  Timed& t = r.timed;
  net::RequestMsg msg;
  std::string frames;
  std::vector<std::size_t> offsets;
  std::vector<net::RequestMsg> msgs(kReplayBatch);
  std::vector<core::MulticastRequest> requests;
  std::vector<std::shared_ptr<const core::MulticastSchedule>> served;
  std::string out;
  CpuRotation cpus(1);
  const Usage before = Usage::now();
  const std::uint64_t t0 = now_ns();
  std::uint64_t busy = 0;
  for (std::uint64_t wall = t0; wall - t0 < duration_ns; wall = now_ns()) {
    cpus.tick(wall);
    frames.clear();
    offsets.clear();
    for (std::size_t j = 0; j < kReplayBatch; ++j) {
      stream.fill(index, msg);
      msg.id = index++;
      offsets.push_back(frames.size());
      net::encode_request(msg, frames);
    }
    offsets.push_back(frames.size());
    const std::uint64_t op_start = cpu_now_ns();
    {
      Spans::Scope op(spans, "op");
      {
        Spans::Scope s(spans, "net.decode_request");
        for (std::size_t j = 0; j < kReplayBatch; ++j) {
          msgs[j] = net::decode_request(std::string_view(frames).substr(
              offsets[j] + 4, offsets[j + 1] - offsets[j] - 4));
        }
      }
      {
        Spans::Scope s(spans, "net.to_request_validate");
        requests.clear();
        for (const net::RequestMsg& m : msgs) {
          requests.push_back(m.to_request());
          requests.back().validate();
        }
      }
      {
        Spans::Scope s(spans, "coll.serve_batch");
        served = pipeline.serve_batch(requests, 1);
      }
      {
        Spans::Scope s(spans, "net.encode_ok_response");
        out.clear();
        for (std::size_t j = 0; j < kReplayBatch; ++j) {
          net::encode_ok_response(msgs[j].id, *served[j], out);
        }
      }
    }
    const std::uint64_t op_ns = cpu_now_ns() - op_start;
    busy += op_ns;
    t.end_ns.push_back(busy);
    t.op_ns.push_back(op_ns);
    ++t.attempted;
    r.resp_bytes += out.size();
    r.requests += kReplayBatch;
  }
  t.used = Usage::now() - before;
  t.start_ns = 0;
  t.stop_ns = busy + 1;
  t.ops_per_s = static_cast<double>(t.attempted) / (static_cast<double>(busy) / 1e9);
  return r;
}

/// Closed loop over the wire for `duration_ns`; sets nothing, returns
/// the phase and the median slice rate.
std::pair<LoadClient::Phase, double> closed_loop(
    Live& live, const Stream& stream, std::uint64_t duration_ns,
    const LoadClient::Sink& sink) {
  const auto gen = [&](std::uint64_t i, net::RequestMsg& msg) {
    stream.fill(i, msg);
  };
  LoadClient::Phase closed = live.client->closed(live.next_index, ~0ull,
                                                 duration_ns, kWindow, gen,
                                                 sink);
  live.next_index += closed.sent;
  std::vector<double> rates;
  for (const std::uint64_t ok : closed.slice_ok) {
    rates.push_back(static_cast<double>(ok) * 1e9 * kSlices /
                    static_cast<double>(closed.stop_ns - closed.start_ns));
  }
  return {std::move(closed), median(rates)};
}

Result run_untraced(const Args& args, const Stream& stream, bool hot) {
  Result out;
  std::unique_ptr<Live> live;
  set_up_repeatedly(out, live, 0, [&] { return set_up(stream, hot); });
  char line[160];
  std::snprintf(line, sizeof(line),
                "cache.resident_mib at timing start: %.2f (budget 64 MiB)",
                live->resident_mib);
  out.note(line);

  // Over the wire, closed loop: CPU per request of the whole serving
  // process, and a sample of responses for the byte check.
  std::vector<std::pair<std::uint64_t, std::string>> samples;
  const auto keep = [&](std::uint64_t index, const net::ResponseMsg& resp) {
    if (resp.status == net::Status::Ok && index % kSampleEvery == 0 &&
        samples.size() < kMaxSamples) {
      samples.emplace_back(index, std::string(resp.schedule_body));
    }
  };
  const auto half = static_cast<std::uint64_t>(args.seconds * 0.5e9);
  const Usage before = Usage::now();
  const auto [closed, wire_rate] = closed_loop(*live, stream, half, keep);
  (Usage::now() - before).report(out, closed.ok, "closed loop over the wire");
  std::snprintf(line, sizeof(line),
                "closed loop over the wire (%zu outstanding): %.0f req/s "
                "(median slice), %llu ok of %llu sent",
                kWindow, wire_rate, static_cast<unsigned long long>(closed.ok),
                static_cast<unsigned long long>(closed.sent));
  out.note(line);
  // The replay serves from the server's cache as the server left it:
  // every pooled shape resident (hot), or full and evicting (cold).
  const std::uint64_t first_replayed = live->next_index;
  const coll::ServePipeline pipeline("wsort", live->server->cache());
  live.reset();

  const std::uint64_t wrong = check_samples(stream, samples, args.corrupt);
  out.note("byte-checked " + std::to_string(samples.size()) +
           " sampled responses, " + std::to_string(wrong) + " wrong");

  // In process: throughput and latency of the server's per-request work.
  std::uint64_t index = first_replayed;
  Spans off(false);
  const Replay r = replay(stream, pipeline, index, half, off);
  report_timed(out, r.timed, "request, in-process replay", kReplayBatch);

  out.attempted = closed.sent;
  out.failed = closed.not_ok + closed.lost + wrong;
  tally_sim(stream, out);
  out.set("peak_rss_mib", peak_rss_mib());
  return out;
}

Result run_traced(const Args& args, const Stream& stream, bool hot) {
  Result out;
  const char* prefix = hot ? "serve_hot" : "serve_cold";
  auto live = set_up(stream, hot);
  const double resident_mib = live->resident_mib;
  const std::uint16_t port = live->server->port();
  const auto quarter = static_cast<std::uint64_t>(args.seconds * 0.25e9);
  const auto ignore = [](std::uint64_t, const net::ResponseMsg&) {};

  // Over the wire, wall clock: closed-loop rate, then the open loop timed
  // from each request's due time, with the server's own net.* and
  // serve.* histograms read back from GET /stats.
  const auto [closed, wire_rate] = closed_loop(*live, stream, quarter, ignore);
  out.set("wire.ops_per_s", wire_rate);
  hypercast::obs::default_registry().reset();
  const auto before = cache_stats(http_get(port, "/stats"));
  const auto gen = [&](std::uint64_t i, net::RequestMsg& msg) {
    stream.fill(i, msg);
  };
  const LoadClient::Phase open = live->client->open(
      live->next_index, hot ? kHotRate : kColdRate, quarter, gen, ignore);
  live->next_index += open.sent;
  const std::string stats = http_get(port, "/stats");
  const std::uint64_t first_replayed = live->next_index;
  const coll::ServePipeline pipeline("wsort", live->server->cache());
  live.reset();
  out.attempted = closed.sent + open.sent;
  out.failed = closed.not_ok + closed.lost + open.not_ok + open.lost;

  const Slices wire = slice_medians(open.due_ns, open.latency_ns,
                                    open.start_ns, open.stop_ns, kSlices);
  out.set("wire.lat_p50_us", wire.p50 / 1e3);
  out.set("wire.lat_p99_us", wire.p99 / 1e3);
  std::vector<std::uint64_t> late = open.late_ns;
  std::vector<std::uint64_t> rtt = open.rtt_ns;
  out.set("client.late_us_p99", percentile(late, 0.99) / 1e3);
  const double request_p50 =
      stats_number(stats, {"histograms", "net.request_ns", "p50"});
  out.set("net.rtt_unattributed_us_p50",
          (percentile(rtt, 0.50) - request_p50) / 1e3);
  out.set("net.request_us_p50", request_p50 / 1e3);
  out.set("net.request_us_p99",
          stats_number(stats, {"histograms", "net.request_ns", "p99"}) / 1e3);
  out.set("net.batch_size_mean",
          stats_number(stats, {"histograms", "net.batch_size", "mean"}));
  out.set("net.shed",
          stats_number(stats, {"counters", "net.shed_deadline"}) +
              stats_number(stats, {"counters", "net.shed_queue_full"}));
  for (const char* stage : {"canonicalize", "hit", "build", "translate"}) {
    const std::string hist = std::string("serve.") + stage + "_ns";
    out.set(hist + "_p50", stats_number(stats, {"histograms", hist, "p50"}));
  }
  set_cache_metrics(out, before, cache_stats(stats));
  // Resident bytes as timing started, so a run that never reached
  // eviction shows.
  out.set("cache.resident_mib", resident_mib);

  // In process: the same stream through the layers the server calls,
  // untraced then traced, on the server's cache in its steady state.
  std::uint64_t index = first_replayed;
  Spans off(false);
  Spans on(true);
  const Replay plain = replay(stream, pipeline, index, quarter, off);
  const Replay traced = replay(stream, pipeline, index, quarter, on);
  report_timed(out, plain.timed, "request, in-process replay, untraced",
               kReplayBatch);
  set_trace_overhead(out, plain.timed.ops_per_s, traced.timed.ops_per_s);
  const auto per_request = [&](const char* span) {
    return on.total_ns(span) / static_cast<double>(traced.requests);
  };
  out.set("net.decode_ns_mean", per_request("net.decode_request"));
  out.set("net.encode_ns_mean", per_request("net.encode_ok_response"));
  out.set("net.resp_bytes_mean", static_cast<double>(traced.resp_bytes) /
                                     static_cast<double>(traced.requests));
  out.set("coll.serve_ns_mean", per_request("coll.serve_batch"));

  // The core layer alone: uncached wsort builds of the same requests.
  const coll::ServePipeline uncached("wsort", nullptr);
  std::uint64_t build_ns = 0;
  for (std::uint64_t i = 0; i < kBuildSample; ++i) {
    const core::MulticastRequest request = stream.request(index + i);
    const std::uint64_t t0 = now_ns();
    uncached.serve(request);
    build_ns += now_ns() - t0;
  }
  out.set("core.build_us_mean",
          static_cast<double>(build_ns) / kBuildSample / 1e3);
  out.set(std::string(prefix) + ".unattributed_frac", on.unattributed_frac());
  on.note_summary(out);
  if (!args.trace_out.empty()) on.write_chrome(args.trace_out);
  return out;
}

}  // namespace

Result run_serve(const Args& args, bool hot) {
  const Stream stream(hot, args.seed);
  return args.trace ? run_traced(args, stream, hot)
                    : run_untraced(args, stream, hot);
}

}  // namespace perfbench
