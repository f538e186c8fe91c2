// hypercast_loadgen — closed/open-loop load generator for
// hypercast_served, emitting the BENCH_serve_net.json SLO artifact.
//
// Usage:
//   hypercast_loadgen --port P [--host ADDR] [--connections N]
//                     [--depth D] [--rate R] [--requests N]
//                     [--duration SECONDS] [--seed S] [--dim N]
//                     [--dests M] [--mix translated|random]
//                     [--out DIR] [--quick] [--quiet]
//
// Closed loop by default (each connection keeps --depth requests
// outstanding); --rate R > 0 switches to an open-loop arrival schedule
// at R requests/s aggregate. --out writes BENCH_serve_net.json into DIR
// so check_bench_regression.py --only serve_net can gate it. --quick
// shrinks the run for CI smoke. Exit status: 0 on a clean run, 1 when
// requests were lost or connections died, 2 on usage errors (an
// unknown flag among them: the message lists the known ones; an integer
// flag out of range: the message names the flag and its range).

#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <string_view>

#include "harness/options.hpp"
#include "net/loadgen.hpp"

int main(int argc, char** argv) {
  using hypercast::harness::Options;
  using hypercast::net::LoadgenConfig;
  using hypercast::net::LoadgenResult;
  constexpr long kLongMax = std::numeric_limits<long>::max();
  try {
    const Options opts = Options::parse(argc, argv);
    static constexpr std::string_view kKnown[] = {
        "port", "host", "connections", "depth", "rate", "requests",
        "duration", "seed", "dim", "dests", "mix", "out", "quick", "quiet"};
    opts.reject_unknown(kKnown);
    const bool quick = opts.has("quick");
    const bool quiet = opts.has("quiet");

    LoadgenConfig config;
    config.host = opts.get_or("host", config.host);
    // Every integer flag is range-checked before any socket or client
    // thread exists, so a bad value is a usage error, never a wrapped
    // port or depth.
    config.port =
        static_cast<std::uint16_t>(opts.get_int_in("port", 1, 65535));
    config.connections = static_cast<int>(opts.get_int_in_or(
        "connections", quick ? 2 : config.connections, 1, 1024));
    config.depth = static_cast<std::size_t>(opts.get_int_in_or(
        "depth", static_cast<long>(config.depth), 1, kLongMax));
    config.open_rate = opts.has("rate") ? opts.get_double("rate") : 0.0;
    config.total_requests = static_cast<std::uint64_t>(
        opts.get_int_in_or("requests", 0, 0, kLongMax));
    config.duration_s = opts.has("duration") ? opts.get_double("duration")
                                             : (quick ? 0.5 : 2.0);
    config.seed = static_cast<std::uint64_t>(opts.get_int_in_or(
        "seed", static_cast<long>(config.seed), 0, kLongMax));
    config.dim = static_cast<int>(opts.get_int_in_or(
        "dim", quick ? 8 : config.dim, 1, hypercast::hcube::kMaxDim));
    config.dest_count = static_cast<std::size_t>(opts.get_int_in_or(
        "dests", quick ? 24 : static_cast<long>(config.dest_count), 1,
        kLongMax));
    config.mix = opts.get_or("mix", config.mix);
    if (config.mix != "translated" && config.mix != "random") {
      throw std::invalid_argument("--mix must be translated or random");
    }

    const LoadgenResult result = hypercast::net::run_loadgen(config);

    if (!quiet) {
      std::printf("sent %llu, ok %llu (%.0f req/s), shed %llu (%.2f%%), "
                  "bad %llu, lost %llu, io_errors %llu\n",
                  static_cast<unsigned long long>(result.sent),
                  static_cast<unsigned long long>(result.ok),
                  result.requests_per_sec(),
                  static_cast<unsigned long long>(result.shed()),
                  result.shed_rate() * 100.0,
                  static_cast<unsigned long long>(result.bad_request),
                  static_cast<unsigned long long>(result.lost),
                  static_cast<unsigned long long>(result.io_errors));
      std::printf("latency p50 %.1f us, p99 %.1f us, p99.9 %.1f us\n",
                  static_cast<double>(result.latency_ns(0.50)) / 1e3,
                  static_cast<double>(result.latency_ns(0.99)) / 1e3,
                  static_cast<double>(result.latency_ns(0.999)) / 1e3);
    }

    if (opts.has("out")) {
      const std::filesystem::path dir(opts.get("out"));
      std::filesystem::create_directories(dir);
      const std::filesystem::path path = dir / "BENCH_serve_net.json";
      std::ofstream out(path, std::ios::trunc);
      out << hypercast::net::bench_artifact_json(config, result) << "\n";
      if (!out) {
        std::cerr << "hypercast_loadgen: cannot write " << path << "\n";
        return 2;
      }
      if (!quiet) std::cout << "wrote " << path.string() << std::endl;
    }

    return (result.lost > 0 || result.io_errors > 0 || result.ok == 0) ? 1
                                                                       : 0;
  } catch (const std::exception& e) {
    std::cerr << "hypercast_loadgen: " << e.what() << "\n";
    return 2;
  }
}
