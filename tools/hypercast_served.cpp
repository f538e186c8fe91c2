// hypercast_served — the schedule-serving daemon.
//
// Puts a coll::ServePipeline behind the src/net/ front end: binary
// "hypercast-net-v1" frames and HTTP/JSON on one port, request batching
// into serve_batch, bounded-queue backpressure, and Prometheus metrics
// on GET /metrics. SIGTERM/SIGINT trigger a graceful drain: every
// admitted request is answered before the process exits.
//
// Usage:
//   hypercast_served [--port P] [--bind ADDR] [--algo NAME]
//                    [--workers N] [--queue-cap N] [--batch-max N]
//                    [--deadline-ms MS] [--max-conns N]
//                    [--cache on|off] [--cache-shards N] [--cache-bytes B]
//                    [--cosched] [--cosched-overlap K]
//                    [--cosched-stagger-us US] [--cosched-max-waves N]
//                    [--port-file PATH] [--quiet]
//
// --cosched turns on contention-aware co-scheduling of each served
// batch (coll::CoScheduler): schedules are packed into waves so no
// directed channel is crossed by more than --cosched-overlap worms per
// wave, and responses are released in wave order.
//
// --port 0 (the default) binds an ephemeral port; the bound port is
// printed on stdout and, with --port-file, written to PATH so scripts
// can pick it up race-free. Any other flag (--help included) is a usage
// error: exit 2 with the known flags listed. So is an integer flag out of
// its range (--port 70000, --workers 0, --queue-cap -1, ...): exit 2
// naming the flag.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>

#include "harness/options.hpp"
#include "net/server.hpp"

namespace {

std::atomic<hypercast::net::Server*> g_server{nullptr};
std::atomic<bool> g_stop{false};

void handle_signal(int) {
  // Async-signal-safe: one atomic store + one write() on a pipe.
  g_stop.store(true);
  if (auto* server = g_server.load()) server->request_stop();
}

constexpr long kLongMax = std::numeric_limits<long>::max();

}  // namespace

int main(int argc, char** argv) {
  using hypercast::harness::Options;
  try {
    const Options opts = Options::parse(argc, argv);
    static constexpr std::string_view kKnown[] = {
        "port", "bind", "algo", "workers", "queue-cap", "batch-max",
        "deadline-ms", "max-conns", "cache", "cache-shards", "cache-bytes",
        "cosched", "cosched-overlap", "cosched-stagger-us",
        "cosched-max-waves", "port-file", "quiet"};
    opts.reject_unknown(kKnown);

    hypercast::net::ServerConfig config;
    config.bind_address = opts.get_or("bind", config.bind_address);
    config.port =
        static_cast<std::uint16_t>(opts.get_int_in_or("port", 0, 0, 65535));
    config.algorithm = opts.get_or("algo", config.algorithm);
    config.workers = static_cast<int>(
        opts.get_int_in_or("workers", config.workers, 1, 1024));
    config.queue_capacity = static_cast<std::size_t>(opts.get_int_in_or(
        "queue-cap", static_cast<long>(config.queue_capacity), 1, kLongMax));
    config.batch_max = static_cast<std::size_t>(opts.get_int_in_or(
        "batch-max", static_cast<long>(config.batch_max), 1, kLongMax));
    config.deadline_ms = static_cast<std::uint64_t>(
        opts.get_int_in_or("deadline-ms", 0, 0, kLongMax));
    config.max_connections = static_cast<std::size_t>(
        opts.get_int_in_or("max-conns",
                           static_cast<long>(config.max_connections), 1,
                           kLongMax));
    const Options::CacheOptions cache = opts.cache(/*default_enabled=*/true);
    config.cache = cache.enabled;
    config.cache_shards = cache.shards;
    config.cache_bytes = cache.max_bytes;
    config.cosched = opts.has("cosched");
    config.cosched_policy.max_arc_overlap = static_cast<std::uint32_t>(
        opts.get_int_in_or("cosched-overlap",
                           config.cosched_policy.max_arc_overlap, 0,
                           std::numeric_limits<std::uint32_t>::max()));
    const long stagger_us =
        static_cast<long>(config.cosched_policy.stagger_offset_ns / 1000);
    config.cosched_policy.stagger_offset_ns =
        static_cast<std::uint64_t>(opts.get_int_in_or(
            "cosched-stagger-us", stagger_us, 0, kLongMax / 1000)) *
        1000;
    config.cosched_policy.max_waves = static_cast<std::size_t>(
        opts.get_int_in_or("cosched-max-waves",
                           static_cast<long>(config.cosched_policy.max_waves),
                           0, kLongMax));
    const bool quiet = opts.has("quiet");

    hypercast::net::Server server(config);
    server.start();
    g_server.store(&server);

    struct sigaction sa{};
    sa.sa_handler = handle_signal;
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);

    if (!quiet) {
      std::cout << "hypercast_served listening on " << config.bind_address
                << ":" << server.port() << " (algo=" << config.algorithm
                << ", workers=" << config.workers
                << ", queue=" << config.queue_capacity << ")" << std::endl;
    }
    if (opts.has("port-file")) {
      std::ofstream out(opts.get("port-file"), std::ios::trunc);
      out << server.port() << "\n";
    }

    while (!g_stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    if (!quiet) std::cout << "draining..." << std::endl;
    g_server.store(nullptr);
    server.stop();
    if (!quiet) std::cout << "drained, bye" << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "hypercast_served: " << e.what() << "\n";
    return 2;
  }
}
