#ifndef PERFBENCH_CLIENT_HPP
#define PERFBENCH_CLIENT_HPP

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.hpp"
#include "net/protocol.hpp"

namespace perfbench {

/// The benchmark's load client: one thread, at most two binary-protocol
/// connections, requests alternating between them. The wire id of each
/// request is its index in the workload's request stream.
///
/// Open-loop phases send on a fixed schedule regardless of replies and
/// time each request from when it was *due*, so a stall that delays
/// later sends is charged to them; how late the client itself sent is
/// reported separately (`late_ns`) as the validity guard for those
/// latencies. The client busy-polls while an open-loop phase sends. Closed-loop phases keep a fixed number of requests
/// outstanding and measure completed requests per second.
class LoadClient {
 public:

  /// Fills `msg` (everything but the id) for stream index `index`.
  using Gen = std::function<void(std::uint64_t index, hypercast::net::RequestMsg& msg)>;
  /// Sees every response; `index` is the request's stream index.
  using Sink = std::function<void(std::uint64_t index,
                                  const hypercast::net::ResponseMsg& resp)>;

  struct Phase {
    std::uint64_t sent = 0;
    std::uint64_t ok = 0;
    std::uint64_t not_ok = 0;  ///< shed, refused or error responses
    std::uint64_t lost = 0;    ///< no response before the drain timeout
    std::uint64_t start_ns = 0;  ///< the sending window
    std::uint64_t stop_ns = 0;
    /// Closed loop: Ok responses arriving in each equal slice of the
    /// sending window.
    std::array<std::uint64_t, kSlices> slice_ok{};
    // Open loop, per Ok response in arrival order:
    std::vector<std::uint64_t> due_ns;      ///< when it was due
    std::vector<std::uint64_t> latency_ns;  ///< arrival - due
    std::vector<std::uint64_t> rtt_ns;      ///< arrival - actual send
    /// Open loop, per request sent: actual send - due.
    std::vector<std::uint64_t> late_ns;
  };

  LoadClient(std::uint16_t port, int connections);
  ~LoadClient();
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  /// Keep `window` requests outstanding; issue stream indices
  /// [first, first + limit) until `duration_ns` elapses or the limit is
  /// reached, then wait for the replies.
  Phase closed(std::uint64_t first, std::uint64_t limit,
               std::uint64_t duration_ns, std::size_t window, const Gen& gen,
               const Sink& sink);

  /// Send stream indices from `first` at `rate` per second for
  /// `duration_ns`, then wait for the replies.
  Phase open(std::uint64_t first, double rate, std::uint64_t duration_ns,
             const Gen& gen, const Sink& sink);

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    std::size_t out_off = 0;
    std::string in;
    std::size_t in_off = 0;
  };

  Phase run(std::uint64_t first, std::uint64_t limit, std::size_t window,
            double rate, std::uint64_t duration_ns, const Gen& gen,
            const Sink& sink);

  std::vector<Conn> conns_;
};

/// One HTTP/1.1 GET against the server (its own short-lived connection);
/// returns the response body.
std::string http_get(std::uint16_t port, const std::string& target);

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_HPP
