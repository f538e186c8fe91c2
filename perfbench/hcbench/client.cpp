#include "client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <system_error>

#include "common.hpp"

namespace perfbench {

namespace net = hypercast::net;

namespace {

constexpr std::uint64_t kDrainTimeoutNs = 5'000'000'000ull;

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::system_error(errno, std::generic_category(), "socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    ::close(fd);
    throw std::system_error(err, std::generic_category(), "connect");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace

LoadClient::LoadClient(std::uint16_t port, int connections) {
  for (int i = 0; i < connections; ++i) {
    Conn c;
    c.fd = connect_loopback(port);
    ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
    conns_.push_back(std::move(c));
  }
}

LoadClient::~LoadClient() {
  for (const Conn& c : conns_) ::close(c.fd);
}

LoadClient::Phase LoadClient::closed(std::uint64_t first, std::uint64_t limit,
                                     std::uint64_t duration_ns,
                                     std::size_t window, const Gen& gen,
                                     const Sink& sink) {
  return run(first, limit, window, 0.0, duration_ns, gen, sink);
}

LoadClient::Phase LoadClient::open(std::uint64_t first, double rate,
                                   std::uint64_t duration_ns, const Gen& gen,
                                   const Sink& sink) {
  const auto count = static_cast<std::uint64_t>(
      rate * static_cast<double>(duration_ns) / 1e9);
  return run(first, count, 0, rate, duration_ns, gen, sink);
}

LoadClient::Phase LoadClient::run(std::uint64_t first, std::uint64_t limit,
                                  std::size_t window, double rate,
                                  std::uint64_t duration_ns, const Gen& gen,
                                  const Sink& sink) {
  const bool open_loop = rate > 0.0;
  Phase ph;
  // Requests in flight, by id: slots[id - base] for ids in [base,
  // first + issued); answered slots at the front are retired as they
  // come, so memory follows what is outstanding, not the run length.
  struct Slot {
    std::uint64_t due = 0;
    std::uint64_t sent = 0;
    bool answered = false;
  };
  std::deque<Slot> slots;
  std::uint64_t base = first;
  std::uint64_t issued = 0;
  std::size_t outstanding = 0;
  const std::uint64_t start = now_ns();
  const std::uint64_t stop = start + duration_ns;
  bool stopped = false;
  std::uint64_t drain_deadline = 0;
  net::RequestMsg msg;

  const auto due_of = [&](std::uint64_t i) {
    return start + static_cast<std::uint64_t>(static_cast<double>(i) * 1e9 /
                                              rate);
  };
  const auto issue = [&](std::uint64_t now, std::uint64_t due_ns) {
    gen(first + issued, msg);
    msg.id = first + issued;
    net::encode_request(msg, conns_[issued % conns_.size()].out);
    slots.push_back(Slot{due_ns, now, false});
    ++issued;
    ++outstanding;
  };
  const auto on_frame = [&](std::string_view body, std::uint64_t recv_ns) {
    const net::ResponseMsg resp = net::decode_response(body);
    if (resp.id < base || resp.id - first >= issued ||
        slots[resp.id - base].answered) {
      throw std::runtime_error("response with an unknown or repeated id");
    }
    Slot& slot = slots[resp.id - base];
    slot.answered = true;
    --outstanding;
    if (resp.status == net::Status::Ok) {
      ++ph.ok;
      if (open_loop) {
        ph.due_ns.push_back(slot.due);
        ph.latency_ns.push_back(recv_ns - slot.due);
        ph.rtt_ns.push_back(recv_ns - slot.sent);
      } else if (recv_ns < stop) {
        const auto k = (recv_ns - start) * kSlices / duration_ns;
        ph.slice_ok[static_cast<std::size_t>(k)] += 1;
      }
    } else {
      ++ph.not_ok;
    }
    sink(resp.id, resp);
    while (!slots.empty() && slots.front().answered) {
      slots.pop_front();
      ++base;
    }
  };

  std::vector<pollfd> pfds(conns_.size());
  char buf[1 << 16];
  for (;;) {
    std::uint64_t now = now_ns();
    if (open_loop) {
      while (issued < limit && due_of(issued) <= now) {
        const std::uint64_t d = due_of(issued);
        ph.late_ns.push_back(now - d);
        issue(now, d);
      }
    } else {
      if (now >= stop) stopped = true;
      while (!stopped && issued < limit && outstanding < window) {
        issue(now, now);
      }
    }
    for (Conn& c : conns_) {
      while (c.out_off < c.out.size()) {
        const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                                 c.out.size() - c.out_off, MSG_NOSIGNAL);
        if (n > 0) {
          c.out_off += static_cast<std::size_t>(n);
        } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
          break;
        } else {
          throw std::system_error(errno, std::generic_category(), "send");
        }
      }
      if (c.out_off == c.out.size()) {
        c.out.clear();
        c.out_off = 0;
      }
    }

    const bool done_sending = issued >= limit || (!open_loop && stopped);
    std::int64_t timeout_ns = 0;
    if (done_sending) {
      if (outstanding == 0) break;
      if (drain_deadline == 0) drain_deadline = now + kDrainTimeoutNs;
      if (now >= drain_deadline) {
        ph.lost = outstanding;
        break;
      }
      timeout_ns = static_cast<std::int64_t>(drain_deadline - now);
    } else if (open_loop) {
      // Busy-poll while sending: a client that sleeps between sends pays
      // its own wake-up on every reply, and that would be charged to the
      // server's latency.
      timeout_ns = 0;
    } else {
      timeout_ns = static_cast<std::int64_t>(stop - now);
    }

    for (std::size_t i = 0; i < conns_.size(); ++i) {
      pfds[i].fd = conns_[i].fd;
      pfds[i].events = static_cast<short>(
          POLLIN | (conns_[i].out.empty() ? 0 : POLLOUT));
      pfds[i].revents = 0;
    }
    timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
                static_cast<long>(timeout_ns % 1'000'000'000)};
    if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) < 0 &&
        errno != EINTR) {
      throw std::system_error(errno, std::generic_category(), "ppoll");
    }
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      Conn& c = conns_[i];
      for (;;) {
        const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
        if (n > 0) {
          c.in.append(buf, static_cast<std::size_t>(n));
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EINTR)) break;
        throw std::runtime_error("server closed a load connection");
      }
      const std::uint64_t recv_ns = now_ns();
      for (;;) {
        const std::string_view pending =
            std::string_view(c.in).substr(c.in_off);
        const std::size_t size =
            net::frame_size(pending, net::kMaxFrameBytes);
        if (size == 0) break;
        on_frame(pending.substr(4, size - 4), recv_ns);
        c.in_off += size;
      }
      if (c.in_off == c.in.size()) {
        c.in.clear();
        c.in_off = 0;
      }
    }
  }
  ph.sent = issued;
  ph.start_ns = start;
  ph.stop_ns = stop;
  return ph;
}

std::string http_get(std::uint16_t port, const std::string& target) {
  const int fd = connect_loopback(port);
  const std::string request = "GET " + target +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Connection: close\r\n\r\n";
  std::string in;
  try {
    if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(request.size())) {
      throw std::runtime_error("http_get: short send");
    }
    char buf[1 << 16];
    for (;;) {
      const std::size_t head_end = in.find("\r\n\r\n");
      if (head_end != std::string::npos) {
        std::string head = in.substr(0, head_end);
        std::transform(head.begin(), head.end(), head.begin(), ::tolower);
        const std::size_t cl = head.find("content-length:");
        if (cl != std::string::npos) {
          const std::size_t length = std::stoul(head.substr(cl + 15));
          if (in.size() >= head_end + 4 + length) {
            ::close(fd);
            return in.substr(head_end + 4, length);
          }
        }
      }
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      in.append(buf, static_cast<std::size_t>(n));
    }
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  const std::size_t head_end = in.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    throw std::runtime_error("http_get " + target + ": no response");
  }
  return in.substr(head_end + 4);
}

}  // namespace perfbench
