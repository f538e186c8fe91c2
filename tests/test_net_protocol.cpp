// The "hypercast-net-v1" wire protocol and its HTTP/JSON fallback:
// framing, request/response roundtrips, malformed-input rejection, the
// deterministic schedule encoding, the minimal HTTP parser, and the
// Prometheus text exposition backing GET /metrics.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "coll/serve_pipeline.hpp"
#include "net/http.hpp"
#include "net/protocol.hpp"
#include "obs/registry.hpp"

namespace hypercast {
namespace {

using net::decode_request;
using net::decode_response;
using net::encode_error_response;
using net::encode_ok_response;
using net::encode_request;
using net::encode_schedule;
using net::frame_size;
using net::ProtocolError;
using net::RequestMsg;
using net::ResponseMsg;
using net::Status;

RequestMsg sample_request() {
  RequestMsg msg;
  msg.id = 0x1122334455667788ull;
  msg.dim = 4;
  msg.resolution = hcube::Resolution::LowToHigh;
  msg.source = 5;
  msg.destinations = {1, 2, 9, 14};
  return msg;
}

TEST(NetProtocol, RequestRoundtrip) {
  std::string wire;
  encode_request(sample_request(), wire);

  const std::size_t size = frame_size(wire, net::kMaxFrameBytes);
  ASSERT_EQ(size, wire.size());
  const RequestMsg decoded =
      decode_request(std::string_view(wire).substr(4, size - 4));
  EXPECT_EQ(decoded.id, 0x1122334455667788ull);
  EXPECT_EQ(decoded.dim, 4);
  EXPECT_EQ(decoded.resolution, hcube::Resolution::LowToHigh);
  EXPECT_EQ(decoded.source, 5u);
  EXPECT_EQ(decoded.destinations, (std::vector<hcube::NodeId>{1, 2, 9, 14}));
}

TEST(NetProtocol, FrameSizeIncrementalAndOversized) {
  std::string wire;
  encode_request(sample_request(), wire);
  // Every strict prefix is "incomplete", never an error.
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    EXPECT_EQ(frame_size(std::string_view(wire).substr(0, cut), 1 << 20), 0u)
        << "prefix of " << cut << " bytes";
  }
  // Two frames back to back: the first frame's size is reported.
  std::string twice = wire + wire;
  EXPECT_EQ(frame_size(twice, 1 << 20), wire.size());
  // A length prefix beyond the cap is unrecoverable.
  std::string huge("\xff\xff\xff\x7f", 4);
  EXPECT_THROW(frame_size(huge, 1 << 20), ProtocolError);
}

TEST(NetProtocol, MalformedRequestsThrow) {
  std::string wire;
  encode_request(sample_request(), wire);
  std::string body(wire.substr(4));

  // Truncated at every possible point.
  for (std::size_t cut = 0; cut < body.size(); ++cut) {
    EXPECT_THROW(decode_request(std::string_view(body).substr(0, cut)),
                 ProtocolError)
        << "truncated to " << cut << " bytes";
  }
  // Trailing garbage.
  EXPECT_THROW(decode_request(body + "x"), ProtocolError);
  // Wrong message type.
  std::string wrong_type = body;
  wrong_type[0] = static_cast<char>(net::kScheduleResponse);
  EXPECT_THROW(decode_request(wrong_type), ProtocolError);
  // Dimension out of range.
  std::string bad_dim = body;
  bad_dim[9] = 0;
  EXPECT_THROW(decode_request(bad_dim), ProtocolError);
  bad_dim[9] = static_cast<char>(hcube::kMaxDim + 1);
  EXPECT_THROW(decode_request(bad_dim), ProtocolError);
  // Bad resolution byte.
  std::string bad_res = body;
  bad_res[10] = 2;
  EXPECT_THROW(decode_request(bad_res), ProtocolError);
  // Destination count disagreeing with the body length.
  std::string bad_count = body;
  bad_count[15] = static_cast<char>(bad_count[15] + 1);
  EXPECT_THROW(decode_request(bad_count), ProtocolError);
}

TEST(NetProtocol, ResponseRoundtrips) {
  coll::ServePipeline pipeline("wsort", nullptr);
  const auto schedule = pipeline.serve(sample_request().to_request());

  std::string ok_wire;
  encode_ok_response(7, *schedule, ok_wire);
  const std::size_t size = frame_size(ok_wire, net::kMaxFrameBytes);
  ASSERT_EQ(size, ok_wire.size());
  const std::string_view ok_body =
      std::string_view(ok_wire).substr(4, size - 4);
  const ResponseMsg ok = decode_response(ok_body);
  EXPECT_EQ(ok.id, 7u);
  EXPECT_EQ(ok.status, Status::Ok);
  std::string expected;
  encode_schedule(*schedule, expected);
  EXPECT_EQ(ok.schedule_body, expected);

  std::string err_wire;
  encode_error_response(9, Status::ShedQueueFull, "queue full", err_wire);
  const ResponseMsg err = decode_response(
      std::string_view(err_wire).substr(4));
  EXPECT_EQ(err.id, 9u);
  EXPECT_EQ(err.status, Status::ShedQueueFull);
  EXPECT_EQ(err.message, "queue full");

  // Bad status byte.
  std::string bad = err_wire.substr(4);
  bad[9] = 17;
  EXPECT_THROW(decode_response(bad), ProtocolError);
}

TEST(NetProtocol, ScheduleEncodingIsDeterministic) {
  coll::ServePipeline pipeline("ucube", nullptr);
  const auto a = pipeline.serve(sample_request().to_request());
  const auto b = pipeline.serve(sample_request().to_request());
  std::string wire_a, wire_b;
  encode_schedule(*a, wire_a);
  encode_schedule(*b, wire_b);
  EXPECT_EQ(wire_a, wire_b);
  EXPECT_FALSE(wire_a.empty());
}

// ---- HTTP ----------------------------------------------------------------

TEST(NetProtocol, OkResponseBytesArePinned) {
  // A hand-built 3-cube tree rooted at node 1, sends added out of sender
  // order. The response groups them by sender in ascending node order,
  // keeping each sender's issue order. Every multi-byte field is
  // little-endian.
  core::MulticastSchedule schedule(hcube::Topology(3), 1);
  schedule.add_send(1, 5, {7, 4});
  schedule.add_send(5, 7);
  schedule.add_send(1, 3, {2});
  schedule.add_send(3, 2);
  schedule.add_send(5, 4);
  schedule.add_send(1, 0);
  schedule.validate();

  std::string out;
  encode_ok_response(0x0123456789abcdefull, schedule, out);
  const std::vector<std::uint8_t> expected = {
      102, 0, 0, 0,                    // frame: body length
      2,                               // message type: schedule response
      0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01,  // request id
      0,                               // status Ok
      1, 0, 0, 0,                      // source
      3, 0, 0, 0,                      // senders
      1, 0, 0, 0, 3, 0, 0, 0,          // sender 1, three sends
      5, 0, 0, 0, 2, 0, 0, 0,          //   -> 5, payload of two
      7, 0, 0, 0, 4, 0, 0, 0,          //      {7, 4}
      3, 0, 0, 0, 1, 0, 0, 0,          //   -> 3, payload of one
      2, 0, 0, 0,                      //      {2}
      0, 0, 0, 0, 0, 0, 0, 0,          //   -> 0, empty payload
      3, 0, 0, 0, 1, 0, 0, 0,          // sender 3, one send
      2, 0, 0, 0, 0, 0, 0, 0,          //   -> 2
      5, 0, 0, 0, 2, 0, 0, 0,          // sender 5, two sends
      7, 0, 0, 0, 0, 0, 0, 0,          //   -> 7
      4, 0, 0, 0, 0, 0, 0, 0,          //   -> 4
  };
  ASSERT_EQ(out.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(static_cast<std::uint8_t>(out[i]), expected[i]) << "byte " << i;
  }
}

TEST(NetHttp, SniffsMethods) {
  EXPECT_TRUE(net::looks_like_http("GET /metrics HTTP/1.1\r\n"));
  EXPECT_TRUE(net::looks_like_http("POST /schedule"));
  EXPECT_FALSE(net::looks_like_http("GE"));  // not enough bytes yet
  EXPECT_FALSE(net::looks_like_http(std::string("\x20\0\0\0", 4)));
}

TEST(NetHttp, ParsesRequestWithBodyIncrementally) {
  const std::string wire =
      "POST /schedule?x=1 HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "Content-Length: 11\r\n"
      "Connection: close\r\n"
      "\r\n"
      "hello world";
  net::HttpRequest request;
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    EXPECT_EQ(net::parse_http_request(wire.substr(0, cut), 1 << 20, request),
              0u)
        << "prefix of " << cut << " bytes";
  }
  ASSERT_EQ(net::parse_http_request(wire, 1 << 20, request), wire.size());
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.target, "/schedule");
  EXPECT_EQ(request.query, "x=1");
  EXPECT_EQ(request.body, "hello world");
  EXPECT_FALSE(request.keep_alive);
  EXPECT_EQ(request.header("host"), "localhost");
}

TEST(NetHttp, RejectsMalformedRequests) {
  net::HttpRequest request;
  EXPECT_THROW(
      net::parse_http_request("NONSENSE\r\n\r\n", 1 << 20, request),
      ProtocolError);
  EXPECT_THROW(net::parse_http_request(
                   "GET / HTTP/1.1\r\nContent-Length: zork\r\n\r\n", 1 << 20,
                   request),
               ProtocolError);
  EXPECT_THROW(net::parse_http_request(
                   "GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                   1 << 20, request),
               ProtocolError);
  // An over-long head (no terminator in sight) must throw, not wait.
  const std::string runaway = "GET /" + std::string(256, 'a');
  EXPECT_THROW(net::parse_http_request(runaway, 64, request), ProtocolError);
}

TEST(NetHttp, ScheduleJsonRoundtrip) {
  const RequestMsg msg = net::parse_schedule_json(
      R"({"id": 3, "n": 4, "source": 5, "dests": [1,2,9,14], "res": "low"})");
  EXPECT_EQ(msg.id, 3u);
  EXPECT_EQ(msg.dim, 4);
  EXPECT_EQ(msg.source, 5u);
  EXPECT_EQ(msg.resolution, hcube::Resolution::LowToHigh);
  EXPECT_EQ(msg.destinations, (std::vector<hcube::NodeId>{1, 2, 9, 14}));

  EXPECT_THROW(net::parse_schedule_json("{"), ProtocolError);
  EXPECT_THROW(net::parse_schedule_json(R"({"n": 4, "zap": 1})"),
               ProtocolError);
  EXPECT_THROW(net::parse_schedule_json(R"({"source": 1})"), ProtocolError);
  EXPECT_THROW(net::parse_schedule_json(R"({"n": 99})"), ProtocolError);
  EXPECT_THROW(net::parse_schedule_json(R"({"n": 4} trailing)"),
               ProtocolError);

  coll::ServePipeline pipeline("wsort", nullptr);
  const auto schedule = pipeline.serve(msg.to_request());
  const std::string json = net::schedule_to_json(*schedule);
  EXPECT_EQ(json.find(R"({"source":5,"sends":[)"), 0u) << json;
}

// ---- Prometheus exposition ----------------------------------------------

TEST(Prometheus, CountersHistogramsAndGauges) {
  obs::Registry registry;
  registry.counter("serve.requests").add(41);
  registry.counter("serve.requests").inc();
  obs::Histogram& h = registry.histogram("net.request_ns");
  h.record(1);    // bucket le=2^1
  h.record(3);    // bucket le=2^2
  h.record(3);
  registry.register_gauge_source("net", [] {
    return std::vector<std::pair<std::string, double>>{
        {"queue_depth", 7.0}};
  });

  const std::string text = registry.to_prometheus();

  EXPECT_NE(text.find("# TYPE hypercast_serve_requests_total counter\n"
                      "hypercast_serve_requests_total 42\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE hypercast_net_request_ns histogram\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("hypercast_net_request_ns_bucket{le=\"2\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("hypercast_net_request_ns_bucket{le=\"4\"} 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("hypercast_net_request_ns_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("hypercast_net_request_ns_sum 7\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("hypercast_net_request_ns_count 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE hypercast_net_queue_depth gauge\n"
                      "hypercast_net_queue_depth 7\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("hypercast_trace_spans 0\n"), std::string::npos)
      << text;

  // Deterministic: same state, same bytes.
  EXPECT_EQ(text, registry.to_prometheus());
  // The whole exposition stays inside the Prometheus charset: after the
  // sanitizer, no '.', '-' or '/' may survive in a metric name.
  for (const char c : {'.', '-', '/'}) {
    for (std::size_t at = text.find(c); at != std::string::npos;
         at = text.find(c, at + 1)) {
      // Allowed only inside numbers (e.g. "0.5") or the "+Inf" label,
      // never at the start of a name line or after "# TYPE ".
      ASSERT_NE(at, 0u);
      EXPECT_NE(text[at - 1], '\n') << "name starts with '" << c << "'";
    }
  }
}

TEST(Prometheus, EmptyRegistryStillExposesTracerGauges) {
  obs::Registry registry;
  const std::string text = registry.to_prometheus();
  EXPECT_NE(text.find("# TYPE hypercast_trace_spans gauge\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("hypercast_trace_dropped 0\n"), std::string::npos);
}

}  // namespace
}  // namespace hypercast
