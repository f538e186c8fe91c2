#ifndef HYPERCAST_SIM_TRACE_HPP
#define HYPERCAST_SIM_TRACE_HPP

#include <string>
#include <vector>

#include "hcube/topology.hpp"
#include "sim/cost_model.hpp"

namespace hypercast::metrics {
class JsonWriter;
}

namespace hypercast::sim {

/// Per-message timeline recorded by the simulator when tracing is on.
struct MessageTrace {
  hcube::NodeId from = 0;
  hcube::NodeId to = 0;
  int hops = 0;
  SimTime issue = 0;          ///< send call begins (startup starts)
  SimTime header_start = 0;   ///< startup done, header enters the network
  SimTime path_acquired = 0;  ///< header reached the destination router
  SimTime tail = 0;           ///< body fully streamed (channels released)
  SimTime done = 0;           ///< receive overhead finished at the target
  SimTime blocked_ns = 0;     ///< total time spent waiting on busy channels
  int blocked_times = 0;      ///< number of acquisitions that had to wait
};

/// Aggregate counters of one simulation run.
struct SimStats {
  std::uint64_t messages = 0;
  std::uint64_t blocked_acquisitions = 0;  ///< channel waits (0 for
                                           ///< contention-free schedules)
  SimTime total_blocked_ns = 0;
  std::uint64_t events = 0;
};

struct Trace {
  std::vector<MessageTrace> messages;

  /// Multi-line rendering, one message per line, ordered by issue time.
  std::string format(const hcube::Topology& topo) const;

  /// Chrome trace-event JSON (chrome://tracing / Perfetto loadable): a
  /// bare array of events. Each MessageTrace becomes four complete
  /// ("ph":"X") events on the *destination node's* row (tid = to, so a
  /// row reads as that node's incoming worm pipeline), timestamps in
  /// microseconds rebased to the earliest issue:
  ///   "startup" [issue, header_start)        — CPU send startup
  ///   "header"  [header_start, path_acquired) — header traversal; worm
  ///             blocking is part of this interval (the engine folds
  ///             waits on busy channels into path acquisition), reported
  ///             via args.blocked_us / args.blocked_times rather than as
  ///             separate events
  ///   "body"    [path_acquired, tail)         — body flits streaming
  ///   "recv"    [tail, done)                  — receive overhead
  /// plus one "M" thread_name metadata event per destination node.
  /// See docs/OBSERVABILITY.md for the full mapping rationale.
  std::string to_chrome_json(const hcube::Topology& topo) const;

  /// Append the same events through `w` (no enclosing array) with
  /// timestamps rebased to `epoch` — for merging simulator worms and
  /// obs::Tracer spans into one document.
  void write_chrome_events(metrics::JsonWriter& w, const hcube::Topology& topo,
                           SimTime epoch) const;

  /// Earliest issue timestamp, or 0 when empty (the natural epoch).
  SimTime earliest_issue() const;
};

}  // namespace hypercast::sim

#endif  // HYPERCAST_SIM_TRACE_HPP
