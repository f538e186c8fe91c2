#ifndef HYPERCAST_SIM_EVENT_QUEUE_HPP
#define HYPERCAST_SIM_EVENT_QUEUE_HPP

#include <cstdint>
#include <vector>

#include "sim/cost_model.hpp"

namespace hypercast::sim {

/// A deterministic discrete-event queue: events fire in (time, insertion
/// order). Scheduling in the past is a programming error and throws
/// std::logic_error in every build type — a release build silently
/// running time backwards would corrupt every delay figure downstream.
///
/// Scheduling structure: a calendar queue (Brown-style bucketed time
/// bands) instead of a binary heap. The active *window* covers
/// [epoch, epoch + width * buckets); a ticket due inside the window is
/// appended to its band's unsorted bucket in O(1), a ticket past the
/// horizon spills to an overflow ladder. Pops drain band by band — a
/// bucket is sorted once when the cursor reaches it, then popped from
/// the back — and when the window runs dry the overflow is re-bucketed
/// into a fresh window whose width/band-count are re-estimated from the
/// pending events' spacing (width is a power of two, so classifying a
/// ticket into its band is one shift). Insert and pop are O(1) amortized; the
/// worst case (every event beyond every horizon) degrades to the
/// O(log n)-ish ladder re-distribution, never to an unsorted scan per
/// pop. Ordering is exactly the old heap's: (time, global insertion
/// seq), so same-timestamp events still fire FIFO and every golden
/// delay figure is bit-identical.
///
/// Events: an engine registers each continuation once as a Handler
/// (function pointer + context) and gets a kind tag back; schedule()
/// enqueues a 24-byte POD ticket {time, seq, arg, kind}, and dispatch
/// calls handlers_[kind] with the ticket's 32-bit arg. No callable is
/// constructed, stored or moved per event.
class EventQueue {
 public:
  /// A continuation: called as fn(ctx, arg). Registered once per
  /// engine; `ctx` must stay valid for the queue's lifetime.
  using Handler = void (*)(void* ctx, std::uint32_t arg);

  /// Current simulated time: the firing time of the event being
  /// processed, 0 before the first event.
  SimTime now() const { return now_; }

  std::uint64_t events_processed() const { return processed_; }

  bool empty() const { return size_ == 0; }

  std::size_t pending() const { return size_; }

  /// Pre-size the ticket storage for about `tickets` concurrently
  /// pending events, so a large run reaches its steady state without
  /// growth reallocations.
  void reserve(std::size_t tickets);

  /// Register a continuation handler; the returned kind tag is valid
  /// for this queue forever (handlers are never unregistered).
  std::uint16_t register_handler(Handler fn, void* ctx);

  /// Fire fn(ctx, arg) of handler `kind` at `at`; events fire in (time,
  /// insertion order). Throws std::logic_error when `at` lies before
  /// now().
  void schedule(SimTime at, std::uint16_t kind, std::uint32_t arg) {
    check_schedule(at);
    push_ticket(Ticket{at, bump_seq(), arg, kind});
  }

  /// Convenience: schedule relative to now().
  void schedule_in(SimTime delay, std::uint16_t kind, std::uint32_t arg) {
    schedule(now_ + delay, kind, arg);
  }

  /// Pop and run the earliest event. Returns false when empty.
  bool run_next();

  /// Drain the queue. Fires at most `max_events` events: as soon as a
  /// further event would exceed the budget, throws std::runtime_error
  /// (runaway-simulation guard) with exactly `max_events` fired.
  void run_to_completion(std::uint64_t max_events = 100'000'000);

  /// Heap bytes currently pinned by the scheduler (buckets, overflow
  /// ladder, handler table) — capacity, not size.
  std::size_t memory_bytes() const;

 private:
  /// Fires handlers_[kind] with `arg` at `at`; `seq` orders same-time
  /// tickets.
  struct Ticket {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t arg;
    std::uint16_t kind;
  };
  static_assert(sizeof(Ticket) == 24, "ticket layout");

  /// Descending (time, seq): the next event to fire sits at the back of
  /// a sorted bucket, so draining a band is pop_back. A struct (not a
  /// function pointer) so std::sort inlines the comparison.
  struct After {
    bool operator()(const Ticket& a, const Ticket& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };

  /// Inline compare with a cold out-of-line throw: this guard runs on
  /// every schedule call of every event in a run.
  void check_schedule(SimTime at) const {
    if (at < now_) throw_past_schedule(at);
  }
  [[noreturn]] void throw_past_schedule(SimTime at) const;

  /// Seq wraparound guard: the tie-break counter is never recycled, so
  /// a queue that processed 2^64 - 1 events (585 years at 1 G events/s)
  /// would wrap FIFO order silently. Trap it instead — one predictable
  /// branch per schedule, and run_to_completion's event budget fires
  /// astronomically earlier in any real run.
  std::uint64_t bump_seq() {
    if (next_seq_ == ~std::uint64_t{0}) {
      throw_seq_exhausted();
    }
    return next_seq_++;
  }
  [[noreturn]] static void throw_seq_exhausted();

  /// Inline fast path: one shift classifies the ticket into its band
  /// (band width is a power of two) and an append lands it. Folding into
  /// the partially-drained current band and overflow spills are the cold
  /// paths.
  void push_ticket(Ticket t) {
    ++size_;
    if (in_window_ != 0 && t.at < horizon_) {
      const std::size_t idx = static_cast<std::size_t>(
          static_cast<std::uint64_t>(t.at - epoch_) >> shift_);
      if (idx > cur_) {
        buckets_[idx].push_back(t);
        occupied_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
        ++in_window_;
      } else {
        push_current_band(t);
      }
    } else {
      overflow_.push_back(t);
    }
  }
  /// Fold into the cursor's (possibly mid-drain) bucket — or, when that
  /// bucket shows the window width was badly over-estimated, respill the
  /// whole window to the ladder for re-estimation. Maintains occupied_
  /// and in_window_ itself (a respill zeroes both).
  void push_current_band(Ticket t);
  void respill(Ticket t);
  Ticket pop_ticket();
  /// Open a fresh window over the overflow ladder (requires a non-empty
  /// overflow): re-estimates width/band count, re-buckets what fits.
  void open_window();

  std::vector<std::vector<Ticket>> buckets_;
  /// One bit per band: band i nonempty. The pop cursor advances by
  /// find-first-set over these words instead of walking (and cache
  /// missing on) thousands of empty buckets' headers.
  std::vector<std::uint64_t> occupied_;
  std::vector<Ticket> overflow_;  ///< tickets at/past the horizon
  SimTime epoch_ = 0;             ///< window start (inclusive)
  int shift_ = 0;                 ///< band width = 1 << shift_ ns
  SimTime horizon_ = 0;           ///< window end (exclusive)
  std::size_t nbands_ = 0;        ///< active band count this window
  std::size_t cur_ = 0;           ///< band the pop cursor is on
  bool cur_sorted_ = false;       ///< buckets_[cur_] sorted descending
  std::size_t in_window_ = 0;     ///< tickets in buckets_
  std::size_t size_ = 0;          ///< total pending tickets

  struct Registered {
    Handler fn;
    void* ctx;
  };
  std::vector<Registered> handlers_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace hypercast::sim

#endif  // HYPERCAST_SIM_EVENT_QUEUE_HPP
