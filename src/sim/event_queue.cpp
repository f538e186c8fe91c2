#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <string>

namespace hypercast::sim {
namespace {

constexpr std::size_t kMinBands = 16;
constexpr std::size_t kMaxBands = std::size_t{1} << 16;

/// A sorted current band absorbing this many tickets means the window
/// width was badly over-estimated (every push folds into the cursor's
/// bucket and the calendar is degenerating to insertion sort) — spill
/// the window back to the ladder and re-estimate. Deliberately high:
/// below it, binary-search + memmove inserts into one warm bucket beat
/// window churn by a wide margin (measured ~6× on a 10-cube broadcast,
/// whose steady state is a few hundred pending events), so this is a
/// big-run safety valve, not the common path.
constexpr std::size_t kRespillLimit = 512;

}  // namespace

void EventQueue::throw_past_schedule(SimTime at) const {
  throw std::logic_error("cannot schedule an event in the past (at=" +
                         std::to_string(at) +
                         ", now=" + std::to_string(now_) + ")");
}

void EventQueue::throw_seq_exhausted() {
  throw std::runtime_error(
      "event seq counter exhausted: FIFO tie-break would wrap");
}

void EventQueue::reserve(std::size_t tickets) { overflow_.reserve(tickets); }

std::uint16_t EventQueue::register_handler(Handler fn, void* ctx) {
  if (handlers_.size() > std::numeric_limits<std::uint16_t>::max()) {
    throw std::runtime_error("too many event handlers registered");
  }
  handlers_.push_back(Registered{fn, ctx});
  return static_cast<std::uint16_t>(handlers_.size() - 1);
}

void EventQueue::push_current_band(Ticket t) {
  // At or before the band the cursor drains: fold into the current
  // bucket; the (at, seq) sort keeps it correctly ordered there.
  std::vector<Ticket>& b = buckets_[cur_];
  if (cur_sorted_) {
    if (b.size() >= kRespillLimit && b.front().at != b.back().at) {
      // Only a band whose tickets actually span some time is worth
      // re-splitting; a same-instant pile-up can't be bucketed finer.
      respill(t);
      return;
    }
    // Keep descending order so pops stay pop_back. Same-time events
    // insert before lower seqs, i.e. fire after them: FIFO. (A heap
    // here benches ~40% slower: the sorted drain is pure pop_back and
    // the mid-drain insert is rare enough that its memmove loses to
    // per-pop sift-downs.)
    b.insert(std::upper_bound(b.begin(), b.end(), t, After{}), t);
  } else {
    b.push_back(t);
  }
  occupied_[cur_ >> 6] |= std::uint64_t{1} << (cur_ & 63);
  ++in_window_;
}

void EventQueue::respill(Ticket t) {
  // The window's width came from a stale or unrepresentative estimate
  // and the cursor band keeps absorbing sorted inserts. Dump every
  // in-window ticket back on the ladder; the next pop re-opens a window
  // whose width reflects the real pending distribution. At most one
  // respill per window: this empties it, and nothing can fold until the
  // next open_window(). Ordering is untouched — tickets carry their
  // (at, seq) wherever they sit.
  overflow_.push_back(t);
  for (std::size_t w = cur_ >> 6; w < occupied_.size(); ++w) {
    std::uint64_t word = occupied_[w];
    occupied_[w] = 0;
    while (word != 0) {
      const std::size_t band = (w << 6) + std::countr_zero(word);
      word &= word - 1;
      std::vector<Ticket>& b = buckets_[band];
      overflow_.insert(overflow_.end(), b.begin(), b.end());
      b.clear();
    }
  }
  in_window_ = 0;
}

void EventQueue::open_window() {
  // Precondition: window empty, overflow non-empty.
  const std::size_t k = overflow_.size();
  // Width ≈ 2× the mean inter-event gap rounded up to a power of two,
  // so a band holds a couple of events on average and classification is
  // one shift; an all-same-time overflow degenerates to width 1 with
  // everything in band 0. A skewed pending set can over-estimate the
  // width (a wide window whose cursor band absorbs everything); that is
  // *cheaper* than fine widths at small scale — a few hundred pending
  // events drain fastest as one warm sorted bucket — and at large scale
  // the respill valve re-opens the window before inserts hit O(n). (A
  // median-gap estimate was tried instead and lost ~6×: its fine widths
  // give tiny horizons, so steady-state scheduling at now+δ constantly
  // outruns the window and every few hundred pops pay an O(pending)
  // re-open.)
  SimTime mn = overflow_.front().at;
  SimTime mx = mn;
  for (const Ticket& t : overflow_) {
    mn = std::min(mn, t.at);
    mx = std::max(mx, t.at);
  }
  const SimTime raw =
      std::max<SimTime>(1, 2 * ((mx - mn) / static_cast<SimTime>(k)));
  shift_ = static_cast<int>(
      std::bit_width(static_cast<std::uint64_t>(raw - 1)));
  const std::size_t nbands = std::bit_ceil(std::clamp(k, kMinBands, kMaxBands));
  if (buckets_.size() < nbands) buckets_.resize(nbands);
  occupied_.assign(nbands / 64 + 1, 0);
  nbands_ = nbands;
  epoch_ = mn;
  // Overflow-safe horizon: a huge width saturates to "everything fits".
  const SimTime maxt = std::numeric_limits<SimTime>::max();
  if ((static_cast<std::uint64_t>(maxt - epoch_) >> shift_) <
      static_cast<std::uint64_t>(nbands_)) {
    horizon_ = maxt;
  } else {
    horizon_ = epoch_ + (static_cast<SimTime>(nbands_) << shift_);
  }
  // Re-bucket what fits; the rest stays on the ladder for the next
  // window. The minimum lands in band 0, so every window makes progress.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < overflow_.size(); ++i) {
    const Ticket t = overflow_[i];
    if (t.at < horizon_) {
      const std::size_t idx = static_cast<std::size_t>(
          static_cast<std::uint64_t>(t.at - epoch_) >> shift_);
      buckets_[idx].push_back(t);
      occupied_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
      ++in_window_;
    } else {
      overflow_[kept++] = t;
    }
  }
  overflow_.resize(kept);
  cur_ = 0;
  cur_sorted_ = false;
}

EventQueue::Ticket EventQueue::pop_ticket() {
  if (in_window_ == 0) open_window();
  // Fast path: the cursor's bucket is mid-drain (sorted, nonempty) —
  // it holds the minimum, because pushes at or before it fold into it.
  // Only when it runs dry does the cursor jump, by find-first-set over
  // the occupancy bitmap, to the next occupied band (one exists:
  // in_window_ > 0) and sort it.
  if (!cur_sorted_ || buckets_[cur_].empty()) {
    std::size_t w = cur_ >> 6;
    std::uint64_t word = occupied_[w] & (~std::uint64_t{0} << (cur_ & 63));
    while (word == 0) word = occupied_[++w];
    cur_ = (w << 6) + std::countr_zero(word);
    std::vector<Ticket>& nb = buckets_[cur_];
    if (nb.size() > 1) std::sort(nb.begin(), nb.end(), After{});
    cur_sorted_ = true;
  }
  std::vector<Ticket>& b = buckets_[cur_];
  const Ticket t = b.back();
  b.pop_back();
  if (b.empty()) {
    occupied_[cur_ >> 6] &= ~(std::uint64_t{1} << (cur_ & 63));
  }
  --in_window_;
  --size_;
  return t;
}

bool EventQueue::run_next() {
  if (size_ == 0) return false;
  const Ticket ticket = pop_ticket();
  now_ = ticket.at;
  ++processed_;
  const Registered h = handlers_[ticket.kind];
  h.fn(h.ctx, ticket.arg);
  return true;
}

void EventQueue::run_to_completion(std::uint64_t max_events) {
  for (std::uint64_t fired = 0; size_ != 0; ++fired) {
    if (fired == max_events) {
      throw std::runtime_error("event budget exhausted: runaway simulation?");
    }
    run_next();
  }
}

std::size_t EventQueue::memory_bytes() const {
  std::size_t bytes = 0;
  for (const std::vector<Ticket>& b : buckets_) {
    bytes += b.capacity() * sizeof(Ticket);
  }
  bytes += occupied_.capacity() * sizeof(std::uint64_t);
  bytes += overflow_.capacity() * sizeof(Ticket);
  bytes += handlers_.capacity() * sizeof(Registered);
  return bytes;
}

}  // namespace hypercast::sim
