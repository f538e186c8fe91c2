#ifndef HYPERCAST_HARNESS_OPTIONS_HPP
#define HYPERCAST_HARNESS_OPTIONS_HPP

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/stepwise.hpp"
#include "fault/fault_set.hpp"
#include "hcube/types.hpp"

namespace hypercast::harness {

/// Minimal --key value / --key=value / --flag command-line parser shared
/// by the CLI tool; kept in the library so it is unit-testable.
class Options {
 public:
  /// Parse argv[first..argc). Throws std::invalid_argument on malformed
  /// input (an option without the leading "--", an empty key). Two value
  /// syntaxes: `--key value` (the value must not start with "--", or it
  /// is taken as the next option) and `--key=value` (the value may be
  /// anything, including strings starting with "--").
  ///
  /// A key may repeat: `--header a:1 --header b:2` accumulates both
  /// values in argv order. Single-value getters (get, get_int, ...)
  /// see the *last* occurrence — "later flags win", so a script can
  /// append overrides to a base command line — while get_all returns
  /// every occurrence for genuinely multi-valued options.
  static Options parse(int argc, const char* const* argv, int first = 1);

  bool has(const std::string& key) const { return values_.contains(key); }

  /// Number of times the key was given (0 when absent).
  std::size_t count(const std::string& key) const {
    const auto it = values_.find(key);
    return it == values_.end() ? 0 : it->second.values.size();
  }

  /// True iff the key's last occurrence was a bare `--flag` (no value).
  /// Typed getters reject bare flags with a diagnostic suggesting
  /// `--key=<v>`.
  bool is_bare_flag(const std::string& key) const {
    const auto it = values_.find(key);
    return it != values_.end() && it->second.bare;
  }

  /// Value lookups; `get` throws std::invalid_argument when the key is
  /// missing, the *_or forms substitute a default. For repeated keys
  /// these return the last occurrence; use get_all for all of them.
  std::string get(const std::string& key) const;
  std::string get_or(const std::string& key, std::string fallback) const;

  /// Every value given for the key, in argv order (empty vector when the
  /// key is absent). Bare occurrences contribute "true".
  std::vector<std::string> get_all(const std::string& key) const;
  long get_int(const std::string& key) const;
  long get_int_or(const std::string& key, long fallback) const;

  /// get_int / get_int_or with a range check: a value outside [lo, hi]
  /// throws std::invalid_argument "--key must be in [lo, hi], got v"
  /// instead of wrapping when the caller narrows it.
  long get_int_in(const std::string& key, long lo, long hi) const;
  long get_int_in_or(const std::string& key, long fallback, long lo,
                     long hi) const;
  double get_double(const std::string& key) const;

  /// Comma-separated node list, e.g. "3,5,12".
  std::vector<hcube::NodeId> get_nodes(const std::string& key) const;

  /// "high" / "low" -> Resolution. Defaults to HighToLow.
  hcube::Resolution resolution() const;

  /// "one", "all" or "k:<n>" -> PortModel. Defaults to all-port.
  core::PortModel port() const;

  /// Fault-injection flags shared by the CLI and benches:
  ///   --faults <k|p>       k >= 1 random failed links, or a link fault
  ///                        rate p in (0, 1) (seeded by --fault-seed,
  ///                        default 1)
  ///   --fail-links u:d,... explicit links (low endpoint : dimension)
  ///   --fail-nodes a,b     explicit dead nodes
  /// The three compose. Returns nullopt when none is present.
  std::optional<fault::FaultSet> fault_set(const hcube::Topology& topo) const;

  /// Schedule-cache flags shared by the CLI and the serving daemon:
  ///   --cache on|off       serving-cache mode (also bare --cache = on)
  ///   --cache-shards n     lock stripes (0 = auto)
  ///   --cache-bytes b      total byte budget across shards
  /// Kept as a plain struct so the harness stays independent of the
  /// coll layer; callers translate it into coll::ScheduleCache::Config.
  struct CacheOptions {
    bool enabled = false;
    std::size_t shards = 0;    ///< 0 = auto
    std::size_t max_bytes = 0; ///< 0 = library default
  };

  /// Parse the cache flags; `default_enabled` is what the absence of
  /// --cache means for this tool. Throws std::invalid_argument for
  /// values other than on/off/true/false/1/0.
  CacheOptions cache(bool default_enabled = false) const;

  /// Every key given, in no particular order.
  std::vector<std::string> keys() const;

  /// Reject typos: throws std::invalid_argument naming the first given
  /// key (in sorted order) that is not in `known`, and listing the known
  /// flags — "unknown flag --x (known: --a --b)". Tools with a fixed
  /// flag set call this right after parse().
  void reject_unknown(std::span<const std::string_view> known) const;

 private:
  struct Entry {
    std::vector<std::string> values;  ///< one per occurrence, argv order
    bool bare = false;  ///< last occurrence was `--flag` (value "true")

    const std::string& last() const { return values.back(); }
  };

  /// Value lookup for typed getters: throws for missing keys and for
  /// bare flags (`what` names the expected value kind).
  const std::string& typed_value(const std::string& key,
                                 const char* what) const;

  std::unordered_map<std::string, Entry> values_;
};

}  // namespace hypercast::harness

#endif  // HYPERCAST_HARNESS_OPTIONS_HPP
