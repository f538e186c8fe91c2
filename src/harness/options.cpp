#include "harness/options.hpp"

#include <algorithm>
#include <stdexcept>

#include "fault/fault_inject.hpp"

namespace hypercast::harness {

Options Options::parse(int argc, const char* const* argv, int first) {
  Options out;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 || arg.size() <= 2) {
      throw std::invalid_argument("expected --option, got '" + arg + "'");
    }
    std::string key;
    std::string value;
    bool bare = false;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      // --key=value: the escape hatch for values that themselves start
      // with "--" (labels, pass-through arguments).
      key = arg.substr(2, eq - 2);
      value = arg.substr(eq + 1);
      if (key.empty()) {
        throw std::invalid_argument("malformed option '" + arg +
                                    "': empty key before '='");
      }
    } else {
      key = arg.substr(2);
      value = "true";
      bare = true;
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
        bare = false;
      }
    }
    // Repeated keys accumulate (multi-value options like --header); the
    // single-value getters read the last occurrence, so overrides
    // appended to a base command line win.
    Entry& entry = out.values_[key];
    entry.values.push_back(std::move(value));
    entry.bare = bare;
  }
  return out;
}

std::string Options::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    throw std::invalid_argument("missing required option --" + key);
  }
  return it->second.last();
}

std::string Options::get_or(const std::string& key,
                            std::string fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? std::move(fallback) : it->second.last();
}

std::vector<std::string> Options::get_all(const std::string& key) const {
  const auto it = values_.find(key);
  return it == values_.end() ? std::vector<std::string>{} : it->second.values;
}

const std::string& Options::typed_value(const std::string& key,
                                        const char* what) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    throw std::invalid_argument("missing required option --" + key);
  }
  if (it->second.bare) {
    throw std::invalid_argument("--" + key + " expects " + what +
                                " but was given as a bare flag; use --" +
                                key + "=<value> or --" + key + " <value>");
  }
  return it->second.last();
}

long Options::get_int(const std::string& key) const {
  const std::string& v = typed_value(key, "an integer");
  std::size_t pos = 0;
  long out = 0;
  try {
    out = std::stol(v, &pos);
  } catch (const std::exception&) {
    pos = 0;  // fall through to the diagnostic below
  }
  if (pos != v.size() || v.empty()) {
    throw std::invalid_argument("--" + key + " expects an integer, got '" +
                                v + "'");
  }
  return out;
}

long Options::get_int_or(const std::string& key, long fallback) const {
  return has(key) ? get_int(key) : fallback;
}

namespace {

long in_range(const std::string& key, long v, long lo, long hi) {
  if (v < lo || v > hi) {
    throw std::invalid_argument("--" + key + " must be in [" +
                                std::to_string(lo) + ", " +
                                std::to_string(hi) + "], got " +
                                std::to_string(v));
  }
  return v;
}

}  // namespace

long Options::get_int_in(const std::string& key, long lo, long hi) const {
  return in_range(key, get_int(key), lo, hi);
}

long Options::get_int_in_or(const std::string& key, long fallback, long lo,
                            long hi) const {
  return in_range(key, get_int_or(key, fallback), lo, hi);
}

double Options::get_double(const std::string& key) const {
  const std::string& v = typed_value(key, "a number");
  std::size_t pos = 0;
  double out = 0.0;
  try {
    out = std::stod(v, &pos);
  } catch (const std::exception&) {
    pos = 0;  // fall through to the diagnostic below
  }
  if (pos != v.size() || v.empty()) {
    throw std::invalid_argument("--" + key + " expects a number, got '" + v +
                                "'");
  }
  return out;
}

std::vector<hcube::NodeId> Options::get_nodes(const std::string& key) const {
  const std::string v = get(key);
  std::vector<hcube::NodeId> out;
  std::size_t start = 0;
  while (start <= v.size()) {
    const std::size_t comma = v.find(',', start);
    const std::string token =
        v.substr(start, comma == std::string::npos ? std::string::npos
                                                   : comma - start);
    if (token.empty()) {
      throw std::invalid_argument("--" + key + ": empty node in list '" + v +
                                  "'");
    }
    std::size_t pos = 0;
    const unsigned long node = std::stoul(token, &pos);
    if (pos != token.size()) {
      throw std::invalid_argument("--" + key + ": bad node '" + token + "'");
    }
    out.push_back(static_cast<hcube::NodeId>(node));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

hcube::Resolution Options::resolution() const {
  const std::string v = get_or("res", "high");
  if (v == "high") return hcube::Resolution::HighToLow;
  if (v == "low") return hcube::Resolution::LowToHigh;
  throw std::invalid_argument("--res expects 'high' or 'low', got '" + v +
                              "'");
}

core::PortModel Options::port() const {
  const std::string v = get_or("port", "all");
  if (v == "all") return core::PortModel::all_port();
  if (v == "one") return core::PortModel::one_port();
  if (v.rfind("k:", 0) == 0) {
    const int k = static_cast<int>(std::stol(v.substr(2)));
    if (k < 1) throw std::invalid_argument("--port k:<n> needs n >= 1");
    return core::PortModel::k_port(k);
  }
  throw std::invalid_argument("--port expects 'one', 'all' or 'k:<n>'");
}

std::optional<fault::FaultSet> Options::fault_set(
    const hcube::Topology& topo) const {
  if (!has("faults") && !has("fail-links") && !has("fail-nodes")) {
    return std::nullopt;
  }
  fault::FaultSet fs(topo);
  if (has("faults")) {
    const double spec = get_double("faults");
    std::size_t count = 0;
    if (spec > 0.0 && spec < 1.0) {
      count = fault::links_for_rate(topo, spec);
    } else if (spec >= 1.0 && spec == static_cast<double>(
                                         static_cast<std::size_t>(spec))) {
      count = static_cast<std::size_t>(spec);
    } else {
      throw std::invalid_argument(
          "--faults expects a link count (>= 1) or a rate in (0, 1)");
    }
    workload::Rng rng(
        static_cast<std::uint64_t>(get_int_or("fault-seed", 1)));
    const fault::FaultSet drawn = fault::random_link_faults(topo, count, rng);
    for (const fault::Link& l : drawn.failed_links()) {
      fs.fail_link(l.low, l.dim);
    }
  }
  if (has("fail-links")) {
    // "u:d" pairs: low endpoint and dimension of each failed link.
    const std::string v = get("fail-links");
    std::size_t start = 0;
    while (start < v.size()) {
      std::size_t comma = v.find(',', start);
      if (comma == std::string::npos) comma = v.size();
      const std::string token = v.substr(start, comma - start);
      const std::size_t colon = token.find(':');
      if (colon == std::string::npos) {
        throw std::invalid_argument("--fail-links expects u:d pairs, got '" +
                                    token + "'");
      }
      fs.fail_link(static_cast<hcube::NodeId>(std::stoul(token.substr(0, colon))),
                   static_cast<hcube::Dim>(std::stol(token.substr(colon + 1))));
      start = comma + 1;
    }
  }
  if (has("fail-nodes")) {
    for (const hcube::NodeId u : get_nodes("fail-nodes")) fs.fail_node(u);
  }
  return fs;
}

Options::CacheOptions Options::cache(bool default_enabled) const {
  CacheOptions out;
  out.enabled = default_enabled;
  if (has("cache")) {
    if (is_bare_flag("cache")) {
      out.enabled = true;  // bare --cache opts in
    } else {
      const std::string v = get("cache");
      if (v == "on" || v == "true" || v == "1") {
        out.enabled = true;
      } else if (v == "off" || v == "false" || v == "0") {
        out.enabled = false;
      } else {
        throw std::invalid_argument("--cache expects on|off, got '" + v + "'");
      }
    }
  }
  const long shards = get_int_or("cache-shards", 0);
  if (shards < 0) {
    throw std::invalid_argument("--cache-shards needs n >= 0 (0 = auto)");
  }
  out.shards = static_cast<std::size_t>(shards);
  const long bytes = get_int_or("cache-bytes", 0);
  if (bytes < 0) {
    throw std::invalid_argument("--cache-bytes needs b >= 0 (0 = default)");
  }
  out.max_bytes = static_cast<std::size_t>(bytes);
  return out;
}

std::vector<std::string> Options::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, v] : values_) out.push_back(k);
  return out;
}

void Options::reject_unknown(std::span<const std::string_view> known) const {
  std::vector<std::string> given = keys();
  std::sort(given.begin(), given.end());
  for (const std::string& key : given) {
    if (std::find(known.begin(), known.end(), key) != known.end()) continue;
    std::string list;
    for (const std::string_view k : known) list += " --" + std::string(k);
    throw std::invalid_argument("unknown flag --" + key + " (known:" + list +
                                ")");
  }
}

}  // namespace hypercast::harness
