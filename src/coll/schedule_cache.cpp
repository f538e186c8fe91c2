#include "coll/schedule_cache.hpp"

#include <algorithm>
#include <array>
#include <thread>

#include "fault/fault_set.hpp"
#include "obs/histogram.hpp"
#include "obs/registry.hpp"

namespace hypercast::coll {

namespace {

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

std::uint64_t next_instance_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

/// Thread-local L1: a small direct-mapped table shared by every cache
/// instance in the process (slots are tagged with the owning instance).
/// Slot residency pins a shared_ptr, so the table is deliberately small:
/// it exists to make the *hot* path lock-free, not to be a second cache.
struct L1Slot {
  std::uint64_t instance = 0;    ///< owning ScheduleCache
  std::uint64_t generation = 0;  ///< shard generation at stamp time
  core::CacheKey key;
  std::shared_ptr<const core::MulticastSchedule> schedule;
};

constexpr std::size_t kL1Slots = 128;  // power of two

std::array<L1Slot, kL1Slots>& l1_table() {
  thread_local std::array<L1Slot, kL1Slots> table;
  return table;
}

L1Slot& l1_slot_for(std::uint64_t hash) {
  return l1_table()[(hash >> 8) & (kL1Slots - 1)];
}

/// Per-thread keying scratch: the canonical key and the relative chain
/// buffer, recycled across calls and cache instances (the zero-allocation
/// steady state of a hit).
struct KeyScratch {
  core::CacheKey key;
  std::vector<core::NodeId> chain;
};

KeyScratch& key_scratch() {
  thread_local KeyScratch scratch;
  return scratch;
}

}  // namespace

ScheduleCache::ScheduleCache() : ScheduleCache(Config{}) {}

ScheduleCache::ScheduleCache(Config config)
    : config_(config), instance_id_(next_instance_id()) {
  std::size_t shards = config_.shards;
  if (shards == 0) {
    shards = std::thread::hardware_concurrency();
    if (shards == 0) shards = 8;
  }
  shards = std::min(round_up_pow2(shards), std::size_t{256});
  shard_mask_ = shards - 1;
  per_shard_budget_ = std::max<std::size_t>(config_.max_bytes / shards, 1);
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ScheduleCache::~ScheduleCache() { detach_from_registry(); }

std::shared_ptr<const core::MulticastSchedule> ScheduleCache::get(
    const core::CacheKey& key) {
  Shard& shard = *shards_[shard_of(key)];

  // Lock-free fast path: thread-local slot, validated by instance id
  // and shard generation.
  L1Slot& slot = l1_slot_for(key.hash);
  if (slot.instance == instance_id_ &&
      slot.generation == shard.generation.load(std::memory_order_acquire) &&
      slot.key == key) {
    l1_hits_.inc();
    return slot.schedule;
  }

  std::shared_ptr<const core::MulticastSchedule> found;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      misses_.inc();
      return nullptr;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru);
    found = it->second.schedule;
    hits_.inc();
  }

  // Stamp the L1 slot outside the lock (thread-local, no races).
  slot.instance = instance_id_;
  slot.generation = shard.generation.load(std::memory_order_acquire);
  slot.key = key;
  slot.schedule = found;
  return found;
}

void ScheduleCache::put(
    const core::CacheKey& key,
    std::shared_ptr<const core::MulticastSchedule> schedule) {
  Shard& shard = *shards_[shard_of(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto [it, inserted] = shard.map.try_emplace(key);
  // Charge the stored copy: the caller's key may be a recycled scratch
  // buffer whose capacity reflects some earlier, larger request.
  const std::size_t bytes =
      schedule->footprint_bytes() + it->first.footprint_bytes() + 64;
  Entry& entry = it->second;
  if (!inserted) {
    shard.bytes -= entry.bytes;
    shard.lru.erase(entry.lru);
  }
  entry.schedule = std::move(schedule);
  entry.bytes = bytes;
  shard.lru.push_front(&it->first);
  entry.lru = shard.lru.begin();
  shard.bytes += bytes;
  evict_over_budget_locked(shard);
}

std::shared_ptr<const core::MulticastSchedule> ScheduleCache::get_translated(
    const core::MulticastRequest& request, std::uint8_t algo,
    const RelativeBuilder& build, const WalkTimers* timers,
    bool sampled) {
  KeyScratch& tls = key_scratch();
  const core::NodeId mask = request.source;
  sampled = sampled && timers != nullptr;
  const std::uint64_t t_start = sampled ? obs::now_ns() : 0;
  // One canonicalization pass yields both identities: the absolute one
  // (this exact translation) and, via a cheap rekey() of the header, the
  // relative one (shared by every translation of the chain).
  core::canonical_key_into(request.topo, request.source, request.destinations,
                           algo, /*absolute=*/mask != 0, kHashSeed,
                           tls.key);
  std::uint64_t t_probe = 0;
  if (sampled) {
    t_probe = obs::now_ns();
    timers->canonicalize_ns->record(t_probe - t_start);
  }
  if (mask != 0) {
    if (auto hit = get(tls.key)) {
      if (sampled) {
        const std::uint64_t t_end = obs::now_ns();
        timers->hit_ns->record(t_end - t_probe);
        timers->total_ns->record(t_end - t_start);
      }
      return hit;
    }
    core::rekey(tls.key, /*absolute=*/false, 0);
  }
  auto rel = get(tls.key);
  if (rel == nullptr) {
    const obs::SpanGuard span(timers != nullptr ? timers->build_span
                                                : nullptr);
    const std::uint64_t t_build = timers != nullptr ? obs::now_ns() : 0;
    core::relative_chain_from_key(request.topo, tls.key, tls.chain);
    auto built = std::make_shared<core::MulticastSchedule>(request.topo, 0);
    build(tls.chain, *built);
    built->finalize();
    put(tls.key, built);
    if (timers != nullptr) {
      timers->build_ns->record(obs::now_ns() - t_build);
    }
    rel = std::move(built);
  } else if (sampled && mask == 0) {
    timers->hit_ns->record(obs::now_ns() - t_probe);
  }
  if (mask == 0) {
    if (sampled) timers->total_ns->record(obs::now_ns() - t_start);
    return rel;  // zero-copy: the relative origin
  }
  const obs::SpanGuard span(timers != nullptr ? timers->translate_span
                                              : nullptr);
  const std::uint64_t t_translate = timers != nullptr ? obs::now_ns() : 0;
  auto out = std::make_shared<core::MulticastSchedule>(request.topo,
                                                       request.source);
  out->assign_translated(*rel, mask);
  out->finalize();
  // Publish the materialized translation under its absolute identity so
  // the next identical request shares it without copying.
  core::rekey(tls.key, /*absolute=*/true, mask);
  put(tls.key, out);
  if (timers != nullptr) {
    const std::uint64_t t_end = obs::now_ns();
    timers->translate_ns->record(t_end - t_translate);
    if (sampled) timers->total_ns->record(t_end - t_start);
  }
  return out;
}

std::size_t ScheduleCache::probe_shard(const core::MulticastRequest& request,
                                       std::uint8_t algo) const {
  core::CacheKey& key = key_scratch().key;
  core::canonical_key_into(request.topo, request.source, request.destinations,
                           algo, /*absolute=*/request.source != 0,
                           kHashSeed, key);
  return shard_of(key);
}

const core::CacheKey& ScheduleCache::fault_key(
    const core::MulticastRequest& request, std::uint8_t algo,
    const fault::FaultSet& faults, std::uint64_t mix) const {
  core::CacheKey& key = key_scratch().key;
  core::canonical_key_into(request.topo, request.source, request.destinations,
                           algo, /*absolute=*/true, kHashSeed, key);
  core::scope_to_faults(key, faults.ids(), faults.fingerprint(kHashSeed) ^ mix);
  return key;
}

void ScheduleCache::evict_over_budget_locked(Shard& shard) {
  while (shard.bytes > per_shard_budget_ && shard.lru.size() > 1) {
    const core::CacheKey* victim = shard.lru.back();
    const auto it = shard.map.find(*victim);
    shard.bytes -= it->second.bytes;
    shard.lru.pop_back();
    shard.map.erase(it);
    evictions_.inc();
  }
}

void ScheduleCache::clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->map.clear();
    shard->lru.clear();
    shard->bytes = 0;
    // Generation bump retires every thread-local L1 slot pointing here.
    shard->generation.fetch_add(1, std::memory_order_acq_rel);
  }
}

ScheduleCache::Stats ScheduleCache::stats() const {
  Stats out;
  out.hits = hits_.value();
  out.l1_hits = l1_hits_.value();
  out.misses = misses_.value();
  out.evictions = evictions_.value();
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    out.entries += shard->map.size();
    out.bytes += shard->bytes;
  }
  return out;
}

void ScheduleCache::attach_to_registry(obs::Registry& registry,
                                       const std::string& name) {
  detach_from_registry();
  attached_registry_ = &registry;
  attached_name_ = name;
  registry.register_gauge_source(name, [this] {
    std::vector<std::pair<std::string, double>> fields;
    stats().for_each_field([&fields](const char* field, double value) {
      fields.emplace_back(field, value);
    });
    return fields;
  });
}

void ScheduleCache::detach_from_registry() {
  if (attached_registry_ != nullptr) {
    attached_registry_->unregister_gauge_source(attached_name_);
    attached_registry_ = nullptr;
    attached_name_.clear();
  }
}

}  // namespace hypercast::coll
