#include "engine/plan_cache.h"

#include <algorithm>
#include <utility>

#include "telemetry/metrics.h"
#include "telemetry/span.h"
#include "util/check.h"
#include "util/fingerprint.h"

namespace wavebatch {

namespace {

/// Cache traffic is aggregated across all PlanCache instances (there is
/// normally exactly one, PlanCache::Shared()); per-instance numbers stay
/// available via hits()/misses()/evictions().
struct PlanCacheMetrics {
  telemetry::Counter* hits;
  telemetry::Counter* misses;
  telemetry::Counter* evictions;
};

const PlanCacheMetrics& CacheMetrics() {
  static const PlanCacheMetrics metrics = [] {
    auto& registry = telemetry::MetricsRegistry::Default();
    PlanCacheMetrics m;
    m.hits = registry.GetCounter("wavebatch_plan_cache_hits_total", {},
                                 "PlanCache lookups served from the LRU.");
    m.misses = registry.GetCounter("wavebatch_plan_cache_misses_total", {},
                                   "PlanCache lookups that built a plan.");
    m.evictions =
        registry.GetCounter("wavebatch_plan_cache_evictions_total", {},
                            "Plans dropped off the LRU tail.");
    return m;
  }();
  return metrics;
}

}  // namespace

using fingerprint::AppendF64;
using fingerprint::AppendString;
using fingerprint::AppendU64;

std::string PlanCache::Fingerprint(const QueryBatch& batch,
                                   const LinearStrategy& strategy,
                                   const PenaltyFunction* penalty) {
  std::string key;
  key += strategy.name();
  key += '\0';
  // Content, not address: a recycled allocation must not revive a stale
  // plan, and equal penalties should share one. Penalty-free plans get a
  // marker no Fingerprint() can produce (it always starts with a length-
  // prefixed type tag, so a lone zero-length field cannot collide).
  if (penalty == nullptr) {
    AppendU64(key, 0);
  } else {
    AppendString(key, penalty->Fingerprint());
  }
  const Schema& schema = batch.schema();
  AppendU64(key, schema.num_dims());
  for (const Dimension& d : schema.dims()) {
    key += d.name;
    key += '\0';
    AppendU64(key, d.size);
  }
  AppendU64(key, batch.size());
  for (const RangeSumQuery& q : batch.queries()) {
    for (const Interval& iv : q.range().intervals()) {
      AppendU64(key, (static_cast<uint64_t>(iv.lo) << 32) | iv.hi);
    }
    AppendU64(key, q.poly().terms().size());
    for (const Monomial& m : q.poly().terms()) {
      AppendF64(key, m.coeff);
      for (uint32_t e : m.exponents) AppendU64(key, e);
    }
  }
  return key;
}

PlanCache::PlanCache(size_t capacity) : capacity_(capacity) {
  WB_CHECK_GT(capacity_, 0u);
}

Result<std::shared_ptr<const EvalPlan>> PlanCache::GetOrBuild(
    const QueryBatch& batch, const LinearStrategy& strategy,
    std::shared_ptr<const PenaltyFunction> penalty) {
  telemetry::ScopedSpan span("plan_cache_lookup");
  const std::string key = Fingerprint(batch, strategy, penalty.get());
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = by_key_.find(key);
    if (it != by_key_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++hits_;
      CacheMetrics().hits->Add();
      return it->second->plan;
    }
    ++misses_;
    CacheMetrics().misses->Add();
  }
  // Build outside the lock: planning can be expensive and must not block
  // concurrent hits. Two threads missing the same key both build; the
  // second insert wins, which is harmless (plans are immutable and equal).
  Result<std::shared_ptr<const EvalPlan>> plan =
      EvalPlan::Build(batch, strategy, std::move(penalty));
  if (!plan.ok()) return plan.status();
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = by_key_.find(key);
    if (it != by_key_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      it->second->plan = plan.value();
    } else {
      lru_.push_front(Entry{key, plan.value()});
      by_key_[key] = lru_.begin();
      if (lru_.size() > capacity_) {
        by_key_.erase(lru_.back().key);
        lru_.pop_back();
        ++evictions_;
        CacheMetrics().evictions->Add();
      }
    }
  }
  return plan;
}

uint64_t PlanCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t PlanCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

uint64_t PlanCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

std::vector<PlanCache::EntryInfo> PlanCache::Entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<EntryInfo> out;
  out.reserve(lru_.size());
  for (const Entry& entry : lru_) {
    EntryInfo info;
    static const char* kHex = "0123456789abcdef";
    const size_t prefix = std::min<size_t>(8, entry.key.size());
    info.fingerprint_prefix.reserve(prefix * 2);
    for (size_t i = 0; i < prefix; ++i) {
      const unsigned char byte = static_cast<unsigned char>(entry.key[i]);
      info.fingerprint_prefix += kHex[byte >> 4];
      info.fingerprint_prefix += kHex[byte & 0xf];
    }
    info.plan_entries = entry.plan->size();
    info.num_queries = entry.plan->num_queries();
    out.push_back(std::move(info));
  }
  return out;
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  by_key_.clear();
  hits_ = 0;
  misses_ = 0;
  evictions_ = 0;
}

PlanCache& PlanCache::Shared() {
  static PlanCache* cache = new PlanCache(64);
  return *cache;
}

}  // namespace wavebatch
