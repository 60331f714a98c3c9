#include "runtime/planner_cache.h"

#include <cstring>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/hash.h"

namespace anr::runtime {

namespace {

// Canonical byte encoding of the planner configuration. Appends raw
// little-endian value bytes with single-byte field tags; containers are
// length-prefixed, so distinct structures can never encode to the same
// byte string.
class Fingerprint {
 public:
  void tag(char c) { bytes_.push_back(c); }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }

  void f64(double d) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    u64(bits);
  }

  void i32(int v) { u64(static_cast<std::uint64_t>(static_cast<std::uint32_t>(v))); }
  void b(bool v) { bytes_.push_back(v ? '\1' : '\0'); }

  void polygon(const Polygon& p) {
    u64(p.size());
    for (Vec2 q : p.points()) {
      f64(q.x);
      f64(q.y);
    }
  }

  void foi(const FieldOfInterest& f) {
    polygon(f.outer());
    u64(f.holes().size());
    for (const Polygon& h : f.holes()) polygon(h);
  }

  void str(std::string_view s) {
    u64(s.size());
    bytes_.append(s);
  }

  std::string take() { return std::move(bytes_); }

 private:
  std::string bytes_;
};

}  // namespace

CacheKey CacheKey::of(const FieldOfInterest& m1,
                      const FieldOfInterest& m2_shape, double r_c,
                      const PlannerOptions& options,
                      std::string_view closure_tag) {
  ANR_CHECK_MSG(!(options.density || options.disk.custom_weight) ||
                    !closure_tag.empty(),
                "planner options carry closures (density / custom disk "
                "weight); supply a closure_tag naming them for cache keying");
  Fingerprint fp;
  fp.tag('1');  // fingerprint format version
  fp.foi(m1);
  fp.foi(m2_shape);
  fp.f64(r_c);
  fp.tag('o');
  fp.i32(static_cast<int>(options.objective));
  fp.i32(options.rotation.initial_partitions);
  fp.i32(options.rotation.depth);
  fp.i32(options.mesher.target_grid_points);
  fp.f64(options.mesher.jitter_frac);
  fp.u64(options.mesher.seed);
  fp.i32(static_cast<int>(options.disk.weights));
  fp.i32(static_cast<int>(options.disk.spacing));
  fp.f64(options.disk.tol);
  fp.f64(options.disk.over_relax);
  fp.i32(static_cast<int>(options.disk.solver));
  fp.i32(options.disk.multigrid_threshold);
  fp.b(static_cast<bool>(options.disk.custom_weight));
  fp.i32(options.cvt_samples);
  fp.i32(options.adjust.max_iters);
  fp.f64(options.adjust.tol);
  fp.i32(options.max_adjust_steps);
  fp.i32(static_cast<int>(options.adjustment));
  fp.i32(static_cast<int>(options.extraction));
  fp.b(options.safe_adjustment);
  fp.f64(options.transition_time);
  fp.b(options.distributed);
  fp.b(options.exhaustive_rotation);
  fp.f64(options.alpha_scale);
  fp.b(static_cast<bool>(options.density));
  // Terrain-routing options: two planners differing only in motion model
  // or cost-field knobs must never share a cache entry.
  fp.tag('t');
  fp.i32(static_cast<int>(options.trajectory.motion));
  const TerrainCostOptions& tc = options.trajectory.terrain;
  fp.f64(tc.slope_weight);
  fp.f64(tc.uphill_penalty);
  fp.i32(tc.max_cells);
  fp.f64(tc.padding_cr);
  fp.u64(tc.mud.size());
  for (const MudPatch& m : tc.mud) {
    fp.f64(m.center.x);
    fp.f64(m.center.y);
    fp.f64(m.radius);
    fp.f64(m.cost);
  }
  fp.u64(tc.keep_out.size());
  for (const Polygon& ko : tc.keep_out) fp.polygon(ko);
  fp.u64(tc.terrain.hills().size());
  for (const Hill& h : tc.terrain.hills()) {
    fp.f64(h.center.x);
    fp.f64(h.center.y);
    fp.f64(h.amplitude);
    fp.f64(h.radius);
  }
  fp.str(closure_tag);

  CacheKey key;
  key.bytes_ = fp.take();
  key.hash_ = fnv1a64(key.bytes_);
  return key;
}

PlannerCache::PlannerCache(std::size_t capacity) : capacity_(capacity) {
  ANR_CHECK(capacity_ >= 1);
}

void PlannerCache::set_observer(obs::Registry* registry,
                                const obs::Labels& labels) {
  ins_ = Instruments{};
  if (registry == nullptr || !registry->enabled()) return;
  ins_.hits = registry->counter("anr_cache_hits_total", labels,
                                "planner-cache lookups served by an entry");
  ins_.misses = registry->counter("anr_cache_misses_total", labels,
                                  "planner-cache lookups that had to build");
  ins_.coalesced =
      registry->counter("anr_cache_coalesced_total", labels,
                        "lookups that waited on an in-flight build");
  ins_.constructions = registry->counter("anr_cache_constructions_total",
                                         labels,
                                         "planners actually constructed");
  ins_.evictions = registry->counter("anr_cache_evictions_total", labels,
                                     "LRU evictions of ready planners");
  ins_.entries =
      registry->gauge("anr_cache_entries", labels, "resident cached planners");
}

std::shared_ptr<const MarchPlanner> PlannerCache::get_or_build(
    const CacheKey& key,
    const std::function<std::unique_ptr<MarchPlanner>()>& build,
    bool* constructed) {
  if (constructed != nullptr) *constructed = false;

  std::shared_ptr<Entry> entry;
  bool builder = false;
  {
    std::shared_lock<std::shared_mutex> read(map_mutex_);
    auto it = map_.find(key);
    if (it != map_.end()) entry = it->second;
  }
  if (!entry) {
    std::unique_lock<std::shared_mutex> write(map_mutex_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      entry = it->second;
    } else {
      if (map_.size() >= capacity_) evict_lru_locked();
      entry = std::make_shared<Entry>();
      map_.emplace(key, entry);
      obs::set(ins_.entries, static_cast<double>(map_.size()));
      builder = true;
    }
  }
  entry->last_used.store(tick_.fetch_add(1, std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);

  if (builder) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    obs::inc(ins_.misses);
    std::shared_ptr<const MarchPlanner> planner;
    std::exception_ptr error;
    try {
      planner = std::shared_ptr<const MarchPlanner>(build());
      ANR_CHECK_MSG(planner != nullptr, "planner build returned null");
    } catch (...) {
      error = std::current_exception();
    }
    if (error) {
      // Evict the placeholder so a later request can retry, then fail
      // this caller and every waiter.
      {
        std::unique_lock<std::shared_mutex> write(map_mutex_);
        auto it = map_.find(key);
        if (it != map_.end() && it->second == entry) map_.erase(it);
        obs::set(ins_.entries, static_cast<double>(map_.size()));
      }
      {
        std::lock_guard<std::mutex> lock(entry->m);
        entry->error = error;
        entry->done = true;
      }
      entry->cv.notify_all();
      std::rethrow_exception(error);
    }
    constructions_.fetch_add(1, std::memory_order_relaxed);
    obs::inc(ins_.constructions);
    if (constructed != nullptr) *constructed = true;
    {
      std::lock_guard<std::mutex> lock(entry->m);
      entry->planner = planner;
      entry->done = true;
    }
    entry->cv.notify_all();
    return planner;
  }

  hits_.fetch_add(1, std::memory_order_relaxed);
  obs::inc(ins_.hits);
  std::unique_lock<std::mutex> lock(entry->m);
  if (!entry->done) {
    // Single-flight follower: another caller is building this entry.
    coalesced_.fetch_add(1, std::memory_order_relaxed);
    obs::inc(ins_.coalesced);
    entry->cv.wait(lock, [&] { return entry->done; });
  }
  if (entry->error) std::rethrow_exception(entry->error);
  return entry->planner;
}

std::shared_ptr<const MarchPlanner> PlannerCache::get_or_build(
    const FieldOfInterest& m1, const FieldOfInterest& m2_shape, double r_c,
    const PlannerOptions& options, std::string_view closure_tag,
    bool* constructed) {
  CacheKey key = CacheKey::of(m1, m2_shape, r_c, options, closure_tag);
  return get_or_build(
      key,
      [&] { return std::make_unique<MarchPlanner>(m1, m2_shape, r_c, options); },
      constructed);
}

void PlannerCache::evict_lru_locked() {
  // Only ready entries are evictable; an in-flight build has waiters.
  auto victim = map_.end();
  std::uint64_t oldest = ~0ull;
  for (auto it = map_.begin(); it != map_.end(); ++it) {
    bool done;
    {
      std::lock_guard<std::mutex> lock(it->second->m);
      done = it->second->done;
    }
    if (!done) continue;
    std::uint64_t used = it->second->last_used.load(std::memory_order_relaxed);
    if (used < oldest) {
      oldest = used;
      victim = it;
    }
  }
  if (victim != map_.end()) {
    map_.erase(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    obs::inc(ins_.evictions);
    obs::set(ins_.entries, static_cast<double>(map_.size()));
  }
}

PlannerCacheStats PlannerCache::stats() const {
  PlannerCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.coalesced = coalesced_.load(std::memory_order_relaxed);
  s.constructions = constructions_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  {
    std::shared_lock<std::shared_mutex> read(map_mutex_);
    s.entries = map_.size();
  }
  return s;
}

std::size_t PlannerCache::size() const {
  std::shared_lock<std::shared_mutex> read(map_mutex_);
  return map_.size();
}

void PlannerCache::clear() {
  std::unique_lock<std::shared_mutex> write(map_mutex_);
  map_.clear();
  obs::set(ins_.entries, 0.0);
}

}  // namespace anr::runtime
