#include "util/failpoint.h"

#include <mutex>
#include <unordered_map>

#include "util/random.h"

namespace ldr::util {

namespace internal {
std::atomic<int> g_active_failpoints{0};
}  // namespace internal

namespace {

struct SiteState {
  Failpoint::Spec spec;
  bool active = false;
  long hits = 0;
  long fires = 0;
  Rng rng{0};
};

struct Registry {
  std::mutex mu;
  std::unordered_map<std::string, SiteState> sites;
};

Registry& GetRegistry() {
  static Registry* r = new Registry;  // never destroyed: sites may be hit
  return *r;                          // during static teardown
}

}  // namespace

void Failpoint::Activate(const std::string& name, const Spec& spec) {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  SiteState& s = reg.sites[name];
  if (!s.active) {
    internal::g_active_failpoints.fetch_add(1, std::memory_order_relaxed);
  }
  s.spec = spec;
  s.active = true;
  s.hits = 0;
  s.fires = 0;
  s.rng = Rng(spec.seed);
}

void Failpoint::Activate(const std::string& name) { Activate(name, Spec()); }

void Failpoint::Deactivate(const std::string& name) {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  auto it = reg.sites.find(name);
  if (it == reg.sites.end() || !it->second.active) return;
  it->second.active = false;
  internal::g_active_failpoints.fetch_sub(1, std::memory_order_relaxed);
}

void Failpoint::DeactivateAll() {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (auto& [name, s] : reg.sites) {
    if (s.active) {
      s.active = false;
      internal::g_active_failpoints.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  reg.sites.clear();
}

bool Failpoint::IsActive(const std::string& name) {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  auto it = reg.sites.find(name);
  return it != reg.sites.end() && it->second.active;
}

long Failpoint::HitCount(const std::string& name) {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  auto it = reg.sites.find(name);
  return it == reg.sites.end() ? 0 : it->second.hits;
}

long Failpoint::FireCount(const std::string& name) {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  auto it = reg.sites.find(name);
  return it == reg.sites.end() ? 0 : it->second.fires;
}

std::vector<std::string> Failpoint::ActiveNames() {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::vector<std::string> names;
  for (const auto& [name, s] : reg.sites) {
    if (s.active) names.push_back(name);
  }
  return names;
}

bool Failpoint::ShouldFail(const char* name) {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  auto it = reg.sites.find(name);
  if (it == reg.sites.end() || !it->second.active) return false;
  SiteState& s = it->second;
  ++s.hits;
  if (s.hits <= s.spec.skip) return false;
  if (s.spec.limit >= 0 && s.fires >= s.spec.limit) return false;
  if (s.spec.probability < 1.0 && !s.rng.Chance(s.spec.probability)) {
    return false;
  }
  ++s.fires;
  return true;
}

}  // namespace ldr::util
