// Deterministic fault injection: a process-global registry of named failure
// sites compiled into the hot seams of the stack (LP pivot/refactorize/FTRAN,
// KSP production, scenario event application).
//
// A site is a string name guarded by the LDR_FAILPOINT(name) macro. With no
// failpoint active anywhere in the process the macro is one relaxed atomic
// load — cheap enough to leave in release builds, which is the point: the
// fault campaigns exercise the exact binaries the benches measure.
//
// Activation is programmatic only: Activate/Deactivate with a Spec, called
// by the scenario engine for the fault windows of Scenario::faults (which the
// degradation bench and the campaign soak arm) and by the tests. No
// environment variable arms a site, so a run that sets no fault window
// never injects a fault.
//
// Known sites (grep LDR_FAILPOINT for ground truth):
//   lp.iter_limit        Solve() reports kIterLimit without iterating
//   lp.refactor_singular Refactorize() reports a singular basis
//   lp.tiny_pivot        Step() sees a below-threshold pivot (recovery path)
//   lp.ftran_nan         FTRAN result poisoned with a NaN entry
//   lp.ftran_perturb     FTRAN result perturbed by a relative 1e-3
//   lp.dual_infeasible   dual warm restart reports dual feasibility lost
//                        (forces the primal phase-1 fallback path)
//   ksp.empty            KspGenerator yields no *new* paths (prefix survives)
//   scenario.drop_event  ScenarioEngine skips applying a topology event
//   scenario.srlg_partial grouped event arrives truncated: only the first
//                        half (rounded up) of the live member links is
//                        applied, the rest counted dropped
#ifndef LDR_UTIL_FAILPOINT_H_
#define LDR_UTIL_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace ldr::util {

namespace internal {
// Count of currently-active failpoints; the macro's fast-path gate.
extern std::atomic<int> g_active_failpoints;
}  // namespace internal

class Failpoint {
 public:
  // Trigger shape. Defaults fire on every hit.
  struct Spec {
    int skip = 0;              // hits ignored before the trigger arms
    int limit = -1;            // max fires; -1 = unlimited
    double probability = 1.0;  // per-armed-hit Bernoulli
    uint64_t seed = 0;         // PRNG stream for the Bernoulli draws (same
                               // seed, same fire pattern, every run)
  };

  // (Re)activates `name`; resets its hit/fire counters and PRNG stream.
  // The spec-less overload fires on every hit.
  static void Activate(const std::string& name, const Spec& spec);
  static void Activate(const std::string& name);
  static void Deactivate(const std::string& name);
  static void DeactivateAll();

  static bool IsActive(const std::string& name);
  // Lifetime counters — survive Deactivate, reset by Activate of the same
  // name (or DeactivateAll). Hits = times the site was reached while active;
  // fires = times it injected the fault.
  static long HitCount(const std::string& name);
  static long FireCount(const std::string& name);
  static std::vector<std::string> ActiveNames();

  // The slow path behind LDR_FAILPOINT: records a hit and decides whether
  // the site fires. False for names never activated.
  static bool ShouldFail(const char* name);
};

inline bool FailpointsArmed() {
  return internal::g_active_failpoints.load(std::memory_order_relaxed) > 0;
}

}  // namespace ldr::util

// True when the named site should inject its fault. One relaxed atomic load
// when no failpoint is active in the process.
#define LDR_FAILPOINT(name) \
  (ldr::util::FailpointsArmed() && ldr::util::Failpoint::ShouldFail(name))

#endif  // LDR_UTIL_FAILPOINT_H_
