// scenario_walkthrough: the persistent controller driven through an
// operational timeline — the repo's smallest end-to-end tour of the
// ScenarioEngine.
//
// A 10-epoch (10-minute) scenario on a small failover topology: steady
// traffic, the busiest cable fails at minute 3, is repaired at minute 6,
// and a 2x demand surge hits one aggregate at minute 8. Watch the epoch
// table: cold epochs only where an event forces one (the LP re-enters warm
// everywhere else, including through the surge — a demand delta is not a
// topology delta), route churn only at the event minutes, queues within the
// controller's 10 ms budget throughout.
//
// Output is deterministic (no wall-clock in stdout): ci.sh diffs two runs
// at different LDR_THREADS settings as the scenario determinism probe.
// Timings go to stderr.
#include <cstdio>

#include "sim/scenario_engine.h"
#include "topology/topology.h"

using namespace ldr;

int main() {
  // A–B direct (tight) plus a roomy A–C–B detour; C–D rides along.
  Topology net;
  NodeId a = net.AddPop("Amsterdam", 52.4, 4.9);
  NodeId b = net.AddPop("Berlin", 52.5, 13.4);
  NodeId c = net.AddPop("Copenhagen", 55.7, 12.6);
  NodeId d = net.AddPop("Dresden", 51.0, 13.7);
  net.name = "walkthrough-net";
  LinkId ab = net.AddCable(a, b, /*capacity_gbps=*/10, /*delay_ms=*/3.0);
  net.AddCable(a, c, 100, 4.0);
  net.AddCable(c, b, 100, 4.0);
  net.AddCable(c, d, 100, 3.0);

  Scenario s;
  s.name = "failure-recovery-surge";
  s.epochs = 10;
  Aggregate fwd;
  fwd.src = a;
  fwd.dst = b;
  fwd.demand_gbps = 3.0;
  fwd.flow_count = 30;
  Aggregate rev = fwd;
  rev.src = b;
  rev.dst = a;
  rev.demand_gbps = 2.0;
  Aggregate spur = fwd;
  spur.src = c;
  spur.dst = d;
  spur.demand_gbps = 1.0;
  s.aggregates = {fwd, rev, spur};
  s.series_100ms = ConstantScenarioTraffic(s.aggregates, s.epochs, s.epoch_sec);

  s.AddLinkFlap(net.graph, ab, /*down_epoch=*/3, /*up_epoch=*/6);
  ScenarioEvent surge;
  surge.type = ScenarioEvent::Type::kDemandSurge;
  surge.epoch = 8;
  surge.duration_epochs = 1;
  surge.factor = 2.0;
  surge.aggregate = 0;
  s.events.push_back(surge);

  ScenarioEngine engine(net, s);
  ScenarioReport report = engine.Run();

  std::printf("scenario %s on %s (driver %s)\n", report.scenario.c_str(),
              net.name.c_str(), report.driver.c_str());
  std::printf("%-6s %-6s %-5s %-7s %-7s %-9s %-9s %-9s %-7s\n", "epoch",
              "event", "warm", "rounds", "mux-ok", "demand", "stretch",
              "queue-ms", "churn");
  for (const ScenarioEpochReport& er : report.epochs) {
    std::printf("%-6d %-6s %-5s %-7d %-7s %-9.2f %-9.4f %-9.3f %-7.3f\n",
                er.epoch, er.event_epoch ? "*" : "-", er.warm ? "yes" : "no",
                er.rounds, er.multiplex_ok ? "yes" : "no",
                er.demand_total_gbps, er.max_stretch, er.worst_queue_ms,
                er.route_churn);
  }
  for (const ScenarioEventReport& evr : report.events) {
    const char* kind =
        evr.event.type == ScenarioEvent::Type::kLinkDown ? "link-down"
        : evr.event.type == ScenarioEvent::Type::kLinkUp ? "link-up"
                                                         : "demand-surge";
    std::printf("event %-14s epoch %d  reconverged after %d epoch(s)\n", kind,
                evr.event.epoch, evr.reconverge_epochs);
  }
  std::printf("warm epochs %zu  cold epochs %zu  ksp evictions %zu  "
              "event-free churn max %.3f\n",
              report.warm_epochs, report.cold_epochs, report.ksp_evictions,
              report.EventFreeChurnMax());
  // Wall-clock is nondeterministic: keep it out of the diffable stdout.
  std::fprintf(stderr, "solve ms total: warm %.2f cold %.2f\n",
               report.warm_solve_ms_total, report.cold_solve_ms_total);
  return 0;
}
