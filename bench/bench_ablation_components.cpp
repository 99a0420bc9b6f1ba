// ABL-COMP — ablation of the cross-layer design components (paper §4.2
// lists them; §5 "Maturing cross-layer prioritization" calls for exactly
// this kind of decomposition).
//
// At a fixed load (default 40 RPS per workload), runs the e-library mix
// under different subsets of the machinery:
//   none            baseline (no cross-layer)
//   route-only      (a) priority replica routing, no qdisc, no marks
//   tc-only         (c) 95/5 TC qdiscs matching pod IPs, no routing*
//   route+tc        the paper's prototype configuration
//   route+tc+scav   + (b) scavenger transport for low priority
//   route+strict    strict-priority qdisc instead of 95/5
//   dscp+tc         (d-in-band) qdiscs classify on DSCP marks instead of
//                   pod IPs (works without dedicated replicas)
//
// *tc-only with dst-IP matching needs priority-routed replicas to be able
//  to tell classes apart — which is why the paper combines them; with
//  routing off we match on DSCP instead, isolating the queueing effect.
//
// Each variant is an independent sweep point (--threads fans them out).

#include <cstdio>
#include <string>
#include <vector>

#include "stats/table.h"
#include "workload/bench_harness.h"

using namespace meshnet;

namespace {

struct Variant {
  std::string name;
  std::string id;  ///< stable short id for the JSON report
  bool enabled = true;  ///< false = plain baseline
  bool routing = false;
  bool tc = false;
  core::TcMatch match = core::TcMatch::kDstIp;
  bool strict = false;
  bool scavenger = false;
  bool dscp = true;
  bool sdn = false;  ///< out-of-band coordination (optimization d)
};

}  // namespace

int main(int argc, char** argv) {
  const workload::HarnessOptions options = workload::parse_harness_flags(
      argc, argv, "ablation_components", /*default_duration_s=*/15,
      /*default_seed=*/42, {"rps"});
  const double rps = workload::double_flag_or_exit(options.flags, "rps", 40.0);
  const auto duration = sim::seconds(options.duration_s);
  const auto seed = options.seed;

  std::printf(
      "ABL-COMP: contribution of each cross-layer component at %.0f RPS "
      "per workload.\n\n", rps);

  const std::vector<Variant> variants = {
      {"none (baseline)", "none", false},
      {"route-only", "route_only", true, true, false},
      {"tc-only (dscp match)", "tc_only", true, false, true,
       core::TcMatch::kDscp},
      {"route+tc (paper proto)", "route_tc", true, true, true,
       core::TcMatch::kDstIp},
      {"route+tc+scavenger", "route_tc_scav", true, true, true,
       core::TcMatch::kDstIp, false, true},
      {"route+strict-tc", "route_strict_tc", true, true, true,
       core::TcMatch::kDstIp, true},
      {"dscp+tc (no subsets)", "dscp_tc", true, false, true,
       core::TcMatch::kDscp},
      {"sdn out-of-band", "sdn", true, true, false, core::TcMatch::kDstIp,
       false, false, false, true},
      // DSCP marking stays on: the mark is how the accepting transport
      // knows to answer with the scavenger controller (responses carry
      // the bytes); with tc off, the marks are inert at every queue.
      {"scavenger-only", "scavenger_only", true, false, false,
       core::TcMatch::kDstIp, false, true, true, false},
  };

  workload::SweepRunner runner(workload::sweep_options(options));
  std::vector<workload::ElibraryScenarioResult> outcomes(variants.size());
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const Variant& v = variants[i];
    runner.add({{"variant", v.id}},
               [&v, rps, duration, seed, i, &outcomes] {
                 workload::ElibraryScenario scenario =
                     workload::fig4_scenario(rps, v.enabled);
                 scenario.duration = duration;
                 scenario.seed = seed;
                 if (v.enabled) {
                   core::CrossLayerConfig& cc = *scenario.cross_layer;
                   cc.priority_routing = v.routing;
                   cc.tc_priority = v.tc;
                   cc.tc_match = v.match;
                   cc.strict_tc = v.strict;
                   cc.scavenger_transport = v.scavenger;
                   cc.dscp_tagging = v.dscp;
                   scenario.sdn_out_of_band = v.sdn;
                 }
                 outcomes[i] = workload::run_elibrary_scenario(scenario);
                 return workload::elibrary_point_metrics(outcomes[i]);
               });
  }
  const workload::SweepResult sweep = runner.run();

  stats::Table table({"variant", "LS p50 (ms)", "LS p99 (ms)",
                      "LI p50 (ms)", "LI p99 (ms)", "LS errs", "util"});
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const auto& r = outcomes[i];
    table.add_row({variants[i].name, stats::Table::num(r.ls.p50_ms, 1),
                   stats::Table::num(r.ls.p99_ms, 1),
                   stats::Table::num(r.li.p50_ms, 1),
                   stats::Table::num(r.li.p99_ms, 1),
                   std::to_string(r.ls.errors),
                   stats::Table::num(r.bottleneck_utilization, 2)});
  }

  std::printf("%s\n", table.to_string().c_str());

  const stats::BenchReport report = workload::make_bench_report(
      "ablation_components",
      {{"seed", std::to_string(seed)},
       {"duration_s", std::to_string(options.duration_s)},
       {"rps", stats::Table::num(rps, 0)}},
      sweep);
  return workload::finish_harness(report, options);
}
