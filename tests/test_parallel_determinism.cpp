// Determinism contract of the parallel sweep fast path.
//
// The diff/extraction phases of LFT distribution, DFSSSP deadlock removal,
// fat-tree routing, and the fabric checker run on the global thread pool —
// but the observable outputs must be byte-identical to a single-threaded
// run: the SMP stream (order included), the computed tables, the
// per-destination VLs, the checker report, and the chaos digest. These
// tests pin that contract by running the same scenario at 1 and 4 threads
// and comparing everything.
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>

#include "fabric/credit_sim.hpp"
#include "fabric/trace.hpp"
#include "inject/chaos.hpp"
#include "inject/checker.hpp"
#include "perf/int_collector.hpp"
#include "routing/graph.hpp"
#include "tests/helpers.hpp"
#include "util/thread_pool.hpp"

namespace ibvs {
namespace {

using test::PhysicalSubnet;
using test::VirtualSubnet;

/// Pool sizes every sharded fast path must be indistinguishable under.
/// 1 is the serial baseline; 4 and 8 oversubscribe this runner's cores in
/// different shard geometries.
constexpr std::size_t kThreadSweep[] = {1, 4, 8};

/// Restores the default global pool sizing when a test exits.
struct ThreadGuard {
  explicit ThreadGuard(std::size_t threads) {
    ThreadPool::set_global_threads(threads);
  }
  ~ThreadGuard() { ThreadPool::set_global_threads(0); }
};

/// Full sweep with every SMP recorded.
std::vector<Smp> sweep_stream(PhysicalSubnet& s) {
  std::vector<Smp> stream;
  s.sm->transport().set_smp_tap(&stream);
  s.sm->full_sweep();
  s.sm->transport().set_smp_tap(nullptr);
  return stream;
}

TEST(ParallelDeterminism, SweepSmpStreamMatchesSingleThreaded) {
  std::vector<std::vector<Smp>> streams;
  std::vector<std::vector<Lft>> lfts;
  for (const std::size_t threads : kThreadSweep) {
    ThreadGuard guard(threads);
    auto s = PhysicalSubnet::small_fat_tree();
    streams.push_back(sweep_stream(s));
    lfts.emplace_back();
    for (const NodeId sw : s.fabric.switch_ids()) {
      lfts.back().push_back(s.fabric.node(sw).lft);
    }
  }
  ASSERT_FALSE(streams[0].empty());
  for (std::size_t run = 1; run < streams.size(); ++run) {
    EXPECT_EQ(streams[0], streams[run]) << kThreadSweep[run] << " threads";
    EXPECT_EQ(lfts[0], lfts[run]) << kThreadSweep[run] << " threads";
  }
}

TEST(ParallelDeterminism, ReconvergeStreamMatchesSingleThreaded) {
  std::vector<Smp> streams[2];
  for (int run = 0; run < 2; ++run) {
    ThreadGuard guard(run == 0 ? 1 : 4);
    auto s = PhysicalSubnet::small_fat_tree();
    s.sm->full_sweep();
    // Cut one leaf-spine cable and watch the recovery stream.
    const NodeId spine = s.built.spines.front();
    s.fabric.disconnect(spine, 1);
    s.sm->transport().invalidate_topology();
    s.sm->transport().set_smp_tap(&streams[run]);
    const auto report = s.sm->reconverge();
    s.sm->transport().set_smp_tap(nullptr);
    EXPECT_TRUE(report.converged);
  }
  ASSERT_FALSE(streams[0].empty());
  EXPECT_EQ(streams[0], streams[1]);
}

TEST(ParallelDeterminism, DfssspTablesAndVlsMatchSingleThreaded) {
  routing::RoutingResult results[2];
  for (int run = 0; run < 2; ++run) {
    ThreadGuard guard(run == 0 ? 1 : 4);
    auto s = PhysicalSubnet::small_fat_tree(routing::EngineKind::kDfsssp);
    s.sm->discover();
    s.sm->assign_lids();
    results[run] = s.sm->engine().compute(s.fabric, s.sm->lids());
  }
  EXPECT_EQ(results[0].lfts, results[1].lfts);
  EXPECT_EQ(results[0].dest_vl, results[1].dest_vl);
  EXPECT_EQ(results[0].num_vls, results[1].num_vls);
}

/// The 36-pod 3-level tree (468 switches, 1296 hypervisors with 4 VFs
/// each), wide enough that the hop matrix, Min-Hop, Up*/Down* and both
/// fat-tree phases work above ThreadPool::kParallelMinWork and fan out at 4
/// and 8 threads instead of running inline as one shard.
struct WideTree {
  Fabric fabric;
  LidMap lids;
  std::size_t num_switches = 0;

  /// Assigns switch and PF LIDs, then every VF LID when `vf_lids`.
  explicit WideTree(bool vf_lids) {
    const auto built = topology::build_three_level_fat_tree(
        fabric, topology::ThreeLevelParams{.num_pods = 36,
                                           .leaves_per_pod = 6,
                                           .spines_per_pod = 6,
                                           .num_cores = 36,
                                           .hosts_per_leaf = 6,
                                           .radix = 36});
    num_switches = built.num_switches();
    const auto hyps = core::attach_hypervisors(fabric, built.host_slots, 4);
    for (const NodeId sw : fabric.switch_ids()) lids.assign_next(fabric, sw, 0);
    for (const auto& hyp : hyps) lids.assign_next(fabric, hyp.pf, 1);
    if (!vf_lids) return;
    for (const auto& hyp : hyps) {
      for (const NodeId vf : hyp.vfs) lids.assign_next(fabric, vf, 1);
    }
  }
};

TEST(ParallelDeterminism, FatTreeTablesMatchSingleThreaded) {
  // Every VF LID prepopulated (~7k LIDs), so both fat-tree phases fan out.
  const WideTree tree(/*vf_lids=*/true);
  std::vector<std::vector<Lft>> lfts;
  for (const std::size_t threads : kThreadSweep) {
    ThreadGuard guard(threads);
    lfts.push_back(routing::make_engine(routing::EngineKind::kFatTree)
                       ->compute(tree.fabric, tree.lids)
                       .lfts);
  }
  ASSERT_EQ(lfts[0].size(), tree.num_switches);
  for (std::size_t run = 1; run < lfts.size(); ++run) {
    EXPECT_EQ(lfts[0], lfts[run]) << kThreadSweep[run] << " threads";
  }
}

TEST(ParallelDeterminism, WideTreeMinHopUpDownAndHopsMatchSingleThreaded) {
  // Switch and PF LIDs only (1764 targets) keeps the run short; the hop
  // matrix (switches x edges), the Min-Hop pass and Up*/Down* phase 1
  // (targets x edges) and Up*/Down* phase 2 (switches x targets) all stay
  // above the cutoff.
  const WideTree tree(/*vf_lids=*/false);
  const routing::EngineKind kinds[] = {routing::EngineKind::kMinHop,
                                       routing::EngineKind::kUpDown};
  for (const routing::EngineKind kind : kinds) {
    std::vector<routing::RoutingResult> results;
    std::vector<std::vector<std::uint8_t>> hops;
    for (const std::size_t threads : kThreadSweep) {
      ThreadGuard guard(threads);
      results.push_back(
          routing::make_engine(kind)->compute(tree.fabric, tree.lids));
      hops.push_back(routing::switch_hop_matrix(results.back().graph));
    }
    ASSERT_EQ(results[0].lfts.size(), tree.num_switches);
    ASSERT_GT(results[0].graph.num_switches() *
                  results[0].graph.num_edges(),
              ThreadPool::kParallelMinWork);
    for (std::size_t run = 1; run < results.size(); ++run) {
      EXPECT_EQ(results[0].lfts, results[run].lfts)
          << routing::to_string(kind) << ", " << kThreadSweep[run]
          << " threads";
      EXPECT_EQ(results[0].dest_vl, results[run].dest_vl);
      EXPECT_EQ(hops[0], hops[run]) << kThreadSweep[run] << " threads";
    }
  }
}

TEST(ParallelDeterminism, PaperTreeSweepAndReconvergeStreamsMatch) {
  // The 5832-node tree: its LFT diff (972 switches x ~850 LFT words) fans
  // out, so the per-switch send lists are built on several threads and the
  // serial send loop must still emit one SMP stream, order included.
  std::vector<std::vector<Smp>> sweeps;
  std::vector<std::vector<Smp>> reconverges;
  for (const std::size_t threads : kThreadSweep) {
    ThreadGuard guard(threads);
    auto s = PhysicalSubnet::paper_tree(topology::PaperFatTree::k5832,
                                        routing::EngineKind::kFatTree);
    sweeps.push_back(sweep_stream(s));
    const NodeId spine = s.built.spines.front();
    s.fabric.disconnect(spine, 1);
    s.sm->transport().invalidate_topology();
    reconverges.emplace_back();
    s.sm->transport().set_smp_tap(&reconverges.back());
    EXPECT_TRUE(s.sm->reconverge().converged);
    s.sm->transport().set_smp_tap(nullptr);
  }
  ASSERT_FALSE(sweeps[0].empty());
  ASSERT_FALSE(reconverges[0].empty());
  for (std::size_t run = 1; run < sweeps.size(); ++run) {
    EXPECT_EQ(sweeps[0], sweeps[run]) << kThreadSweep[run] << " threads";
    EXPECT_EQ(reconverges[0], reconverges[run])
        << kThreadSweep[run] << " threads";
  }
}

TEST(ParallelDeterminism, DfssspOnIrregularMatchesSingleThreaded) {
  // A random 64-switch graph with 200 chords and 4 hosts per switch: 320
  // targets, so the first 256-destination wave (256 x 526 edges) fans
  // out. Unlike a fat-tree, its minimal routes close channel-dependency
  // cycles, so the waves' dependency lists decide the VL layering.
  std::vector<routing::RoutingResult> results;
  for (const std::size_t threads : kThreadSweep) {
    ThreadGuard guard(threads);
    Fabric fabric;
    const auto built = topology::build_irregular(
        fabric, topology::IrregularParams{.num_switches = 64,
                                          .hosts_per_switch = 4,
                                          .extra_links = 200});
    const auto hosts = topology::attach_hosts(fabric, built.host_slots);
    sm::SubnetManager sm(fabric, hosts[0],
                         routing::make_engine(routing::EngineKind::kDfsssp));
    sm.discover();
    sm.assign_lids();
    results.push_back(sm.engine().compute(fabric, sm.lids()));
  }
  ASSERT_GT(256 * results[0].graph.num_edges(), ThreadPool::kParallelMinWork);
  EXPECT_GT(results[0].num_vls, 1u);
  for (std::size_t run = 1; run < results.size(); ++run) {
    EXPECT_EQ(results[0].lfts, results[run].lfts)
        << kThreadSweep[run] << " threads";
    EXPECT_EQ(results[0].dest_vl, results[run].dest_vl);
    EXPECT_EQ(results[0].num_vls, results[run].num_vls);
  }
}

TEST(ParallelDeterminism, CheckerReportMatchesSingleThreaded) {
  std::vector<inject::CheckReport> reports;
  for (const std::size_t threads : kThreadSweep) {
    ThreadGuard guard(threads);
    auto s = PhysicalSubnet::small_fat_tree();
    s.sm->full_sweep();
    // Break forwarding on purpose so the report carries violations whose
    // order (and truncation point) must not depend on the thread count.
    const NodeId leaf = s.built.leaves.front();
    s.fabric.node(leaf).lft.clear();
    const inject::FabricChecker checker(
        *s.sm, inject::CheckerConfig{.max_violations = 5, .max_sources = 4});
    reports.push_back(checker.check());
  }
  EXPECT_FALSE(reports[0].clean());
  for (std::size_t run = 1; run < reports.size(); ++run) {
    EXPECT_EQ(reports[0].violations, reports[run].violations)
        << kThreadSweep[run] << " threads";
    EXPECT_EQ(reports[0].truncated, reports[run].truncated);
    EXPECT_EQ(reports[0].paths_traced, reports[run].paths_traced);
    EXPECT_EQ(reports[0].sources_sampled, reports[run].sources_sampled);
  }
}

TEST(ParallelDeterminism, ChaosDigestMatchesSingleThreaded) {
  std::vector<std::uint64_t> digests;
  for (const std::size_t threads : kThreadSweep) {
    ThreadGuard guard(threads);
    auto s = VirtualSubnet::small(core::LidScheme::kPrepopulated);
    s.vsf->boot();
    const auto report = inject::run_chaos(*s.vsf, /*seed=*/42, /*steps=*/24);
    digests.push_back(report.digest);
    EXPECT_TRUE(report.all_converged);
  }
  for (std::size_t run = 1; run < digests.size(); ++run) {
    EXPECT_EQ(digests[0], digests[run]) << kThreadSweep[run] << " threads";
  }
}

TEST(ParallelDeterminism, IntCongestionMapMatchesSingleThreaded) {
  // The INT pipeline — seeded sampling, stack aggregation, map build, JSON
  // export — must be byte-identical regardless of the global pool size (the
  // pool may run sweep phases while telemetry collects).
  std::string jsons[2];
  std::size_t sampled[2] = {0, 0};
  for (int run = 0; run < 2; ++run) {
    ThreadGuard guard(run == 0 ? 1 : 4);
    auto s = PhysicalSubnet::small_fat_tree();
    s.sm->full_sweep();
    std::vector<fabric::FlowSpec> flows;
    for (std::size_t i = 1; i < s.hosts.size(); ++i) {
      fabric::FlowSpec f;
      f.src = s.hosts[i];
      f.dst = s.fabric.node(s.hosts[0]).lid();
      f.packets = 8;
      f.tenant = static_cast<std::uint32_t>(i % 3);
      flows.push_back(f);
    }
    perf::IntCollector collector;
    fabric::CreditSimConfig config;
    config.credits_per_channel = 1;
    config.int_mode.enabled = true;
    config.int_mode.sample_rate = 0.5;
    config.int_mode.seed = 2026;
    config.int_mode.sink = &collector;
    const auto report = fabric::simulate_flows(s.fabric, flows, config);
    EXPECT_TRUE(report.all_delivered());
    sampled[run] = report.int_sampled;
    jsons[run] = collector.build_map(8).to_json();
  }
  ASSERT_GT(sampled[0], 0u);
  EXPECT_EQ(sampled[0], sampled[1]);
  EXPECT_EQ(jsons[0], jsons[1]);  // byte-identical at 1 vs 4 threads
}

// ---------------------------------------------------------------------------
// Serial-trace oracle for the bitset reachability pass.
//
// The checker's contract is that its report is byte-identical to what a
// per-(source, target) trace_unicast scan would produce. The bitset pass
// earns its speed through cross-source memoization, inline vSwitch hops,
// and dense per-switch plans — each an opportunity to diverge. This oracle
// replays the checker's exact source sampling and target collection, walks
// every pair with the serial tracer, and formats findings the way the
// checker does, truncation semantics included.

struct SerialExpectation {
  std::vector<std::string> violations;
  std::size_t paths_traced = 0;
  bool truncated = false;
  std::size_t sources_sampled = 0;
};

SerialExpectation serial_reference(const sm::SubnetManager& sm,
                                   const inject::CheckerConfig& config) {
  const Fabric& fabric = sm.fabric();
  const LidMap& lids = sm.lids();

  std::vector<NodeId> sources;
  for (NodeId id = 0; id < fabric.size(); ++id) {
    const Node& n = fabric.node(id);
    if (!n.is_ca() || !n.ports[1].connected()) continue;
    if (!fabric.physical_attachment(id)) continue;
    sources.push_back(id);
  }
  if (config.max_sources > 0 && sources.size() > config.max_sources) {
    std::vector<NodeId> sampled;
    const std::size_t n = sources.size();
    const std::size_t k = config.max_sources;
    for (std::size_t i = 0; i < k; ++i) {
      sampled.push_back(sources[k > 1 ? i * (n - 1) / (k - 1) : 0]);
    }
    sampled.erase(std::unique(sampled.begin(), sampled.end()), sampled.end());
    sources = std::move(sampled);
  }

  const auto any_port_connected = [](const Node& n) {
    for (PortNum p = 1; p <= n.num_ports(); ++p) {
      if (n.ports[p].connected()) return true;
    }
    return false;
  };
  std::vector<Lid> targets;
  for (const Lid lid : lids.assigned_lids()) {
    if (!lids.attachment(fabric, lid)) continue;
    const LidMap::Owner owner = lids.owner(lid);
    if (owner.valid() && owner.node < fabric.size() &&
        !any_port_connected(fabric.node(owner.node))) {
      continue;
    }
    targets.push_back(lid);
  }

  SerialExpectation out;
  out.sources_sampled = sources.size();
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const Node& src = fabric.node(sources[i]);
    for (std::size_t t = 0; t < targets.size(); ++t) {
      const auto result =
          fabric::trace_unicast(fabric, sources[i], targets[t]);
      if (result.status == fabric::TraceStatus::kDelivered) continue;
      std::string what =
          result.status == fabric::TraceStatus::kLoop
              ? "routing loop tracing LID " +
                    std::to_string(targets[t].value()) + " from " + src.name
              : "LID " + std::to_string(targets[t].value()) +
                    " unreachable from " + src.name + " (" +
                    fabric::to_string(result.status) + ")";
      out.violations.push_back(std::move(what));
      if (out.violations.size() >= config.max_violations) {
        out.truncated = true;
        out.paths_traced = i * targets.size() + t + 1;
        return out;
      }
    }
  }
  out.paths_traced = sources.size() * targets.size();
  return out;
}

/// First port of `node` cabled to `peer` (0 when not adjacent).
PortNum port_towards(const Fabric& fabric, NodeId node, NodeId peer) {
  const Node& n = fabric.node(node);
  for (PortNum p = 1; p <= n.num_ports(); ++p) {
    if (n.ports[p].connected() && n.ports[p].peer == peer) return p;
  }
  return 0;
}

/// Compares the checker (at every pool size) against the serial oracle at
/// a generous cap and at a truncating one.
void expect_matches_serial(
    const sm::SubnetManager& sm,
    std::initializer_list<inject::CheckerConfig> configs = {
        {.max_violations = 500, .max_sources = 5},
        {.max_violations = 3, .max_sources = 5},
    }) {
  for (const auto& config : configs) {
    const SerialExpectation expected = serial_reference(sm, config);
    for (const std::size_t threads : kThreadSweep) {
      ThreadGuard guard(threads);
      const inject::FabricChecker checker(sm, config);
      const inject::CheckReport report = checker.check();
      EXPECT_EQ(report.violations, expected.violations)
          << threads << " threads, cap " << config.max_violations;
      EXPECT_EQ(report.truncated, expected.truncated)
          << threads << " threads, cap " << config.max_violations;
      EXPECT_EQ(report.paths_traced, expected.paths_traced)
          << threads << " threads, cap " << config.max_violations;
      EXPECT_EQ(report.sources_sampled, expected.sources_sampled);
    }
  }
}

TEST(ParallelDeterminism, CheckerMatchesSerialTraceOnBrokenPhysicalFabric) {
  auto s = PhysicalSubnet::small_fat_tree();
  s.sm->full_sweep();
  const Fabric& fabric = s.fabric;
  const NodeId leaf0 = s.built.leaves[0];
  const NodeId leaf2 = s.built.leaves[2];
  const NodeId spine0 = s.built.spines[0];
  const NodeId spine1 = s.built.spines[1];

  // One fault per walk outcome, all placed *away* from the broken LIDs'
  // attachment switches so the LidMap pass stays clean and the report is
  // purely reachability findings.
  // kLoop: ping-pong a remote host LID between leaf0 and spine0.
  const Lid loop_lid = fabric.node(s.hosts[4]).lid();
  s.fabric.node(leaf0).lft.set(loop_lid, port_towards(fabric, leaf0, spine0));
  s.fabric.node(spine0).lft.set(loop_lid,
                                port_towards(fabric, spine0, leaf0));
  // kDropped + kNoRoute: spine1 drops one host LID outright and forwards
  // another into an uncabled port.
  const Lid drop_lid = fabric.node(s.hosts[7]).lid();
  s.fabric.node(spine1).lft.set(drop_lid, kDropPort);
  const Lid dangle_lid = fabric.node(s.hosts[10]).lid();
  s.fabric.node(spine1).lft.set(dangle_lid,
                                fabric.node(spine1).num_ports());
  // kWrongDelivery: divert a leaf0-attached LID to a host under leaf2.
  const Lid divert_lid = fabric.node(s.hosts[1]).lid();
  s.fabric.node(spine0).lft.set(divert_lid,
                                port_towards(fabric, spine0, leaf2));
  s.fabric.node(spine1).lft.set(divert_lid,
                                port_towards(fabric, spine1, leaf2));
  s.fabric.node(leaf2).lft.set(divert_lid,
                               port_towards(fabric, leaf2, s.hosts[8]));

  expect_matches_serial(*s.sm);
}

TEST(ParallelDeterminism, CheckerMatchesSerialTraceOnBrokenVirtualFabric) {
  // Same oracle over a virtualized subnet: walks now transit vSwitches
  // (inline-hop fast path) and VF LIDs join both the source and target
  // sets. Wipe one spine and loop one VF LID between the spines.
  auto s = VirtualSubnet::small(core::LidScheme::kPrepopulated);
  s.vsf->boot();
  const Fabric& fabric = s.fabric;
  const NodeId spine0 = s.built.spines[0];
  const NodeId spine1 = s.built.spines[1];

  // hyp-2 (and its VFs) hangs off leaf 0, so ping-ponging its LID between
  // spine 0 and leaf *1* leaves the attachment switch's entry intact and
  // the LidMap pass clean.
  const Lid vf_lid = fabric.node(s.hyps[2].vfs[1]).lid();
  ASSERT_NE(s.hyps[2].leaf, s.built.leaves[1]);
  s.fabric.node(spine0).lft.set(
      vf_lid, port_towards(fabric, spine0, s.built.leaves[1]));
  s.fabric.node(s.built.leaves[1])
      .lft.set(vf_lid, port_towards(fabric, s.built.leaves[1], spine0));
  s.fabric.node(spine1).lft.clear();

  expect_matches_serial(*s.sm);
}

TEST(ParallelDeterminism, CheckerMatchesSerialTraceOnBrokenVirtualPaperTree) {
  // The 648-node tree with 4 VF LIDs per host: 5 sources x ~3.9k nodes x
  // 52 target words is above the cutoff, so the targets split into one
  // block per thread and the merge rebuilds the serial report from
  // several blocks. A wiped spine breaks every LID routed through it,
  // spread over the whole target range, so the cap lands in a later block.
  auto s = VirtualSubnet::paper_tree(topology::PaperFatTree::k648,
                                     core::LidScheme::kPrepopulated);
  s.vsf->boot();
  s.fabric.node(s.built.spines[3]).lft.clear();

  const inject::CheckerConfig uncapped{.max_violations = 100000,
                                       .max_sources = 5};
  const inject::CheckerConfig capped{.max_violations = 100,
                                     .max_sources = 5};
  const SerialExpectation full = serial_reference(*s.sm, uncapped);
  const SerialExpectation cut = serial_reference(*s.sm, capped);
  ASSERT_FALSE(full.truncated);
  ASSERT_GT(full.violations.size(), capped.max_violations);
  ASSERT_TRUE(cut.truncated);
  // The serial scan stops inside source 0, past the first of 4 blocks.
  const std::size_t targets = full.paths_traced / full.sources_sampled;
  ASSERT_GT(cut.paths_traced, targets / 4);
  ASSERT_LT(cut.paths_traced, targets);

  expect_matches_serial(*s.sm, {uncapped, capped});
}

// Regression: distribute_lfts() used to push blocks at switches the SM has
// no path to, burning undeliverable sends every sweep. It must skip them —
// exactly like reconverge() — and pick them up once they return.
TEST(ParallelDeterminism, DistributeSkipsSeveredSwitches) {
  auto s = PhysicalSubnet::small_fat_tree();
  s.sm->full_sweep();

  // Sever one spine completely; its installed LFT is wiped, so a naive
  // distribution would try (and fail) to reprogram it.
  const NodeId spine = s.built.spines.back();
  Node& sw = s.fabric.node(spine);
  for (PortNum p = 1; p <= sw.num_ports(); ++p) {
    if (sw.ports[p].connected()) s.fabric.disconnect(spine, p);
  }
  s.sm->transport().invalidate_topology();
  sw.lft.clear();

  const auto undeliverable_before = s.sm->transport().counters().undeliverable;
  std::vector<Smp> stream;
  s.sm->transport().set_smp_tap(&stream);
  s.sm->distribute_lfts();
  s.sm->transport().set_smp_tap(nullptr);

  EXPECT_EQ(s.sm->transport().counters().undeliverable, undeliverable_before);
  for (const Smp& smp : stream) {
    EXPECT_NE(smp.target, spine) << "sent an SMP to a severed switch";
  }
}

}  // namespace
}  // namespace ibvs
