// The shared transaction core behind migrations, destination swaps and
// topology deltas: pinned behaviour and crash coverage.
//
// Every reconfiguration kind runs through one write-ahead journal lifecycle
// and one LFT-delta apply / revert / replay core. Two kinds of check guard
// that core:
//
//  * Pinned digests. The FNV-1a digest of the SMP stream of a fixed script on
//    the paper's 324-node tree (per LID scheme and per script step), and the
//    chaos digests of the configurations bench_chaos_convergence runs with
//    --migration-faults and --topology-faults at seed 7. A change to the
//    core that is meant to preserve behaviour must leave every value as is.
//  * A crash sweep. Each transaction kind is aborted after each of its SMPs
//    in turn and rolled back by the same SM. Every time, master and installed
//    LFTs must come back byte-identical, the checker must be clean, and no
//    journal record may stay in flight.
#include <gtest/gtest.h>

#include <iomanip>
#include <limits>
#include <sstream>

#include "cloud/orchestrator.hpp"
#include "core/migration_txn.hpp"
#include "inject/chaos.hpp"
#include "inject/checker.hpp"
#include "inject/injector.hpp"
#include "sm/topology_txn.hpp"
#include "topology/fat_tree.hpp"
#include "topology/hosts.hpp"

namespace ibvs {
namespace {

/// FNV-1a over every field of every SMP in `stream`, in send order.
std::uint64_t digest(const std::vector<Smp>& stream) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  for (const Smp& smp : stream) {
    mix(static_cast<std::uint64_t>(smp.method));
    mix(static_cast<std::uint64_t>(smp.attribute));
    mix(static_cast<std::uint64_t>(smp.routing));
    mix(smp.target);
    mix(smp.target_port);
    mix(smp.block);
    mix(smp.route.size());
    for (const PortNum p : smp.route) mix(p);
  }
  return h;
}

std::string hex(std::uint64_t v) {
  std::ostringstream out;
  out << "0x" << std::hex << std::setw(16) << std::setfill('0') << v;
  return out.str();
}

/// Installed forwarding state of every physical switch, in NodeId order.
std::vector<Lft> installed_lfts(Fabric& fabric) {
  std::vector<Lft> out;
  for (const NodeId sw : fabric.switch_ids()) out.push_back(fabric.node(sw).lft);
  return out;
}

/// A booted paper tree built exactly like bench_chaos_convergence's: 18
/// hypervisors with 2 VFs each, spread two per leaf, the SM on a dedicated
/// node in the next slot, Min-Hop routing.
struct PaperTree {
  Fabric fabric;
  topology::Built built;
  std::vector<core::VirtualHca> hyps;
  std::unique_ptr<sm::SubnetManager> sm;
  std::unique_ptr<core::VSwitchFabric> vsf;

  PaperTree(topology::PaperFatTree which, core::LidScheme scheme) {
    constexpr std::size_t kHyps = 18;
    built = topology::build_paper_fat_tree(fabric, which);
    std::vector<topology::HostSlot> spread;
    const std::size_t per_leaf =
        built.host_slots.size() / built.leaves.size();
    for (std::size_t i = 0; spread.size() < kHyps + 1; ++i) {
      const std::size_t idx = (i / 2) * per_leaf + (i % 2);
      if (idx >= built.host_slots.size()) break;
      spread.push_back(built.host_slots[idx]);
    }
    hyps = core::attach_hypervisors(fabric, spread, /*num_vfs=*/2, kHyps);
    const NodeId sm_node = fabric.add_ca("sm-node");
    fabric.connect(sm_node, 1, spread.at(kHyps).leaf, spread.at(kHyps).port);
    sm = std::make_unique<sm::SubnetManager>(
        fabric, sm_node, routing::make_engine(routing::EngineKind::kMinHop));
    vsf = std::make_unique<core::VSwitchFabric>(*sm, hyps, scheme);
    vsf->boot();
  }
};

/// The leaf's port cabled to `spine`.
PortNum uplink_port(const Fabric& fabric, NodeId leaf, NodeId spine) {
  const Node& n = fabric.node(leaf);
  for (PortNum p = 1; p <= n.num_ports(); ++p) {
    if (n.ports[p].connected() && n.ports[p].peer == spine) return p;
  }
  ADD_FAILURE() << "no uplink from " << leaf << " to " << spine;
  return 0;
}

// ---------------------------------------------------------------------------
// Pinned SMP streams.

/// The scripted steps, in order; one digest per step.
constexpr const char* kSteps[] = {
    "migrate deterministic",  "migrate minimal",
    "migrate drain_first",    "swap",
    "migrate aborted at 3",   "spine detach + re-attach",
    "remove_link + add_link", "detach rolled back",
    "recover migration",      "recover detach",
};
constexpr std::size_t kNumSteps = std::size(kSteps);

/// Runs the script on a fresh 324-node tree and returns one SMP-stream
/// digest per step. Every step must leave the checker clean and nothing in
/// flight.
std::vector<std::uint64_t> scripted_digests(core::LidScheme scheme) {
  PaperTree t(topology::PaperFatTree::k324, scheme);
  cloud::CloudOrchestrator cloud(*t.vsf, cloud::Placement::kSpread);
  const auto vms = cloud.launch_vms(t.hyps.size());  // vm i on hypervisor i
  sm::TopologyTxnManager topo(*t.sm, t.vsf->journal());
  const inject::FabricChecker checker(*t.sm);
  auto& vsf = *t.vsf;
  const auto& spines = t.built.spines;

  std::vector<std::uint64_t> digests;
  std::vector<Smp> stream;
  const auto step = [&](const char* name, const auto& body) {
    stream.clear();
    t.sm->transport().set_smp_tap(&stream);
    body();
    t.sm->transport().set_smp_tap(nullptr);
    digests.push_back(digest(stream));
    EXPECT_TRUE(checker.check(&vsf).clean()) << name;
    EXPECT_EQ(vsf.journal().in_flight(), 0u) << name;
  };
  const auto abort_migration = [&](core::VmHandle vm, std::size_t dst) {
    auto txn = vsf.begin_migration(vm, dst);
    vsf.txn_move_addresses(txn);
    EXPECT_THROW(vsf.txn_apply_lfts(txn, {.abort_after_smps = 3,
                                          .require_reachable = true}),
                 core::MigrationError);
    return txn;
  };
  const auto abort_detach = [&](NodeId spine) {
    auto txn = topo.begin_detach_switch(spine);
    topo.txn_mutate(txn);
    EXPECT_THROW(topo.txn_reroute(txn, {.abort_after_smps = 2}),
                 sm::TopologyError);
    return txn;
  };

  step(kSteps[0], [&] { vsf.migrate_vm(vms[0], 4); });
  step(kSteps[1], [&] {
    vsf.migrate_vm(vms[1], 6, {.mode = core::ReconfigMode::kMinimal});
  });
  step(kSteps[2], [&] { vsf.migrate_vm(vms[2], 8, {.drain_first = true}); });
  step(kSteps[3], [&] { vsf.swap_vms(vms[3], vms[10]); });
  step(kSteps[4], [&] {
    auto txn = abort_migration(vms[5], 12);
    vsf.txn_rollback(txn);
  });
  step(kSteps[5], [&] {
    const auto cables = t.fabric.cables_of(spines[0]);
    topo.detach_switch(spines[0]);
    topo.attach_switch(spines[0], cables);
  });
  step(kSteps[6], [&] {
    const NodeId leaf = t.built.leaves[0];
    const PortNum port = uplink_port(t.fabric, leaf, spines[1]);
    const CableSpec cable{leaf, port, spines[1],
                          t.fabric.node(leaf).ports[port].peer_port};
    topo.remove_link(leaf, port);
    topo.add_link(cable);
  });
  step(kSteps[7], [&] {
    auto txn = abort_detach(spines[2]);
    topo.txn_rollback(txn);
  });
  step(kSteps[8], [&] {
    abort_migration(vms[7], 14);
    const auto report = vsf.journal().recover(*t.sm);
    EXPECT_EQ(report.in_flight, 1u);
    const auto reconciled = vsf.reconcile_with_journal();
    EXPECT_EQ(reconciled.committed + reconciled.rolled_back, 1u);
  });
  step(kSteps[9], [&] {
    abort_detach(spines[3]);
    const auto report = vsf.journal().recover(*t.sm);
    EXPECT_EQ(report.in_flight, 1u);
  });
  return digests;
}

void expect_digests(core::LidScheme scheme,
                    const std::uint64_t (&want)[kNumSteps]) {
  const auto got = scripted_digests(scheme);
  ASSERT_EQ(got.size(), kNumSteps);
  for (std::size_t i = 0; i < kNumSteps; ++i) {
    EXPECT_EQ(hex(got[i]), hex(want[i])) << kSteps[i];
  }
}

TEST(TxnCorePinned, SmpStreamsPrepopulated) {
  expect_digests(core::LidScheme::kPrepopulated,
                 {0xe6dbd15ad9d30883ULL, 0x191e3f7fb47b4414ULL,
                  0x55068e3198790a0bULL, 0xb49e98da59454423ULL,
                  0x01b4da8cb397976eULL, 0x4e1962c24ec5a83bULL,
                  0x9b9f9a71226a4c92ULL, 0x4ece894aadfab957ULL,
                  0x300f7318dc944aa7ULL, 0x5cb13765561a2594ULL});
}

TEST(TxnCorePinned, SmpStreamsDynamic) {
  expect_digests(core::LidScheme::kDynamic,
                 {0x417460f1ea158503ULL, 0x16cc11987d43adcbULL,
                  0x1a6507a99510ba8bULL, 0xb49e98da59454423ULL,
                  0x2dd744f43cb2488eULL, 0x20e0211e30f33443ULL,
                  0x62a0d20d09706960ULL, 0xcdef40f9bc155bf7ULL,
                  0x88d75675e82c2aa7ULL, 0x4f576db44bb7b535ULL});
}

// ---------------------------------------------------------------------------
// Pinned chaos digests: the rows bench_chaos_convergence prints at seed 7.

constexpr double kFaultRates[] = {0.0, 0.01, 0.05, 0.20};

/// Digests of the 324- and 648-node rows, in the bench's row order.
void expect_chaos_digests(bool migration_faults,
                          const std::uint64_t (&want)[2][4]) {
  constexpr std::uint64_t kSeed = 7;
  const topology::PaperFatTree trees[] = {topology::PaperFatTree::k324,
                                          topology::PaperFatTree::k648};
  for (std::size_t tree = 0; tree < 2; ++tree) {
    for (std::size_t r = 0; r < std::size(kFaultRates); ++r) {
      PaperTree t(trees[tree], core::LidScheme::kDynamic);
      cloud::CloudOrchestrator cloud(*t.vsf, cloud::Placement::kSpread);
      cloud.launch_vms(t.hyps.size());
      const std::uint64_t seed = kSeed + 101 * tree + r;
      inject::FaultInjector injector(t.fabric, seed);
      inject::ChaosConfig config;
      config.seed = seed;
      config.steps = 12;
      config.mad_faults.drop_probability = kFaultRates[r];
      if (migration_faults) {
        config.weight_kill_dst_mid_migration = 2;
        config.weight_kill_master_mid_reconfig = 2;
      } else {
        config.weight_attach_switch = 2;
        config.weight_detach_switch = 2;
        config.weight_kill_switch_mid_attach = 1;
        config.weight_kill_master_mid_detach = 1;
      }
      const auto report = inject::run_chaos(cloud, injector, config);
      EXPECT_EQ(report.checker_violations, 0u);
      EXPECT_EQ(hex(report.digest), hex(want[tree][r]))
          << "tree " << tree << " drop-p " << kFaultRates[r];
    }
  }
}

TEST(TxnCorePinned, ChaosMigrationFaultsSeed7) {
  expect_chaos_digests(true, {{0xdec536b837fef962ULL, 0x2757e344737c376eULL,
                               0x5217e3f9c6b97ed3ULL, 0x3e004606efeaf40cULL},
                              {0x0ed75ec300f00b71ULL, 0x261431e4435d08fcULL,
                               0xc3331c7c7c699231ULL, 0x0ce483c26a47eca3ULL}});
}

TEST(TxnCorePinned, ChaosTopologyFaultsSeed7) {
  expect_chaos_digests(false, {{0x3e977143b56fe8b0ULL, 0xd71290744d94981dULL,
                                0xd5c9f878207e5e01ULL, 0x99257b7f54895e67ULL},
                               {0x73b2a3ce83278c37ULL, 0x922a3ce037aa97beULL,
                                0x0c7b0061233a4b41ULL, 0x51213f90863e94a6ULL}});
}

// ---------------------------------------------------------------------------
// Crash at every SMP, same-SM abort and rollback.

enum class Kind { kMigrate, kMigrateMinimal, kMigrateDrain, kSwap, kDetach };

struct CrashCase {
  Kind kind;
  core::LidScheme scheme;
};

std::string case_name(const ::testing::TestParamInfo<CrashCase>& info) {
  static constexpr const char* kKinds[] = {
      "Migrate", "MigrateMinimal", "MigrateDrainFirst", "Swap", "SpineDetach"};
  return std::string(kKinds[static_cast<int>(info.param.kind)]) +
         (info.param.scheme == core::LidScheme::kPrepopulated ? "Prepopulated"
                                                               : "Dynamic");
}

class TxnCoreCrashSweep : public ::testing::TestWithParam<CrashCase> {};

TEST_P(TxnCoreCrashSweep, EverySmpAbortRollsBackByteIdentical) {
  const auto [kind, scheme] = GetParam();
  PaperTree t(topology::PaperFatTree::k324, scheme);
  cloud::CloudOrchestrator cloud(*t.vsf, cloud::Placement::kSpread);
  const auto vms = cloud.launch_vms(t.hyps.size());  // vm i on hypervisor i
  sm::TopologyTxnManager topo(*t.sm, t.vsf->journal());
  const inject::FabricChecker checker(*t.sm);
  auto& vsf = *t.vsf;

  core::MigrationOptions options;
  if (kind == Kind::kMigrateMinimal) {
    options.mode = core::ReconfigMode::kMinimal;
  }
  options.drain_first = kind == Kind::kMigrateDrain;

  // Opens the transaction, aborts it once `k` SMPs went out (never, for the
  // maximum), rolls it back, and returns the SMPs sent before the abort.
  bool interrupted = false;
  const auto abort_and_roll_back = [&](std::uint64_t k) -> std::uint64_t {
    interrupted = false;
    if (kind == Kind::kDetach) {
      auto txn = topo.begin_detach_switch(t.built.spines[0]);
      topo.txn_mutate(txn);
      try {
        topo.txn_reroute(txn, {.abort_after_smps = k});
      } catch (const sm::TopologyError& e) {
        EXPECT_EQ(e.code(), sm::TopologyErrc::kInterrupted);
        interrupted = true;
      }
      const std::uint64_t sent =
          txn.stats.lft_smps + txn.stats.addressing_smps;
      topo.txn_rollback(txn);
      return sent;
    }
    // Cross-leaf: hypervisor 0 sits on leaf 0, hypervisor 4 on leaf 2.
    auto txn = kind == Kind::kSwap ? vsf.begin_swap(vms[0], vms[4], options)
                                   : vsf.begin_migration(vms[0], 4, options);
    vsf.txn_move_addresses(txn);
    try {
      vsf.txn_apply_lfts(txn, {.abort_after_smps = k,
                               .require_reachable = true});
    } catch (const core::MigrationError& e) {
      EXPECT_EQ(e.code(), core::MigrationErrc::kInterrupted);
      interrupted = true;
    }
    const std::uint64_t sent = txn.stats.drain_smps + txn.stats.lft_smps;
    vsf.txn_rollback(txn);
    return sent;
  };

  const auto master_before = t.sm->routing_result().lfts;
  const auto installed_before = installed_lfts(t.fabric);
  const auto expect_restored = [&](std::uint64_t k) {
    EXPECT_EQ(t.sm->routing_result().lfts, master_before) << "k=" << k;
    EXPECT_EQ(installed_lfts(t.fabric), installed_before) << "k=" << k;
    EXPECT_TRUE(checker.check(&vsf).clean()) << "k=" << k;
    EXPECT_EQ(vsf.journal().in_flight(), 0u) << "k=" << k;
  };

  const std::uint64_t total =
      abort_and_roll_back(std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(interrupted);
  expect_restored(0);
  ASSERT_GT(total, 2u);
  for (std::uint64_t k = 1; k <= total; ++k) {
    const std::uint64_t sent = abort_and_roll_back(k);
    EXPECT_TRUE(interrupted) << "k=" << k;
    EXPECT_GE(sent, k);
    EXPECT_LE(sent, total);
    expect_restored(k);
    if (HasFailure()) break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, TxnCoreCrashSweep,
    ::testing::Values(
        CrashCase{Kind::kMigrate, core::LidScheme::kPrepopulated},
        CrashCase{Kind::kMigrate, core::LidScheme::kDynamic},
        CrashCase{Kind::kMigrateMinimal, core::LidScheme::kPrepopulated},
        CrashCase{Kind::kMigrateMinimal, core::LidScheme::kDynamic},
        CrashCase{Kind::kMigrateDrain, core::LidScheme::kPrepopulated},
        CrashCase{Kind::kMigrateDrain, core::LidScheme::kDynamic},
        CrashCase{Kind::kSwap, core::LidScheme::kPrepopulated},
        CrashCase{Kind::kSwap, core::LidScheme::kDynamic},
        CrashCase{Kind::kDetach, core::LidScheme::kPrepopulated},
        CrashCase{Kind::kDetach, core::LidScheme::kDynamic}),
    case_name);

}  // namespace
}  // namespace ibvs
