// Oracle for the incremental routing-target table.
//
// Address moves, VM create/destroy and topology subject-LID changes
// point-update SwitchGraph::targets instead of rebuilding it. The contract is
// that the table stays exactly what a full rebuild would produce: after every
// step of a seeded random mix of VM lifecycle, committed and rolled-back
// migrations and swaps, and topology attach/detach with rollback, the SM's
// target list must equal SwitchGraph::build()'s field by field, in order.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cloud/orchestrator.hpp"
#include "core/errors.hpp"
#include "core/migration_txn.hpp"
#include "core/virtualizer.hpp"
#include "core/vswitch.hpp"
#include "routing/engine.hpp"
#include "routing/graph.hpp"
#include "sm/topology_txn.hpp"
#include "topology/fat_tree.hpp"
#include "util/rng.hpp"

namespace ibvs {
namespace {

constexpr std::size_t kHyps = 300;
constexpr std::size_t kVfs = 2;

/// 300 hypervisors x 2 VFs on the paper's 324-node tree, an SM node in the
/// next free host slot, booted.
struct Cloud324 {
  Fabric fabric;
  topology::Built built;
  std::vector<core::VirtualHca> hyps;
  std::unique_ptr<sm::SubnetManager> sm;
  std::unique_ptr<core::VSwitchFabric> vsf;

  explicit Cloud324(core::LidScheme scheme) {
    built = topology::build_paper_fat_tree(fabric, topology::PaperFatTree::k324);
    hyps = core::attach_hypervisors(fabric, built.host_slots, kVfs, kHyps);
    const auto& slot = built.host_slots.at(kHyps);
    const NodeId sm_node = fabric.add_ca("sm-node");
    fabric.connect(sm_node, 1, slot.leaf, slot.port);
    sm = std::make_unique<sm::SubnetManager>(
        fabric, sm_node, routing::make_engine(routing::EngineKind::kMinHop));
    vsf = std::make_unique<core::VSwitchFabric>(*sm, hyps, scheme);
    vsf->boot();
  }
};

/// Fails unless the SM's target list equals a fresh full rebuild's.
void expect_targets_match_rebuild(const sm::SubnetManager& sm,
                                  const std::string& step) {
  const auto& got = sm.routing_result().graph.targets;
  const auto want = routing::SwitchGraph::build(sm.fabric(), sm.lids()).targets;
  ASSERT_EQ(got.size(), want.size()) << step;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].lid, want[i].lid) << step << ", entry " << i;
    ASSERT_EQ(got[i].sw, want[i].sw) << step << ", lid " << want[i].lid;
    ASSERT_EQ(got[i].port, want[i].port) << step << ", lid " << want[i].lid;
  }
}

std::vector<core::VmHandle> live_vms(const core::VSwitchFabric& vsf) {
  std::vector<core::VmHandle> out;
  for (const std::uint32_t id : vsf.active_vm_ids()) out.push_back({id});
  return out;
}

/// A hypervisor other than `exclude` with a free VF, chosen by `rng`.
std::optional<std::size_t> free_hypervisor(const core::VSwitchFabric& vsf,
                                           SplitMix64& rng,
                                           std::size_t exclude) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    const std::size_t h = rng.below(kHyps);
    if (h != exclude && vsf.free_vf_count(h) > 0) return h;
  }
  return std::nullopt;
}

class IncrementalTargets : public ::testing::TestWithParam<core::LidScheme> {};

TEST_P(IncrementalTargets, EqualFullRebuildAfterEveryStep) {
  Cloud324 c(GetParam());
  cloud::CloudOrchestrator orch(*c.vsf, cloud::Placement::kFirstFit);
  sm::TopologyTxnManager topo(*c.sm, c.vsf->journal());
  SplitMix64 rng(0x7461726765747321ULL);
  for (int i = 0; i < 200; ++i) {
    c.vsf->create_vm(*free_hypervisor(*c.vsf, rng, kHyps));
  }
  expect_targets_match_rebuild(*c.sm, "after set-up");

  std::size_t extra_switches = 0;
  std::size_t rolled_back = 0;

  for (int step = 0; step < 400; ++step) {
    const auto vms = live_vms(*c.vsf);
    ASSERT_GE(vms.size(), 2u);
    const std::uint64_t kind = rng.below(8);
    const std::string what =
        "step " + std::to_string(step) + " kind " + std::to_string(kind);
    switch (kind) {
      case 0: {  // create
        const auto h = free_hypervisor(*c.vsf, rng, kHyps);
        if (h) c.vsf->create_vm(*h);
        break;
      }
      case 1: {  // destroy
        c.vsf->destroy_vm(vms[rng.below(vms.size())]);
        break;
      }
      case 2: {  // committed migration
        const auto vm = vms[rng.below(vms.size())];
        const auto dst =
            free_hypervisor(*c.vsf, rng, c.vsf->vm(vm).hypervisor);
        if (!dst) break;
        EXPECT_EQ(orch.migrate_txn(vm, *dst).outcome,
                  cloud::TxnOutcome::kCommitted)
            << what;
        break;
      }
      case 3: {  // committed swap
        const auto a = vms[rng.below(vms.size())];
        const auto b = vms[rng.below(vms.size())];
        if (c.vsf->vm(a).hypervisor == c.vsf->vm(b).hypervisor) break;
        const auto rep = orch.swap_txn(a, b);
        EXPECT_EQ(rep.outcome, cloud::TxnOutcome::kCommitted)
            << what << ": " << rep.error;
        break;
      }
      case 4: {  // migration or swap cut short mid-apply, then rolled back
        const auto a = vms[rng.below(vms.size())];
        core::MigrationTxn txn;
        if (rng.below(2) == 0) {
          const auto dst =
              free_hypervisor(*c.vsf, rng, c.vsf->vm(a).hypervisor);
          if (!dst) break;
          txn = c.vsf->begin_migration(a, *dst);
        } else {
          const auto b = vms[rng.below(vms.size())];
          if (c.vsf->vm(a).hypervisor == c.vsf->vm(b).hypervisor) break;
          txn = c.vsf->begin_swap(a, b);
        }
        c.vsf->txn_move_addresses(txn);
        expect_targets_match_rebuild(*c.sm, what + " (addresses moved)");
        try {
          c.vsf->txn_apply_lfts(txn, {.abort_after_smps = 2});
        } catch (const core::MigrationError&) {
          // The interrupted batch: exactly what the rollback must undo.
        }
        c.vsf->txn_rollback(txn);
        ++rolled_back;
        break;
      }
      case 5: {  // attach a fresh switch to two spines; roll back or keep
        const NodeId s0 = c.built.spines[rng.below(c.built.spines.size())];
        const NodeId s1 = c.built.spines[rng.below(c.built.spines.size())];
        if (s0 == s1) break;
        const NodeId sw = c.fabric.add_switch(
            "extra-" + std::to_string(extra_switches++), 8);
        auto txn = topo.begin_attach_switch(
            sw, {{sw, 1, s0, *c.fabric.free_port(s0)},
                 {sw, 2, s1, *c.fabric.free_port(s1)}});
        topo.txn_mutate(txn);
        topo.txn_reroute(txn);
        expect_targets_match_rebuild(*c.sm, what + " (attach rerouted)");
        if (rng.below(2) == 0) {
          topo.txn_rollback(txn);
          ++rolled_back;
        } else {
          topo.txn_commit(txn);
        }
        break;
      }
      default: {  // detach a spine; roll back, or commit and re-attach it
        const NodeId spine = c.built.spines[rng.below(c.built.spines.size())];
        auto txn = topo.begin_detach_switch(spine);
        topo.txn_mutate(txn);
        topo.txn_reroute(txn);
        expect_targets_match_rebuild(*c.sm, what + " (detach rerouted)");
        if (rng.below(2) == 0) {
          topo.txn_rollback(txn);
          ++rolled_back;
          break;
        }
        topo.txn_commit(txn);
        expect_targets_match_rebuild(*c.sm, what + " (detach committed)");
        // Re-attach before anything else runs: with a spine out, later
        // deltas would plan writes to it and fail kSwitchUnreachable.
        ASSERT_EQ(topo.attach_switch(spine, txn.cables).state,
                  sm::TopologyTxnState::kCommitted)
            << what;
        break;
      }
    }
    expect_targets_match_rebuild(*c.sm, what);
    if (HasFatalFailure()) return;
    ASSERT_EQ(c.vsf->journal().in_flight(), 0u) << what;
  }
  // The mix really exercised both roll directions.
  EXPECT_GT(rolled_back, 10u);
  EXPECT_GT(extra_switches, 5u);
}

INSTANTIATE_TEST_SUITE_P(BothSchemes, IncrementalTargets,
                         ::testing::Values(core::LidScheme::kPrepopulated,
                                           core::LidScheme::kDynamic));

}  // namespace
}  // namespace ibvs
