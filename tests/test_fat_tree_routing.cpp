// Oracle for the fat-tree engine's per-attachment-switch routing.
//
// The engine computes one down-port column per root (attachment switch or
// switch LID) and assembles every LFT row from those columns. The contract
// is that the tables equal, entry for entry, what the plain per-LID form of
// the same algorithm produces: one upward BFS per endpoint LID, one
// shortest-path tree per switch LID, each ancestor forwarding on its first
// port (in port order) facing the child it was discovered from, and the
// d-mod-k up-rule everywhere else. The reference below is that per-LID
// form, kept here as the specification; the engine is checked against it on
// fat-trees (2- and 3-level, parallel cables, full and partial VF LID
// population) and on ring, torus and irregular fabrics, at pool sizes 1
// and 4.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "core/virtualizer.hpp"
#include "routing/engine.hpp"
#include "routing/graph.hpp"
#include "topology/fat_tree.hpp"
#include "topology/irregular.hpp"
#include "util/thread_pool.hpp"

namespace ibvs {
namespace {

using routing::SwitchGraph;
using routing::SwitchIdx;

/// The per-LID fat-tree algorithm: a route matrix with one row per target,
/// filled by one BFS per LID, then read column-wise into the LFTs.
std::vector<Lft> reference_fat_tree(const Fabric& fabric, const LidMap& lids) {
  const SwitchGraph g = SwitchGraph::build(fabric, lids);
  const std::size_t s_count = g.num_switches();
  const std::size_t t_count = g.targets.size();

  std::vector<std::uint8_t> level(s_count, 0xFF);
  std::vector<SwitchIdx> queue;
  for (const auto& t : g.targets) {
    if (t.port != 0 && level[t.sw] == 0xFF) {
      level[t.sw] = 0;
      queue.push_back(t.sw);
    }
  }
  if (queue.empty() && s_count > 0) {
    level[0] = 0;
    queue.push_back(0);
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const auto [first, last] = g.out(queue[head]);
    for (const auto* e = first; e != last; ++e) {
      if (level[e->to] == 0xFF) {
        level[e->to] = static_cast<std::uint8_t>(level[queue[head]] + 1);
        queue.push_back(e->to);
      }
    }
  }

  std::vector<std::vector<PortNum>> up_ports(s_count);
  for (std::size_t s = 0; s < s_count; ++s) {
    const auto [first, last] = g.out(static_cast<SwitchIdx>(s));
    for (const auto* e = first; e != last; ++e) {
      if (level[e->to] == level[s] + 1) up_ports[s].push_back(e->out_port);
    }
    std::sort(up_ports[s].begin(), up_ports[s].end());
    up_ports[s].erase(std::unique(up_ports[s].begin(), up_ports[s].end()),
                      up_ports[s].end());
  }

  std::vector<PortNum> route(t_count * s_count, kDropPort);
  for (std::size_t ti = 0; ti < t_count; ++ti) {
    const auto& target = g.targets[ti];
    PortNum* row = route.data() + ti * s_count;
    row[target.sw] = target.port;
    std::vector<SwitchIdx> frontier{target.sw};
    if (target.port == 0) {
      // Switch LID: a shortest-path tree toward the switch.
      for (std::size_t head = 0; head < frontier.size(); ++head) {
        const SwitchIdx near = frontier[head];
        const auto [nf, nl] = g.out(near);
        for (const auto* e = nf; e != nl; ++e) {
          const SwitchIdx far = e->to;
          if (row[far] != kDropPort || far == target.sw) continue;
          const auto [ff, fl] = g.out(far);
          for (const auto* back = ff; back != fl; ++back) {
            if (back->to == near) {
              row[far] = back->out_port;
              break;
            }
          }
          frontier.push_back(far);
        }
      }
      continue;
    }
    // Endpoint LID: BFS upward; each ancestor's down port faces the child
    // it was first discovered from.
    for (std::size_t head = 0; head < frontier.size(); ++head) {
      const SwitchIdx child = frontier[head];
      const auto [cf, cl] = g.out(child);
      for (const auto* e = cf; e != cl; ++e) {
        const SwitchIdx anc = e->to;
        if (level[anc] != level[child] + 1) continue;
        if (row[anc] != kDropPort) continue;
        const auto [af, al] = g.out(anc);
        for (const auto* back = af; back != al; ++back) {
          if (back->to == child) {
            row[anc] = back->out_port;
            break;
          }
        }
        frontier.push_back(anc);
      }
    }
  }

  std::vector<Lft> lfts(s_count, Lft(lids.top_lid()));
  for (std::size_t s = 0; s < s_count; ++s) {
    for (std::size_t ti = 0; ti < t_count; ++ti) {
      PortNum port = route[ti * s_count + s];
      if (port == kDropPort) {
        const auto& ups = up_ports[s];
        if (ups.empty()) continue;
        port = ups[g.targets[ti].lid.value() % ups.size()];
      }
      lfts[s].set(g.targets[ti].lid, port);
    }
  }
  return lfts;
}

/// Which VF LIDs a case assigns.
enum class VfLids {
  kNone,     ///< PF LIDs only (a dynamic-scheme boot before any VM)
  kAll,      ///< every VF prepopulated (§V-A)
  kPartial,  ///< every third hypervisor without VF LIDs, every other VF
             ///< released again — holes in the LID space
};

struct Subnet {
  Fabric fabric;
  LidMap lids;
};

using Builder = topology::Built (*)(Fabric&);

struct OracleCase {
  std::string name;
  Builder build;
  std::size_t vfs_per_hyp;
  VfLids vf_lids;
};

void PrintTo(const OracleCase& c, std::ostream* os) { *os << c.name; }

/// Builds the fabric, virtualizes every host slot and assigns LIDs in the
/// SM's order: switches, PFs, then VFs.
void make_subnet(const OracleCase& c, Subnet& out) {
  const auto built = c.build(out.fabric);
  const auto hyps =
      core::attach_hypervisors(out.fabric, built.host_slots, c.vfs_per_hyp);
  for (const NodeId sw : out.fabric.switch_ids()) {
    out.lids.assign_next(out.fabric, sw, 0);
  }
  for (const auto& hyp : hyps) out.lids.assign_next(out.fabric, hyp.pf, 1);
  if (c.vf_lids == VfLids::kNone) return;
  std::vector<Lid> released;
  for (std::size_t h = 0; h < hyps.size(); ++h) {
    if (c.vf_lids == VfLids::kPartial && h % 3 == 0) continue;
    for (std::size_t v = 0; v < hyps[h].vfs.size(); ++v) {
      const Lid lid = out.lids.assign_next(out.fabric, hyps[h].vfs[v], 1);
      if (c.vf_lids == VfLids::kPartial && v % 2 == 1) released.push_back(lid);
    }
  }
  for (const Lid lid : released) out.lids.release(out.fabric, lid);
}

topology::Built paper_324(Fabric& f) {
  return topology::build_paper_fat_tree(f, topology::PaperFatTree::k324);
}
topology::Built paper_648(Fabric& f) {
  return topology::build_paper_fat_tree(f, topology::PaperFatTree::k648);
}
topology::Built three_level(Fabric& f) {
  return topology::build_three_level_fat_tree(
      f, topology::ThreeLevelParams{.num_pods = 4,
                                    .leaves_per_pod = 3,
                                    .spines_per_pod = 3,
                                    .num_cores = 9,
                                    .hosts_per_leaf = 3,
                                    .radix = 8});
}
/// With every VF LID assigned, big enough (≈3 M units per phase) that both
/// engine phases take the parallel path at pool size 4; with partial
/// population only Phase 1 does. Every other case here runs serially.
topology::Built three_level_wide(Fabric& f) {
  return topology::build_three_level_fat_tree(
      f, topology::ThreeLevelParams{.num_pods = 36,
                                    .leaves_per_pod = 6,
                                    .spines_per_pod = 6,
                                    .num_cores = 36,
                                    .hosts_per_leaf = 6,
                                    .radix = 36});
}
topology::Built parallel_cables(Fabric& f) {
  return topology::build_two_level_fat_tree(
      f, topology::TwoLevelParams{.num_leaves = 4,
                                  .num_spines = 3,
                                  .hosts_per_leaf = 3,
                                  .radix = 10,
                                  .links_per_spine = 2});
}
/// Parallel cables whose port order disagrees between the two ends: on
/// every even leaf, each spine pair's two cables are re-plugged crossed, so
/// the leaf's first cable to a spine lands on that spine's second port. A
/// switch's first port facing a neighbour is then not the far end of the
/// neighbour's first cable back.
topology::Built crossed_cables(Fabric& f) {
  auto built = parallel_cables(f);
  for (std::size_t l = 0; l < built.leaves.size(); l += 2) {
    const NodeId leaf = built.leaves[l];
    for (const NodeId spine : built.spines) {
      std::vector<std::pair<PortNum, PortNum>> cables;  // (leaf, spine) ports
      const Node& n = f.node(leaf);
      for (PortNum p = 1; p <= n.num_ports(); ++p) {
        if (n.ports[p].connected() && n.ports[p].peer == spine) {
          cables.emplace_back(p, n.ports[p].peer_port);
        }
      }
      EXPECT_EQ(cables.size(), 2u);
      for (const auto& [leaf_port, spine_port] : cables) {
        f.disconnect(leaf, leaf_port);
      }
      f.connect(leaf, cables[0].first, spine, cables[1].second);
      f.connect(leaf, cables[1].first, spine, cables[0].second);
    }
  }
  return built;
}
topology::Built ring(Fabric& f) { return topology::build_ring(f, 6, 2, 8); }
topology::Built torus(Fabric& f) {
  return topology::build_torus_2d(f, 3, 3, 2, 8);
}
template <std::uint64_t Seed>
topology::Built irregular(Fabric& f) {
  return topology::build_irregular(
      f, topology::IrregularParams{.num_switches = 10,
                                   .hosts_per_switch = 2,
                                   .extra_links = 5,
                                   .radix = 12,
                                   .seed = Seed});
}

std::vector<OracleCase> oracle_cases() {
  std::vector<OracleCase> cases;
  const std::pair<const char*, VfLids> populations[] = {
      {"no_vfs", VfLids::kNone},
      {"all_vfs", VfLids::kAll},
      {"partial_vfs", VfLids::kPartial},
  };
  for (const auto& [suffix, vf_lids] : populations) {
    const std::string s = suffix;
    cases.push_back({"paper324_" + s, paper_324, 4, vf_lids});
    cases.push_back({"paper648_" + s, paper_648, 4, vf_lids});
    cases.push_back({"three_level_" + s, three_level, 3, vf_lids});
  }
  cases.push_back(
      {"three_level_wide_all_vfs", three_level_wide, 4, VfLids::kAll});
  cases.push_back({"three_level_wide_partial_vfs", three_level_wide, 4,
                   VfLids::kPartial});
  cases.push_back(
      {"parallel_cables_all_vfs", parallel_cables, 2, VfLids::kAll});
  cases.push_back(
      {"parallel_cables_partial_vfs", parallel_cables, 2, VfLids::kPartial});
  cases.push_back(
      {"crossed_cables_all_vfs", crossed_cables, 2, VfLids::kAll});
  cases.push_back({"ring_all_vfs", ring, 2, VfLids::kAll});
  cases.push_back({"torus_all_vfs", torus, 2, VfLids::kAll});
  cases.push_back({"irregular_4242", irregular<4242>, 2, VfLids::kAll});
  cases.push_back({"irregular_7", irregular<7>, 2, VfLids::kPartial});
  cases.push_back({"irregular_99", irregular<99>, 2, VfLids::kAll});
  return cases;
}

/// Restores the default global pool sizing when a test exits.
struct ThreadGuard {
  explicit ThreadGuard(std::size_t threads) {
    ThreadPool::set_global_threads(threads);
  }
  ~ThreadGuard() { ThreadPool::set_global_threads(0); }
};

class FatTreeOracle : public ::testing::TestWithParam<OracleCase> {};

TEST_P(FatTreeOracle, MatchesPerLidReferenceEntryByEntry) {
  Subnet subnet;
  make_subnet(GetParam(), subnet);
  const std::vector<Lft> want = reference_fat_tree(subnet.fabric, subnet.lids);
  ASSERT_FALSE(want.empty());

  for (const std::size_t threads : {1, 4}) {
    ThreadGuard guard(threads);
    auto engine = routing::make_engine(routing::EngineKind::kFatTree);
    const auto got = engine->compute(subnet.fabric, subnet.lids);
    ASSERT_EQ(got.lfts.size(), want.size()) << threads << " threads";
    for (std::size_t s = 0; s < want.size(); ++s) {
      const auto w = want[s].raw();
      const auto r = got.lfts[s].raw();
      ASSERT_EQ(r.size(), w.size()) << "switch " << s;
      for (std::size_t lid = 0; lid < w.size(); ++lid) {
        ASSERT_EQ(r[lid], w[lid]) << threads << " threads, switch " << s
                                  << " (" << got.graph.switches[s]
                                  << "), LID " << lid;
      }
      EXPECT_TRUE(got.lfts[s].dirty_blocks().empty()) << "switch " << s;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fabrics, FatTreeOracle, ::testing::ValuesIn(oracle_cases()),
    [](const ::testing::TestParamInfo<OracleCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace ibvs
