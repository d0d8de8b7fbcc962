// Compact switch-level view of a fabric for the routing engines.
//
// Path computation only cares about physical switches and where each LID
// attaches to them; CAs, PFs, VFs and vSwitches all collapse onto their
// attachment (switch, port). This is both a performance necessity at the
// paper's 11664-node scale and the structural reason the vSwitch
// reconfiguration works: every LID behind a hypervisor shares one
// attachment point.
#pragma once

#include <cstdint>
#include <vector>

#include "ib/fabric.hpp"
#include "ib/lid_map.hpp"
#include "ib/types.hpp"

namespace ibvs::routing {

/// Dense index of a switch inside a SwitchGraph.
using SwitchIdx = std::uint32_t;
inline constexpr SwitchIdx kNoSwitch = ~SwitchIdx{0};

struct SwitchGraph {
  /// One directed half of a cable between two physical switches.
  struct Edge {
    SwitchIdx to = kNoSwitch;
    PortNum out_port = 0;  ///< egress port on the source switch
  };

  /// An assigned LID and where its traffic must be delivered.
  struct Target {
    Lid lid;
    SwitchIdx sw = kNoSwitch;  ///< attachment switch
    PortNum port = 0;          ///< delivery port (0 = the switch itself)
  };

  std::vector<NodeId> switches;       ///< dense index -> fabric NodeId
  std::vector<SwitchIdx> dense_of;    ///< fabric NodeId -> dense index
  std::vector<std::uint32_t> adj_offset;  ///< CSR offsets, size S+1
  std::vector<Edge> edges;                ///< CSR payload
  std::vector<Target> targets;        ///< every routable LID, LID-ascending
  /// edges[i]'s opposite direction on the same cable: edges[reverse_edge[i]].
  std::vector<std::uint32_t> reverse_edge;
  /// (switch, out port) -> edge index (kNoEdge if that port has no
  /// switch-to-switch cable). Row-major, 256 ports per switch.
  std::vector<std::uint32_t> edge_by_port;

  static constexpr std::uint32_t kNoEdge = ~std::uint32_t{0};

  /// Source switch of an edge (derivable from CSR; precomputed for speed).
  std::vector<SwitchIdx> edge_src;

  [[nodiscard]] std::uint32_t edge_of(SwitchIdx s, PortNum port) const {
    return edge_by_port[static_cast<std::size_t>(s) * 256 + port];
  }

  [[nodiscard]] std::size_t num_switches() const noexcept {
    return switches.size();
  }
  [[nodiscard]] std::size_t num_edges() const noexcept { return edges.size(); }

  /// Edges leaving switch `s`.
  [[nodiscard]] std::pair<const Edge*, const Edge*> out(SwitchIdx s) const {
    return {edges.data() + adj_offset[s], edges.data() + adj_offset[s + 1]};
  }

  [[nodiscard]] SwitchIdx dense(NodeId node) const {
    return node < dense_of.size() ? dense_of[node] : kNoSwitch;
  }

  /// Builds the view. Targets cover every LID in `lids` that resolves to a
  /// physical attachment; unattached LIDs are skipped (and later unrouted).
  static SwitchGraph build(const Fabric& fabric, const LidMap& lids);

  /// Recomputes the whole target list: one attachment resolution per
  /// assigned LID, O(assigned LIDs) — thousands on the paper's clouds. Use
  /// it only when an unknown set of LIDs may have changed (build, journal
  /// recovery); after a known LID change, update_target() gives the same
  /// list for one binary search per changed LID.
  void rebuild_targets(const Fabric& fabric, const LidMap& lids);

  /// Point update of one LID's target after it was assigned, released or
  /// moved: a binary search in the LID-ascending `targets` (O(log T)), then
  /// an in-place overwrite, or an insert/erase that shifts the tail by one
  /// entry. Leaves `targets` exactly as rebuild_targets() would, provided
  /// every other entry was current.
  void update_target(const Fabric& fabric, const LidMap& lids, Lid lid);
};

/// Hop-count matrix between switches (row-major, S*S, 0xFF = unreachable).
/// Used by Min-Hop routing, topology-transaction route repair and journal
/// recovery; one BFS per switch, fanned out on fabrics above the pool's
/// work cutoff (serial on the 324- and 648-node trees).
std::vector<std::uint8_t> switch_hop_matrix(const SwitchGraph& graph);

}  // namespace ibvs::routing
