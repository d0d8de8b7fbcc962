// Fat-tree routing engine (OpenSM "ftree" equivalent, d-mod-k flavour).
//
// Switches are ranked by distance from the leaf tier. Traffic for a
// destination goes *down* along the unique tree path wherever the
// destination lies below, and *up* otherwise, with the uplink chosen as
// lid % |up ports| — the classic destination-mod-k spreading that gives a
// fat tree its full-bisection load balance. Because the choice depends only
// on the destination LID, two LIDs on the same hypervisor can ride
// different spines: the LMC-like multipathing the paper credits to the
// prepopulated-LIDs scheme (§V-A).
//
// Routes are computed per attachment switch, not per LID. Every endpoint
// LID behind one leaf shares that leaf's downward tree; only the delivery
// port at the leaf and the d-mod-k uplink depend on the LID itself. Phase 1
// therefore runs one BFS per *root* — each switch with endpoints attached
// (upward over its ancestors) and each switch LID (a full shortest-path
// tree toward the switch) — and stores one down-port column per root.
// Phase 2 assembles each switch's LFT row from those columns: the LID's own
// delivery port at its attachment switch, the column's down port where the
// switch lies on the root's tree, and the up-rule everywhere else. Cost
// O(roots·E + LIDs·S) with roots ≈ leaves + switches; one BFS per LID
// would cost O(LIDs·E).
#include <algorithm>
#include <span>

#include "routing/engine.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace ibvs::routing {

namespace {

class FatTreeEngine final : public RoutingEngine {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "fat-tree";
  }

  [[nodiscard]] RoutingResult compute(const Fabric& fabric,
                                      const LidMap& lids) override {
    Stopwatch watch;
    RoutingResult result;
    result.graph = SwitchGraph::build(fabric, lids);
    const SwitchGraph& g = result.graph;
    const std::size_t s_count = g.num_switches();
    const std::size_t t_count = g.targets.size();

    // --- Rank switches: leaves are switches with endpoint attachments. ---
    std::vector<std::uint8_t> level(s_count, 0xFF);
    std::vector<SwitchIdx> queue;
    for (const auto& t : g.targets) {
      if (t.port != 0 && level[t.sw] == 0xFF) {
        level[t.sw] = 0;
        queue.push_back(t.sw);
      }
    }
    if (queue.empty()) {
      // Degenerate fabric without endpoints: rank from switch 0.
      if (s_count > 0) {
        level[0] = 0;
        queue.push_back(0);
      }
    }
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const SwitchIdx u = queue[head];
      const auto [first, last] = g.out(u);
      for (const auto* e = first; e != last; ++e) {
        if (level[e->to] == 0xFF) {
          level[e->to] = static_cast<std::uint8_t>(level[u] + 1);
          queue.push_back(e->to);
        }
      }
    }

    // --- Up-port lists (sorted, deduplicated) per switch. ---
    std::vector<std::vector<PortNum>> up_ports(s_count);
    for (std::size_t s = 0; s < s_count; ++s) {
      const auto [first, last] = g.out(static_cast<SwitchIdx>(s));
      for (const auto* e = first; e != last; ++e) {
        if (level[e->to] == level[s] + 1) up_ports[s].push_back(e->out_port);
      }
      std::sort(up_ports[s].begin(), up_ports[s].end());
      up_ports[s].erase(
          std::unique(up_ports[s].begin(), up_ports[s].end()),
          up_ports[s].end());
    }

    // --- Back ports: for edge u->v, v's first port (CSR order) facing u. ---
    // This is the port v forwards on toward u. It is not always the far
    // end of the edge's own cable (reverse_edge): parallel cables plugged
    // in a different port order at the two ends make them differ, and the
    // tables use v's first port.
    std::vector<PortNum> back_port(g.num_edges(), kDropPort);
    for (std::size_t u = 0; u < s_count; ++u) {
      for (std::uint32_t e = g.adj_offset[u]; e < g.adj_offset[u + 1]; ++e) {
        const auto [vf, vl] = g.out(g.edges[e].to);
        for (const auto* back = vf; back != vl; ++back) {
          if (back->to == u) {
            back_port[e] = back->out_port;
            break;
          }
        }
      }
    }

    // --- Roots: one column per (attachment switch, LID kind). ---
    // A column's members are its targets as (LID, delivery port), grouped
    // CSR-style so Phase 2 can write a whole column at once.
    struct Root {
      SwitchIdx sw;
      bool switch_lid;  ///< a switch's own LID (port 0) vs endpoints behind it
    };
    struct Member {
      std::uint16_t lid;
      PortNum port;
    };
    constexpr std::uint32_t kNoColumn = ~std::uint32_t{0};
    std::vector<std::uint32_t> endpoint_col(s_count, kNoColumn);
    std::vector<std::uint32_t> switch_col(s_count, kNoColumn);
    const auto column_of = [&](const SwitchGraph::Target& t) -> auto& {
      return t.port == 0 ? switch_col[t.sw] : endpoint_col[t.sw];
    };
    std::vector<Root> roots;
    std::vector<std::uint32_t> member_offset{0};
    for (const auto& t : g.targets) {
      std::uint32_t& col = column_of(t);
      if (col == kNoColumn) {
        col = static_cast<std::uint32_t>(roots.size());
        roots.push_back(Root{t.sw, t.port == 0});
        member_offset.push_back(0);
      }
      ++member_offset[col + 1];
    }
    const std::size_t c_count = roots.size();
    for (std::size_t c = 0; c < c_count; ++c) {
      member_offset[c + 1] += member_offset[c];
    }
    std::vector<Member> members(t_count);
    std::vector<std::uint32_t> cursor(member_offset.begin(),
                                      member_offset.end() - 1);
    for (const auto& t : g.targets) {
      members[cursor[column_of(t)]++] = Member{t.lid.value(), t.port};
    }

    // Both phases fan out over contiguous item ranges, which the threads
    // claim a few at a time, so cheap and expensive items (upward vs
    // full-tree columns; leaf vs core rows) even out. Work is counted in
    // edge checks (Phase 1) and table entries (Phase 2).

    // --- Phase 1: per root, its down ports. ---
    // down[c * s_count + s] = down port at switch s toward root c, or
    // kDropPort where the up-rule applies. The root's own entry only marks
    // it reached; Phase 2 delivers there on each LID's own port.
    std::vector<PortNum> down(c_count * s_count, kDropPort);
    ThreadPool::global().parallel_for_shards(
        c_count, c_count * g.num_edges(),
        [&](std::size_t, std::size_t begin, std::size_t end) {
          std::vector<SwitchIdx> frontier;
          for (std::size_t c = begin; c < end; ++c) {
            const Root root = roots[c];
            PortNum* col = down.data() + c * s_count;
            col[root.sw] = 0;
            frontier.assign(1, root.sw);
            // Switch LID (management traffic): a plain shortest-path tree
            // toward the switch — the up-rule cannot reach mid-tier
            // switches. Endpoints: BFS upward from the attachment switch;
            // every ancestor forwards down toward the child it was first
            // discovered from, and non-ancestors use the up-rule. Either
            // way a switch is entered once, on the first edge that reaches
            // it, and forwards on that edge's back port. Once every switch
            // is reached the rest of the frontier can change nothing.
            for (std::size_t head = 0;
                 head < frontier.size() && frontier.size() < s_count;
                 ++head) {
              const SwitchIdx near = frontier[head];
              const unsigned up_level = level[near] + 1u;
              for (std::uint32_t e = g.adj_offset[near];
                   e < g.adj_offset[near + 1]; ++e) {
                const SwitchIdx far = g.edges[e].to;
                if (!root.switch_lid && level[far] != up_level) continue;
                if (col[far] != kDropPort) continue;  // already reached
                col[far] = back_port[e];
                frontier.push_back(far);
              }
            }
          }
        });

    // --- Phase 2: assemble LFT rows, one switch at a time. ---
    // A row starts as the d-mod-k up-rule for every target; each column
    // then overwrites its members with its down port at this switch, and
    // the switch's own columns deliver on each LID's port. Consecutive
    // switches usually share one up-port list, so each worker rebuilds the
    // up-rule row only when the list changes. The tables are allocated
    // here, on the calling thread: sized inside the workers they land in
    // per-thread heaps, and on boot_5832 peak RSS then wandered between 98
    // and 126 MB instead of holding at 99.5 MB.
    result.lfts.assign(s_count, Lft(lids.top_lid()));
    const std::size_t entries =
        s_count == 0 ? 0 : result.lfts.front().capacity();
    ThreadPool::global().parallel_for_shards(
        s_count, s_count * t_count,
        [&](std::size_t, std::size_t begin, std::size_t end) {
          std::vector<PortNum> up_row(entries, kDropPort);
          const std::vector<PortNum>* up_row_ports = nullptr;
          std::vector<PortNum> row(entries);
          for (std::size_t s = begin; s < end; ++s) {
            const auto& ups = up_ports[s];
            if (up_row_ports == nullptr || *up_row_ports != ups) {
              std::fill(up_row.begin(), up_row.end(), kDropPort);
              // No up ports: disconnected from the tree, the gaps drop.
              const auto n_ups = static_cast<std::uint32_t>(ups.size());
              if (n_ups != 0) {
                for (const auto& t : g.targets) {
                  up_row[t.lid.value()] = ups[t.lid.value() % n_ups];
                }
              }
              up_row_ports = &ups;
            }
            std::copy(up_row.begin(), up_row.end(), row.begin());
            for (std::size_t c = 0; c < c_count; ++c) {
              const Member* first = members.data() + member_offset[c];
              const Member* last = members.data() + member_offset[c + 1];
              if (roots[c].sw == s) {
                for (const Member* m = first; m != last; ++m) {
                  row[m->lid] = m->port;
                }
                continue;
              }
              const PortNum port = down[c * s_count + s];
              if (port == kDropPort) continue;
              for (const Member* m = first; m != last; ++m) row[m->lid] = port;
            }
            Lft& lft = result.lfts[s];
            for (std::size_t b = 0; b < lft.block_count(); ++b) {
              lft.set_block(b, std::span<const PortNum>(
                                   row.data() + b * kLftBlockSize,
                                   kLftBlockSize));
            }
            lft.clear_dirty();
          }
        });
    result.compute_seconds = watch.elapsed_seconds();
    return result;
  }
};

}  // namespace

std::unique_ptr<RoutingEngine> make_fat_tree_engine() {
  return std::make_unique<FatTreeEngine>();
}

}  // namespace ibvs::routing
