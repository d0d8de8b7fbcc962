#include "sm/reconfig_journal.hpp"

#include <algorithm>

#include "routing/graph.hpp"
#include "sm/topology_txn.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/expect.hpp"
#include "util/log.hpp"

namespace ibvs::sm {

namespace {

struct JournalMetrics {
  telemetry::Counter& begun;
  telemetry::Counter& topology_begun;
  telemetry::Counter& replays_forward;
  telemetry::Counter& replays_back;

  static JournalMetrics& get() {
    auto& reg = telemetry::Registry::global();
    static JournalMetrics m{
        reg.counter("ibvs_journal_records_total", {},
                    "Migration records opened in the reconfiguration journal"),
        reg.counter("ibvs_journal_topology_records_total", {},
                    "Topology records opened in the reconfiguration journal"),
        reg.counter("ibvs_journal_replays_total", {{"action", "roll_forward"}},
                    "In-flight journal records resolved during recovery"),
        reg.counter("ibvs_journal_replays_total", {{"action", "roll_back"}}),
    };
    return m;
  }
};

/// The record with `id` in an id-ascending record vector, or nullptr.
template <typename Records>
auto* find_by_id(Records& records, std::uint64_t id) {
  const auto it = std::ranges::lower_bound(
      records, id, {}, [](const auto& r) { return r.id; });
  return it != records.end() && it->id == id ? &*it : nullptr;
}

/// Route repair after a topology rollback performed by a *recovering* SM.
///
/// A standby promoted mid-delta sweeps the half-mutated fabric before it
/// replays the journal, so its master tables describe the cabling as it was
/// at takeover. Rolling the record back then changes the cabling again —
/// re-plugging a detach subject the sweep saw severed (its LID column is
/// all-drop) or severing attach cables the sweep routed through. The
/// recorded inverse deltas cannot fix that: they were taken against the
/// *dying* master's tables. Recompute exactly the affected columns from BFS
/// on the restored graph. Roll-forward needs no such pass (the journaled
/// deltas are valid for the fully-mutated fabric), so the common recovery
/// path stays free of route recomputation.
void repair_rolled_back_routes(
    SubnetManager& sm, const std::vector<const TopologyRecord*>& rolled) {
  if (rolled.empty()) return;
  Fabric& fabric = sm.fabric();
  const auto& result = sm.routing_result();
  const auto& g = result.graph;
  const auto hops = routing::switch_hop_matrix(g);
  for (const TopologyRecord* r : rolled) {
    const bool removed_cables =
        r->op == TopologyOp::kAttachSwitch || r->op == TopologyOp::kAddLink;
    if (removed_cables) {
      // Any column still egressing into a now-unplugged port is recomputed
      // wholesale; untouched columns never routed through the cables.
      for (const Lid lid : sm.lids().assigned_lids()) {
        bool stale = false;
        for (const CableSpec& c : r->cables) {
          const routing::SwitchIdx sa = g.dense(c.a);
          const routing::SwitchIdx sb = g.dense(c.b);
          if ((sa != routing::kNoSwitch &&
               result.lfts[sa].get(lid) == c.port_a) ||
              (sb != routing::kNoSwitch &&
               result.lfts[sb].get(lid) == c.port_b)) {
            stale = true;
            break;
          }
        }
        if (!stale) continue;
        const auto att = sm.lids().attachment(fabric, lid);
        if (!att) continue;
        const routing::SwitchIdx t = g.dense(att->first);
        if (t == routing::kNoSwitch) continue;
        const auto column = repair_route_column(g, hops, t, att->second);
        for (routing::SwitchIdx s = 0; s < g.num_switches(); ++s) {
          sm.update_master_entry(s, lid, column[s]);
        }
      }
      // The released attach LID must not linger in any table.
      if (r->op == TopologyOp::kAttachSwitch && r->subject_lid.valid() &&
          !sm.lids().assigned(r->subject_lid)) {
        for (routing::SwitchIdx s = 0; s < g.num_switches(); ++s) {
          sm.update_master_entry(s, r->subject_lid, kDropPort);
        }
      }
    } else if (r->op == TopologyOp::kDetachSwitch) {
      // The re-plugged subject: route its restored LID everywhere and fill
      // its own table (the takeover sweep computed both against a fabric
      // where it was severed). Re-plugging only *adds* paths, so existing
      // non-drop entries still deliver — fill exactly the kDropPort gaps and
      // the recovery stays byte-identical when the tables were never stale
      // (a master rolling back its own abandoned detach).
      const routing::SwitchIdx me = g.dense(r->subject);
      if (me == routing::kNoSwitch || !r->subject_lid.valid() ||
          !sm.lids().assigned(r->subject_lid)) {
        continue;
      }
      const auto column = repair_route_column(g, hops, me, /*delivery=*/0);
      for (routing::SwitchIdx s = 0; s < g.num_switches(); ++s) {
        if (result.lfts[s].get(r->subject_lid) == kDropPort) {
          sm.update_master_entry(s, r->subject_lid, column[s]);
        }
      }
      for (const auto& target : g.targets) {
        if (result.lfts[me].get(target.lid) != kDropPort) continue;
        const PortNum port = target.sw == me
                                 ? target.port
                                 : repair_port_toward(g, hops, me, target.sw);
        sm.update_master_entry(me, target.lid, port);
      }
    }
    // kRemoveLink rolled back: the restored cable only adds capacity; the
    // routes the takeover sweep computed without it remain valid.
  }
}

}  // namespace

const char* to_string(RecordState state) {
  switch (state) {
    case RecordState::kInFlight:
      return "in-flight";
    case RecordState::kCommitted:
      return "committed";
    case RecordState::kRolledBack:
      return "rolled-back";
  }
  return "?";
}

const char* to_string(TopologyOp op) {
  switch (op) {
    case TopologyOp::kAttachSwitch:
      return "attach-switch";
    case TopologyOp::kDetachSwitch:
      return "detach-switch";
    case TopologyOp::kAddLink:
      return "add-link";
    case TopologyOp::kRemoveLink:
      return "remove-link";
  }
  return "?";
}

std::uint64_t ReconfigJournal::begin(MigrationRecord record) {
  IBVS_REQUIRE(record.vm_lid.valid(), "journal record needs the VM LID");
  IBVS_REQUIRE(record.src_vf != kInvalidNode && record.dst_vf != kInvalidNode,
               "journal record needs both VF nodes");
  record.id = next_id_++;
  record.state = RecordState::kInFlight;
  record.reconciled = false;
  JournalMetrics::get().begun.inc();
  records_.push_back(std::move(record));
  return records_.back().id;
}

MigrationRecord* ReconfigJournal::find(std::uint64_t id) {
  return find_by_id(records_, id);
}

const MigrationRecord* ReconfigJournal::find(std::uint64_t id) const {
  return find_by_id(records_, id);
}

void ReconfigJournal::record_addresses_moved(std::uint64_t id) {
  MigrationRecord* r = find(id);
  IBVS_REQUIRE(r != nullptr, "unknown journal record");
  IBVS_REQUIRE(r->state == RecordState::kInFlight,
               "record is no longer in flight");
  r->addresses_moved = true;
}

void ReconfigJournal::record_deltas(std::uint64_t id,
                                    std::vector<LftDelta> deltas) {
  MigrationRecord* r = find(id);
  IBVS_REQUIRE(r != nullptr, "unknown journal record");
  IBVS_REQUIRE(r->state == RecordState::kInFlight,
               "record is no longer in flight");
  r->deltas = std::move(deltas);
}

void ReconfigJournal::commit(std::uint64_t id) {
  MigrationRecord* r = find(id);
  IBVS_REQUIRE(r != nullptr, "unknown journal record");
  IBVS_REQUIRE(r->state == RecordState::kInFlight,
               "record is no longer in flight");
  r->state = RecordState::kCommitted;
}

void ReconfigJournal::roll_back(std::uint64_t id) {
  MigrationRecord* r = find(id);
  IBVS_REQUIRE(r != nullptr, "unknown journal record");
  IBVS_REQUIRE(r->state == RecordState::kInFlight,
               "record is no longer in flight");
  r->state = RecordState::kRolledBack;
}

std::uint64_t ReconfigJournal::begin_topology(TopologyRecord record) {
  const bool switch_op = record.op == TopologyOp::kAttachSwitch ||
                         record.op == TopologyOp::kDetachSwitch;
  IBVS_REQUIRE(!switch_op || record.subject != kInvalidNode,
               "switch delta needs its subject node");
  IBVS_REQUIRE(!record.cables.empty(), "topology record needs its cable set");
  record.id = next_id_++;
  record.state = RecordState::kInFlight;
  record.reconciled = false;
  JournalMetrics::get().topology_begun.inc();
  topology_records_.push_back(std::move(record));
  return topology_records_.back().id;
}

TopologyRecord* ReconfigJournal::find_topology(std::uint64_t id) {
  return find_by_id(topology_records_, id);
}

const TopologyRecord* ReconfigJournal::find_topology(std::uint64_t id) const {
  return find_by_id(topology_records_, id);
}

void ReconfigJournal::record_topology_mutated(std::uint64_t id) {
  TopologyRecord* r = find_topology(id);
  IBVS_REQUIRE(r != nullptr, "unknown topology record");
  IBVS_REQUIRE(r->state == RecordState::kInFlight,
               "record is no longer in flight");
  r->mutated = true;
}

void ReconfigJournal::record_topology_lid(std::uint64_t id, Lid lid) {
  TopologyRecord* r = find_topology(id);
  IBVS_REQUIRE(r != nullptr, "unknown topology record");
  IBVS_REQUIRE(r->state == RecordState::kInFlight,
               "record is no longer in flight");
  r->subject_lid = lid;
}

void ReconfigJournal::record_topology_deltas(std::uint64_t id,
                                             std::vector<LftDelta> deltas) {
  TopologyRecord* r = find_topology(id);
  IBVS_REQUIRE(r != nullptr, "unknown topology record");
  IBVS_REQUIRE(r->state == RecordState::kInFlight,
               "record is no longer in flight");
  r->deltas = std::move(deltas);
}

void ReconfigJournal::commit_topology(std::uint64_t id) {
  TopologyRecord* r = find_topology(id);
  IBVS_REQUIRE(r != nullptr, "unknown topology record");
  IBVS_REQUIRE(r->state == RecordState::kInFlight,
               "record is no longer in flight");
  r->state = RecordState::kCommitted;
}

void ReconfigJournal::roll_back_topology(std::uint64_t id) {
  TopologyRecord* r = find_topology(id);
  IBVS_REQUIRE(r != nullptr, "unknown topology record");
  IBVS_REQUIRE(r->state == RecordState::kInFlight,
               "record is no longer in flight");
  r->state = RecordState::kRolledBack;
}

std::size_t ReconfigJournal::in_flight() const {
  std::size_t n = 0;
  for (const MigrationRecord& r : records_) {
    if (r.state == RecordState::kInFlight) ++n;
  }
  for (const TopologyRecord& r : topology_records_) {
    if (r.state == RecordState::kInFlight) ++n;
  }
  return n;
}

std::size_t ReconfigJournal::truncate_reconciled() {
  const std::size_t before = records_.size() + topology_records_.size();
  std::erase_if(records_, [](const MigrationRecord& r) {
    return r.state != RecordState::kInFlight && r.reconciled;
  });
  std::erase_if(topology_records_, [](const TopologyRecord& r) {
    return r.state != RecordState::kInFlight && r.reconciled;
  });
  return before - records_.size() - topology_records_.size();
}

RecoveryReport ReconfigJournal::recover(SubnetManager& sm,
                                        std::size_t max_rounds,
                                        SmpRouting routing) {
  RecoveryReport report;
  report.in_flight = in_flight();
  if (report.in_flight == 0) return report;
  IBVS_REQUIRE(sm.has_routing(),
               "recovery needs master tables (sweep the subnet first)");

  auto span = telemetry::Tracer::global().span(
      "journal.recover",
      {{"in_flight", std::to_string(report.in_flight)}});
  Fabric& fabric = sm.fabric();
  auto& transport = sm.transport();

  // An in-flight topology delta means the cabling the recovering SM swept
  // may already be mid-mutation: adopt the current structure first so dense
  // lookups, reachability and redistribution all see the fabric as cabled
  // right now. Append-stable dense indices make this safe for the
  // migration records below too.
  bool topology_in_flight = false;
  for (const TopologyRecord& r : topology_records_) {
    if (r.state == RecordState::kInFlight) topology_in_flight = true;
  }
  if (topology_in_flight) sm.adopt_topology_change();
  const auto& graph = sm.routing_result().graph;

  for (MigrationRecord& r : records_) {
    if (r.state != RecordState::kInFlight) continue;
    // Roll forward only when the write-ahead marks prove the migration got
    // past the address move AND the destination can still be programmed;
    // everything else is undone. Both branches are pure master-table and
    // LidMap fixups — redistribution below turns them into SMPs.
    const bool dst_reachable = transport.hops_to(r.dst_pf).has_value();
    const bool forward =
        r.addresses_moved && !r.deltas.empty() && dst_reachable;
    if (forward) {
      if (sm.lids().owner(r.vm_lid).node != r.dst_vf) {
        sm.lids().move(fabric, r.vm_lid, r.dst_vf, 1);
      }
      if (r.swapped_lid.valid() &&
          sm.lids().owner(r.swapped_lid).node != r.src_vf) {
        sm.lids().move(fabric, r.swapped_lid, r.src_vf, 1);
      }
      fabric.node(r.dst_vf).alias_guid = r.vguid;
      fabric.node(r.src_vf).alias_guid =
          r.swap_pair ? r.peer_vguid : kInvalidGuid;
      for (const LftDelta& d : r.deltas) {
        const routing::SwitchIdx s = graph.dense(d.switch_node);
        if (s == routing::kNoSwitch) continue;
        sm.update_master_entry(s, d.lid, d.new_port);
      }
      r.state = RecordState::kCommitted;
      ++report.rolled_forward;
      JournalMetrics::get().replays_forward.inc();
      IBVS_INFO("journal") << "record " << r.id << " (vm " << r.vm_id
                           << ") rolled forward: " << r.deltas.size()
                           << " deltas replayed";
    } else {
      for (auto it = r.deltas.rbegin(); it != r.deltas.rend(); ++it) {
        const routing::SwitchIdx s = graph.dense(it->switch_node);
        if (s == routing::kNoSwitch) continue;
        sm.update_master_entry(s, it->lid, it->old_port);
      }
      if (r.addresses_moved) {
        if (sm.lids().owner(r.vm_lid).node != r.src_vf) {
          sm.lids().move(fabric, r.vm_lid, r.src_vf, 1);
        }
        if (r.swapped_lid.valid() &&
            sm.lids().owner(r.swapped_lid).node != r.dst_vf) {
          sm.lids().move(fabric, r.swapped_lid, r.dst_vf, 1);
        }
        fabric.node(r.src_vf).alias_guid = r.vguid;
        fabric.node(r.dst_vf).alias_guid =
            r.swap_pair ? r.peer_vguid : kInvalidGuid;
        // Re-attach the VF addresses at the source: the reverse of §V-C
        // step (a), priced on the batch clock like the forward path. A
        // swap pair also restores the peer's vGUID at the destination.
        transport.begin_batch();
        transport.send_vf_lid_assign(r.src_pf, r.src_vf_slot, r.vm_lid,
                                     routing);
        transport.send_vf_lid_assign(
            r.dst_pf, r.dst_vf_slot,
            r.swapped_lid.valid() ? r.swapped_lid : kInvalidLid, routing);
        transport.send_guid_info(r.src_pf, r.src_vf_slot, r.vguid, routing);
        report.address_smps += 3;
        if (r.swap_pair) {
          transport.send_guid_info(r.dst_pf, r.dst_vf_slot, r.peer_vguid,
                                   routing);
          report.address_smps += 1;
        }
        report.address_time_us += transport.end_batch();
      }
      r.state = RecordState::kRolledBack;
      ++report.rolled_back;
      JournalMetrics::get().replays_back.inc();
      IBVS_INFO("journal") << "record " << r.id << " (vm " << r.vm_id
                           << ") rolled back: " << r.deltas.size()
                           << " inverse deltas applied";
    }
  }

  std::vector<const TopologyRecord*> rolled_back_topology;
  for (TopologyRecord& r : topology_records_) {
    if (r.state != RecordState::kInFlight) continue;
    recover_topology(sm, r, report, routing);
    if (r.state == RecordState::kRolledBack) {
      rolled_back_topology.push_back(&r);
    }
  }
  // Rolling a topology record back (or forward past a partial mutation) can
  // change the cabling again; re-adopt so redistribution programs exactly
  // the switches that are really there.
  if (topology_in_flight) sm.adopt_topology_change();
  repair_rolled_back_routes(sm, rolled_back_topology);

  // The master tables now describe exactly one consistent outcome per
  // record; push the diffs until the installed fabric agrees. Only a
  // rolled-back topology delta triggers a (column-scoped) recomputation
  // above — the migration paths and topology roll-forward stay PCt-free.
  sm.refresh_targets();
  sm.bump_generation();
  report.redistribution = sm.redistribute(max_rounds, routing);
  span.set_attr("rolled_forward", std::to_string(report.rolled_forward));
  span.set_attr("rolled_back", std::to_string(report.rolled_back));
  span.set_attr("smps", std::to_string(report.redistribution.smps));
  return report;
}

void ReconfigJournal::recover_topology(SubnetManager& sm, TopologyRecord& r,
                                       RecoveryReport& report,
                                       SmpRouting routing) {
  Fabric& fabric = sm.fabric();
  auto& transport = sm.transport();
  const auto& graph = sm.routing_result().graph;
  // Roll forward only when the write-ahead marks prove the mutation began
  // AND the re-route plan was recorded. An attach additionally needs the
  // new switch to still be programmable — a switch that died mid-attach is
  // rolled back out of the fabric, never committed half-routed.
  bool forward = r.mutated && !r.deltas.empty();
  if (r.op == TopologyOp::kAttachSwitch) {
    forward = forward && transport.hops_to(r.subject).has_value();
  }
  if (forward) {
    for (const LftDelta& d : r.deltas) {
      const routing::SwitchIdx s = graph.dense(d.switch_node);
      if (s == routing::kNoSwitch) continue;
      sm.update_master_entry(s, d.lid, d.new_port);
    }
    if (r.op == TopologyOp::kAttachSwitch && r.subject_lid.valid() &&
        !sm.lids().assigned(r.subject_lid)) {
      // The crash hit between the mutation and the LID assignment: finish
      // the addressing. Directed-route PortInfo — the new switch's LID may
      // not be installed anywhere yet.
      sm.lids().assign(fabric, r.subject, 0, r.subject_lid);
      transport.begin_batch();
      transport.send_port_info_set(r.subject, 0, SmpRouting::kDirected);
      report.address_smps += 1;
      report.address_time_us += transport.end_batch();
    }
    if (r.op == TopologyOp::kDetachSwitch && r.subject_lid.valid() &&
        sm.lids().assigned(r.subject_lid) &&
        sm.lids().owner(r.subject_lid).node == r.subject) {
      sm.lids().release(fabric, r.subject_lid);
    }
    r.state = RecordState::kCommitted;
    r.reconciled = true;  // recovery is the only bookkeeper for these
    ++report.rolled_forward;
    JournalMetrics::get().replays_forward.inc();
    IBVS_INFO("journal") << "topology record " << r.id << " ("
                         << to_string(r.op) << ") rolled forward: "
                         << r.deltas.size() << " deltas replayed";
    return;
  }
  for (auto it = r.deltas.rbegin(); it != r.deltas.rend(); ++it) {
    const routing::SwitchIdx s = graph.dense(it->switch_node);
    if (s == routing::kNoSwitch) continue;
    sm.update_master_entry(s, it->lid, it->old_port);
  }
  const bool adds_cables =
      r.op == TopologyOp::kAttachSwitch || r.op == TopologyOp::kAddLink;
  if (adds_cables) {
    // Unplug whatever the attach managed to cable before dying; tolerate
    // cables the mutation never reached.
    for (const CableSpec& c : r.cables) {
      const auto peer = fabric.peer(c.a, c.port_a);
      if (peer && peer->first == c.b && peer->second == c.port_b) {
        fabric.disconnect(c.a, c.port_a);
      }
    }
    transport.invalidate_topology();
    if (r.op == TopologyOp::kAttachSwitch && r.subject_lid.valid() &&
        sm.lids().assigned(r.subject_lid) &&
        sm.lids().owner(r.subject_lid).node == r.subject) {
      sm.lids().release(fabric, r.subject_lid);
    }
  } else {
    // Re-plug exactly what the detach severed; tolerate cables it never
    // reached or that something else (a chaos cut) took down meanwhile.
    for (const CableSpec& c : r.cables) {
      if (!fabric.peer(c.a, c.port_a) && !fabric.peer(c.b, c.port_b)) {
        fabric.connect(c.a, c.port_a, c.b, c.port_b);
      }
    }
    transport.invalidate_topology();
    if (r.op == TopologyOp::kDetachSwitch && r.subject_lid.valid() &&
        !sm.lids().assigned(r.subject_lid)) {
      sm.lids().assign(fabric, r.subject, 0, r.subject_lid);
      transport.begin_batch();
      transport.send_port_info_set(r.subject, 0, SmpRouting::kDirected);
      report.address_smps += 1;
      report.address_time_us += transport.end_batch();
    }
  }
  r.state = RecordState::kRolledBack;
  r.reconciled = true;  // recovery is the only bookkeeper for these
  ++report.rolled_back;
  JournalMetrics::get().replays_back.inc();
  IBVS_INFO("journal") << "topology record " << r.id << " ("
                       << to_string(r.op) << ") rolled back: "
                       << r.deltas.size() << " inverse deltas applied";
  (void)routing;
}

}  // namespace ibvs::sm
