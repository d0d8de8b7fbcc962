#include "sm/reconfig_journal.hpp"

#include <algorithm>
#include <type_traits>

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

/// Marks an in-flight record resolved by recovery and counts the decision.
void settle(RecordCore& r, bool forward, RecoveryReport& report) {
  auto& metrics = JournalMetrics::get();
  r.state = forward ? RecordState::kCommitted : RecordState::kRolledBack;
  ++(forward ? report.rolled_forward : report.rolled_back);
  (forward ? metrics.replays_forward : metrics.replays_back).inc();
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

template <typename Record>
std::uint64_t ReconfigJournal::begin(Record record) {
  auto& metrics = JournalMetrics::get();
  std::vector<Record>* store = nullptr;
  if constexpr (std::is_same_v<Record, MigrationRecord>) {
    IBVS_REQUIRE(record.vm_lid.valid(), "journal record needs the VM LID");
    IBVS_REQUIRE(record.src_vf != kInvalidNode && record.dst_vf != kInvalidNode,
                 "journal record needs both VF nodes");
    metrics.begun.inc();
    store = &records_;
  } else {
    const bool switch_op = record.op == TopologyOp::kAttachSwitch ||
                           record.op == TopologyOp::kDetachSwitch;
    IBVS_REQUIRE(!switch_op || record.subject != kInvalidNode,
                 "switch delta needs its subject node");
    IBVS_REQUIRE(!record.cables.empty(),
                 "topology record needs its cable set");
    metrics.topology_begun.inc();
    store = &topology_records_;
  }
  record.id = next_id_++;
  record.state = RecordState::kInFlight;
  record.reconciled = false;
  store->push_back(std::move(record));
  return store->back().id;
}

template std::uint64_t ReconfigJournal::begin(MigrationRecord);
template std::uint64_t ReconfigJournal::begin(TopologyRecord);

MigrationRecord* ReconfigJournal::find(std::uint64_t id) {
  return find_by_id(records_, id);
}

const MigrationRecord* ReconfigJournal::find(std::uint64_t id) const {
  return find_by_id(records_, id);
}

TopologyRecord* ReconfigJournal::find_topology(std::uint64_t id) {
  return find_by_id(topology_records_, id);
}

const TopologyRecord* ReconfigJournal::find_topology(std::uint64_t id) const {
  return find_by_id(topology_records_, id);
}

RecordCore& ReconfigJournal::in_flight_record(std::uint64_t id) {
  RecordCore* r = find(id);
  if (r == nullptr) r = find_topology(id);
  IBVS_REQUIRE(r != nullptr, "unknown journal record");
  IBVS_REQUIRE(r->state == RecordState::kInFlight,
               "record is no longer in flight");
  return *r;
}

void ReconfigJournal::mark_started(std::uint64_t id) {
  in_flight_record(id).started = true;
}

const std::vector<LftDelta>& ReconfigJournal::record_deltas(
    std::uint64_t id, std::vector<LftDelta> deltas) {
  RecordCore& r = in_flight_record(id);
  r.deltas = std::move(deltas);
  return r.deltas;
}

void ReconfigJournal::record_topology_lid(std::uint64_t id, Lid lid) {
  TopologyRecord* r = find_topology(id);
  IBVS_REQUIRE(r != nullptr && r->state == RecordState::kInFlight,
               "no such in-flight topology record");
  r->subject_lid = lid;
}

void ReconfigJournal::commit(std::uint64_t id) {
  in_flight_record(id).state = RecordState::kCommitted;
}

void ReconfigJournal::roll_back(std::uint64_t id) {
  in_flight_record(id).state = RecordState::kRolledBack;
}

std::size_t ReconfigJournal::in_flight() const {
  const auto count = [](const auto& store) {
    return static_cast<std::size_t>(std::ranges::count(
        store, RecordState::kInFlight, &RecordCore::state));
  };
  return count(records_) + count(topology_records_);
}

std::size_t ReconfigJournal::truncate_reconciled() {
  const auto drop = [](auto& store) {
    return static_cast<std::size_t>(std::erase_if(store, [](const auto& r) {
      return r.state != RecordState::kInFlight && r.reconciled;
    }));
  };
  return drop(records_) + drop(topology_records_);
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

  // An in-flight topology delta means the cabling the recovering SM swept
  // may already be mid-mutation: adopt the current structure first so dense
  // lookups, reachability and redistribution all see the fabric as cabled
  // right now. Append-stable dense indices make this safe for the
  // migration records below too.
  const bool topology_in_flight = std::ranges::any_of(
      topology_records_,
      [](const TopologyRecord& r) { return r.state == RecordState::kInFlight; });
  if (topology_in_flight) sm.adopt_topology_change();

  for (MigrationRecord& r : records_) {
    if (r.state == RecordState::kInFlight) {
      recover_migration(sm, r, report, routing);
    }
  }
  std::vector<const TopologyRecord*> rolled_back_topology;
  for (TopologyRecord& r : topology_records_) {
    if (r.state != RecordState::kInFlight) continue;
    recover_topology(sm, r, report);
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

void ReconfigJournal::recover_migration(SubnetManager& sm, MigrationRecord& r,
                                        RecoveryReport& report,
                                        SmpRouting routing) {
  Fabric& fabric = sm.fabric();
  auto& transport = sm.transport();
  // Roll forward only when the write-ahead marks prove the migration got
  // past the address move AND the destination can still be programmed;
  // everything else is undone. Both directions are master-table and LidMap
  // fixups — redistribution turns them into SMPs.
  const bool forward = r.started && !r.deltas.empty() &&
                       transport.hops_to(r.dst_pf).has_value();
  if (r.started) {
    // The VM's addresses end at `home`; the second LID (and, for a swap
    // pair, the peer's vGUID) at the other VF.
    const NodeId home = forward ? r.dst_vf : r.src_vf;
    const NodeId other = forward ? r.src_vf : r.dst_vf;
    if (sm.lids().owner(r.vm_lid).node != home) {
      sm.lids().move(fabric, r.vm_lid, home, 1);
    }
    if (r.swapped_lid.valid() && sm.lids().owner(r.swapped_lid).node != other) {
      sm.lids().move(fabric, r.swapped_lid, other, 1);
    }
    fabric.node(home).alias_guid = r.vguid;
    fabric.node(other).alias_guid = r.swap_pair ? r.peer_vguid : kInvalidGuid;
  }
  replay_lft_deltas(sm, r.deltas, forward);
  if (!forward && r.started) {
    report.address_time_us +=
        send_source_addresses(transport, r, routing, report.address_smps);
  }
  settle(r, forward, report);
  IBVS_INFO("journal") << "record " << r.id << " (vm " << r.vm_id
                       << ") rolled "
                       << (forward ? "forward: " : "back: ") << r.deltas.size()
                       << (forward ? " deltas replayed"
                                   : " inverse deltas applied");
}

void ReconfigJournal::recover_topology(SubnetManager& sm, TopologyRecord& r,
                                       RecoveryReport& report) {
  Fabric& fabric = sm.fabric();
  auto& transport = sm.transport();
  // Roll forward only when the write-ahead marks prove the mutation began
  // AND the re-route plan was recorded. An attach additionally needs the
  // new switch to still be programmable — a switch that died mid-attach is
  // rolled back out of the fabric, never committed half-routed.
  bool forward = r.started && !r.deltas.empty();
  if (r.op == TopologyOp::kAttachSwitch) {
    forward = forward && transport.hops_to(r.subject).has_value();
  }
  replay_lft_deltas(sm, r.deltas, forward);
  const bool adds_cables =
      r.op == TopologyOp::kAttachSwitch || r.op == TopologyOp::kAddLink;
  if (!forward) {
    for (const CableSpec& c : r.cables) {
      if (adds_cables) {
        // Unplug whatever the attach managed to cable before dying;
        // tolerate cables the mutation never reached.
        const auto peer = fabric.peer(c.a, c.port_a);
        if (peer && peer->first == c.b && peer->second == c.port_b) {
          fabric.disconnect(c.a, c.port_a);
        }
      } else if (!fabric.peer(c.a, c.port_a) && !fabric.peer(c.b, c.port_b)) {
        // Re-plug exactly what the detach severed; tolerate cables it never
        // reached or that something else (a chaos cut) took down meanwhile.
        fabric.connect(c.a, c.port_a, c.b, c.port_b);
      }
    }
    transport.invalidate_topology();
  }
  // The subject's LID belongs to it exactly when an attach rolls forward or
  // a detach rolls back.
  const bool switch_op = r.op == TopologyOp::kAttachSwitch ||
                         r.op == TopologyOp::kDetachSwitch;
  const bool keeps_lid = forward == (r.op == TopologyOp::kAttachSwitch);
  if (switch_op && r.subject_lid.valid()) {
    if (keeps_lid && !sm.lids().assigned(r.subject_lid)) {
      // The crash hit between the mutation and the LID assignment (attach),
      // or the detach had released it: address the subject again.
      // Directed-route PortInfo — its LID may not be installed anywhere yet.
      sm.lids().assign(fabric, r.subject, 0, r.subject_lid);
      transport.begin_batch();
      transport.send_port_info_set(r.subject, 0, SmpRouting::kDirected);
      report.address_smps += 1;
      report.address_time_us += transport.end_batch();
    } else if (!keeps_lid && sm.lids().assigned(r.subject_lid) &&
               sm.lids().owner(r.subject_lid).node == r.subject) {
      sm.lids().release(fabric, r.subject_lid);
    }
  }
  settle(r, forward, report);
  r.reconciled = true;  // recovery is the only bookkeeper for these
  IBVS_INFO("journal") << "topology record " << r.id << " ("
                       << to_string(r.op) << ") rolled "
                       << (forward ? "forward: " : "back: ") << r.deltas.size()
                       << (forward ? " deltas replayed"
                                   : " inverse deltas applied");
}

double send_source_addresses(fabric::SmpTransport& transport,
                             const MigrationRecord& r, SmpRouting routing,
                             std::uint64_t& smps) {
  transport.begin_batch();
  transport.send_vf_lid_assign(r.src_pf, r.src_vf_slot, r.vm_lid, routing);
  transport.send_vf_lid_assign(
      r.dst_pf, r.dst_vf_slot,
      r.swapped_lid.valid() ? r.swapped_lid : kInvalidLid, routing);
  transport.send_guid_info(r.src_pf, r.src_vf_slot, r.vguid, routing);
  smps += 3;
  if (r.swap_pair) {
    transport.send_guid_info(r.dst_pf, r.dst_vf_slot, r.peer_vguid, routing);
    smps += 1;
  }
  return transport.end_batch();
}

LftApplyResult apply_lft_deltas(SubnetManager& sm,
                                const std::vector<LftDelta>& planned,
                                std::vector<LftDelta>& applied,
                                SmpRouting routing, bool require_reachable,
                                std::uint64_t smps_sent,
                                std::uint64_t abort_after_smps) {
  const auto& g = sm.routing_result().graph;
  const auto& lfts = sm.routing_result().lfts;
  auto& transport = sm.transport();
  LftApplyResult result;
  transport.begin_batch();
  for (std::size_t i = 0; i < planned.size();) {
    const NodeId sw = planned[i].switch_node;
    const routing::SwitchIdx s = g.dense(sw);
    IBVS_ENSURE(s != routing::kNoSwitch, "planned delta for unknown switch");
    if (require_reachable && !transport.hops_to(sw)) {
      result.status = LftApplyStatus::kUnreachable;
      result.failed_switch = sw;
      break;
    }
    for (; i < planned.size() && planned[i].switch_node == sw; ++i) {
      const LftDelta& d = planned[i];
      applied.push_back({sw, d.lid, lfts[s].get(d.lid), d.new_port});
      sm.update_master_entry(s, d.lid, d.new_port);
    }
    result.smps += sm.push_dirty_blocks(s, routing);
    ++result.switches;
    if (smps_sent + result.smps >= abort_after_smps) {
      result.status = LftApplyStatus::kSmpBudget;
      break;
    }
  }
  result.time_us = transport.end_batch();
  return result;
}

std::vector<routing::SwitchIdx> replay_lft_deltas(
    SubnetManager& sm, const std::vector<LftDelta>& deltas, bool forward) {
  const auto& g = sm.routing_result().graph;
  std::vector<routing::SwitchIdx> touched;
  const auto write = [&](const LftDelta& d, PortNum port) {
    const routing::SwitchIdx s = g.dense(d.switch_node);
    if (s == routing::kNoSwitch) return;
    sm.update_master_entry(s, d.lid, port);
    if (std::find(touched.begin(), touched.end(), s) == touched.end()) {
      touched.push_back(s);
    }
  };
  if (forward) {
    for (const LftDelta& d : deltas) write(d, d.new_port);
  } else {
    for (auto it = deltas.rbegin(); it != deltas.rend(); ++it) {
      write(*it, it->old_port);
    }
  }
  return touched;
}

}  // namespace ibvs::sm
