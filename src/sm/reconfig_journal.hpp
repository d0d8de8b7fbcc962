// The reconfiguration transaction core shared by every transaction kind.
//
// The paper's reconfiguration (§V-C, Algorithm 1) is one mechanism: rewrite
// a known set of per-switch LFT entries, push the dirty blocks, never run
// path computation. Live migrations and destination swaps (core/vswitch)
// and topology deltas (sm/topology_txn) are that mechanism with different
// payloads, so they share one core:
//
//  * a write-ahead journal. Every record has the same core (id, state, a
//    write-ahead "started" flag, the planned LftDelta list) and one
//    begin / mark_started / record_deltas / commit / roll_back lifecycle
//    keyed by record id. The payload says what else moves: VF addresses
//    for a migration, cables and a switch LID for a topology delta;
//  * apply_lft_deltas, the per-switch apply pass every transaction runs;
//  * replay_lft_deltas, which rolls a delta list forward or back on the
//    master tables. Same-SM rollbacks and journal recovery both use it.
//
// A master-SM death mid-batch leaves a record in flight. OpenSM solves the
// analogous problem for LID assignments with guid2lid cache files; here
// recover(), run by the same SM or by a standby SmElection promoted,
// replays each in-flight record to completion or rolls it back, then
// redistributes diffs until the fabric is provably un-mixed.
//
// Records are keyed by durable identities only (NodeId, Lid, PortNum —
// never SwitchIdx, which is an artifact of one routing run), and replay is
// idempotent: applying a delta that is already in place marks nothing dirty
// and sends nothing.
#pragma once

#include <cstdint>
#include <vector>

#include "sm/subnet_manager.hpp"

namespace ibvs::sm {

/// One LFT entry rewrite, recorded before it is sent. `switch_node` is the
/// fabric NodeId of the physical switch (durable across SM failovers).
struct LftDelta {
  NodeId switch_node = kInvalidNode;
  Lid lid;
  PortNum old_port = 0;
  PortNum new_port = 0;

  [[nodiscard]] LftDelta inverse() const noexcept {
    return {switch_node, lid, new_port, old_port};
  }
};

enum class RecordState : std::uint8_t {
  kInFlight,    ///< begun, neither committed nor rolled back
  kCommitted,   ///< reconfiguration completed (possibly by replay)
  kRolledBack,  ///< inverse deltas applied, addresses restored
};

[[nodiscard]] const char* to_string(RecordState state);

/// The part of a journal record every transaction kind shares.
struct RecordCore {
  std::uint64_t id = 0;
  RecordState state = RecordState::kInFlight;
  /// Set once the owning layer has folded this record's outcome into its
  /// own bookkeeping (VSwitchFabric::reconcile_with_journal), when the
  /// record was committed / rolled back through the normal transaction
  /// path, or by recovery for a topology record.
  bool reconciled = false;
  /// Write-ahead mark, set before the first SMP or cable change of the
  /// transaction: the VF address move of a migration, the cabling mutation
  /// of a topology delta.
  bool started = false;
  std::vector<LftDelta> deltas;  ///< the full planned LFT delta set
};

/// Everything a recovering SM needs to finish or undo one migration. The
/// hypervisor/VF indices are opaque orchestrator-side tags: the SM never
/// interprets them, but carrying them lets the vSwitch layer reconcile its
/// slot bookkeeping with whatever outcome recovery chose.
struct MigrationRecord : RecordCore {
  std::uint32_t vm_id = 0;
  Lid vm_lid;
  /// The second LID of the record: the destination VF's prepopulated LID
  /// for a plain migration, or the peer VM's LID when swap_pair is set.
  Lid swapped_lid;
  Guid vguid;
  /// Destination-swap pair: two live VMs trading slots in one record. The
  /// peer's identity rides along so recovery can restore *both* VMs'
  /// addresses (the dst VF holds peer_vguid, not kInvalidGuid, on undo).
  bool swap_pair = false;
  std::uint32_t peer_vm_id = 0;  ///< orchestrator tag
  Guid peer_vguid = kInvalidGuid;
  NodeId src_vf = kInvalidNode;
  NodeId dst_vf = kInvalidNode;
  NodeId src_pf = kInvalidNode;
  NodeId dst_pf = kInvalidNode;
  PortNum src_vf_slot = 0;  ///< VF slot number on the source PF (SMP target)
  PortNum dst_vf_slot = 0;
  std::size_t src_hypervisor = 0;  ///< orchestrator tag
  std::size_t dst_hypervisor = 0;  ///< orchestrator tag
  std::size_t src_vf_index = 0;    ///< orchestrator tag
  std::size_t dst_vf_index = 0;    ///< orchestrator tag
};

/// Which structural change a topology record describes.
enum class TopologyOp : std::uint8_t {
  kAttachSwitch,  ///< new switch cabled in, LID assigned, routes grown
  kDetachSwitch,  ///< switch drained, cables severed, routes repaired
  kAddLink,       ///< one new cable between existing switches
  kRemoveLink,    ///< one cable removed, affected routes repaired
};

[[nodiscard]] const char* to_string(TopologyOp op);

/// Everything a recovering SM needs to finish or undo one topology delta.
/// The cable list carries exact endpoints so a rolled-back detach re-plugs
/// precisely what was severed, and a rolled-back attach unplugs precisely
/// what was added.
struct TopologyRecord : RecordCore {
  TopologyOp op = TopologyOp::kAddLink;
  /// The switch being attached or detached (kInvalidNode for link ops).
  NodeId subject = kInvalidNode;
  /// The subject switch's management LID: assigned on attach, released on
  /// detach, restored verbatim when the delta rolls back.
  Lid subject_lid;
  /// Cables this delta adds (attach/add_link) or removes
  /// (detach/remove_link).
  std::vector<CableSpec> cables;
};

/// What ReconfigJournal::recover() did to the in-flight records.
struct RecoveryReport {
  std::size_t in_flight = 0;       ///< records that needed a decision
  std::size_t rolled_forward = 0;  ///< replayed to completion
  std::size_t rolled_back = 0;     ///< undone via inverse deltas
  std::uint64_t address_smps = 0;  ///< VF LID/GUID SMPs sent restoring
  double address_time_us = 0.0;    ///< batch makespan of those restores
  SubnetManager::ReconvergeReport redistribution;
};

class ReconfigJournal {
 public:
  /// Opens a record (a MigrationRecord or a TopologyRecord); assigns and
  /// returns its id. State starts kInFlight.
  template <typename Record>
  std::uint64_t begin(Record record);

  /// Write-ahead mark: record `id`'s first SMP or cable change is about to
  /// go out.
  void mark_started(std::uint64_t id);

  /// Write-ahead mark: the full planned LFT delta set for record `id`,
  /// recorded before any LFT SMP goes out. Returns the journaled list, which
  /// stays valid until the next begin() or truncate_reconciled().
  const std::vector<LftDelta>& record_deltas(std::uint64_t id,
                                             std::vector<LftDelta> deltas);

  /// Write-ahead mark: the subject's LID for topology record `id`, recorded
  /// before the PortInfo SMP goes out (an attach learns the LID only
  /// mid-flight).
  void record_topology_lid(std::uint64_t id, Lid lid);

  void commit(std::uint64_t id);
  void roll_back(std::uint64_t id);

  /// The migration record with `id`, or nullptr (never issued, truncated,
  /// or a topology record's id). O(log R).
  [[nodiscard]] MigrationRecord* find(std::uint64_t id);
  [[nodiscard]] const MigrationRecord* find(std::uint64_t id) const;
  /// The topology record with `id`, or nullptr. O(log R).
  [[nodiscard]] TopologyRecord* find_topology(std::uint64_t id);
  [[nodiscard]] const TopologyRecord* find_topology(std::uint64_t id) const;

  [[nodiscard]] const std::vector<MigrationRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] const std::vector<TopologyRecord>& topology_records()
      const noexcept {
    return topology_records_;
  }
  /// Records of either kind still in flight.
  [[nodiscard]] std::size_t in_flight() const;

  /// Drops terminal records the owning layer has already reconciled,
  /// bounding journal growth. Returns how many were dropped.
  std::size_t truncate_reconciled();

  /// Crash-consistent replay, run by whichever SM owns the subnet now (a
  /// standby promoted by SmElection after the master died mid-batch, or the
  /// surviving instance after an aborted transaction). Every in-flight
  /// record is either rolled forward (its deltas replayed onto the master
  /// tables, the payload finished) or rolled back (the inverse deltas
  /// replayed, the payload undone):
  ///   * a migration rolls forward when it started (addresses moved), its
  ///     deltas are recorded and the destination PF is reachable. Rolling
  ///     back re-attaches the addresses at the source (reverse swap for
  ///     prepopulated, restore-entry for dynamic), pricing the VF LID/GUID
  ///     SMPs on the batch clock;
  ///   * a topology delta rolls forward when it started (cabling mutated)
  ///     and its deltas are recorded, and for an attach only while the new
  ///     switch is reachable. Rolling back un-plugs or re-plugs the exact
  ///     recorded cables and restores the subject's LID.
  /// Then master/installed diffs are redistributed until convergence. No
  /// route recomputation happens except the column-scoped repair a
  /// rolled-back topology delta needs after a failover, so recovery keeps
  /// the PCt-free property (§VI). Idempotent — a second call finds nothing
  /// in flight and sends nothing.
  RecoveryReport recover(SubnetManager& sm, std::size_t max_rounds = 64,
                         SmpRouting routing = SmpRouting::kLidRouted);

 private:
  /// The in-flight record with `id`, of either kind; throws otherwise.
  RecordCore& in_flight_record(std::uint64_t id);
  void recover_migration(SubnetManager& sm, MigrationRecord& r,
                         RecoveryReport& report, SmpRouting routing);
  void recover_topology(SubnetManager& sm, TopologyRecord& r,
                        RecoveryReport& report);

  // Both vectors are sorted by ascending id, which find() and
  // find_topology() binary-search: ids come from the one next_id_ counter,
  // records are only ever appended, and truncate_reconciled() erases in
  // place without reordering. Ids are unique across the two vectors.
  std::vector<MigrationRecord> records_;
  std::vector<TopologyRecord> topology_records_;
  std::uint64_t next_id_ = 1;
};

/// Re-attaches a migration's addresses at the source, the reverse of §V-C
/// step (a), in one batch: the VM LID and vGUID back to the source VF, the
/// second LID (or none) to the destination VF and, for a swap pair, the
/// peer's vGUID too. Adds the SMPs sent to `smps`; returns the makespan.
double send_source_addresses(fabric::SmpTransport& transport,
                             const MigrationRecord& r, SmpRouting routing,
                             std::uint64_t& smps);

/// How apply_lft_deltas ended.
enum class LftApplyStatus : std::uint8_t {
  kDone,         ///< every planned delta written and pushed
  kUnreachable,  ///< `failed_switch` is unreachable; nothing written to it
  kSmpBudget,    ///< the SMP budget ran out after the last pushed switch
};

struct LftApplyResult {
  LftApplyStatus status = LftApplyStatus::kDone;
  std::uint64_t smps = 0;     ///< LFT block SMPs sent
  std::size_t switches = 0;   ///< switches pushed
  double time_us = 0.0;       ///< batch makespan
  NodeId failed_switch = kInvalidNode;
};

/// The apply pass every transaction kind shares, in one batch. `planned`
/// holds each switch's deltas contiguously. Per switch it checks
/// reachability (when `require_reachable`), captures the live master entry
/// of every delta into `applied` (so a rollback restores the exact prior
/// bytes), writes the new entries, pushes the dirty blocks, then stops once
/// `smps_sent` plus the SMPs of this pass reach `abort_after_smps`. The
/// caller turns a status other than kDone into its own typed error.
LftApplyResult apply_lft_deltas(SubnetManager& sm,
                                const std::vector<LftDelta>& planned,
                                std::vector<LftDelta>& applied,
                                SmpRouting routing, bool require_reachable,
                                std::uint64_t smps_sent,
                                std::uint64_t abort_after_smps);

/// Replays `deltas` onto the master tables: forward writes each new_port in
/// order, backward restores each old_port newest-first (the exact inverse).
/// Switches missing from the routing graph are skipped. Returns the
/// switches written, in first-write order, for the caller to push.
std::vector<routing::SwitchIdx> replay_lft_deltas(
    SubnetManager& sm, const std::vector<LftDelta>& deltas, bool forward);

}  // namespace ibvs::sm
