// RCt benchmark: the paper's reconfiguration time per operation.
//
// eq. (1) prices a reconfiguration as RCt = PCt + LFTDt: host path
// computation plus the time the SMPs spend on the fabric. One operation here
// is one boot, one migration request or one topology transaction, and its
// RCt is the host wall-clock it took plus the microseconds the SM
// transport's simulated clock advanced during it. Four workloads:
//
//   boot_5832          cold boots of the 5832-node 3-level fat-tree, every
//                      host slot a hypervisor with 4 prepopulated VF LIDs;
//                      the only workload where discovery, path computation,
//                      bulk LFT distribution and the checker do the work.
//   vm_migration_648   a seeded mix of migrate_txn, swap_txn and planned
//                      hypervisor evacuations on the 648-node tree (dynamic
//                      LIDs); routing never runs, so journal, transaction
//                      and fan-out overheads dominate.
//   topology_churn_648 journaled spine and cable maintenance on the same
//                      tree under Min-Hop with prepopulated LIDs; writes and
//                      undoes whole LFT columns, a quarter rolled back.
//   spine_maintenance_648
//                      the same with spine maintenance only: detach and
//                      re-attach, several spines out at a time.
//
// Load is a closed loop from one client thread: one master SM runs
// reconfigurations one after another and every caller waits for its reply.
// The operation count is a function of the workload and --seconds only, so
// the simulated metrics are exact for a seed. The library's own tracer is
// switched off; --trace 1 instead records spans from this file around each
// public call and reports per-layer self time. A correctness gate runs in
// every stream (see Gate); a stream that violates it fails the run.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cloud/orchestrator.hpp"
#include "cloud/planner.hpp"
#include "core/migration_txn.hpp"
#include "core/virtualizer.hpp"
#include "core/vswitch.hpp"
#include "inject/checker.hpp"
#include "routing/engine.hpp"
#include "sm/subnet_manager.hpp"
#include "sm/topology_txn.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "topology/fat_tree.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace ibvs;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// SplitMix64: a portable seeded stream (the standard distributions are
/// implementation-defined, so the same seed would not give the same inputs
/// across standard libraries).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }
  bool chance(unsigned num, unsigned den) { return below(den) < num; }

 private:
  std::uint64_t state_;
};

// ---------------------------------------------------------------- spans ---

/// In-memory span log: name, start, end, parent and operation id. Spans are
/// opened and closed from this file only, around public library calls (or
/// at the TxnPolicy::on_step state edges that bracket the migration phases).
class SpanLog {
 public:
  struct Record {
    const char* name = "";
    std::uint64_t op = 0;
    std::uint32_t parent = 0;  ///< 1-based index of the parent, 0 = root
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Starts the next operation: later spans carry its id.
  void next_op() { ++op_; }

  void open(const char* name, std::int64_t start_ns) {
    if (!enabled_) return;
    const std::uint32_t parent = stack_.empty() ? 0 : stack_.back();
    records_.push_back({name, op_, parent, start_ns, 0});
    stack_.push_back(static_cast<std::uint32_t>(records_.size()));
  }
  void open(const char* name) { open(name, now_ns()); }

  void close(std::int64_t end_ns) {
    if (!enabled_ || stack_.empty()) return;
    records_[stack_.back() - 1].end_ns = end_ns;
    stack_.pop_back();
  }

  /// Closes open spans until `depth` remain (used when a state edge the
  /// hooks expected never came, e.g. a rolled-back transaction).
  void close_to(std::size_t depth, std::int64_t end_ns) {
    while (enabled_ && stack_.size() > depth) close(end_ns);
  }
  [[nodiscard]] std::size_t depth() const { return stack_.size(); }

  /// The innermost open span's name, or "" when none is open.
  [[nodiscard]] std::string_view top() const {
    return stack_.empty() ? std::string_view{}
                          : std::string_view{records_[stack_.back() - 1].name};
  }

  /// Per-name self time: duration minus the part its children cover.
  [[nodiscard]] std::map<std::string, double> self_ns() const {
    std::vector<std::int64_t> child(records_.size(), 0);
    for (const auto& r : records_) {
      if (r.parent != 0) child[r.parent - 1] += r.end_ns - r.start_ns;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const auto& r = records_[i];
      out[r.name] += static_cast<double>(r.end_ns - r.start_ns - child[i]);
    }
    return out;
  }

  void write_jsonl(const std::string& path) const {
    std::ofstream os(path);
    if (!os) {
      std::fprintf(stderr, "cannot write span trace to %s\n", path.c_str());
      return;
    }
    os.setf(std::ios::fixed);
    os.precision(3);
    const std::int64_t epoch = records_.empty() ? 0 : records_.front().start_ns;
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const auto& r = records_[i];
      os << "{\"op\":" << r.op << ",\"id\":" << i + 1
         << ",\"parent\":" << r.parent << ",\"name\":\"" << r.name
         << "\",\"start_us\":" << static_cast<double>(r.start_ns - epoch) / 1e3
         << ",\"end_us\":" << static_cast<double>(r.end_ns - epoch) / 1e3
         << "}\n";
    }
  }

 private:
  bool enabled_ = false;
  std::uint64_t op_ = 0;
  std::vector<Record> records_;
  std::vector<std::uint32_t> stack_;
};

/// RAII span around one public call; also closes any phase span a hook
/// left open inside it.
class Scoped {
 public:
  Scoped(SpanLog& log, const char* name) : log_(log), depth_(log.depth()) {
    log_.open(name);
  }
  ~Scoped() { log_.close_to(depth_, now_ns()); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog& log_;
  std::size_t depth_;
};

// ----------------------------------------------------------------- gate ---

/// The correctness gate. A violation that one operation's own checks find
/// also counts that operation as failed; any violation fails the run.
class Gate {
 public:
  void fail(const std::string& what) {
    ++violations_;
    if (notes_.size() < 8) notes_.push_back(what);
  }
  [[nodiscard]] std::size_t violations() const { return violations_; }
  [[nodiscard]] const std::vector<std::string>& notes() const { return notes_; }

  /// Checker clean and no journal record left in flight. Runs between
  /// operations, never inside a timed one.
  void check_fabric(const sm::SubnetManager& sm,
                    const core::VSwitchFabric* vsf, const std::string& when) {
    const auto report = inject::FabricChecker(sm).check(vsf);
    if (!report.clean()) fail(when + ": checker: " + report.violations.front());
    if (vsf != nullptr && vsf->journal().in_flight() != 0) {
      fail(when + ": " + std::to_string(vsf->journal().in_flight()) +
           " journal records in flight");
    }
    ++checks_;
  }
  [[nodiscard]] std::size_t checks() const { return checks_; }

 private:
  std::size_t violations_ = 0;
  std::size_t checks_ = 0;
  std::vector<std::string> notes_;
};

std::uint64_t route_computations() {
  return telemetry::Registry::global()
      .counter_value("ibvs_sm_route_computations_total")
      .value_or(0);
}

/// Proves the gate can fail: corrupts the installed LFT entry of `lid` at
/// its attachment switch through the public master-entry + dirty-block
/// path, expects the checker to object, then restores the entry and
/// expects it clean again.
bool gate_catches_corruption(sm::SubnetManager& sm,
                             const core::VSwitchFabric* vsf, Lid lid) {
  const auto at = sm.lids().attachment(sm.fabric(), lid);
  if (!at) return false;
  const auto& graph = sm.routing_result().graph;
  const routing::SwitchIdx s = graph.dense(at->first);
  if (s == routing::kNoSwitch) return false;
  const PortNum good = sm.routing_result().port_at(s, lid);
  const Node& sw = sm.fabric().node(at->first);
  PortNum bad = 0;
  for (PortNum p = 1; p <= sw.num_ports(); ++p) {
    if (p != good && sw.ports[p].connected()) {
      bad = p;
      break;
    }
  }
  if (bad == 0) return false;
  sm.update_master_entry(s, lid, bad);
  sm.push_dirty_blocks(s, SmpRouting::kDirected);
  const bool caught = !inject::FabricChecker(sm).check(vsf).clean();
  sm.update_master_entry(s, lid, good);
  sm.push_dirty_blocks(s, SmpRouting::kDirected);
  const bool restored = inject::FabricChecker(sm).check(vsf).clean();
  return caught && restored;
}

// --------------------------------------------------------------- stream ---

struct OpSample {
  double host_us = 0.0;
  double sim_us = 0.0;
  std::uint64_t smps = 0;
  int kind = 0;  ///< index into the workload's kind names
  bool ok = true;
};

/// One unbroken operation stream from a fresh start.
struct Stream {
  std::vector<OpSample> ops;
  std::size_t failed = 0;
  double loop_s = 0.0;  ///< wall time of the loop minus gate checks
  std::vector<double> setup_s;
  std::uint64_t journal_records = 0;
  std::uint64_t route_computations = 0;  ///< routing runs during the loop
  bool corruption_caught = false;
  Gate gate;
  /// Per-layer counts summed over the stream, keyed by metric name.
  std::map<std::string, double> counts;

  /// Settles the outcome of the operation recorded last.
  void settle(bool ok) {
    if (ok) return;
    ++failed;
    ops.back().ok = false;
  }
};

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  std::size_t ops = 0;  ///< operations per stream
};

/// Times one operation and accounts its simulated cost.
class OpClock {
 public:
  OpClock(sm::SubnetManager& sm, SpanLog& spans) : sm_(sm), spans_(spans) {
    spans_.next_op();
    sim0_ = sm_.transport().total_time_us();
    smps0_ = sm_.transport().counters().total;
    t0_ = now_ns();
    spans_.open("bench.op", t0_);
  }
  OpSample stop(int kind) {
    const std::int64_t t1 = now_ns();
    spans_.close_to(0, t1);
    return {static_cast<double>(t1 - t0_) / 1e3,
            sm_.transport().total_time_us() - sim0_,
            sm_.transport().counters().total - smps0_, kind, true};
  }

 private:
  sm::SubnetManager& sm_;
  SpanLog& spans_;
  double sim0_ = 0.0;
  std::uint64_t smps0_ = 0;
  std::int64_t t0_ = 0;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ------------------------------------------------------------ boot_5832 ---

constexpr std::size_t kBootVfs = 4;
constexpr std::size_t kFatTreeSwitches5832 = 972;

struct BootFabric {
  Fabric fabric;
  std::vector<core::VirtualHca> hyps;
  std::unique_ptr<sm::SubnetManager> sm;
};

/// The paper's 5832-node tree with a 4-VF hypervisor in every host slot; the
/// SM runs on the PF of hypervisor `sm_hyp`.
std::unique_ptr<BootFabric> build_boot_fabric(std::size_t sm_hyp) {
  auto b = std::make_unique<BootFabric>();
  const auto built =
      topology::build_paper_fat_tree(b->fabric, topology::PaperFatTree::k5832);
  b->hyps = core::attach_hypervisors(b->fabric, built.host_slots, kBootVfs);
  b->sm = std::make_unique<sm::SubnetManager>(
      b->fabric, b->hyps.at(sm_hyp).pf,
      routing::make_engine(routing::EngineKind::kFatTree));
  return b;
}

Stream run_boot(const Config& cfg, SpanLog& spans) {
  Stream st;
  Rng rng(cfg.seed);
  const std::uint64_t routes0 = route_computations();
  const bool traced = spans.enabled();
  std::unique_ptr<BootFabric> last;
  // Boot 0 is a warm-up: the first boot of a process pays page faults and
  // the thread pool's start, which no later boot does. It is gated but not
  // sampled.
  for (std::size_t i = 0; i <= cfg.ops; ++i) {
    const bool warm_up = i == 0;
    spans.set_enabled(traced && !warm_up);
    const std::size_t sm_hyp = rng.below(5832);
    last.reset();  // one fabric alive at a time
    const std::int64_t b0 = now_ns();
    auto b = build_boot_fabric(sm_hyp);
    const double build_s = static_cast<double>(now_ns() - b0) / 1e9;
    auto& sm = *b->sm;

    const std::int64_t l0 = now_ns();
    OpClock clock(sm, spans);
    sm::DiscoveryReport disc;
    sm::DistributionReport dist;
    inject::CheckReport check;
    {
      Scoped s(spans, "sm.discover");
      disc = sm.discover();
    }
    {
      Scoped s(spans, "sm.assign_lids");
      sm.assign_lids();
      for (const auto& hyp : b->hyps) {
        for (const NodeId vf : hyp.vfs) sm.assign_lid(vf, 1);
      }
    }
    {
      Scoped s(spans, "routing.compute_routes");
      sm.compute_routes();
    }
    {
      Scoped s(spans, "sm.distribute_lfts");
      dist = sm.distribute_lfts();
    }
    {
      Scoped s(spans, "inject.check");
      check = inject::FabricChecker(sm).check(nullptr);
    }
    const OpSample sample = clock.stop(0);
    const double loop_s = static_cast<double>(now_ns() - l0) / 1e9;
    const std::string name = "boot " + std::to_string(i);
    // Gate: checker clean; Table I's n*m LFT SMPs on a cold fabric.
    bool ok = true;
    if (!check.clean()) {
      st.gate.fail(name + ": checker: " + check.violations.front());
      ok = false;
    }
    const std::size_t switches = b->fabric.num_switches();
    const std::uint64_t want =
        static_cast<std::uint64_t>(switches) * sm.lids().min_lft_blocks();
    if (switches != kFatTreeSwitches5832 || dist.smps != want) {
      st.gate.fail(name + ": " + std::to_string(dist.smps) +
                   " LFT SMPs, Table I wants " + std::to_string(want));
      ok = false;
    }
    last = std::move(b);
    if (warm_up) continue;

    st.ops.push_back(sample);
    st.settle(ok);
    st.loop_s += loop_s;
    st.setup_s.push_back(build_s);
    st.counts["sm.discover.smps"] += static_cast<double>(disc.smps);
    st.counts["sm.distribute_lfts.smps"] += static_cast<double>(dist.smps);
    st.counts["sm.distribute_lfts.examined"] +=
        static_cast<double>(dist.smps + dist.blocks_skipped);
    st.counts["sm.distribute_lfts.sim_us"] += dist.time_us;
    st.counts["inject.check.paths_traced"] +=
        static_cast<double>(check.paths_traced);
  }
  spans.set_enabled(traced);
  // Routing runs once per boot here, by definition of the operation.
  st.route_computations = route_computations() - routes0;
  if (st.route_computations != cfg.ops + 1) {
    st.gate.fail("expected one routing run per boot");
  }
  if (last) {
    st.gate.check_fabric(*last->sm, nullptr, "end");
    st.corruption_caught = gate_catches_corruption(
        *last->sm, nullptr, last->fabric.node(last->hyps.front().pf).lid());
  }
  return st;
}

// ------------------------------------------------- the 648-node clouds ---

constexpr std::size_t kCloudHyps = 647;
constexpr std::size_t kCloudVfs = 4;
constexpr std::size_t kCloudVms = 1200;

struct Cloud {
  Fabric fabric;
  topology::Built built;
  std::vector<core::VirtualHca> hyps;
  std::unique_ptr<sm::SubnetManager> sm;
  std::unique_ptr<core::VSwitchFabric> vsf;
  std::unique_ptr<cloud::CloudOrchestrator> orch;
  std::vector<core::VmHandle> vms;
};

/// 647 hypervisors x 4 VFs on the 648-node tree, a dedicated SM node in the
/// last host slot, booted, with kCloudVms VMs placed on seeded hosts.
std::unique_ptr<Cloud> build_cloud(routing::EngineKind engine,
                                   core::LidScheme scheme, Rng& rng) {
  auto c = std::make_unique<Cloud>();
  c->built =
      topology::build_paper_fat_tree(c->fabric, topology::PaperFatTree::k648);
  c->hyps = core::attach_hypervisors(c->fabric, c->built.host_slots, kCloudVfs,
                                     kCloudHyps);
  const auto& slot = c->built.host_slots.at(kCloudHyps);
  const NodeId sm_node = c->fabric.add_ca("sm-node");
  c->fabric.connect(sm_node, 1, slot.leaf, slot.port);
  c->sm = std::make_unique<sm::SubnetManager>(c->fabric, sm_node,
                                              routing::make_engine(engine));
  c->vsf = std::make_unique<core::VSwitchFabric>(*c->sm, c->hyps, scheme);
  c->vsf->boot();
  c->orch = std::make_unique<cloud::CloudOrchestrator>(
      *c->vsf, cloud::Placement::kFirstFit);
  for (std::size_t i = 0; i < kCloudVms; ++i) {
    std::size_t h = rng.below(kCloudHyps);
    while (c->vsf->free_vf_count(h) == 0) h = rng.below(kCloudHyps);
    c->vms.push_back(c->vsf->create_vm(h).vm);
  }
  return c;
}

constexpr std::size_t kSetupsPerStream = 2;

/// Builds and boots the starting state of one stream kSetupsPerStream times
/// from the same seed, timing each, and keeps the last: every stream of a
/// run sets up afresh, and setup_s is the median of all these set-ups.
std::unique_ptr<Cloud> set_up_cloud(routing::EngineKind engine,
                                    core::LidScheme scheme, std::uint64_t seed,
                                    Stream& st) {
  std::unique_ptr<Cloud> c;
  for (std::size_t k = 0; k < kSetupsPerStream; ++k) {
    c.reset();  // one cloud alive at a time
    Rng rng(seed);
    const std::int64_t t0 = now_ns();
    c = build_cloud(engine, scheme, rng);
    st.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  return c;
}

std::size_t vm_count(const core::VSwitchFabric& vsf, std::size_t h) {
  return kCloudVfs - vsf.free_vf_count(h);
}

void finish_cloud_stream(Cloud& c, Stream& st, std::uint64_t routes0) {
  st.route_computations = route_computations() - routes0;
  if (st.route_computations != 0) {
    st.gate.fail(std::to_string(st.route_computations) +
                 " routing runs during a PCt-free stream");
  }
  st.gate.check_fabric(*c.sm, c.vsf.get(), "end");
  st.journal_records = c.vsf->journal().records().size() +
                       c.vsf->journal().topology_records().size();
  st.corruption_caught = gate_catches_corruption(
      *c.sm, c.vsf.get(), c.vsf->vm(c.vms.front()).lid);
}

// ----------------------------------------------------- vm_migration_648 ---

/// Seeded request generator: makes only requests that are valid when made.
struct MigrationGen {
  Cloud& c;
  Rng rng;

  /// A host other than `src` with a free VF; a quarter of the time under
  /// the same leaf when one exists (the intra-leaf case of §VI-D).
  std::size_t destination(std::size_t src) {
    const auto& vsf = *c.vsf;
    if (rng.chance(1, 4)) {
      std::vector<std::size_t> same;
      for (std::size_t h = 0; h < kCloudHyps; ++h) {
        if (h != src && c.hyps[h].leaf == c.hyps[src].leaf &&
            vsf.free_vf_count(h) > 0) {
          same.push_back(h);
        }
      }
      if (!same.empty()) return same[rng.below(same.size())];
    }
    for (;;) {
      const std::size_t h = rng.below(kCloudHyps);
      if (h != src && vsf.free_vf_count(h) > 0) return h;
    }
  }
  core::VmHandle any_vm() { return c.vms[rng.below(c.vms.size())]; }
  core::VmHandle vm_off(std::size_t h) {
    for (;;) {
      const auto vm = any_vm();
      if (c.vsf->vm(vm).hypervisor != h) return vm;
    }
  }
  std::size_t occupied_host() {
    for (;;) {
      const std::size_t h = rng.below(kCloudHyps);
      if (vm_count(*c.vsf, h) > 0) return h;
    }
  }
};

/// m' <= 2 SMPs per updated switch and n' <= n (Table I's bounds for a swap
/// or copy reconfiguration).
bool migration_bounds_hold(const core::ReconfigStats& r) {
  return r.lft_smps <= 2 * r.switches_updated &&
         r.switches_updated <= r.switches_total;
}

Stream run_migration(const Config& cfg, SpanLog& spans) {
  Stream st;
  auto cloud = set_up_cloud(routing::EngineKind::kFatTree,
                            core::LidScheme::kDynamic, cfg.seed, st);
  Cloud& c = *cloud;
  MigrationGen gen{c, Rng(cfg.seed ^ 0x6d69677261746521ULL)};

  // Phase spans from the public TxnPolicy::on_step state edges. begin and
  // commit are bracketed only for transactions the bench calls directly;
  // inside PlanExecutor they stay in cloud.execute's self time.
  std::int64_t call_start = 0;
  double apply_sim_us = 0.0;
  double apply_smps = 0.0;
  double apply_updated = 0.0;
  double apply_total = 0.0;
  cloud::TxnPolicy policy;
  if (spans.enabled()) {
    policy.on_step = [&](core::TxnState state, const core::MigrationTxn& txn) {
      const std::int64_t t = now_ns();
      const auto direct = [&] {
        return spans.top() == "cloud.migrate_txn" ||
               spans.top() == "cloud.swap_txn";
      };
      switch (state) {
        case core::TxnState::kDetached:
          if (direct()) {
            spans.open("core.begin", call_start);
            spans.close(t);
          }
          break;
        case core::TxnState::kCopied:
          spans.open("core.move_addresses", t);
          break;
        case core::TxnState::kReconfiguring:
          if (spans.top() == "core.move_addresses") spans.close(t);
          spans.open("core.apply_lfts", t);
          break;
        case core::TxnState::kAttached:
          if (spans.top() == "core.apply_lfts") spans.close(t);
          apply_sim_us += txn.stats.lft_time_us;
          apply_smps += static_cast<double>(txn.stats.lft_smps);
          apply_updated += static_cast<double>(txn.stats.switches_updated);
          apply_total += static_cast<double>(txn.stats.switches_total);
          if (direct()) spans.open("core.commit", t);
          break;
        default:
          break;
      }
    };
  }
  cloud::ExecutorPolicy exec_policy;
  exec_policy.txn = policy;
  const cloud::MigrationPlanner planner(*c.orch);
  cloud::PlanExecutor executor(*c.orch);

  const std::uint64_t routes0 = route_computations();
  const std::size_t check_every = 500;
  double gate_s = 0.0;
  const std::int64_t l0 = now_ns();
  // Request kinds come in blocks of ten shuffled by the seed: six moves,
  // three swaps and one evacuation. Fixed proportions keep the p50 and the
  // tail on the same kinds of request for every seed.
  std::array<int, 10> block{0, 0, 0, 0, 0, 0, 1, 1, 1, 2};
  for (std::size_t i = 0; i < cfg.ops; ++i) {
    if (i % block.size() == 0) {
      for (std::size_t k = block.size() - 1; k > 0; --k) {
        std::swap(block[k], block[gen.rng.below(k + 1)]);
      }
    }
    const int kind = block[i % block.size()];
    bool ok = true;
    if (kind == 0) {
      const auto vm = gen.any_vm();
      const std::size_t dst = gen.destination(c.vsf->vm(vm).hypervisor);
      OpClock clock(*c.sm, spans);
      spans.open("cloud.migrate_txn");
      call_start = now_ns();
      const auto r = c.orch->migrate_txn(vm, dst, {}, policy);
      st.ops.push_back(clock.stop(kind));
      ok = r.outcome == cloud::TxnOutcome::kCommitted && r.attempts == 1 &&
           r.dst_hypervisor == dst;
      if (ok && !migration_bounds_hold(r.reconfig)) {
        st.gate.fail("migration " + std::to_string(i) + " broke m'/n' bounds");
        ok = false;
      }
    } else if (kind == 1) {
      const auto a = gen.any_vm();
      const auto b = gen.vm_off(c.vsf->vm(a).hypervisor);
      OpClock clock(*c.sm, spans);
      spans.open("cloud.swap_txn");
      call_start = now_ns();
      const auto r = c.orch->swap_txn(a, b, {}, policy);
      st.ops.push_back(clock.stop(kind));
      ok = r.outcome == cloud::TxnOutcome::kCommitted && r.attempts == 1;
      if (ok && !migration_bounds_hold(r.reconfig)) {
        st.gate.fail("swap " + std::to_string(i) + " broke m'/n' bounds");
        ok = false;
      }
    } else {
      const std::size_t h = gen.occupied_host();
      const std::size_t resident = vm_count(*c.vsf, h);
      cloud::FleetGoal goal;
      goal.kind = cloud::FleetGoalKind::kEvacuateHypervisor;
      goal.hypervisor = h;
      OpClock clock(*c.sm, spans);
      cloud::MigrationPlan plan;
      cloud::FleetExecution run;
      {
        Scoped s(spans, "cloud.plan");
        plan = planner.plan(goal);
      }
      {
        Scoped s(spans, "cloud.execute");
        run = executor.execute(planner, plan, {}, exec_policy);
      }
      st.ops.push_back(clock.stop(kind));
      std::size_t members = 0;
      bool bounds_hold = true;
      for (const auto& batch : run.batches) {
        for (const auto& r : batch.reports) {
          ++members;
          bounds_hold = bounds_hold && migration_bounds_hold(r.reconfig);
        }
      }
      if (!bounds_hold) {
        st.gate.fail("evacuation " + std::to_string(i) + " broke m'/n' bounds");
      }
      st.counts["cloud.plan.calls"] += 1;
      st.counts["cloud.plan.moves"] += static_cast<double>(plan.total_moves());
      st.counts["cloud.plan.batches"] +=
          static_cast<double>(plan.batches.size());
      st.counts["cloud.execute.members"] += static_cast<double>(members);
      st.counts["cloud.execute.committed"] +=
          static_cast<double>(run.committed);
      ok = bounds_hold && plan.total_moves() == resident &&
           run.committed == resident &&
           run.rolled_back == 0 && run.failed == 0 && run.skipped == 0 &&
           vm_count(*c.vsf, h) == 0;
    }
    st.settle(ok);
    if ((i + 1) % check_every == 0) {
      const std::int64_t g0 = now_ns();
      st.gate.check_fabric(*c.sm, c.vsf.get(), "op " + std::to_string(i));
      gate_s += static_cast<double>(now_ns() - g0) / 1e9;
    }
  }
  st.loop_s = static_cast<double>(now_ns() - l0) / 1e9 - gate_s;
  st.counts["core.apply_lfts.sim_us"] = apply_sim_us;
  st.counts["core.apply_lfts.smps"] = apply_smps;
  st.counts["core.apply_lfts.updated"] = apply_updated;
  st.counts["core.apply_lfts.total"] = apply_total;
  finish_cloud_stream(c, st, routes0);
  return st;
}

// --------------------------------------------------- topology_churn_648 ---

/// Seeded maintenance generator: spine detach / re-attach with the recorded
/// cables, and leaf-spine cable removal / re-add. Every request is valid
/// when made: a detach names an attached spine, a re-attach a spine in
/// maintenance with the cables recorded at its detach, a removal a cabled
/// uplink of an attached spine, a re-add a removed cable whose spine is
/// attached. Spine maintenance may overlap, up to kMaxSpinesOut of the 18
/// spines at once; with at most four cables out besides, every leaf keeps
/// eleven or more uplinks, so the fabric stays connected.
struct ChurnGen {
  struct Maintenance {
    NodeId spine = kInvalidNode;
    std::vector<CableSpec> cables;  ///< recorded at detach
  };

  Cloud& c;
  Rng rng;
  std::vector<Maintenance> out;    ///< spines in maintenance
  std::vector<CableSpec> removed;  ///< leaf end first, spine end `b`

  [[nodiscard]] bool is_detached(NodeId s) const {
    return std::any_of(out.begin(), out.end(),
                       [s](const Maintenance& m) { return m.spine == s; });
  }
  /// Removed cables whose spine end is attached again (re-addable).
  [[nodiscard]] std::vector<std::size_t> readdable() const {
    std::vector<std::size_t> ok;
    for (std::size_t i = 0; i < removed.size(); ++i) {
      if (!is_detached(removed[i].b)) ok.push_back(i);
    }
    return ok;
  }
  NodeId attached_spine() {
    for (;;) {
      const NodeId s = c.built.spines[rng.below(c.built.spines.size())];
      if (!is_detached(s)) return s;
    }
  }
  /// A cabled leaf port whose peer is an attached spine.
  std::pair<NodeId, PortNum> leaf_uplink() {
    for (;;) {
      const NodeId leaf = c.built.leaves[rng.below(c.built.leaves.size())];
      const NodeId spine = attached_spine();
      const Node& n = c.fabric.node(leaf);
      for (PortNum p = 1; p <= n.num_ports(); ++p) {
        if (n.ports[p].peer == spine) return {leaf, p};
      }
    }
  }
};

enum class ChurnOp { kDetachSpine, kAttachSpine, kRemoveLink, kAddLink };

constexpr std::size_t kMaxSpinesOut = 3;

/// Topology transactions of which every `spine_every`-th is spine
/// maintenance and the rest cable maintenance.
Stream run_churn(const Config& cfg, SpanLog& spans, std::size_t spine_every) {
  Stream st;
  auto cloud = set_up_cloud(routing::EngineKind::kMinHop,
                            core::LidScheme::kPrepopulated, cfg.seed, st);
  Cloud& c = *cloud;
  sm::TopologyTxnManager topo(*c.sm, c.vsf->journal());
  ChurnGen gen{c, Rng(cfg.seed ^ 0x636875726e212121ULL), {}, {}};

  const std::uint64_t routes0 = route_computations();
  const std::size_t check_every = 50;
  double gate_s = 0.0;
  std::size_t roll_back_slot = 0;
  const std::int64_t l0 = now_ns();
  for (std::size_t i = 0; i < cfg.ops; ++i) {
    // One seeded transaction in each block of four rolls back. The spine
    // share is fixed, so the p50 and the tail stay on the same kinds of
    // transaction for every seed. When a spine is out, the next spine
    // transaction re-attaches one or detaches another at even odds.
    const std::size_t slot = i % 4;
    if (slot == 0) roll_back_slot = gen.rng.below(4);
    const bool roll_back = slot == roll_back_slot;
    const auto readd = gen.readdable();
    ChurnOp kind = ChurnOp::kRemoveLink;
    if (i % spine_every == 0) {
      kind = !gen.out.empty() && (gen.out.size() == kMaxSpinesOut ||
                                  gen.rng.chance(1, 2))
                 ? ChurnOp::kAttachSpine
                 : ChurnOp::kDetachSpine;
    } else if (!readd.empty() &&
               (gen.removed.size() == 4 || gen.rng.chance(1, 2))) {
      kind = ChurnOp::kAddLink;
    }

    std::size_t readd_pick = 0;
    std::size_t attach_pick = 0;
    NodeId spine = kInvalidNode;
    std::pair<NodeId, PortNum> uplink{kInvalidNode, 0};
    switch (kind) {
      case ChurnOp::kDetachSpine:
        spine = gen.attached_spine();
        break;
      case ChurnOp::kAttachSpine:
        attach_pick = gen.rng.below(gen.out.size());
        break;
      case ChurnOp::kRemoveLink:
        uplink = gen.leaf_uplink();
        break;
      case ChurnOp::kAddLink:
        readd_pick = readd[gen.rng.below(readd.size())];
        break;
    }

    bool ok = true;
    std::string error;
    std::optional<sm::TopologyTxn> txn;
    OpClock clock(*c.sm, spans);
    double reroute_sim_us = 0.0;
    try {
      {
        Scoped s(spans, "sm.topo.begin");
        switch (kind) {
          case ChurnOp::kDetachSpine:
            txn = topo.begin_detach_switch(spine);
            break;
          case ChurnOp::kAttachSpine:
            txn = topo.begin_attach_switch(gen.out[attach_pick].spine,
                                           gen.out[attach_pick].cables);
            break;
          case ChurnOp::kRemoveLink:
            txn = topo.begin_remove_link(uplink.first, uplink.second);
            break;
          case ChurnOp::kAddLink:
            txn = topo.begin_add_link(gen.removed[readd_pick]);
            break;
        }
      }
      {
        Scoped s(spans, "sm.topo.mutate");
        topo.txn_mutate(*txn);
      }
      {
        Scoped s(spans, "sm.topo.reroute");
        const double sim0 = c.sm->transport().total_time_us();
        topo.txn_reroute(*txn);
        reroute_sim_us = c.sm->transport().total_time_us() - sim0;
      }
      if (roll_back) {
        Scoped s(spans, "sm.topo.rollback");
        topo.txn_rollback(*txn);
      } else {
        Scoped s(spans, "sm.topo.commit");
        topo.txn_commit(*txn);
      }
    } catch (const std::exception& e) {
      ok = false;
      error = e.what();
      if (txn && !txn->terminal()) {
        Scoped s(spans, "sm.topo.rollback");
        topo.txn_rollback(*txn);
      }
    }
    st.ops.push_back(clock.stop(static_cast<int>(kind)));
    if (txn) {  // deliberate and failure rollbacks alike
      st.counts["sm.topo.rollback.smps"] +=
          static_cast<double>(txn->rollback_smps);
    }
    if (!ok && st.failed < 8) {
      std::fprintf(stderr, "op %zu failed: %s\n", i, error.c_str());
    }

    if (ok) {
      const auto& s = txn->stats;
      st.counts["sm.topo.reroute.lft_smps"] += static_cast<double>(s.lft_smps);
      st.counts["sm.topo.reroute.lids_rerouted"] +=
          static_cast<double>(s.lids_rerouted);
      st.counts["sm.topo.reroute.updated"] +=
          static_cast<double>(s.switches_updated);
      st.counts["sm.topo.reroute.total"] +=
          static_cast<double>(s.switches_total);
      st.counts["sm.topo.reroute.sim_us"] += reroute_sim_us;
      st.counts["sm.topo.verify.rounds"] +=
          static_cast<double>(s.verify.rounds);
      st.counts["sm.topo.verify.smps"] += static_cast<double>(s.verify.smps);
      if (!roll_back) {
        switch (kind) {
          case ChurnOp::kDetachSpine:
            gen.out.push_back({spine, txn->cables});
            break;
          case ChurnOp::kAttachSpine:
            gen.out.erase(gen.out.begin() +
                          static_cast<std::ptrdiff_t>(attach_pick));
            break;
          case ChurnOp::kRemoveLink: {
            CableSpec cable = txn->cables.front();
            // Record leaf side first so the spine end is `b`.
            if (std::find(c.built.spines.begin(), c.built.spines.end(),
                          cable.a) != c.built.spines.end()) {
              cable = {cable.b, cable.port_b, cable.a, cable.port_a};
            }
            gen.removed.push_back(cable);
            break;
          }
          case ChurnOp::kAddLink:
            gen.removed.erase(gen.removed.begin() +
                              static_cast<std::ptrdiff_t>(readd_pick));
            break;
        }
      }
    }
    st.settle(ok);
    if ((i + 1) % check_every == 0) {
      const std::int64_t g0 = now_ns();
      st.gate.check_fabric(*c.sm, c.vsf.get(), "op " + std::to_string(i));
      gate_s += static_cast<double>(now_ns() - g0) / 1e9;
    }
  }
  st.loop_s = static_cast<double>(now_ns() - l0) / 1e9 - gate_s;
  finish_cloud_stream(c, st, routes0);
  return st;
}


// -------------------------------------------------------------- report ---

/// Nearest-rank percentile of an ascending-sorted sample.
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

/// The highest percentile of the ladder with at least ten samples beyond
/// it; falls back to the median on samples too small for any. The ladder
/// stops at p99: on a shared host one stall of a few hundred milliseconds
/// fills the top 0.1% of a run, so p99.9 measured the neighbours (its
/// spread across seeds was 0.4-0.5 on vm_migration_648).
struct Tail {
  double pct = 50.0;
  std::size_t beyond = 0;
};
Tail tail_of(std::size_t n) {
  for (const double p : {99.0, 95.0, 90.0, 75.0, 50.0}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    if (rank >= 1 && n - rank >= 10) return {p, n - rank};
  }
  return {50.0, n - std::min(n, (n + 1) / 2)};
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ",";
    out += "\"" + metrics[i].name + "\":{\"value\":" + fmt(metrics[i].value) +
           ",\"unit\":\"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

/// Host (with_sim: RCt) microseconds of every operation of `streams`,
/// ascending.
std::vector<double> sorted_us(std::span<const Stream> streams,
                              bool with_sim) {
  std::vector<double> v;
  for (const auto& st : streams) {
    for (const auto& o : st.ops) {
      v.push_back(o.host_us + (with_sim ? o.sim_us : 0.0));
    }
  }
  std::sort(v.begin(), v.end());
  return v;
}

double stream_p50(const Stream& st, bool with_sim) {
  return percentile(sorted_us({&st, 1}, with_sim), 50.0);
}

/// p50 host us of each tenth of the run, in the order the operations ran,
/// every stream's tenth pooled: the base of host_drift.
std::vector<double> decile_p50s(const std::vector<Stream>& streams) {
  std::vector<double> out;
  for (std::size_t d = 0; d < 10; ++d) {
    std::vector<double> v;
    for (const auto& st : streams) {
      const std::size_t n = st.ops.size();
      for (std::size_t i = d * n / 10; i < (d + 1) * n / 10; ++i) {
        v.push_back(st.ops[i].host_us);
      }
    }
    std::sort(v.begin(), v.end());
    out.push_back(percentile(v, 50.0));
  }
  return out;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The end-to-end metrics, each over all operations of the run pooled:
/// percentiles of the pooled sample, throughput as operations over the
/// summed loop time. A shared host's slow phases last longer than a stream,
/// so a median over streams is no steadier than the pooled figures.
std::vector<Metric> end_to_end(const std::vector<Stream>& streams) {
  std::size_t ops = 0;
  double loop_s = 0.0;
  std::vector<double> setups;
  for (const auto& st : streams) {
    ops += st.ops.size();
    loop_s += st.loop_s;
    setups.insert(setups.end(), st.setup_s.begin(), st.setup_s.end());
  }
  const auto host = sorted_us(streams, false);
  const auto rct = sorted_us(streams, true);
  const Tail tail = tail_of(host.size());
  const auto dec = decile_p50s(streams);
  return {
      {"rct_p50_us", percentile(rct, 50.0), "us"},
      {"rct_tail_us", percentile(rct, tail.pct), "us"},
      {"host_p50_us", percentile(host, 50.0), "us"},
      {"host_tail_us", percentile(host, tail.pct), "us"},
      {"ops_per_s", loop_s > 0 ? static_cast<double>(ops) / loop_s : 0.0,
       "1/s"},
      {"host_drift", dec.front() > 0 ? dec.back() / dec.front() : 0.0,
       "ratio"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

/// Exact for a seed, and on boot_5832 the same for every seed (each slot is
/// full, so the SM's seeded position leaves the SMP stream unchanged):
/// printed by every run, and gated through rct_* rather than on their own.
std::vector<Metric> fabric_facts(const std::vector<Stream>& streams) {
  double n = 0.0;
  double sim = 0.0;
  double smps = 0.0;
  double failed = 0.0;
  for (const auto& st : streams) {
    n += static_cast<double>(st.ops.size());
    failed += static_cast<double>(st.failed);
    for (const auto& o : st.ops) {
      sim += o.sim_us;
      smps += static_cast<double>(o.smps);
    }
  }
  n = std::max(n, 1.0);
  return {
      {"sim_us_per_op", sim / n, "us"},
      {"smps_per_op", smps / n, "count"},
      {"fail_ratio", failed / n, "ratio"},
  };
}

/// Per-layer metrics of the traced streams. host_us is self time per
/// operation, so the layers plus bench.unattributed add up to bench.op.
std::vector<Metric> per_layer(const std::vector<Stream>& traced,
                              const std::map<std::string, double>& self_ns,
                              double overhead) {
  double n = 0.0;
  double traced_us = 0.0;
  double records = 0.0;
  double routes = 0.0;
  std::map<std::string, double> counts;
  for (const auto& st : traced) {
    n += static_cast<double>(st.ops.size());
    for (const auto& o : st.ops) traced_us += o.host_us;
    records += static_cast<double>(st.journal_records);
    routes += static_cast<double>(st.route_computations);
    for (const auto& [k, v] : st.counts) counts[k] += v;
  }
  n = std::max(n, 1.0);
  const auto self_us = [&](const char* span) {
    const auto it = self_ns.find(span);
    return it == self_ns.end() ? 0.0 : it->second / 1e3 / n;
  };
  const auto count = [&](const char* key) {
    const auto it = counts.find(key);
    return it == counts.end() ? 0.0 : it->second;
  };
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  std::vector<Metric> out{
      {"sm.discover.host_us", self_us("sm.discover"), "us/op"},
      {"sm.discover.smps", count("sm.discover.smps") / n, "count/op"},
      {"sm.assign_lids.host_us", self_us("sm.assign_lids"), "us/op"},
      {"routing.compute_routes.host_us", self_us("routing.compute_routes"),
       "us/op"},
      {"sm.distribute_lfts.host_us", self_us("sm.distribute_lfts"), "us/op"},
      {"sm.distribute_lfts.smps", count("sm.distribute_lfts.smps") / n,
       "count/op"},
      {"sm.distribute_lfts.sim_us", count("sm.distribute_lfts.sim_us") / n,
       "us/op"},
      {"sm.distribute_lfts.sent_ratio",
       ratio(count("sm.distribute_lfts.smps"),
             count("sm.distribute_lfts.examined")),
       "ratio"},
      {"inject.check.host_us", self_us("inject.check"), "us/op"},
      {"inject.check.paths_traced", count("inject.check.paths_traced") / n,
       "count/op"},
      {"cloud.migrate_txn.host_us", self_us("cloud.migrate_txn"), "us/op"},
      {"cloud.swap_txn.host_us", self_us("cloud.swap_txn"), "us/op"},
      {"core.begin.host_us", self_us("core.begin"), "us/op"},
      {"core.move_addresses.host_us", self_us("core.move_addresses"),
       "us/op"},
      {"core.apply_lfts.host_us", self_us("core.apply_lfts"), "us/op"},
      {"core.apply_lfts.sim_us", count("core.apply_lfts.sim_us") / n, "us/op"},
      {"core.apply_lfts.smps", count("core.apply_lfts.smps") / n, "count/op"},
      {"core.apply_lfts.updated_ratio",
       ratio(count("core.apply_lfts.updated"), count("core.apply_lfts.total")),
       "ratio"},
      {"core.apply_lfts.host_ns_per_smp",
       ratio(self_us("core.apply_lfts") * n * 1e3,
             count("core.apply_lfts.smps")),
       "ns"},
      {"core.commit.host_us", self_us("core.commit"), "us/op"},
      {"cloud.plan.host_us", self_us("cloud.plan"), "us/op"},
      {"cloud.plan.moves",
       ratio(count("cloud.plan.moves"), count("cloud.plan.calls")),
       "count/plan"},
      {"cloud.plan.moves_per_batch",
       ratio(count("cloud.plan.moves"), count("cloud.plan.batches")),
       "count/batch"},
      {"cloud.execute.host_us", self_us("cloud.execute"), "us/op"},
      {"cloud.execute.committed_ratio",
       ratio(count("cloud.execute.committed"),
             count("cloud.execute.members")),
       "ratio"},
      {"sm.topo.begin.host_us", self_us("sm.topo.begin"), "us/op"},
      {"sm.topo.mutate.host_us", self_us("sm.topo.mutate"), "us/op"},
      {"sm.topo.reroute.host_us", self_us("sm.topo.reroute"), "us/op"},
      {"sm.topo.commit.host_us", self_us("sm.topo.commit"), "us/op"},
      {"sm.topo.rollback.host_us", self_us("sm.topo.rollback"), "us/op"},
      {"sm.topo.reroute.lft_smps", count("sm.topo.reroute.lft_smps") / n,
       "count/op"},
      {"sm.topo.reroute.lids_rerouted",
       count("sm.topo.reroute.lids_rerouted") / n, "count/op"},
      {"sm.topo.reroute.updated_ratio",
       ratio(count("sm.topo.reroute.updated"), count("sm.topo.reroute.total")),
       "ratio"},
      {"sm.topo.reroute.sim_us", count("sm.topo.reroute.sim_us") / n, "us/op"},
      {"sm.topo.verify.rounds", count("sm.topo.verify.rounds") / n,
       "count/op"},
      {"sm.topo.verify.smps", count("sm.topo.verify.smps") / n, "count/op"},
      {"sm.topo.rollback.smps", count("sm.topo.rollback.smps") / n,
       "count/op"},
      {"sm.journal.records",
       records / static_cast<double>(std::max<std::size_t>(traced.size(), 1)),
       "count"},
      {"sm.route_computations", routes, "count"},
      {"bench.unattributed.host_us", self_us("bench.op"), "us/op"},
      {"bench.op.host_us", traced_us / n, "us/op"},
      {"bench.trace_overhead", overhead, "ratio"},
  };
  const auto facts = fabric_facts(traced);
  out.insert(out.end(), facts.begin(), facts.begin() + 2);
  return out;
}

/// Names of a workload's operation kinds, indexed by OpSample::kind.
std::vector<std::string_view> kind_names(const std::string& workload) {
  if (workload == "boot_5832") return {"boot"};
  if (workload == "vm_migration_648") {
    return {"migrate_txn", "swap_txn", "evacuate"};
  }
  return {"detach_spine", "attach_spine", "remove_link", "add_link"};
}

/// Nanoseconds per dependent load along one random cycle through 8 MiB:
/// the host's memory latency at the start and end of a run, printed so a
/// run made while neighbours load the shared caches can be told apart from
/// a slower program.
double memory_latency_ns() {
  constexpr std::size_t kSlots = (8u << 20) / sizeof(std::uint32_t);
  constexpr int kLoads = 1 << 20;
  std::vector<std::uint32_t> next(kSlots);
  for (std::size_t i = 0; i < kSlots; ++i) {
    next[i] = static_cast<std::uint32_t>(i);
  }
  Rng rng(1);
  for (std::size_t i = kSlots - 1; i > 0; --i) {  // Sattolo: one cycle
    std::swap(next[i], next[rng.below(i)]);
  }
  std::uint32_t j = 0;
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kLoads; ++i) j = next[j];
  const std::int64_t t1 = now_ns();
  if (j >= kSlots) std::abort();  // keeps the chase from being optimised out
  return static_cast<double>(t1 - t0) / kLoads;
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Streams per run and operations per stream for a run of `seconds` on a
/// 4-core box. Both depend on the workload and --seconds only, so a seed
/// fixes every input. Every boot is its own fresh start; the clouds run
/// seven unbroken streams, each from a fresh start with its own seed, so a
/// run covers seven starting states.
struct Plan {
  std::size_t streams = 0;
  std::size_t ops = 0;
};
Plan plan_for(const std::string& workload, double seconds) {
  const auto scaled = [&](double per_s, std::size_t min_ops) {
    return std::max(min_ops, static_cast<std::size_t>(per_s * seconds));
  };
  if (workload == "boot_5832") return {1, scaled(2.0, 10)};
  if (workload == "vm_migration_648") return {7, scaled(600.0, 100)};
  if (workload == "topology_churn_648") return {7, scaled(120.0, 50)};
  if (workload == "spine_maintenance_648") return {7, scaled(45.0, 20)};
  return {};
}

/// Seed of stream `r` of a run; runs of different seeds share no stream.
std::uint64_t stream_seed(std::uint64_t seed, std::size_t r) {
  return r == 0 ? seed : Rng(Rng(seed).next() + r).next();
}

Stream run_stream(const Config& cfg, SpanLog& spans) {
  if (cfg.workload == "boot_5832") return run_boot(cfg, spans);
  if (cfg.workload == "vm_migration_648") return run_migration(cfg, spans);
  // Cable maintenance with one spine transaction in 20 (churn), or spine
  // maintenance alone.
  if (cfg.workload == "topology_churn_648") return run_churn(cfg, spans, 20);
  return run_churn(cfg, spans, 1);
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: rct_bench --workload boot_5832|vm_migration_648|"
               "topology_churn_648|spine_maintenance_648\n"
               "                 --seed N --seconds S --trace 0|1\n"
               "                 [--ops N] [--threads N] [--trace-out FILE]\n");
  std::exit(2);
}

std::uint64_t parse_uint(const char* s) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') usage();
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  bool trace = false;
  std::size_t ops_override = 0;
  std::optional<std::size_t> threads;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (i + 1 >= argc) usage();
    const char* v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      seed = parse_uint(v);
    } else if (a == "--seconds") {
      seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      trace = parse_uint(v) != 0;
    } else if (a == "--ops") {
      ops_override = parse_uint(v);
    } else if (a == "--threads") {
      threads = parse_uint(v);
    } else if (a == "--trace-out") {
      trace_out = v;
    } else {
      usage();
    }
  }
  Plan plan = plan_for(workload, seconds);
  if (ops_override != 0) plan.ops = ops_override;
  if (plan.streams == 0 || !(seconds > 0)) usage();

  // The library's spans would be timed with the operations otherwise.
  telemetry::Tracer::global().set_enabled(false);
  const std::size_t cores = nproc();
  if (threads) {
    ThreadPool::set_global_threads(*threads);
  } else if (ThreadPool::global_thread_count() > cores) {
    ThreadPool::set_global_threads(cores);
  }
  const std::size_t pool = ThreadPool::global_thread_count();
  const double latency_start_ns = memory_latency_ns();

  // Untraced: `streams` fresh streams. Traced: per stream seed, one
  // untraced and one traced stream of half the length; the median ratio of
  // their host p50s is the tracing overhead.
  std::vector<Stream> plain;
  std::vector<Stream> traced;
  SpanLog off;
  SpanLog spans;
  spans.set_enabled(true);
  std::vector<double> overheads;
  for (std::size_t r = 0; r < plan.streams; ++r) {
    Config cfg{workload, stream_seed(seed, r), plan.ops};
    if (!trace) {
      plain.push_back(run_stream(cfg, off));
      continue;
    }
    cfg.ops = std::max<std::size_t>(1, plan.ops / 2);
    plain.push_back(run_stream(cfg, off));
    traced.push_back(run_stream(cfg, spans));
    overheads.push_back(stream_p50(traced.back(), false) /
                        stream_p50(plain.back(), false));
  }
  const double latency_end_ns = memory_latency_ns();
  const std::vector<Stream>& main_streams = trace ? traced : plain;
  const std::size_t n = main_streams.front().ops.size();
  const Tail tail = tail_of(n * main_streams.size());
  std::printf("# workload=%s seed=%llu streams=%zu ops/stream=%zu trace=%d "
              "nproc=%zu pool=%zu build=%s load=closed-loop,1-client\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              plan.streams, n, trace ? 1 : 0, cores, pool,
              IBVS_BENCH_BUILD_TYPE);
  std::printf("# tail = p%g of all %zu operations (%zu samples beyond it)\n",
              tail.pct, n * main_streams.size(), tail.beyond);
  std::printf("# host memory latency (8 MiB random chase): %.1f ns at start, "
              "%.1f ns at end\n",
              latency_start_ns, latency_end_ns);

  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t violations = 0;
  bool corruption_caught = true;
  for (const auto* group : {&plain, &traced}) {
    for (const Stream& s : *group) {
      attempted += s.ops.size();
      failed += s.failed;
      violations += s.gate.violations();
      corruption_caught = corruption_caught && s.corruption_caught;
      for (const auto& note : s.gate.notes()) {
        std::printf("# gate violation: %s\n", note.c_str());
      }
    }
  }
  std::printf("# host p50 us per tenth of the run:");
  for (const double d : decile_p50s(main_streams)) std::printf(" %.1f", d);
  std::printf("\n");
  const auto kinds = kind_names(workload);
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    std::vector<double> v;
    std::size_t kind_failed = 0;
    for (const Stream& s : main_streams) {
      for (const auto& o : s.ops) {
        if (o.kind != static_cast<int>(k)) continue;
        v.push_back(o.host_us);
        if (!o.ok) ++kind_failed;
      }
    }
    std::sort(v.begin(), v.end());
    std::printf("# kind %-12s ops=%zu failed=%zu host p50 us=%.1f "
                "p99 us=%.1f\n",
                std::string(kinds[k]).c_str(), v.size(), kind_failed,
                percentile(v, 50.0), percentile(v, 99.0));
  }
  for (const Stream& s : main_streams) {
    std::printf("# stream: host p50 us=%.1f journal records=%llu "
                "routing runs=%llu gate checks=%zu\n",
                stream_p50(s, false),
                static_cast<unsigned long long>(s.journal_records),
                static_cast<unsigned long long>(s.route_computations),
                s.gate.checks());
  }
  std::printf("# gate violations=%zu corrupted-LFT caught=%s\n", violations,
              corruption_caught ? "yes" : "NO");
  const auto facts = fabric_facts(main_streams);
  for (const auto& m : facts) {
    std::printf("# %-34s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }

  const std::vector<Metric> metrics =
      trace ? per_layer(traced, spans.self_ns(), median(overheads))
            : end_to_end(plain);
  for (const auto& m : metrics) {
    std::printf("%-36s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (trace && !trace_out.empty()) spans.write_jsonl(trace_out);

  const bool correct = violations == 0 && corruption_caught;
  std::printf(
      "{\"workload\":\"%s\",\"seed\":%llu,\"nproc\":%zu,\"pool\":%zu,"
      "\"build\":\"%s\",\"streams\":%zu,\"ops\":%zu,\"tail_pct\":%s,"
      "\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,\"violations\":%zu,"
      "\"gate_selftest\":%s,\"facts\":%s,\"metrics\":%s}\n",
      workload.c_str(), static_cast<unsigned long long>(seed), cores, pool,
      IBVS_BENCH_BUILD_TYPE, plan.streams, n, fmt(tail.pct).c_str(),
      correct ? "true" : "false", attempted, failed, violations,
      corruption_caught ? "true" : "false", json_metrics(facts).c_str(),
      json_metrics(metrics).c_str());
  // 3: the result is printed but the gate failed.
  return correct ? 0 : 3;
}
