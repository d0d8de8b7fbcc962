// Fig. 7 — "Path computation time for different routing algorithms on a
// Fat-Tree topology with a varied number of Nodes".
//
// Regenerates the figure's data series: for each of the paper's fat-trees,
// the time each routing engine (fat-tree, minhop, dfsssp, lash) needs to
// compute the full set of LFTs — and the "LID Copying/Swapping" series,
// which is identically zero because the proposed reconfiguration never
// recomputes paths (it is measured here as the actual path-computation time
// during a live migration: none).
//
// Default: the 324- and 648-node trees (seconds). IBVS_FIG7_LARGE=1 adds
// 5832 nodes; IBVS_FIG7_FULL=1 adds 11664 nodes, where DFSSSP and LASH run
// for a long time — the very effect the figure demonstrates.
//
// `--json-out <file>` writes one row per (topology, engine) that ran, under
// schema "fig7_pct": topology, nodes, engine, threads (the pool size the
// engines ran on), targets (LIDs routed) and pct_s. CI's bench-smoke job
// gates exactly that the "lid-swap-copy" row is 0 at every size.
#include <benchmark/benchmark.h>

#include <sstream>
#include <thread>

#include "bench/common.hpp"
#include "ib/lid_map.hpp"
#include "routing/engine.hpp"
#include "util/timer.hpp"

namespace {

using namespace ibvs;

struct Fig7Row {
  std::string topo;
  std::size_t nodes;
  double seconds[5];  // fat-tree, minhop, dfsssp, lash, lid-swap
  std::size_t targets[5];
  bool ran[5];
};

/// Series names as written to --json-out, in Fig7Row order.
std::string series_name(std::size_t i) {
  if (i < 4) return routing::to_string(routing::fig7_engines()[i]);
  return "lid-swap-copy";
}

/// Paper's reported seconds (8-core Xeon, OpenSM) for reference printing.
constexpr double kPaperSeconds[4][4] = {
    // fat-tree, minhop, dfsssp, lash
    {0.012, 0.017, 0.142, 0.012},  // 324
    {0.04, 0.06, 0.63, 0.045},     // 648
    {16.5, 18.8, 123, 3859},       // 5832
    {67, 71, 625, 39145},          // 11664
};

int paper_index(topology::PaperFatTree which) {
  switch (which) {
    case topology::PaperFatTree::k324:
      return 0;
    case topology::PaperFatTree::k648:
      return 1;
    case topology::PaperFatTree::k5832:
      return 2;
    case topology::PaperFatTree::k11664:
      return 3;
  }
  return 0;
}

Fig7Row run_tree(topology::PaperFatTree which) {
  Fig7Row row{};
  row.topo = topology::to_string(which);
  row.nodes = static_cast<std::size_t>(which);

  Fabric fabric;
  const auto built = topology::build_paper_fat_tree(fabric, which);
  const auto hosts = topology::attach_hosts(fabric, built.host_slots);
  LidMap lids;
  for (NodeId sw : fabric.switch_ids()) lids.assign_next(fabric, sw, 0);
  for (NodeId host : hosts) lids.assign_next(fabric, host, 1);

  const auto engines = routing::fig7_engines();
  for (std::size_t i = 0; i < engines.size(); ++i) {
    // LASH at >= 5832 nodes runs for roughly an hour (the paper's point);
    // keep it opt-in even in large mode.
    if (engines[i] == routing::EngineKind::kLash &&
        row.nodes >= 5832 && !bench::env_flag("IBVS_FIG7_LASH")) {
      row.ran[i] = false;
      continue;
    }
    auto engine = routing::make_engine(engines[i]);
    const auto result = engine->compute(fabric, lids);
    row.seconds[i] = result.compute_seconds;
    row.targets[i] = result.graph.targets.size();
    row.ran[i] = true;
    // Progress on stderr: the large trees take minutes per engine.
    std::fprintf(stderr, "# %-32s %-10s %10.3f s\n", row.topo.c_str(),
                 routing::to_string(engines[i]).c_str(), row.seconds[i]);
    std::fflush(stderr);
  }

  // The "LID Copying/Swapping" series: path-computation time spent by one
  // live migration under the proposed method. Measured, not asserted: the
  // migration path never calls a routing engine, so this is exactly 0.
  {
    Fabric vfabric;
    auto vbuilt = topology::build_paper_fat_tree(
        vfabric, topology::PaperFatTree::k324);
    auto hyps = core::attach_hypervisors(vfabric, vbuilt.host_slots, 2, 8);
    const NodeId sm_node = vfabric.add_ca("sm");
    vfabric.connect(sm_node, 1, vbuilt.host_slots[8].leaf,
                    vbuilt.host_slots[8].port);
    sm::SubnetManager smgr(vfabric, sm_node,
                           routing::make_engine(routing::EngineKind::kFatTree));
    core::VSwitchFabric vsf(smgr, hyps, core::LidScheme::kPrepopulated);
    vsf.boot();
    const auto vm = vsf.create_vm(0);
    const double pc_before = smgr.routing_result().compute_seconds;
    vsf.migrate_vm(vm.vm, 7);
    row.seconds[4] = smgr.routing_result().compute_seconds - pc_before;
    row.targets[4] = smgr.routing_result().graph.targets.size();
    row.ran[4] = true;
  }
  return row;
}

void write_json(const std::string& path, const std::vector<Fig7Row>& rows) {
  std::ostringstream os;
  os << "{\n  \"bench\": \"fig7_pct\",\n  \"schema_version\": 1,\n"
     << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
     << ",\n  \"rows\": [\n";
  const std::size_t threads = ThreadPool::global_thread_count();
  bool first = true;
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < 5; ++i) {
      if (!row.ran[i]) continue;
      os << (first ? "" : ",\n") << "    {\"topology\": \"" << row.topo
         << "\", \"nodes\": " << row.nodes << ", \"engine\": \""
         << series_name(i) << "\", \"threads\": " << threads
         << ", \"targets\": " << row.targets[i]
         << ", \"pct_s\": " << row.seconds[i] << "}";
      first = false;
    }
  }
  os << "\n  ]\n}\n";
  bench::dump_json(path, os.str(), "Fig. 7 rows");
}

void print_fig7(const std::optional<std::string>& json_out) {
  std::vector<Fig7Row> rows;
  std::printf(
      "\nFig. 7 — Path computation time (seconds) per routing engine\n");
  std::printf("%-34s %12s %12s %12s %12s %14s\n", "topology", "fat-tree",
              "minhop", "dfsssp", "lash", "LID swap/copy");
  ibvs::bench::rule(100);
  for (const auto which : bench::selected_paper_trees()) {
    const auto& row = rows.emplace_back(run_tree(which));
    std::printf("%-34s", row.topo.c_str());
    for (int i = 0; i < 5; ++i) {
      if (row.ran[i]) {
        std::printf(" %12.4f", row.seconds[i]);
      } else {
        std::printf(" %12s", "(skipped)");
      }
    }
    std::printf("\n");
    const int p = paper_index(which);
    std::printf("%-34s %12.3f %12.3f %12.3f %12.3f %14.1f   (paper)\n", "",
                kPaperSeconds[p][0], kPaperSeconds[p][1], kPaperSeconds[p][2],
                kPaperSeconds[p][3], 0.0);
  }
  ibvs::bench::rule(100);
  std::printf(
      "Shape to reproduce: PCt grows polynomially with subnet size; DFSSSP "
      "and LASH dominate at scale;\nthe proposed LID swap/copy "
      "reconfiguration spends zero time on path computation at any size.\n\n");
  if (json_out) write_json(*json_out, rows);
}

/// Micro-benchmark: routing engines on the 324-node tree.
void BM_PathComputation(benchmark::State& state) {
  const auto kind = static_cast<routing::EngineKind>(state.range(0));
  Fabric fabric;
  const auto built =
      topology::build_paper_fat_tree(fabric, topology::PaperFatTree::k324);
  const auto hosts = topology::attach_hosts(fabric, built.host_slots);
  LidMap lids;
  for (NodeId sw : fabric.switch_ids()) lids.assign_next(fabric, sw, 0);
  for (NodeId host : hosts) lids.assign_next(fabric, host, 1);
  auto engine = routing::make_engine(kind);
  for (auto _ : state) {
    auto result = engine->compute(fabric, lids);
    benchmark::DoNotOptimize(result.lfts.data());
  }
  state.SetLabel(routing::to_string(kind));
}
BENCHMARK(BM_PathComputation)
    ->Arg(static_cast<int>(routing::EngineKind::kFatTree))
    ->Arg(static_cast<int>(routing::EngineKind::kMinHop))
    ->Arg(static_cast<int>(routing::EngineKind::kDfsssp))
    ->Arg(static_cast<int>(routing::EngineKind::kLash))
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const auto metrics_out = ibvs::bench::consume_metrics_out(argc, argv);
  const auto trace_out = ibvs::bench::consume_trace_out(argc, argv);
  const auto json_out =
      ibvs::bench::consume_flag_value(argc, argv, "--json-out");
  ibvs::bench::consume_threads(argc, argv);
  print_fig7(json_out);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  ibvs::bench::dump_metrics(metrics_out);
  ibvs::bench::dump_trace(trace_out);
  return 0;
}
