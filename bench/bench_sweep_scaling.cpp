// Sweep fast-path scaling: how the LFT diff, the checker's reachability
// scan, and the full distribution pass scale with the global thread pool
// size. Each phase fans out only above ThreadPool::kParallelMinWork
// inner-loop steps, so on the 324- and 648-node trees all three run
// serially at every pool size and only the 5832-node tree fans out.
//
// This is the repo's perf-regression baseline. For each paper fat-tree and
// each thread count it measures, in wall-clock microseconds:
//
//   distribute_full_us  cold distribution: every installed LFT cleared,
//                       one diff+send pass reprograms the whole fabric
//                       (send accounting is serial, so this is the
//                       Amdahl-limited end),
//   rediff_us           no-op re-distribution: installed == master, the
//                       pass is a pure block-diff scan (one word compare
//                       per eight entries, fanned out per switch range),
//   checker_us          FabricChecker reachability sweep, 16 sampled
//                       sources tracing every active LID.
//
// `--json-out <file>` writes the rows as JSON (schema below); CI's
// perf-smoke job (with IBVS_FIG7_LARGE=1) diffs that against the
// checked-in BENCH_sweep.json and fails on gross regressions.
// `--threads <n>` restricts the sweep to one thread count; default sweeps
// 1/2/4/8. IBVS_FIG7_LARGE=1 adds the 5832-node tree, the one whose phases
// fan out.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <thread>

#include "bench/common.hpp"
#include "inject/checker.hpp"
#include "routing/engine.hpp"
#include "util/timer.hpp"

namespace {

using namespace ibvs;

constexpr int kSchemaVersion = 1;

struct Row {
  std::string topo;
  std::size_t switches = 0;
  std::size_t threads = 0;
  double distribute_full_us = 0.0;
  double rediff_us = 0.0;
  double checker_us = 0.0;
};

/// One booted paper tree with an SM attached to the last host slot.
struct Subnet {
  Fabric fabric;
  std::unique_ptr<sm::SubnetManager> smgr;

  explicit Subnet(topology::PaperFatTree which) {
    auto built = topology::build_paper_fat_tree(fabric, which);
    auto slots = built.host_slots;
    const auto sm_slot = slots.back();
    slots.pop_back();
    topology::attach_hosts(fabric, slots);
    const NodeId sm_node = fabric.add_ca("sm-node");
    fabric.connect(sm_node, 1, sm_slot.leaf, sm_slot.port);
    smgr = std::make_unique<sm::SubnetManager>(
        fabric, sm_node, routing::make_engine(routing::EngineKind::kFatTree));
    smgr->full_sweep();
  }
};

Row measure(Subnet& net, const std::string& topo, std::size_t threads) {
  Row row;
  row.topo = topo;
  row.switches = net.fabric.switch_ids().size();
  row.threads = threads;
  ThreadPool::set_global_threads(threads);

  // Cold distribution: wipe every installed table, one pass reprograms all.
  // Min of two runs to shave scheduler noise off the checked-in baseline.
  constexpr int kColdRuns = 2;
  for (int i = 0; i < kColdRuns; ++i) {
    for (const NodeId sw : net.fabric.switch_ids()) {
      net.fabric.node(sw).lft.clear();
    }
    Stopwatch watch;
    const auto report = net.smgr->distribute_lfts();
    const double us = watch.elapsed_seconds() * 1e6;
    if (i == 0 || us < row.distribute_full_us) row.distribute_full_us = us;
    benchmark::DoNotOptimize(report.smps);
  }

  // Warm re-diff: nothing differs, the pass is the block scan.
  // Min of several runs — the steady-state sweep cost, free of first-touch
  // and scheduler noise.
  constexpr int kRediffRuns = 5;
  row.rediff_us = 0.0;
  for (int i = 0; i < kRediffRuns; ++i) {
    Stopwatch watch;
    const auto report = net.smgr->distribute_lfts();
    const double us = watch.elapsed_seconds() * 1e6;
    if (i == 0 || us < row.rediff_us) row.rediff_us = us;
    benchmark::DoNotOptimize(report.blocks_skipped);
  }

  // Checker reachability: 16 sampled sources, every active LID.
  const inject::FabricChecker checker(
      *net.smgr, inject::CheckerConfig{.max_violations = 16,
                                       .max_sources = 16});
  constexpr int kCheckerRuns = 3;
  row.checker_us = 0.0;
  for (int i = 0; i < kCheckerRuns; ++i) {
    Stopwatch watch;
    const auto report = checker.check();
    const double us = watch.elapsed_seconds() * 1e6;
    if (i == 0 || us < row.checker_us) row.checker_us = us;
    if (!report.clean()) {
      std::fprintf(stderr, "# checker found violations on %s!\n",
                   topo.c_str());
    }
  }
  return row;
}

void write_json(const std::string& path, const std::vector<Row>& rows) {
  std::FILE* file =
      path == "-" ? stdout : std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(file,
               "{\n  \"bench\": \"sweep_scaling\",\n"
               "  \"schema_version\": %d,\n"
               "  \"hardware_threads\": %u,\n  \"rows\": [\n",
               kSchemaVersion, std::thread::hardware_concurrency());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(file,
                 "    {\"topology\": \"%s\", \"switches\": %zu, "
                 "\"threads\": %zu, \"distribute_full_us\": %.1f, "
                 "\"rediff_us\": %.1f, \"checker_us\": %.1f}%s\n",
                 r.topo.c_str(), r.switches, r.threads,
                 r.distribute_full_us, r.rediff_us, r.checker_us,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(file, "  ]\n}\n");
  if (file != stdout) {
    std::fclose(file);
    std::fprintf(stderr, "# baseline written to %s\n", path.c_str());
  }
}

std::vector<Row> run_sweep(const std::vector<std::size_t>& thread_counts) {
  std::vector<Row> rows;
  std::printf("\nSweep fast-path scaling (wall-clock us; rediff = pure "
              "block-diff phase)\n");
  std::printf("%-34s %8s %8s %16s %12s %12s %10s\n", "topology", "switches",
              "threads", "distribute_full", "rediff", "checker",
              "rediff-x");
  bench::rule(106);
  for (const auto which : bench::selected_paper_trees()) {
    const std::string topo = topology::to_string(which);
    Subnet net(which);
    double rediff_1t = 0.0;
    for (const std::size_t t : thread_counts) {
      Row row = measure(net, topo, t);
      if (t == thread_counts.front()) rediff_1t = row.rediff_us;
      const double speedup =
          row.rediff_us > 0.0 ? rediff_1t / row.rediff_us : 0.0;
      std::printf("%-34s %8zu %8zu %16.1f %12.1f %12.1f %9.2fx\n",
                  topo.c_str(), row.switches, row.threads,
                  row.distribute_full_us, row.rediff_us, row.checker_us,
                  speedup);
      std::fflush(stdout);
      rows.push_back(std::move(row));
    }
  }
  bench::rule(106);
  std::printf("Shape to reproduce: the diff and checker phases fan out "
              "only above %zu inner-loop steps\n(switches x LFT words; "
              "sources x nodes x target words), so the 324- and 648-node "
              "rows\nrun serially and stay flat across threads, and only the "
              "5832-node rediff and checker\nscale. distribute_full flattens "
              "early — its send accounting is serial by design\n(the SMP "
              "stream must stay byte-identical to a single-threaded "
              "sweep).\n\n",
              ThreadPool::kParallelMinWork);
  return rows;
}

/// Micro-benchmark: the per-switch block-diff scan the sweep fast path is
/// built from (one identical-table scan = the steady-state per-switch cost).
void BM_LftDiffScan(benchmark::State& state) {
  const Lid top{static_cast<std::uint16_t>(state.range(0))};
  Lft master(top);
  for (std::uint16_t lid = 1; lid < top.value(); ++lid) {
    master.set(Lid{lid}, static_cast<PortNum>(1 + lid % 36));
  }
  const Lft installed = master;
  for (auto _ : state) {
    std::size_t diffs = 0;
    master.for_each_diff_block(installed, [&](std::size_t) { ++diffs; });
    benchmark::DoNotOptimize(diffs);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(master.block_count()));
}
BENCHMARK(BM_LftDiffScan)->Arg(1024)->Arg(8192)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  const auto metrics_out = ibvs::bench::consume_metrics_out(argc, argv);
  const auto trace_out = ibvs::bench::consume_trace_out(argc, argv);
  const auto json_out =
      ibvs::bench::consume_flag_value(argc, argv, "--json-out");
  const auto threads_flag =
      ibvs::bench::consume_flag_value(argc, argv, "--threads");
  benchmark::Initialize(&argc, argv);  // tolerate --benchmark_* flags

  std::vector<std::size_t> thread_counts{1, 2, 4, 8};
  if (threads_flag) {
    char* end = nullptr;
    const unsigned long long parsed =
        std::strtoull(threads_flag->c_str(), &end, 0);
    if (end == threads_flag->c_str() || *end != '\0' || parsed == 0) {
      std::fprintf(stderr,
                   "error: --threads wants a positive integer, got '%s'\n",
                   threads_flag->c_str());
      return 2;
    }
    thread_counts = {static_cast<std::size_t>(parsed)};
  }

  const auto rows = run_sweep(thread_counts);
  if (json_out) write_json(*json_out, rows);
  ibvs::ThreadPool::set_global_threads(0);  // restore the default sizing
  benchmark::RunSpecifiedBenchmarks();
  ibvs::bench::dump_metrics(metrics_out);
  ibvs::bench::dump_trace(trace_out);
  return 0;
}
