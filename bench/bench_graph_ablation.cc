// GRAPH — substrate ablations (google-benchmark):
//   * incremental (Pearce-Kelly) cycle detection vs full DFS recheck on
//     the arc streams online schedulers produce;
//   * DAG-order bitset transitive closure vs per-source DFS closure (the
//     two ways to realize the depends-on relation);
//   * batched AddEdges (one compound Pearce-Kelly repair per chunk) vs
//     per-edge trial insertion on the same arc stream;
//   * end-to-end RSG build + acyclicity at growing schedule sizes.
//
// Results are mirrored to BENCH_graph_ablation.json (google-benchmark's
// JSON reporter) for the perf-trajectory harness.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/depends.h"
#include "core/rsg.h"
#include "graph/closure.h"
#include "graph/cycle.h"
#include "graph/dynamic_topo.h"
#include "graph/topo.h"
#include "util/json.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/spec_gen.h"

namespace relser {
namespace {

// A mostly-forward random arc stream (the shape schedulers generate:
// most arcs point from earlier to later operations, a few backwards).
std::vector<std::pair<NodeId, NodeId>> MakeArcStream(std::size_t n,
                                                     std::size_t arcs,
                                                     std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<NodeId, NodeId>> stream;
  stream.reserve(arcs);
  while (stream.size() < arcs) {
    NodeId a = rng.UniformIndex(n);
    NodeId b = rng.UniformIndex(n);
    if (a == b) continue;
    if (a > b && rng.UniformDouble() < 0.9) std::swap(a, b);  // mostly fwd
    stream.emplace_back(a, b);
  }
  return stream;
}

void BM_IncrementalCycleDetection(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto stream = MakeArcStream(n, n * 4, 7);
  for (auto _ : state) {
    IncrementalTopology topo(n);
    std::size_t accepted = 0;
    for (const auto& [from, to] : stream) {
      if (topo.AddEdge(from, to) ==
          IncrementalTopology::AddResult::kInserted) {
        ++accepted;
      }
    }
    benchmark::DoNotOptimize(accepted);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(stream.size()) *
                          state.iterations());
}
BENCHMARK(BM_IncrementalCycleDetection)->Arg(64)->Arg(256)->Arg(1024);

void BM_FullRecheckCycleDetection(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto stream = MakeArcStream(n, n * 4, 7);
  for (auto _ : state) {
    Digraph graph(n);
    std::size_t accepted = 0;
    for (const auto& [from, to] : stream) {
      if (from == to) continue;
      if (!graph.AddEdge(from, to)) continue;
      if (HasCycle(graph)) {
        graph.RemoveEdge(from, to);
      } else {
        ++accepted;
      }
    }
    benchmark::DoNotOptimize(accepted);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(stream.size()) *
                          state.iterations());
}
BENCHMARK(BM_FullRecheckCycleDetection)->Arg(64)->Arg(256)->Arg(1024);

// The admission path submits each operation's pruned arc set as one
// batch; this ablation measures the compound repair against inserting
// the same chunks edge-by-edge (BM_IncrementalCycleDetection above).
// Chunks that would close a cycle roll back whole, so the accepted-arc
// counts differ from per-edge insertion by design.
void BM_BatchedArcInsertion(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kChunk = 4;  // arcs per operation, typical pruned
  const auto stream = MakeArcStream(n, n * 4, 7);
  std::vector<std::pair<NodeId, NodeId>> chunk;
  for (auto _ : state) {
    IncrementalTopology topo(n);
    std::size_t accepted_batches = 0;
    for (std::size_t start = 0; start < stream.size(); start += kChunk) {
      chunk.assign(stream.begin() + static_cast<std::ptrdiff_t>(start),
                   stream.begin() + static_cast<std::ptrdiff_t>(
                                        std::min(start + kChunk,
                                                 stream.size())));
      if (topo.AddEdges(chunk)) ++accepted_batches;
    }
    benchmark::DoNotOptimize(accepted_batches);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(stream.size()) *
                          state.iterations());
}
BENCHMARK(BM_BatchedArcInsertion)->Arg(64)->Arg(256)->Arg(1024);

Digraph MakeDag(std::size_t n, std::size_t arcs, std::uint64_t seed) {
  Rng rng(seed);
  Digraph graph(n);
  std::size_t added = 0;
  while (added < arcs) {
    NodeId a = rng.UniformIndex(n);
    NodeId b = rng.UniformIndex(n);
    if (a == b) continue;
    if (a > b) std::swap(a, b);  // forward arcs only: a DAG by node order
    added += graph.AddEdge(a, b) ? 1u : 0u;
  }
  return graph;
}

void BM_ClosureBitsetDagOrder(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Digraph dag = MakeDag(n, n * 4, 13);
  std::vector<NodeId> order(n);
  for (NodeId v = 0; v < n; ++v) order[v] = v;
  for (auto _ : state) {
    const TransitiveClosure closure =
        TransitiveClosure::FromDagOrder(dag, order);
    benchmark::DoNotOptimize(closure.Reaches(0, n - 1));
  }
}
BENCHMARK(BM_ClosureBitsetDagOrder)->Arg(128)->Arg(512)->Arg(2048);

void BM_ClosurePerSourceDfs(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Digraph dag = MakeDag(n, n * 4, 13);
  for (auto _ : state) {
    const TransitiveClosure closure = TransitiveClosure::FromAnyGraph(dag);
    benchmark::DoNotOptimize(closure.Reaches(0, n - 1));
  }
}
BENCHMARK(BM_ClosurePerSourceDfs)->Arg(128)->Arg(512)->Arg(2048);

void BM_RsgBuildAndTest(benchmark::State& state) {
  const auto txn_count = static_cast<std::size_t>(state.range(0));
  Rng rng(999);
  WorkloadParams wp;
  wp.txn_count = txn_count;
  wp.min_ops_per_txn = 8;
  wp.max_ops_per_txn = 8;
  wp.object_count = txn_count * 2;
  const TransactionSet txns = GenerateTransactions(wp, &rng);
  const AtomicitySpec spec = RandomUniformObserverSpec(txns, 0.5, &rng);
  const Schedule schedule = RandomSchedule(txns, &rng);
  for (auto _ : state) {
    const RelativeSerializationGraph rsg(txns, schedule, spec);
    benchmark::DoNotOptimize(HasCycle(rsg.graph()));
  }
  state.counters["ops"] = static_cast<double>(txn_count * 8);
}
BENCHMARK(BM_RsgBuildAndTest)->Arg(4)->Arg(16)->Arg(64);

void BM_DependsOnClosure(benchmark::State& state) {
  const auto txn_count = static_cast<std::size_t>(state.range(0));
  Rng rng(555);
  WorkloadParams wp;
  wp.txn_count = txn_count;
  wp.min_ops_per_txn = 8;
  wp.max_ops_per_txn = 8;
  wp.object_count = txn_count * 2;
  const TransactionSet txns = GenerateTransactions(wp, &rng);
  const Schedule schedule = RandomSchedule(txns, &rng);
  for (auto _ : state) {
    const DependsOnRelation depends(txns, schedule);
    benchmark::DoNotOptimize(depends.PairCount());
  }
  state.counters["ops"] = static_cast<double>(txn_count * 8);
}
BENCHMARK(BM_DependsOnClosure)->Arg(4)->Arg(16)->Arg(64);

}  // namespace
}  // namespace relser

// Custom main instead of BENCHMARK_MAIN(): defaults --benchmark_out to
// BENCH_graph_ablation.json (JSON format) so every invocation refreshes
// the perf-trajectory file without extra command-line flags; explicit
// --benchmark_out flags still win.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out", 0) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_graph_ablation.json";
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Re-emit through the canonical trajectory writer so a tagged run
  // (RELSER_BENCH_TAG) also lands in bench/trajectory/, matching the
  // hand-rolled benches.
  if (!has_out) {
    std::ifstream in("BENCH_graph_ablation.json");
    if (in) {
      std::stringstream content;
      content << in.rdbuf();
      std::string text = content.str();
      while (!text.empty() && text.back() == '\n') text.pop_back();
      relser::WriteBenchJsonFile("BENCH_graph_ablation.json", text);
    }
  }
  return 0;
}
