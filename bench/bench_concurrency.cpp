//===- bench/bench_concurrency.cpp ----------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// E7 — fearless concurrency (§7): producer/consumer pipelines over real
// OS threads with the dynamic checks erased and zero per-object locking
// (only the channels synchronize). Throughput should scale with producer
// count until the single consumer saturates.
//
//===----------------------------------------------------------------------===//

#include "concurrency/ParallelExec.h"
#include "driver/Driver.h"
#include "runtime/Machine.h"
#include "support/FaultInjector.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

using namespace fearless;

namespace {

/// Exports the executor's per-run RuntimeMetrics as benchmark counters,
/// so `--benchmark_format=json` yields step/send/recv/disconnected
/// counters comparable across revisions (BENCH_*.json).
void exportMetrics(benchmark::State &State, const RuntimeMetrics &M) {
  State.counters["steps"] = static_cast<double>(M.Steps);
  State.counters["sends"] = static_cast<double>(M.Sends);
  State.counters["recvs"] = static_cast<double>(M.Recvs);
  State.counters["allocations"] = static_cast<double>(M.Allocations);
  State.counters["disconnect_checks"] =
      static_cast<double>(M.DisconnectChecks);
  State.counters["channel_peak_depth"] =
      static_cast<double>(M.ChannelPeakDepth);
  State.counters["threads_cancelled"] =
      static_cast<double>(M.ThreadsCancelled);
}

void BM_ParallelItemPipeline(benchmark::State &State) {
  Expected<Pipeline> P = compile(programs::MessagePassing);
  if (!P) {
    State.SkipWithError(P.error().Message.c_str());
    return;
  }
  int Producers = static_cast<int>(State.range(0));
  const int PerProducer = 2000;
  Symbol Producer = P->Prog->Names.intern("producer");
  Symbol Consumer = P->Prog->Names.intern("consumer");
  RuntimeMetrics LastRun;
  for (auto _ : State) {
    ParallelExec Exec(P->Checked);
    for (int I = 0; I < Producers; ++I)
      Exec.spawn(Producer, {Value::intVal(PerProducer)});
    Exec.spawn(Consumer, {Value::intVal(Producers * PerProducer)});
    Expected<std::vector<Value>> R = Exec.run();
    if (!R) {
      State.SkipWithError(R.error().Message.c_str());
      return;
    }
    benchmark::DoNotOptimize((*R).back());
    LastRun = Exec.metrics();
  }
  State.SetItemsProcessed(State.iterations() * Producers * PerProducer);
  State.counters["producers"] = Producers;
  exportMetrics(State, LastRun);
}
BENCHMARK(BM_ParallelItemPipeline)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

void BM_ParallelListPipeline(benchmark::State &State) {
  Expected<Pipeline> P = compile(programs::MessagePassing);
  if (!P) {
    State.SkipWithError(P.error().Message.c_str());
    return;
  }
  int Producers = static_cast<int>(State.range(0));
  const int Lists = 200;
  const int Chunk = 32;
  Symbol Producer = P->Prog->Names.intern("producer_lists");
  Symbol Consumer = P->Prog->Names.intern("consumer_lists");
  RuntimeMetrics LastRun;
  for (auto _ : State) {
    ParallelExec Exec(P->Checked);
    for (int I = 0; I < Producers; ++I)
      Exec.spawn(Producer, {Value::intVal(Lists), Value::intVal(Chunk)});
    Exec.spawn(Consumer, {Value::intVal(Producers * Lists)});
    Expected<std::vector<Value>> R = Exec.run();
    if (!R) {
      State.SkipWithError(R.error().Message.c_str());
      return;
    }
    benchmark::DoNotOptimize((*R).back());
    LastRun = Exec.metrics();
  }
  State.SetItemsProcessed(State.iterations() * Producers * Lists * Chunk);
  State.counters["producers"] = Producers;
  exportMetrics(State, LastRun);
}
BENCHMARK(BM_ParallelListPipeline)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

/// Baseline: the same single-item pipeline on the deterministic abstract
/// machine (checked bytecode, one thread at a time, no parallelism).
void BM_AbstractMachineItemPipeline(benchmark::State &State) {
  Expected<Pipeline> P = compile(programs::MessagePassing);
  if (!P) {
    State.SkipWithError(P.error().Message.c_str());
    return;
  }
  const int Items = 2000;
  Symbol Producer = P->Prog->Names.intern("producer");
  Symbol Consumer = P->Prog->Names.intern("consumer");
  RuntimeMetrics LastRun;
  for (auto _ : State) {
    Machine M(P->Checked);
    M.spawn(Producer, {Value::intVal(Items)});
    M.spawn(Consumer, {Value::intVal(Items)});
    Expected<MachineSummary> R = M.run();
    if (!R) {
      State.SkipWithError(R.error().Message.c_str());
      return;
    }
    benchmark::DoNotOptimize(R->Steps);
    LastRun = M.metrics();
  }
  State.SetItemsProcessed(State.iterations() * Items);
  exportMetrics(State, LastRun);
}
BENCHMARK(BM_AbstractMachineItemPipeline);

/// FEARLESS_TRACE_OUT hook: after the benchmarks, run one traced
/// item-pipeline (4 producers, 1 consumer) and write its merged Chrome
/// trace to the named file. Gives `tools/bench.sh` / users a one-command
/// way to capture a real multi-thread trace from the E7 workload:
///
///   FEARLESS_TRACE_OUT=pipeline.json ./bench_concurrency
///
/// FEARLESS_TRACE_ITEMS overrides the per-producer item count (default
/// 500; docs/trace_example.json was captured with 50 to keep it small).
int writeTracedPipeline(const char *Path) {
  Expected<Pipeline> P = compile(programs::MessagePassing);
  if (!P) {
    std::fprintf(stderr, "bench_concurrency: trace workload: %s\n",
                 P.error().Message.c_str());
    return 1;
  }
  const int Producers = 4;
  int PerProducer = 500;
  if (const char *Items = std::getenv("FEARLESS_TRACE_ITEMS"))
    PerProducer = std::max(1, std::atoi(Items));
  TraceSession Trace;
  ParallelExecOptions Opts;
  Opts.Trace = &Trace;
  ParallelExec Exec(P->Checked, Opts);
  Symbol Producer = P->Prog->Names.intern("producer");
  Symbol Consumer = P->Prog->Names.intern("consumer");
  for (int I = 0; I < Producers; ++I)
    Exec.spawn(Producer, {Value::intVal(PerProducer)});
  Exec.spawn(Consumer, {Value::intVal(Producers * PerProducer)});
  Expected<std::vector<Value>> R = Exec.run();
  if (!R) {
    std::fprintf(stderr, "bench_concurrency: trace workload: %s\n",
                 R.error().Message.c_str());
    return 1;
  }
  std::string Error;
  if (!Trace.writeChromeJson(Path, Error)) {
    std::fprintf(stderr, "bench_concurrency: %s\n", Error.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "bench_concurrency: wrote trace of %d-thread pipeline "
               "to %s (%zu buffers)\n",
               Producers + 1, Path, Trace.bufferCount());
  return 0;
}

/// FEARLESS_FAULTS hook: after the benchmarks, run the item pipeline
/// once fault-free (baseline) and once under the env-configured fault
/// plan, and check the chaos contract: the run must terminate (no hang),
/// every thread must end finished, cancelled or errored, and the run
/// must produce either the baseline's results or a typed fault
/// diagnostic. CI's chaos smoke loops this over seeds:
///
///   export FEARLESS_FAULTS='thread.start=prob:0.3,seed=7'
///   ./bench_concurrency --benchmark_filter=NONE
int runChaosPipeline() {
  std::string FaultError;
  std::unique_ptr<FaultInjector> Faults =
      FaultInjector::fromEnv(&FaultError);
  if (!Faults) {
    std::fprintf(stderr, "bench_concurrency: %s\n",
                 FaultError.empty() ? "FEARLESS_FAULTS: empty spec"
                                    : FaultError.c_str());
    return 1;
  }
  Expected<Pipeline> P = compile(programs::MessagePassing);
  if (!P) {
    std::fprintf(stderr, "bench_concurrency: chaos workload: %s\n",
                 P.error().Message.c_str());
    return 1;
  }
  const int Producers = 2;
  const int PerProducer = 200;
  auto Spawn = [&](ParallelExec &Exec) {
    Symbol Producer = P->Prog->Names.intern("producer");
    Symbol Consumer = P->Prog->Names.intern("consumer");
    for (int I = 0; I < Producers; ++I)
      Exec.spawn(Producer, {Value::intVal(PerProducer)});
    Exec.spawn(Consumer, {Value::intVal(Producers * PerProducer)});
  };

  ParallelExec Baseline(P->Checked);
  Spawn(Baseline);
  Expected<std::vector<Value>> Want = Baseline.run();
  if (!Want) {
    std::fprintf(stderr, "bench_concurrency: chaos baseline: %s\n",
                 Want.error().Message.c_str());
    return 1;
  }

  ParallelExecOptions Opts;
  Opts.Faults = Faults.get();
  // Safety net: a shutdown bug becomes a diagnostic, not a hung CI job.
  Opts.WatchdogMillis = 60'000;
  ParallelExec Exec(P->Checked, Opts);
  Spawn(Exec);
  Expected<std::vector<Value>> R = Exec.run();
  const RuntimeMetrics &M = Exec.metrics();
  if (M.WatchdogFired) {
    std::fprintf(stderr,
                 "bench_concurrency: chaos run hung (watchdog fired)\n");
    return 1;
  }
  const uint64_t Threads = Producers + 1;
  if (M.ThreadsFinished + M.ThreadsCancelled + M.ThreadsErrored !=
      Threads) {
    std::fprintf(stderr, "bench_concurrency: chaos run lost a thread "
                         "(finished + cancelled + errored != %llu)\n",
                 static_cast<unsigned long long>(Threads));
    return 1;
  }
  if (R.hasValue()) {
    if (M.FaultsEscalated != 0) {
      std::fprintf(stderr, "bench_concurrency: chaos run succeeded but "
                           "reports escalated faults\n");
      return 1;
    }
    for (size_t I = 0; I < Want->size(); ++I)
      if (!((*R)[I] == (*Want)[I])) {
        std::fprintf(stderr,
                     "bench_concurrency: chaos run diverged from "
                     "baseline at thread %zu\n",
                     I);
        return 1;
      }
  } else if (M.FaultsEscalated == 0 ||
             R.error().Message.find("injected fault at ") ==
                 std::string::npos) {
    std::fprintf(stderr,
                 "bench_concurrency: chaos run failed without a typed "
                 "fault diagnostic: %s\n",
                 R.error().Message.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "bench_concurrency: chaos ok (%s; injected=%llu "
               "escalated=%llu)\n",
               R.hasValue() ? "fault-free results" : "typed fault",
               static_cast<unsigned long long>(M.FaultsInjected),
               static_cast<unsigned long long>(M.FaultsEscalated));
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (const char *TraceOut = std::getenv("FEARLESS_TRACE_OUT"))
    return writeTracedPipeline(TraceOut);
  if (std::getenv("FEARLESS_FAULTS"))
    return runChaosPipeline();
  return 0;
}
