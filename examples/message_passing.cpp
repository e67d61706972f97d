//===- examples/message_passing.cpp ---------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// Fearless concurrency (§7): threads exchange whole list segments over
// send/recv. First on the deterministic abstract machine (with the
// dynamic reservation checks on — they never fire), then on real OS
// threads with the checks erased and zero per-object locking.
//
//===----------------------------------------------------------------------===//

#include "concurrency/ParallelExec.h"
#include "driver/Driver.h"
#include "runtime/Machine.h"

#include <chrono>
#include <cstdio>

using namespace fearless;

int main() {
  Expected<Pipeline> P = compile(programs::MessagePassing);
  if (!P) {
    std::printf("compilation failed: %s\n", P.error().render().c_str());
    return 1;
  }
  Symbol Producer = P->Prog->Names.intern("producer_lists");
  Symbol Relay = P->Prog->Names.intern("relay");
  Symbol Consumer = P->Prog->Names.intern("consumer_lists");

  std::printf("== abstract machine: producer -> relay -> consumer ==\n");
  {
    Machine M(P->Checked);
    M.spawn(Producer, {Value::intVal(5), Value::intVal(10)});
    M.spawn(Relay, {Value::intVal(5)});
    M.spawn(Consumer, {Value::intVal(5)});
    Expected<MachineSummary> R = M.run(/*Seed=*/3);
    if (!R) {
      std::printf("runtime error: %s\n", R.error().render().c_str());
      return 1;
    }
    std::printf("consumer total = %lld (sends: %llu, reservation checks: "
                "%llu — none failed)\n",
                static_cast<long long>(R->ThreadResults[2].asInt()),
                static_cast<unsigned long long>(M.stats().Sends),
                static_cast<unsigned long long>(
                    M.stats().ReservationChecks));
  }

  std::printf("\n== real threads, checks erased, no object locks ==\n");
  {
    ParallelExec Exec(P->Checked);
    const int Pipelines = 4;
    const int Lists = 200;
    for (int I = 0; I < Pipelines; ++I)
      Exec.spawn(Producer, {Value::intVal(Lists), Value::intVal(20)});
    Exec.spawn(Consumer, {Value::intVal(Pipelines * Lists)});
    auto Start = std::chrono::steady_clock::now();
    Expected<std::vector<Value>> R = Exec.run();
    auto End = std::chrono::steady_clock::now();
    if (!R) {
      std::printf("parallel error: %s\n", R.error().render().c_str());
      return 1;
    }
    double Ms =
        std::chrono::duration<double, std::milli>(End - Start).count();
    std::printf("consumer total = %lld over %d producer threads in "
                "%.2f ms (%llu steps)\n",
                static_cast<long long>((*R)[Pipelines].asInt()),
                Pipelines, Ms,
                static_cast<unsigned long long>(Exec.totalSteps()));
  }
  return 0;
}
