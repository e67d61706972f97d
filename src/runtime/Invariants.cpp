//===- runtime/Invariants.cpp ---------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "runtime/Invariants.h"

#include <deque>
#include <unordered_map>
#include <unordered_set>

using namespace fearless;

namespace {

/// BFS over all fields from \p Roots, optionally skipping one specific
/// (object, field-index) edge.
std::unordered_set<uint32_t>
reachableFrom(const Heap &H, const std::vector<Loc> &Roots,
              Loc SkipObject = Loc::invalid(), uint32_t SkipField = 0) {
  std::unordered_set<uint32_t> Seen;
  std::deque<Loc> Worklist;
  for (Loc R : Roots)
    if (R.isValid() && Seen.insert(R.Index).second)
      Worklist.push_back(R);
  while (!Worklist.empty()) {
    Loc L = Worklist.front();
    Worklist.pop_front();
    const Object &O = H.get(L);
    for (const FieldInfo &F : O.Struct->Fields) {
      if (L == SkipObject && F.Index == SkipField)
        continue;
      const Value &V = O.Fields[F.Index];
      if (V.isLoc() && Seen.insert(V.asLoc().Index).second)
        Worklist.push_back(V.asLoc());
    }
  }
  return Seen;
}

/// Locations referenced by the register windows of a thread's live
/// frames, its pending communication and its result.
std::vector<Loc> threadRoots(const ThreadState &T,
                             const vm::CompiledProgram &Code) {
  std::vector<Loc> Roots;
  for (const vm::VmFrame &F : T.Vm.Frames)
    for (uint32_t R = 0; R < Code.Chunks[F.Chunk].NumRegs; ++R)
      if (const Value &V = T.Vm.Regs[F.Base + R]; V.isLoc())
        Roots.push_back(V.asLoc());
  if (T.PendingSend.isLoc())
    Roots.push_back(T.PendingSend.asLoc());
  if (T.Result.isLoc())
    Roots.push_back(T.Result.asLoc());
  return Roots;
}

} // namespace

std::optional<std::string>
fearless::checkReservationsDisjoint(const Machine &M) {
  std::unordered_map<uint32_t, ThreadId> Owner;
  for (const ThreadState &T : M.threads())
    for (uint32_t Index : T.Reservation) {
      auto [It, Inserted] = Owner.emplace(Index, T.Id);
      if (!Inserted)
        return "loc#" + std::to_string(Index) +
               " is in the reservations of both thread " +
               std::to_string(It->second) + " and thread " +
               std::to_string(T.Id);
    }
  return std::nullopt;
}

std::optional<std::string>
fearless::checkReservationClosure(const Machine &M) {
  for (const ThreadState &T : M.threads()) {
    if (T.Status == ThreadStatus::Finished)
      continue; // finished results may have been conceptually returned
    auto Reach = reachableFrom(M.heap(), threadRoots(T, *M.code()));
    for (uint32_t Index : Reach)
      if (!T.Reservation.count(Index))
        return "thread " + std::to_string(T.Id) + " can reach loc#" +
               std::to_string(Index) + " outside its reservation";
  }
  return std::nullopt;
}

std::optional<std::string> fearless::checkStoredRefCounts(const Heap &H) {
  std::vector<uint32_t> Truth = H.recomputeRefCounts();
  for (uint32_t Index = 0; Index < Truth.size(); ++Index) {
    uint32_t Stored = H.get(Loc{Index}).StoredRefCount;
    if (Stored != Truth[Index])
      return "loc#" + std::to_string(Index) + " stores refcount " +
             std::to_string(Stored) + " but the ground truth is " +
             std::to_string(Truth[Index]);
  }
  return std::nullopt;
}

std::optional<std::string>
fearless::checkIsoDomination(const Heap &H, const std::vector<Loc> &Roots) {
  auto Reachable = reachableFrom(H, Roots);
  for (uint32_t Index : Reachable) {
    Loc L{Index};
    const Object &O = H.get(L);
    for (const FieldInfo &F : O.Struct->Fields) {
      if (!F.Iso)
        continue;
      const Value &V = O.Fields[F.Index];
      if (!V.isLoc())
        continue;
      Loc Target = V.asLoc();
      // The target's subgraph must vanish when the iso edge is removed.
      auto TargetSubgraph = reachableFrom(H, {Target});
      auto WithoutEdge = reachableFrom(H, Roots, L, F.Index);
      for (uint32_t Sub : TargetSubgraph)
        if (WithoutEdge.count(Sub))
          return "iso field loc#" + std::to_string(Index) + "." +
                 std::to_string(F.Index) +
                 " does not dominate loc#" + std::to_string(Sub) +
                 " (another path reaches it)";
    }
  }
  return std::nullopt;
}
