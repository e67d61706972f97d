//===- regions/Contexts.cpp -----------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "regions/Contexts.h"

#include <cassert>
#include <sstream>

using namespace fearless;

std::string fearless::toString(RegionId R) {
  if (!R.isValid())
    return "r?";
  return "r" + std::to_string(R.Id);
}

//===----------------------------------------------------------------------===//
// VarCtx
//===----------------------------------------------------------------------===//

const VarBinding *VarCtx::lookup(Symbol Var) const {
  auto It = Vars.find(Var);
  return It == Vars.end() ? nullptr : &It->second;
}

void VarCtx::renameRegion(RegionId From, RegionId To) {
  for (auto &[Var, Binding] : Vars)
    if (Binding.Region == From)
      Binding.Region = To;
}

//===----------------------------------------------------------------------===//
// HeapCtx
//===----------------------------------------------------------------------===//

const RegionTrack *HeapCtx::lookup(RegionId R) const {
  auto It = Regions.find(R);
  return It == Regions.end() ? nullptr : &It->second;
}

RegionTrack *HeapCtx::lookup(RegionId R) {
  auto It = Regions.find(R);
  return It == Regions.end() ? nullptr : &It->second;
}

void HeapCtx::addRegion(RegionId R) {
  assert(R.isValid() && "adding the invalid region");
  [[maybe_unused]] bool Inserted = Regions.emplace(R, RegionTrack{}).second;
  assert(Inserted && "region already present in H");
}

std::optional<RegionId> HeapCtx::trackingRegionOf(Symbol Var) const {
  for (const auto &[Region, Track] : Regions)
    if (Track.Vars.count(Var))
      return Region;
  return std::nullopt;
}

const VarTrack *HeapCtx::trackedVar(RegionId R, Symbol Var) const {
  const RegionTrack *Track = lookup(R);
  if (!Track)
    return nullptr;
  auto It = Track->Vars.find(Var);
  return It == Track->Vars.end() ? nullptr : &It->second;
}

VarTrack *HeapCtx::trackedVar(RegionId R, Symbol Var) {
  RegionTrack *Track = lookup(R);
  if (!Track)
    return nullptr;
  auto It = Track->Vars.find(Var);
  return It == Track->Vars.end() ? nullptr : &It->second;
}

bool HeapCtx::canAttach(RegionId From, RegionId To) const {
  if (From == To)
    return false;
  const RegionTrack *FromTrack = lookup(From);
  const RegionTrack *ToTrack = lookup(To);
  if (!FromTrack || !ToTrack)
    return false;
  if (FromTrack->Pinned || ToTrack->Pinned)
    return false;
  // The merged context may not track the same variable twice.
  for (const auto &[Var, Track] : FromTrack->Vars) {
    (void)Track;
    if (ToTrack->Vars.count(Var))
      return false;
  }
  return true;
}

void HeapCtx::attach(RegionId From, RegionId To) {
  assert(canAttach(From, To) && "illegal attach");
  RegionTrack FromTrack = std::move(Regions[From]);
  Regions.erase(From);
  RegionTrack &ToTrack = Regions[To];
  for (auto &[Var, Track] : FromTrack.Vars)
    ToTrack.Vars.emplace(Var, std::move(Track));
  renameFieldTargets(From, To);
}

void HeapCtx::renameFieldTargets(RegionId From, RegionId To) {
  for (auto &[Region, Track] : Regions) {
    (void)Region;
    for (auto &[Var, VTrack] : Track.Vars) {
      (void)Var;
      for (auto &[Field, Target] : VTrack.Fields)
        if (Target == From)
          Target = To;
    }
  }
}

bool HeapCtx::isFieldTarget(RegionId R) const {
  for (const auto &[Region, Track] : Regions) {
    (void)Region;
    for (const auto &[Var, VTrack] : Track.Vars) {
      (void)Var;
      for (const auto &[Field, Target] : VTrack.Fields) {
        (void)Field;
        if (Target == R)
          return true;
      }
    }
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Well-formedness
//===----------------------------------------------------------------------===//

std::optional<std::string>
fearless::checkWellFormed(const Contexts &Ctx, const Interner &Names) {
  FlatMap<Symbol, RegionId> Seen;
  for (const auto &[Region, Track] : Ctx.Heap.entries()) {
    for (const auto &[Var, VTrack] : Track.Vars) {
      (void)VTrack;
      auto [It, Inserted] = Seen.emplace(Var, Region);
      if (!Inserted)
        return "variable '" + Names.spelling(Var) +
               "' tracked in two regions (" + toString(It->second) +
               " and " + toString(Region) + ")";
      const VarBinding *Binding = Ctx.Vars.lookup(Var);
      if (!Binding)
        return "tracked variable '" + Names.spelling(Var) +
               "' is not bound in Γ";
      if (Binding->Region != Region)
        return "tracked variable '" + Names.spelling(Var) +
               "' is bound to " + toString(Binding->Region) +
               " but tracked in " + toString(Region);
      if (!Binding->VarType.isStruct())
        return "tracked variable '" + Names.spelling(Var) +
               "' does not have a struct type";
    }
  }
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Printing
//===----------------------------------------------------------------------===//

std::string fearless::toString(const HeapCtx &Heap, const Interner &Names) {
  std::ostringstream OS;
  bool FirstRegion = true;
  for (const auto &[Region, Track] : Heap.entries()) {
    if (!FirstRegion)
      OS << ", ";
    FirstRegion = false;
    OS << toString(Region);
    if (Track.Pinned)
      OS << "^";
    OS << "<";
    bool FirstVar = true;
    for (const auto &[Var, VTrack] : Track.Vars) {
      if (!FirstVar)
        OS << ", ";
      FirstVar = false;
      OS << Names.spelling(Var);
      if (VTrack.Pinned)
        OS << "^";
      OS << "[";
      bool FirstField = true;
      for (const auto &[Field, Target] : VTrack.Fields) {
        if (!FirstField)
          OS << ", ";
        FirstField = false;
        OS << Names.spelling(Field) << " -> " << toString(Target);
      }
      OS << "]";
    }
    OS << ">";
  }
  if (FirstRegion)
    OS << "·";
  return OS.str();
}

std::string fearless::toString(const VarCtx &Vars, const Interner &Names) {
  std::ostringstream OS;
  bool First = true;
  for (const auto &[Var, Binding] : Vars.entries()) {
    if (!First)
      OS << ", ";
    First = false;
    OS << Names.spelling(Var) << " : ";
    if (Binding.Region.isValid())
      OS << toString(Binding.Region) << " ";
    OS << toString(Binding.VarType, Names);
  }
  if (First)
    OS << "·";
  return OS.str();
}

std::string fearless::toString(const Contexts &Ctx, const Interner &Names) {
  return toString(Ctx.Heap, Names) + " ; " + toString(Ctx.Vars, Names);
}
