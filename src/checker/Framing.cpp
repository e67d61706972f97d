//===- checker/Framing.cpp ------------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "checker/Framing.h"

#include "checker/Virtual.h"

#include <cassert>
#include <set>

using namespace fearless;

Expected<CallInstantiation> fearless::applySignature(
    Contexts &Ctx, const FnSignature &Sig,
    const std::vector<Symbol> &ArgVars, RegionSupply &Supply,
    const Interner &Names, DerivSink Sink, size_t *StepCounter,
    SourceLoc Loc) {
  assert(Sig.Decl && ArgVars.size() == Sig.Decl->Params.size() &&
         "argument count mismatch reaches applySignature");
  VirtualEngine Engine(Ctx, Supply, Names, Sink, StepCounter);
  CallInstantiation Inst;

  // Map parameter regions to caller regions. Parameters in distinct
  // signature regions need distinct caller regions; parameters sharing a
  // signature region (a `before:` relation) need the *same* caller
  // region.
  std::map<RegionId, Symbol> CallerRegionUsed; // caller region -> arg
  std::map<Symbol, Symbol> ParamToArg;
  for (size_t I = 0; I < ArgVars.size(); ++I) {
    const ParamDecl &Param = Sig.Decl->Params[I];
    if (!Param.ParamType.isRegionful())
      continue;
    Symbol Arg = ArgVars[I];
    assert(Arg.isValid() && "regionful parameter without a variable arg");
    ParamToArg[Param.Name] = Arg;
    const VarBinding *Binding = Ctx.Vars.lookup(Arg);
    if (!Binding)
      return fail("argument '" + Names.spelling(Arg) + "' is not bound",
                  Loc);
    RegionId CallerRegion = Binding->Region;
    if (!Ctx.Heap.hasRegion(CallerRegion))
      return fail("argument '" + Names.spelling(Arg) +
                      "' is no longer in the reservation",
                  Loc);
    RegionId SigRegion = Sig.ParamRegion.at(Param.Name);
    auto [MapIt, MapInserted] =
        Inst.SigToCaller.emplace(SigRegion, CallerRegion);
    if (!MapInserted) {
      if (MapIt->second != CallerRegion)
        return fail("argument '" + Names.spelling(Arg) +
                        "' must share a region with its 'before'-related "
                        "argument, but does not",
                    Loc);
      continue; // shared region already processed
    }
    auto [UsedIt, UsedInserted] =
        CallerRegionUsed.emplace(CallerRegion, Arg);
    if (!UsedInserted)
      return fail("arguments '" + Names.spelling(UsedIt->second) +
                      "' and '" + Names.spelling(Arg) +
                      "' may alias (same region); the callee expects "
                      "separate regions",
                  Loc);
  }

  // Conform each signature input region to its declared shape. Iterate
  // over distinct signature regions (before-shared parameters map to one).
  std::set<RegionId> SeenSigRegions;
  for (const auto &[ParamName, SigRegion] : Sig.ParamRegion) {
    (void)ParamName;
    if (!SeenSigRegions.insert(SigRegion).second)
      continue;
    RegionId CallerRegion = Inst.SigToCaller.at(SigRegion);
    const RegionTrack *SigTrack = Sig.Input.Heap.lookup(SigRegion);
    assert(SigTrack && "parameter region missing from signature input");

    if (SigTrack->Pinned) {
      // Framed: the callee sees a pinned, empty view; the caller's
      // tracking details survive untouched.
      continue;
    }
    const RegionTrack *CallerTrack = Ctx.Heap.lookup(CallerRegion);
    if (CallerTrack->Pinned)
      return fail("argument region " + toString(CallerRegion) +
                      " is pinned, but the callee needs it unpinned",
                  Loc);

    if (SigTrack->Vars.empty()) {
      // Default: empty tracking context required.
      if (auto Err = Engine.releaseRegion(CallerRegion, Loc); !Err)
        return Err.takeFailure();
      continue;
    }

    // Focused parameter(s): the caller must track exactly the signature's
    // variables (mapped to the argument names) with exactly the
    // signature's fields. Release everything else first.
    std::map<Symbol, const VarTrack *> Wanted; // arg var -> sig track
    for (const auto &[SigVar, SigVarTrack] : SigTrack->Vars) {
      auto ArgIt = ParamToArg.find(SigVar);
      assert(ArgIt != ParamToArg.end() &&
             "signature input tracks a non-parameter");
      Wanted.emplace(ArgIt->second, &SigVarTrack);
    }
    while (true) {
      const RegionTrack *Current = Ctx.Heap.lookup(CallerRegion);
      Symbol Other;
      for (const auto &[Var, VTrack] : Current->Vars) {
        (void)VTrack;
        if (!Wanted.count(Var)) {
          Other = Var;
          break;
        }
      }
      if (!Other.isValid())
        break;
      if (auto Err = Engine.releaseVar(Other, Loc); !Err)
        return Err.takeFailure();
    }
    for (const auto &[Arg, SigVarTrack] : Wanted) {
      if (auto Err = Engine.ensureFocused(Arg, Loc); !Err)
        return Err.takeFailure();
      // Extra fields beyond the signature: release them.
      while (true) {
        const VarTrack *Track = Ctx.Heap.trackedVar(CallerRegion, Arg);
        Symbol Extra;
        RegionId ExtraTarget;
        for (const auto &[Field, Target] : Track->Fields) {
          if (!SigVarTrack->Fields.count(Field)) {
            Extra = Field;
            ExtraTarget = Target;
            break;
          }
        }
        if (!Extra.isValid())
          break;
        if (Ctx.Heap.hasRegion(ExtraTarget) &&
            !Ctx.Heap.lookup(ExtraTarget)->empty())
          if (auto Err = Engine.releaseRegion(ExtraTarget, Loc); !Err)
            return Err.takeFailure();
        if (auto Err = Engine.retract(Arg, Extra, Loc); !Err)
          return Err.takeFailure();
      }
      // Required fields: track them and conform their target regions.
      for (const auto &[Field, SigTarget] : SigVarTrack->Fields) {
        Expected<RegionId> CallerTarget =
            Engine.ensureFieldTracked(Arg, Field, Loc);
        if (!CallerTarget)
          return CallerTarget.takeFailure();
        if (!Ctx.Heap.hasRegion(*CallerTarget))
          return fail("argument field '" + Names.spelling(Arg) + "." +
                          Names.spelling(Field) +
                          "' was invalidated; reassign it before the call",
                      Loc);
        const RegionTrack *SigTargetTrack =
            Sig.Input.Heap.lookup(SigTarget);
        assert(SigTargetTrack && "signature field target missing");
        if (!SigTargetTrack->Pinned && SigTargetTrack->empty()) {
          // Field targets declared as plain empty regions must arrive
          // empty. (Targets that are themselves focused parameter regions
          // are conformed by the region loop instead.)
          if (auto Err = Engine.releaseRegion(*CallerTarget, Loc); !Err)
            return Err.takeFailure();
        }
        auto [It, Inserted] =
            Inst.SigToCaller.emplace(SigTarget, *CallerTarget);
        if (!Inserted && It->second != *CallerTarget)
          return fail("argument fields that the callee expects to share "
                          "a region do not",
                      Loc);
      }
    }
  }

  // Output effects. First the `after:` merges: input regions whose output
  // images coincide must be attached in the caller. Attaches rename
  // caller regions, so keep the instantiation maps current.
  std::map<RegionId, RegionId> OutputToCaller;
  auto RenameCaller = [&](RegionId From, RegionId To) {
    for (auto &[SigRegion, CallerRegion] : Inst.SigToCaller)
      if (CallerRegion == From)
        CallerRegion = To;
    for (auto &[SigRegion, CallerRegion] : OutputToCaller)
      if (CallerRegion == From)
        CallerRegion = To;
  };
  for (const auto &[SigIn, SigOut] : Sig.OutputImage) {
    if (!SigOut.isValid())
      continue; // consumed; handled below
    auto MappedIt = Inst.SigToCaller.find(SigIn);
    if (MappedIt == Inst.SigToCaller.end())
      continue;
    RegionId CallerRegion = MappedIt->second;
    auto [It, Inserted] = OutputToCaller.emplace(SigOut, CallerRegion);
    if (Inserted || It->second == CallerRegion)
      continue;
    RegionId To = It->second;
    if (auto Err = Engine.attach(CallerRegion, To, Loc); !Err)
      return Err.takeFailure();
    RenameCaller(CallerRegion, To);
  }

  // Consumed parameters: their caller regions leave the reservation.
  for (const auto &[SigIn, SigOut] : Sig.OutputImage) {
    if (SigOut.isValid())
      continue;
    auto MappedIt = Inst.SigToCaller.find(SigIn);
    assert(MappedIt != Inst.SigToCaller.end() &&
           "consumed region was not an input region");
    if (Ctx.Heap.hasRegion(MappedIt->second))
      if (auto Err = Engine.dropRegion(MappedIt->second, Loc); !Err)
        return Err.takeFailure();
  }

  // Result region.
  if (Sig.ResultRegion.isValid()) {
    auto It = OutputToCaller.find(Sig.ResultRegion);
    if (It != OutputToCaller.end()) {
      Inst.ResultRegion = It->second;
    } else {
      Inst.ResultRegion = Supply.fresh();
      Ctx.Heap.addRegion(Inst.ResultRegion);
    }
  }
  return Inst;
}
