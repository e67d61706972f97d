//===- checker/Framing.h - Call-site framing and instantiation -*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// T9 Function-Application: matches the caller's context against a
/// signature's input (up to renaming of variables and regions), framing
/// away everything irrelevant (TS2), and applies the signature's output
/// effects — consumed regions dropped, `after:` merges attached, the
/// result region introduced.
///
/// Framing is implicit: regions not mapped to signature regions are simply
/// left untouched (they are the frame). Pinned parameters are the one case
/// where framing carries information across the call: the callee promises
/// not to focus into, merge, or consume a pinned region, so the caller's
/// tracking details for it survive unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_CHECKER_FRAMING_H
#define FEARLESS_CHECKER_FRAMING_H

#include "checker/Derivation.h"
#include "regions/Contexts.h"
#include "sema/Signature.h"
#include "support/Expected.h"

#include <map>
#include <vector>

namespace fearless {

/// Result of instantiating a signature at a call site.
struct CallInstantiation {
  /// Signature input region -> caller region.
  std::map<RegionId, RegionId> SigToCaller;
  /// Caller-side region of the call's result (invalid for primitives).
  RegionId ResultRegion;
};

/// Matches \p Ctx against \p Sig's input for the argument variables
/// \p ArgVars (one entry per parameter; the invalid Symbol for primitive
/// arguments), mutating \p Ctx to conform (release / focus / explore on
/// demand, all recorded), verifies the match, and applies the output
/// effects. Type agreement of arguments is the caller's responsibility.
Expected<CallInstantiation>
applySignature(Contexts &Ctx, const FnSignature &Sig,
               const std::vector<Symbol> &ArgVars, RegionSupply &Supply,
               const Interner &Names, DerivSink Sink, size_t *StepCounter,
               SourceLoc Loc);

} // namespace fearless

#endif // FEARLESS_CHECKER_FRAMING_H
