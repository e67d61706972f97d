//===- mc/Replay.h - Schedule files and deterministic replay ----*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The replay contract of the model checker (docs/MODELCHECK.md): a
/// schedule is the sequence of thread ids chosen at *branching* decision
/// points (two or more runnable threads). The machine is deterministic
/// given that sequence — pairing is first-match, fault decisions are
/// occurrence-indexed — so a schedule file pins down one execution
/// exactly, the same way a --faults spec pins down one fault pattern,
/// and the two compose.
///
/// File format `fearless-schedule-v1` (text, one token pair per line):
///
///   fearless-schedule-v1
///   # free-form comment lines
///   choices <N>
///   t <thread-id>          (exactly N of these)
///   end
///
/// The declared count plus the `end` trailer make truncation detectable:
/// a cut-off file is a clean diagnostic, never a silently shorter run.
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_MC_REPLAY_H
#define FEARLESS_MC_REPLAY_H

#include "runtime/Machine.h"

#include <string>
#include <vector>

namespace fearless {
namespace mc {

/// A recorded interleaving: thread ids chosen at branching decision
/// points, in order.
struct Schedule {
  std::vector<uint32_t> Choices;
  /// Emitted as `#` lines after the header (reason, replay hint, ...).
  std::vector<std::string> Comments;

  /// Renders the fearless-schedule-v1 text form.
  std::string render() const;
  /// Parses the text form; malformed, truncated, or trailing-garbage
  /// input is a diagnostic naming the offending line.
  static Expected<Schedule> parse(std::string_view Text);
  static Expected<Schedule> loadFile(const std::string &Path);
  ExpectedVoid writeFile(const std::string &Path) const;
};

/// Runs \p M under \p S: at every decision point with two or more
/// runnable threads the next choice is consumed (a sole runnable thread
/// steps without consuming one). Divergence — a choice naming a
/// non-runnable thread, the schedule running out, or choices left over
/// at completion — is a clean diagnostic; a failure of the replayed
/// execution itself (deadlock, violation, injected fault) propagates
/// as-is, which is exactly how a counterexample reproduces.
Expected<MachineSummary> runSchedule(Machine &M, const Schedule &S);

} // namespace mc
} // namespace fearless

#endif // FEARLESS_MC_REPLAY_H
