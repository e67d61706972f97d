//===- mc/Replay.cpp ------------------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "mc/Replay.h"

#include <algorithm>
#include <fstream>
#include <sstream>

using namespace fearless;
using namespace fearless::mc;

std::string Schedule::render() const {
  std::string Out = "fearless-schedule-v1\n";
  for (const std::string &C : Comments)
    Out += "# " + C + "\n";
  Out += "choices " + std::to_string(Choices.size()) + "\n";
  for (uint32_t T : Choices)
    Out += "t " + std::to_string(T) + "\n";
  Out += "end\n";
  return Out;
}

Expected<Schedule> Schedule::parse(std::string_view Text) {
  Schedule S;
  std::istringstream In{std::string(Text)};
  std::string Line;
  size_t LineNo = 0;
  auto NextLine = [&]() -> bool {
    while (std::getline(In, Line)) {
      ++LineNo;
      // Trim a trailing carriage return so CRLF files parse too.
      if (!Line.empty() && Line.back() == '\r')
        Line.pop_back();
      if (Line.empty() || Line[0] == '#')
        continue;
      return true;
    }
    return false;
  };
  auto Err = [&](const std::string &What) {
    return fail("schedule file: " + What +
                (LineNo ? " (line " + std::to_string(LineNo) + ")" : ""));
  };

  if (!NextLine() || Line != "fearless-schedule-v1")
    return Err("missing 'fearless-schedule-v1' header");
  if (!NextLine() || Line.rfind("choices ", 0) != 0)
    return Err("expected 'choices <count>' after the header");
  uint64_t Declared = 0;
  {
    std::istringstream LS(Line.substr(8));
    if (!(LS >> Declared) || !LS.eof())
      return Err("malformed choice count '" + Line.substr(8) + "'");
  }
  for (uint64_t I = 0; I < Declared; ++I) {
    if (!NextLine())
      return Err("truncated: declared " + std::to_string(Declared) +
                 " choices, found " + std::to_string(I));
    if (Line.rfind("t ", 0) != 0)
      return Err("expected 't <thread-id>', got '" + Line + "'");
    uint32_t T = 0;
    std::istringstream LS(Line.substr(2));
    if (!(LS >> T) || !LS.eof())
      return Err("malformed thread id '" + Line.substr(2) + "'");
    S.Choices.push_back(T);
  }
  if (!NextLine() || Line != "end")
    return Err("missing 'end' trailer (file truncated?)");
  if (NextLine())
    return Err("trailing content after 'end': '" + Line + "'");
  return S;
}

Expected<Schedule> Schedule::loadFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return fail("cannot open schedule file '" + Path + "'");
  std::ostringstream OS;
  OS << In.rdbuf();
  return parse(OS.str());
}

ExpectedVoid Schedule::writeFile(const std::string &Path) const {
  std::ofstream Out(Path, std::ios::trunc);
  if (!Out)
    return fail("cannot open schedule file '" + Path + "' for writing");
  Out << render();
  Out.flush();
  if (!Out)
    return fail("error writing schedule file '" + Path + "'");
  return {};
}

Expected<MachineSummary> mc::runSchedule(Machine &M, const Schedule &S) {
  if (ExpectedVoid B = M.beginStepping(); !B)
    return B.takeFailure();
  size_t Next = 0;
  while (true) {
    Expected<MachineProgress> P = M.checkProgress();
    if (!P)
      return P.takeFailure();
    if (*P == MachineProgress::Done)
      break;
    if (*P == MachineProgress::Deadlock)
      return fail(M.deadlockMessage());
    const std::vector<size_t> &Runnable = M.runnableThreads();
    size_t Pick;
    if (Runnable.size() == 1) {
      Pick = Runnable[0];
    } else {
      if (Next >= S.Choices.size())
        return fail(
            "schedule replay: schedule exhausted after " +
            std::to_string(S.Choices.size()) + " choices with " +
            std::to_string(Runnable.size()) +
            " threads still runnable (schedule does not match this "
            "program/flags)");
      uint32_t T = S.Choices[Next];
      if (std::find(Runnable.begin(), Runnable.end(), size_t(T)) ==
          Runnable.end())
        return fail("schedule replay: choice " + std::to_string(Next) +
                    " picks thread " + std::to_string(T) +
                    ", which is not runnable at that point (schedule "
                    "does not match this program/flags)");
      ++Next;
      Pick = T;
    }
    if (Expected<McStepRecord> R = M.stepChosen(Pick); !R)
      return R.takeFailure();
  }
  if (Next != S.Choices.size())
    return fail("schedule replay: " +
                std::to_string(S.Choices.size() - Next) +
                " unused choices after the run completed (schedule does "
                "not match this program/flags)");
  return M.finishStepping();
}
