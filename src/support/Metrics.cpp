//===- support/Metrics.cpp ------------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "support/Metrics.h"

using namespace fearless;

void RuntimeMetrics::mergeThread(const MachineStats &S) {
  Steps += S.Steps;
  Sends += S.Sends;
  Recvs += S.Recvs;
  Allocations += S.Allocations;
  ReservationChecks += S.ReservationChecks;
  DisconnectChecks += S.DisconnectChecks;
  DisconnectTaken += S.DisconnectTaken;
  DisconnectElided += S.DisconnectElided;
  DisconnectObjectsVisited += S.DisconnectObjectsVisited;
  DisconnectEdgesTraversed += S.DisconnectEdgesTraversed;
  VmInstructions += S.VmInstructions;
  IcHits += S.IcHits;
  IcMisses += S.IcMisses;
}

void RuntimeMetrics::merge(const RuntimeMetrics &O) {
  Steps += O.Steps;
  Sends += O.Sends;
  Recvs += O.Recvs;
  Allocations += O.Allocations;
  ReservationChecks += O.ReservationChecks;
  DisconnectChecks += O.DisconnectChecks;
  DisconnectTaken += O.DisconnectTaken;
  DisconnectElided += O.DisconnectElided;
  DisconnectObjectsVisited += O.DisconnectObjectsVisited;
  DisconnectEdgesTraversed += O.DisconnectEdgesTraversed;
  VmInstructions += O.VmInstructions;
  IcHits += O.IcHits;
  IcMisses += O.IcMisses;
  ChecksErased += O.ChecksErased;
  AnalysisMustDisconnected += O.AnalysisMustDisconnected;
  AnalysisMustConnected += O.AnalysisMustConnected;
  AnalysisUnknown += O.AnalysisUnknown;
  ThreadsSpawned += O.ThreadsSpawned;
  ThreadsFinished += O.ThreadsFinished;
  ThreadsCancelled += O.ThreadsCancelled;
  ThreadsErrored += O.ThreadsErrored;
  HeapObjects += O.HeapObjects;
  WallMicros += O.WallMicros;
  WatchdogFired += O.WatchdogFired;
  TasksSpawned += O.TasksSpawned;
  Steals += O.Steals;
  Parks += O.Parks;
  FaultsInjected += O.FaultsInjected;
  FaultsEscalated += O.FaultsEscalated;
  ChannelsCreated += O.ChannelsCreated;
  ChannelSends += O.ChannelSends;
  ChannelRecvs += O.ChannelRecvs;
  ChannelPeakDepth =
      ChannelPeakDepth > O.ChannelPeakDepth ? ChannelPeakDepth
                                            : O.ChannelPeakDepth;
  ChannelDroppedValues += O.ChannelDroppedValues;
  McSchedulesExplored += O.McSchedulesExplored;
  McSchedulesPruned += O.McSchedulesPruned;
  McStatesFingerprinted += O.McStatesFingerprinted;
  SessionsActive += O.SessionsActive;
  CacheHits += O.CacheHits;
  CacheMisses += O.CacheMisses;
  RequestsRejected += O.RequestsRejected;
}

void RuntimeMetrics::forEach(
    const std::function<void(const char *, uint64_t)> &Fn) const {
  Fn("steps", Steps);
  Fn("sends", Sends);
  Fn("recvs", Recvs);
  Fn("allocations", Allocations);
  Fn("reservation_checks", ReservationChecks);
  Fn("disconnect_checks", DisconnectChecks);
  Fn("disconnect_taken", DisconnectTaken);
  Fn("elided_checks", DisconnectElided);
  Fn("disconnect_objects_visited", DisconnectObjectsVisited);
  Fn("disconnect_edges_traversed", DisconnectEdgesTraversed);
  Fn("threads_spawned", ThreadsSpawned);
  Fn("threads_finished", ThreadsFinished);
  Fn("threads_cancelled", ThreadsCancelled);
  Fn("threads_errored", ThreadsErrored);
  Fn("heap_objects", HeapObjects);
  Fn("wall_micros", WallMicros);
  Fn("watchdog_fired", WatchdogFired);
  Fn("tasks_spawned", TasksSpawned);
  Fn("steals", Steals);
  Fn("parks", Parks);
  Fn("faults_injected", FaultsInjected);
  Fn("faults_escalated", FaultsEscalated);
  Fn("channels_created", ChannelsCreated);
  Fn("channel_sends", ChannelSends);
  Fn("channel_recvs", ChannelRecvs);
  Fn("channel_peak_depth", ChannelPeakDepth);
  Fn("channel_dropped_values", ChannelDroppedValues);
  Fn("vm_instructions", VmInstructions);
  Fn("ic_hits", IcHits);
  Fn("ic_misses", IcMisses);
  Fn("checks_erased", ChecksErased);
  Fn("analysis_must_disconnected", AnalysisMustDisconnected);
  Fn("analysis_must_connected", AnalysisMustConnected);
  Fn("analysis_unknown", AnalysisUnknown);
  Fn("mc_schedules_explored", McSchedulesExplored);
  Fn("mc_schedules_pruned", McSchedulesPruned);
  Fn("mc_states_fingerprinted", McStatesFingerprinted);
  Fn("sessions_active", SessionsActive);
  Fn("cache_hits", CacheHits);
  Fn("cache_misses", CacheMisses);
  Fn("requests_rejected", RequestsRejected);
}

std::string RuntimeMetrics::toJson() const {
  std::string Out = "{";
  bool First = true;
  forEach([&](const char *Name, uint64_t V) {
    if (!First)
      Out += ", ";
    First = false;
    Out += '"';
    Out += Name;
    Out += "\": ";
    Out += std::to_string(V);
  });
  Out += "}";
  return Out;
}
