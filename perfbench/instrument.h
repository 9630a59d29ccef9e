// Tracing from outside the library: spans around calls into each layer's public
// functions, and a replay that times the hsfq layer on its own.
//
//   * TimedLeaf decorates an hsfq::LeafScheduler. It is supplied through the
//     LeafSchedulerFactory, so every leaf of a traced machine is one. It times the
//     class scheduler's picking and state-changing calls (PickNext, Charge,
//     ThreadRunnable, ThreadBlocked, AddThread, RemoveThread) and logs each one in
//     call order. Const queries (HasRunnable, HasDispatchable, IsThreadRunnable,
//     PreferredQuantum) are forwarded untimed; their cost stays with their caller.
//   * TimedWorkload decorates an hsim::Workload (supplied through make_workload) and
//     times NextAction.
//   * Every leaf call corresponds to exactly one hsfq kernel hook (SetRun -> Runnable,
//     Sleep -> Blocked, Schedule/ScheduleLeaf -> PickNext, Update -> Charge,
//     AttachThread -> AddThread, DetachThread -> RemoveThread). Together with the
//     structural operations the benchmark issues itself (logged by the caller), the
//     log is the complete sequence of hsfq mutations in order. ReplayHsfq re-issues it
//     against a fresh tree built from the same spec, times each public call, and fails
//     if any replayed pick differs from the recorded one.
//
// Spans stay in memory (per-layer accumulators plus the call log) and are written out
// when the benchmark ends.

#ifndef PERFBENCH_INSTRUMENT_H_
#define PERFBENCH_INSTRUMENT_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/hsfq/leaf_scheduler.h"
#include "src/hsfq/structure.h"
#include "src/sim/scenario.h"
#include "src/sim/workload.h"

namespace pbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Cost of one NowNs() call, measured at start-up. A span's measured duration carries
// about one clock read on top of the work inside it; an enclosing span pays that plus
// one more read for each child span.
double ClockReadNs();

struct SpanStat {
  uint64_t calls = 0;
  int64_t ns = 0;

  void Add(int64_t d) {
    ++calls;
    ns += d;
  }
  // Mean ns per call with the clock read taken out (0 when never called).
  double MeanNs() const;
  // Total seconds with the clock reads taken out.
  double SelfSeconds() const;
};

// Per leaf class ("sfq", "ts_svr4", "edf", ...).
struct LeafClassStats {
  SpanStat pick;
  SpanStat charge;
  SpanStat runnable;
  SpanStat blocked;
  SpanStat membership;  // AddThread + RemoveThread
};

// One recorded hsfq mutation.
struct CallRecord {
  enum class Op : uint8_t {
    kAttach,      // thread, node = leaf, arg = index into CallLog::params
    kDetach,      // thread
    kSetRun,      // thread, time
    kSleep,       // thread, time
    kPick,        // thread picked, node = leaf that picked, time
    kCharge,      // thread, time, arg = used, flag = still_runnable
    kMakeNode,    // node = id made, thread = parent, arg = index into CallLog::made_nodes
    kRemoveNode,  // node
    kMoveNode,    // node, thread = new parent, time
    kSetWeight,   // node, arg = weight
  };
  Op op = Op::kAttach;
  bool flag = false;
  uint32_t node = hsfq::kInvalidNode;  // leaf serial until resolved (leaf calls)
  uint64_t thread = hsfq::kInvalidThread;
  hscommon::Time time = 0;
  int64_t arg = 0;
};

struct MadeNode {
  std::string name;
  hscommon::Weight weight = 1;
  std::string scheduler;  // empty for an interior node
};

struct CallLog {
  std::vector<CallRecord> records;
  std::vector<hsfq::ThreadParams> params;
  std::vector<MadeNode> made_nodes;
};

// Owns the traced run's spans and call log, and hands out the decorators.
class Recorder {
 public:
  Recorder();
  ~Recorder();

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  // Factory wrapping hleaf::MakeLeafScheduler's leaves in TimedLeaf.
  hsim::LeafSchedulerFactory LeafFactory();

  // Wraps a workload in TimedWorkload ("mpeg" or generic bucket by type).
  std::unique_ptr<hsim::Workload> Wrap(std::unique_ptr<hsim::Workload> inner);

  // Tells the recorder which node a leaf scheduler it made now serves. Call after
  // every MakeNode of a leaf (for BuildScenario: after it returns, for every leaf).
  void BindLeaf(hsfq::NodeId node, const hsfq::LeafScheduler* leaf);

  // Structural operations issued by the benchmark itself.
  void LogMakeNode(hsfq::NodeId made, hsfq::NodeId parent, const std::string& name,
                   hscommon::Weight weight, const std::string& scheduler);
  void LogRemoveNode(hsfq::NodeId node);
  void LogMoveNode(hsfq::NodeId node, hsfq::NodeId to, hscommon::Time now);
  void LogSetWeight(hsfq::NodeId node, hscommon::Weight weight);

  // The log with every leaf serial resolved to its node id.
  const CallLog& ResolvedLog();

  const std::map<std::string, LeafClassStats>& leaf_stats() const { return leaf_stats_; }
  const SpanStat& workload_generic() const { return workload_generic_; }
  const SpanStat& workload_mpeg() const { return workload_mpeg_; }

 private:
  friend class TimedLeaf;
  CallLog log_;
  bool resolved_ = false;
  std::vector<hsfq::NodeId> serial_to_node_;
  std::unordered_map<const hsfq::LeafScheduler*, uint32_t> live_serial_;
  std::map<std::string, LeafClassStats> leaf_stats_;
  SpanStat workload_generic_;
  SpanStat workload_mpeg_;
};

struct ReplayResult {
  bool ok = true;
  std::string error;
  SpanStat schedule;  // Schedule / ScheduleLeaf
  SpanStat update;
  SpanStat setrun;
  SpanStat sleep;
  SpanStat struct_ops;  // MakeNode, RemoveNode, MoveNode, SetNodeWeight, Attach, Detach
  // Self ns of each hook kind, leaf children and clock reads taken out.
  double schedule_self_ns = 0;
  double update_self_ns = 0;
  double setrun_self_ns = 0;
  double sleep_self_ns = 0;
  double struct_self_ns = 0;
  double build_s = 0;       // wall time to build the spec's tree and population
  double build_self_s = 0;  // hsfq self time of those build operations
  uint64_t picks_checked = 0;
  uint64_t schedule_count = 0;

  double SelfSeconds() const {
    return (schedule_self_ns + update_self_ns + setrun_self_ns + sleep_self_ns +
            struct_self_ns) *
           1e-9;
  }
};

// Builds a fresh SchedulingStructure from `spec`, making each node with the id the run
// gave it (`nodes`, path -> id, as BuildScenario returned it), and re-issues `log`
// against it. `sharded` selects ScheduleLeaf over Schedule for picks.
ReplayResult ReplayHsfq(const hsim::ScenarioSpec& spec,
                        const std::map<std::string, hsfq::NodeId>& nodes,
                        const std::string& default_scheduler, bool sharded, int ncpus,
                        const CallLog& log);

}  // namespace pbench

#endif  // PERFBENCH_INSTRUMENT_H_
