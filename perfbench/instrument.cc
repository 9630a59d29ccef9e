#include "instrument.h"

#include <algorithm>
#include <utility>

#include "src/mpeg/player.h"
#include "src/sched/registry.h"

namespace pbench {

double ClockReadNs() {
  static const double cost = [] {
    // Median of a few batches: one batch can land on a preemption.
    std::vector<double> batches;
    constexpr int kReads = 20000;
    for (int b = 0; b < 9; ++b) {
      const int64_t t0 = NowNs();
      int64_t last = t0;
      for (int i = 0; i < kReads; ++i) {
        last = NowNs();
      }
      batches.push_back(static_cast<double>(last - t0) / kReads);
    }
    std::nth_element(batches.begin(), batches.begin() + 4, batches.end());
    return batches[4];
  }();
  return cost;
}

double SpanStat::MeanNs() const {
  if (calls == 0) {
    return 0.0;
  }
  return static_cast<double>(ns) / static_cast<double>(calls) - ClockReadNs();
}

double SpanStat::SelfSeconds() const {
  return (static_cast<double>(ns) - ClockReadNs() * static_cast<double>(calls)) * 1e-9;
}

// The timing decorator over one leaf-class scheduler. With a recorder it also logs
// every call; without one (the replay) it only times.
class TimedLeaf : public hsfq::LeafScheduler {
 public:
  TimedLeaf(std::unique_ptr<hsfq::LeafScheduler> inner, LeafClassStats* stats,
            Recorder* recorder)
      : inner_(std::move(inner)), stats_(stats), recorder_(recorder) {
    if (recorder_ != nullptr) {
      serial_ = static_cast<uint32_t>(recorder_->serial_to_node_.size());
      recorder_->serial_to_node_.push_back(hsfq::kInvalidNode);
      recorder_->live_serial_[this] = serial_;
    }
  }
  ~TimedLeaf() override {
    if (recorder_ != nullptr) {
      recorder_->live_serial_.erase(this);
    }
  }

  hscommon::Status AddThread(hsfq::ThreadId thread,
                             const hsfq::ThreadParams& params) override {
    const int64_t t0 = NowNs();
    hscommon::Status s = inner_->AddThread(thread, params);
    stats_->membership.Add(NowNs() - t0);
    if (s.ok() && recorder_ != nullptr) {
      CallLog& log = recorder_->log_;
      log.records.push_back({.op = CallRecord::Op::kAttach,
                             .node = serial_,
                             .thread = thread,
                             .arg = static_cast<int64_t>(log.params.size())});
      log.params.push_back(params);
    }
    return s;
  }
  hscommon::Status AdmitQuery(const hsfq::ThreadParams& params) const override {
    return inner_->AdmitQuery(params);
  }
  bool HasAdmissionControl() const override { return inner_->HasAdmissionControl(); }
  void RevokeAdmissions() override { inner_->RevokeAdmissions(); }
  double BookedUtilization() const override { return inner_->BookedUtilization(); }
  void RemoveThread(hsfq::ThreadId thread) override {
    const int64_t t0 = NowNs();
    inner_->RemoveThread(thread);
    stats_->membership.Add(NowNs() - t0);
    Log({.op = CallRecord::Op::kDetach, .thread = thread});
  }
  hscommon::Status SetThreadParams(hsfq::ThreadId thread,
                                   const hsfq::ThreadParams& params) override {
    // No benchmark workload changes thread parameters; a replay could not follow.
    unexpected_ = true;
    return inner_->SetThreadParams(thread, params);
  }
  void ThreadRunnable(hsfq::ThreadId thread, hscommon::Time now) override {
    const int64_t t0 = NowNs();
    inner_->ThreadRunnable(thread, now);
    stats_->runnable.Add(NowNs() - t0);
    Log({.op = CallRecord::Op::kSetRun, .thread = thread, .time = now});
  }
  void ThreadBlocked(hsfq::ThreadId thread, hscommon::Time now) override {
    const int64_t t0 = NowNs();
    inner_->ThreadBlocked(thread, now);
    stats_->blocked.Add(NowNs() - t0);
    Log({.op = CallRecord::Op::kSleep, .thread = thread, .time = now});
  }
  hsfq::ThreadId PickNext(hscommon::Time now) override {
    const int64_t t0 = NowNs();
    const hsfq::ThreadId picked = inner_->PickNext(now);
    stats_->pick.Add(NowNs() - t0);
    Log({.op = CallRecord::Op::kPick, .node = serial_, .thread = picked, .time = now});
    return picked;
  }
  void Charge(hsfq::ThreadId thread, hscommon::Work used, hscommon::Time now,
              bool still_runnable) override {
    const int64_t t0 = NowNs();
    inner_->Charge(thread, used, now, still_runnable);
    stats_->charge.Add(NowNs() - t0);
    Log({.op = CallRecord::Op::kCharge,
         .flag = still_runnable,
         .thread = thread,
         .time = now,
         .arg = used});
  }
  bool HasRunnable() const override { return inner_->HasRunnable(); }
  bool HasDispatchable() const override { return inner_->HasDispatchable(); }
  bool IsThreadRunnable(hsfq::ThreadId thread) const override {
    return inner_->IsThreadRunnable(thread);
  }
  hscommon::Work PreferredQuantum(hsfq::ThreadId thread) const override {
    return inner_->PreferredQuantum(thread);
  }
  void OnResourceBlocked(hsfq::ThreadId holder, hsfq::ThreadId waiter) override {
    unexpected_ = true;
    inner_->OnResourceBlocked(holder, waiter);
  }
  void OnResourceReleased(hsfq::ThreadId holder, hsfq::ThreadId waiter) override {
    unexpected_ = true;
    inner_->OnResourceReleased(holder, waiter);
  }
  std::string Name() const override { return inner_->Name(); }

  // True once a call the replay cannot reproduce reached this leaf.
  static bool unexpected() { return unexpected_; }

 private:
  void Log(const CallRecord& r) {
    if (recorder_ != nullptr) {
      recorder_->log_.records.push_back(r);
    }
  }

  std::unique_ptr<hsfq::LeafScheduler> inner_;
  LeafClassStats* stats_;
  Recorder* recorder_;
  uint32_t serial_ = 0;
  static inline bool unexpected_ = false;
};

namespace {

class TimedWorkload : public hsim::Workload {
 public:
  TimedWorkload(std::unique_ptr<hsim::Workload> inner, SpanStat* stat)
      : inner_(std::move(inner)), stat_(stat) {}

  hsim::WorkloadAction NextAction(hscommon::Time now) override {
    const int64_t t0 = NowNs();
    const hsim::WorkloadAction a = inner_->NextAction(now);
    stat_->Add(NowNs() - t0);
    return a;
  }

 private:
  std::unique_ptr<hsim::Workload> inner_;
  SpanStat* stat_;
};

}  // namespace

Recorder::Recorder() = default;
Recorder::~Recorder() = default;

hsim::LeafSchedulerFactory Recorder::LeafFactory() {
  return [this](const std::string& name)
             -> hscommon::StatusOr<std::unique_ptr<hsfq::LeafScheduler>> {
    auto made = hleaf::MakeLeafScheduler(name);
    if (!made.ok()) {
      return made.status();
    }
    return std::unique_ptr<hsfq::LeafScheduler>(
        std::make_unique<TimedLeaf>(std::move(*made), &leaf_stats_[name], this));
  };
}

std::unique_ptr<hsim::Workload> Recorder::Wrap(std::unique_ptr<hsim::Workload> inner) {
  SpanStat* stat = dynamic_cast<hmpeg::MpegPlayerWorkload*>(inner.get()) != nullptr
                       ? &workload_mpeg_
                       : &workload_generic_;
  return std::make_unique<TimedWorkload>(std::move(inner), stat);
}

void Recorder::BindLeaf(hsfq::NodeId node, const hsfq::LeafScheduler* leaf) {
  const auto it = live_serial_.find(leaf);
  if (it != live_serial_.end()) {
    serial_to_node_[it->second] = node;
  }
}

void Recorder::LogMakeNode(hsfq::NodeId made, hsfq::NodeId parent, const std::string& name,
                           hscommon::Weight weight, const std::string& scheduler) {
  log_.records.push_back({.op = CallRecord::Op::kMakeNode,
                          .node = made,
                          .thread = parent,
                          .arg = static_cast<int64_t>(log_.made_nodes.size())});
  log_.made_nodes.push_back({name, weight, scheduler});
}

void Recorder::LogRemoveNode(hsfq::NodeId node) {
  log_.records.push_back({.op = CallRecord::Op::kRemoveNode, .node = node});
}

void Recorder::LogMoveNode(hsfq::NodeId node, hsfq::NodeId to, hscommon::Time now) {
  log_.records.push_back(
      {.op = CallRecord::Op::kMoveNode, .node = node, .thread = to, .time = now});
}

void Recorder::LogSetWeight(hsfq::NodeId node, hscommon::Weight weight) {
  log_.records.push_back({.op = CallRecord::Op::kSetWeight,
                          .node = node,
                          .arg = static_cast<int64_t>(weight)});
}

const CallLog& Recorder::ResolvedLog() {
  if (!resolved_) {
    resolved_ = true;
    for (CallRecord& r : log_.records) {
      if (r.op == CallRecord::Op::kAttach || r.op == CallRecord::Op::kPick) {
        r.node = serial_to_node_[r.node];
      }
    }
  }
  return log_;
}

ReplayResult ReplayHsfq(const hsim::ScenarioSpec& spec,
                        const std::map<std::string, hsfq::NodeId>& nodes,
                        const std::string& default_scheduler, bool sharded, int ncpus,
                        const CallLog& log) {
  ReplayResult out;
  const auto fail = [&out](std::string why) {
    if (out.ok) {
      out.ok = false;
      out.error = std::move(why);
    }
  };
  if (TimedLeaf::unexpected()) {
    fail("a leaf received a call the replay does not model");
    return out;
  }
  const double clock = ClockReadNs();
  LeafClassStats leaf;  // every replay leaf's spans: the children of the hook spans
  const auto leaf_ns = [&leaf] {
    return leaf.pick.ns + leaf.charge.ns + leaf.runnable.ns + leaf.blocked.ns +
           leaf.membership.ns;
  };
  const auto leaf_calls = [&leaf] {
    return leaf.pick.calls + leaf.charge.calls + leaf.runnable.calls + leaf.blocked.calls +
           leaf.membership.calls;
  };
  const auto make_leaf = [&](const std::string& name) -> std::unique_ptr<hsfq::LeafScheduler> {
    auto made = hleaf::MakeLeafScheduler(name);
    if (!made.ok()) {
      fail("replay: " + made.status().ToString());
      return nullptr;
    }
    return std::make_unique<TimedLeaf>(std::move(*made), &leaf, nullptr);
  };

  hsfq::SchedulingStructure tree;
  // begin() and end() bracket one public call; end() adds the call's self ns (its
  // clock read and its leaf children taken out) to `self_total`.
  int64_t lns0 = 0;
  uint64_t lcalls0 = 0;
  int64_t t0 = 0;
  const auto begin = [&] {
    lns0 = leaf_ns();
    lcalls0 = leaf_calls();
    t0 = NowNs();
  };
  const auto end = [&](SpanStat* span, double* self_total) {
    const int64_t d = NowNs() - t0;
    span->Add(d);
    // A child span costs its parent its measured time plus one more clock read.
    const double children = static_cast<double>(leaf_ns() - lns0) +
                            clock * static_cast<double>(leaf_calls() - lcalls0);
    *self_total += static_cast<double>(d) - clock - children;
  };

  // The spec's tree, made again in the order the run made it (ascending node id). The
  // fresh tree hands out ids in the same order, so each replayed id must equal the
  // recorded one.
  std::map<std::string, const hsim::ScenarioNodeSpec*> spec_of;
  for (const hsim::ScenarioNodeSpec& n : spec.nodes) {
    spec_of[n.path] = &n;
  }
  std::vector<std::pair<hsfq::NodeId, const std::string*>> order;
  for (const auto& [path, id] : nodes) {
    if (id != hsfq::kRootNode) {
      order.emplace_back(id, &path);
    }
  }
  std::sort(order.begin(), order.end());
  const int64_t build_t0 = NowNs();
  for (const auto& [recorded, path] : order) {
    const hsim::ScenarioNodeSpec& n = *spec_of.at(*path);
    const size_t slash = path->rfind('/');
    const hsfq::NodeId parent = nodes.at(slash == 0 ? "/" : path->substr(0, slash));
    std::unique_ptr<hsfq::LeafScheduler> leaf_sched;
    if (n.is_leaf) {
      leaf_sched = make_leaf(n.scheduler.empty() ? default_scheduler : n.scheduler);
      if (leaf_sched == nullptr) {
        return out;
      }
    }
    begin();
    auto id = tree.MakeNode(path->substr(slash + 1), parent, n.weight, std::move(leaf_sched));
    end(&out.struct_ops, &out.struct_self_ns);
    if (!id.ok() || *id != recorded) {
      fail("replay MakeNode " + *path + " did not reproduce node " + std::to_string(recorded));
      return out;
    }
  }
  bool building = true;
  int64_t build_end = NowNs();

  // CPU each in-service thread was dispatched on: the lowest free one, as the
  // simulator fills idle CPUs lowest id first. Update only needs consistency.
  std::vector<hsfq::ThreadId> cpu_thread(static_cast<size_t>(std::max(1, ncpus)),
                                         hsfq::kInvalidThread);
  bool dummy = false;
  for (const CallRecord& r : log.records) {
    if (!out.ok) {
      break;
    }
    if (building && r.op != CallRecord::Op::kAttach) {
      building = false;
      build_end = NowNs();
      out.build_self_s = out.struct_self_ns * 1e-9;
    }
    switch (r.op) {
      case CallRecord::Op::kAttach: {
        begin();
        const hscommon::Status s =
            tree.AttachThread(r.thread, r.node, log.params[static_cast<size_t>(r.arg)]);
        end(&out.struct_ops, &out.struct_self_ns);
        if (!s.ok()) {
          fail("replay AttachThread: " + s.ToString());
        }
        break;
      }
      case CallRecord::Op::kDetach: {
        begin();
        const hscommon::Status s = tree.DetachThread(r.thread);
        end(&out.struct_ops, &out.struct_self_ns);
        if (!s.ok()) {
          fail("replay DetachThread: " + s.ToString());
        }
        break;
      }
      case CallRecord::Op::kSetRun:
        begin();
        tree.SetRun(r.thread, r.time);
        end(&out.setrun, &out.setrun_self_ns);
        break;
      case CallRecord::Op::kSleep:
        begin();
        tree.Sleep(r.thread, r.time);
        end(&out.sleep, &out.sleep_self_ns);
        break;
      case CallRecord::Op::kPick: {
        const auto free_cpu =
            std::find(cpu_thread.begin(), cpu_thread.end(), hsfq::kInvalidThread);
        if (free_cpu == cpu_thread.end()) {
          fail("replay: more concurrent dispatches than CPUs");
          break;
        }
        const int cpu = static_cast<int>(free_cpu - cpu_thread.begin());
        begin();
        const hsfq::ThreadId got = sharded ? tree.ScheduleLeaf(r.node, r.time, cpu, &dummy)
                                           : tree.Schedule(r.time, cpu);
        end(&out.schedule, &out.schedule_self_ns);
        ++out.picks_checked;
        const auto leaf_of = tree.LeafOf(got);
        if (got != r.thread || !leaf_of.ok() || *leaf_of != r.node) {
          fail("replayed pick #" + std::to_string(out.picks_checked) + " at t=" +
               std::to_string(r.time) + " chose thread " + std::to_string(got) +
               ", the recording chose " + std::to_string(r.thread));
          break;
        }
        *free_cpu = got;
        break;
      }
      case CallRecord::Op::kCharge: {
        const auto on = std::find(cpu_thread.begin(), cpu_thread.end(), r.thread);
        if (on == cpu_thread.end()) {
          fail("replay: charge of thread " + std::to_string(r.thread) + " not in service");
          break;
        }
        begin();
        tree.Update(r.thread, r.arg, r.time, r.flag, static_cast<int>(on - cpu_thread.begin()));
        end(&out.update, &out.update_self_ns);
        *on = hsfq::kInvalidThread;
        break;
      }
      case CallRecord::Op::kMakeNode: {
        const MadeNode& m = log.made_nodes[static_cast<size_t>(r.arg)];
        std::unique_ptr<hsfq::LeafScheduler> leaf_sched;
        if (!m.scheduler.empty()) {
          leaf_sched = make_leaf(m.scheduler);
          if (leaf_sched == nullptr) {
            break;
          }
        }
        begin();
        auto id = tree.MakeNode(m.name, static_cast<hsfq::NodeId>(r.thread), m.weight,
                                std::move(leaf_sched));
        end(&out.struct_ops, &out.struct_self_ns);
        if (!id.ok() || *id != r.node) {
          fail("replay MakeNode " + m.name + " did not reproduce node " +
               std::to_string(r.node));
        }
        break;
      }
      case CallRecord::Op::kRemoveNode: {
        begin();
        const hscommon::Status s = tree.RemoveNode(r.node);
        end(&out.struct_ops, &out.struct_self_ns);
        if (!s.ok()) {
          fail("replay RemoveNode: " + s.ToString());
        }
        break;
      }
      case CallRecord::Op::kMoveNode: {
        begin();
        const hscommon::Status s =
            tree.MoveNode(r.node, static_cast<hsfq::NodeId>(r.thread), r.time);
        end(&out.struct_ops, &out.struct_self_ns);
        if (!s.ok()) {
          fail("replay MoveNode: " + s.ToString());
        }
        break;
      }
      case CallRecord::Op::kSetWeight: {
        begin();
        const hscommon::Status s =
            tree.SetNodeWeight(r.node, static_cast<hscommon::Weight>(r.arg));
        end(&out.struct_ops, &out.struct_self_ns);
        if (!s.ok()) {
          fail("replay SetNodeWeight: " + s.ToString());
        }
        break;
      }
    }
  }
  if (building) {
    build_end = NowNs();
    out.build_self_s = out.struct_self_ns * 1e-9;
  }
  out.build_s = static_cast<double>(build_end - build_t0) * 1e-9;
  out.schedule_count = tree.schedule_count();
  if (out.ok) {
    if (const hscommon::Status s = tree.CheckInvariants(); !s.ok()) {
      fail("replayed tree invariants: " + s.ToString());
    }
  }
  return out;
}

}  // namespace pbench
