#include "machines.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "src/fair/bounds.h"
#include "src/mpeg/player.h"
#include "src/mpeg/trace.h"
#include "src/sched/registry.h"
#include "src/sim/multi_tenant.h"

namespace pbench {

using hscommon::kMicrosecond;
using hscommon::kMillisecond;
using hscommon::kSecond;
using hscommon::Time;
using hscommon::Work;

namespace {

// Simulated horizons: long enough that every workload runs in steady state for
// most of the run and reports at least 6x10^4 wakeup latency samples. On
// tenants_spread the start window still weighs on the wakeup p99 at 8 s: its spread
// over ten seeds was 4-8% there, and 3% at 16 s.
constexpr Time kMm1Horizon = 2000 * kSecond;
constexpr Time kSpreadHorizon = 16 * kSecond;
constexpr Time kStormHorizon = 2 * kSecond;

constexpr Time kFairWindow = 500 * kMillisecond;

// Tenant thread behaviour: short bursts and long sleeps, so 10^4 threads offer a
// load below the 4 CPUs (see Machine::offered_load). The values are assumed; only the
// offered load below the CPU count is a requirement. Starts are staggered over one
// mean cycle so the run begins near steady state instead of in a wakeup storm.
constexpr Work kMinBurst = 50 * kMicrosecond;
constexpr Work kMaxBurst = 150 * kMicrosecond;
constexpr Time kMinSleep = 200 * kMillisecond;
constexpr Time kMaxSleep = 400 * kMillisecond;
constexpr Time kStartWindow = 300 * kMillisecond;
constexpr Time kStormPeriod = 5 * kMillisecond;

// Shape of tenants_storm_churn: 1000-sibling users under each tenant.
constexpr size_t kStormTenants = 10;
constexpr size_t kStormUsers = 1000;

// Admin stream of tenants_storm_churn. No source gives an admin-op rate for a tenant
// machine, so the rate is an assumption, chosen low enough that the subtree resyncs the
// writes cause take about a fifth of the run and the storm and dispatch paths the rest
// (every 2 ms they took 85-88% of it). See README.md, "Admin rate".
constexpr Time kAdminPeriod = 20 * kMillisecond;
constexpr size_t kAdminLiveSessions = 16;
constexpr size_t kRoamingUsers = kStormTenants;  // one per tenant
constexpr size_t kRoamingSessions = 10;

uint64_t StreamSeed(uint64_t seed, uint64_t index) { return seed * 1000003 + index; }

std::unique_ptr<hsim::Workload> TenantThread(uint64_t seed, Time storm) {
  return std::make_unique<hsim::BurstyWorkload>(seed, kMinBurst, kMaxBurst, kMinSleep,
                                                kMaxSleep, storm);
}

double TenantLoadPerCpu(size_t threads, int ncpus, Time storm) {
  const double burst = static_cast<double>(kMinBurst + kMaxBurst) / 2.0;
  // Storm alignment delays each wake to the next boundary: half a period on average.
  const double sleep = static_cast<double>(kMinSleep + kMaxSleep) / 2.0 +
                       static_cast<double>(storm) / 2.0;
  return burst / (burst + sleep) * static_cast<double>(threads) / ncpus;
}

hsim::ScenarioThreadSpec Thread(std::string name, std::string leaf,
                                std::function<std::unique_ptr<hsim::Workload>()> make,
                                hsfq::ThreadParams params = {}) {
  hsim::ScenarioThreadSpec t;
  t.name = std::move(name);
  t.leaf_path = std::move(leaf);
  t.params = params;
  t.make_workload = std::move(make);
  return t;
}

// paper_mm1: the Fig 6/8 tree (SFQ-1 w=2, SFQ-2 w=6, SVR4) with the Fig 9/10 classes
// added (an EDF leaf of periodic audio/video jobs, an SFQ leaf of paced MPEG players),
// on one CPU with Poisson interrupts making it an FC server.
void SpecPaperMm1(uint64_t seed, Machine* m) {
  m->ncpus = 1;
  m->horizon = kMm1Horizon;
  hsim::ScenarioSpec& spec = m->spec;
  spec.nodes = {
      {"/sfq1", 2, true, "sfq"},  {"/sfq2", 6, true, "sfq"}, {"/svr4", 1, true, "ts_svr4"},
      {"/rt", 6, true, "edf"},    {"/mpeg", 4, true, "sfq"},
  };
  m->weight_a = 2;
  m->weight_b = 6;
  // Each thread starts within the first millisecond at a seeded offset. Periodic
  // releases keep their relative phase for the whole run, and a dispatch at one
  // thread's release ends another's wait: with one shared start instant, wakeup
  // latencies pile up on exact multiples of the periods, the same values for every
  // seed. Offsets this small keep the schedule's shape.
  hscommon::Prng phase(StreamSeed(seed, 70));
  const auto start_offset = [&phase] {
    return static_cast<Time>(phase.UniformU64(static_cast<uint64_t>(kMillisecond)));
  };
  for (int i = 0; i < 2; ++i) {
    spec.threads.push_back(Thread("dhry1-" + std::to_string(i), "/sfq1", [] {
      return std::make_unique<hsim::CpuBoundWorkload>();
    }));
    spec.threads.push_back(Thread("dhry2-" + std::to_string(i), "/sfq2", [] {
      return std::make_unique<hsim::CpuBoundWorkload>();
    }));
  }
  for (uint64_t i = 0; i < 5; ++i) {
    const uint64_t s = StreamSeed(seed, 40 + i);
    spec.threads.push_back(Thread(
        "sys" + std::to_string(i), "/svr4",
        [s] {
          return std::make_unique<hsim::BurstyWorkload>(s, 5 * kMillisecond,
                                                        150 * kMillisecond,
                                                        20 * kMillisecond,
                                                        400 * kMillisecond);
        },
        {.priority = 29}));
    spec.threads.back().start_time = start_offset();
  }
  struct RtJob {
    const char* name;
    Time period;
    Work wcet;
    double jitter;
  };
  const RtJob jobs[] = {{"audio-capture", 20 * kMillisecond, 1 * kMillisecond, 0.1},
                        {"audio-render", 20 * kMillisecond, 1 * kMillisecond, 0.1},
                        {"video", 33 * kMillisecond, 6 * kMillisecond, 0.25}};
  uint64_t index = 60;
  for (const RtJob& j : jobs) {
    const uint64_t s = StreamSeed(seed, index++);
    spec.threads.push_back(Thread(
        j.name, "/rt",
        [j, s] {
          return std::make_unique<hsim::RtPeriodicWorkload>(j.period, j.wcet, 0, j.jitter, s);
        },
        {.period = j.period, .computation = j.wcet, .relative_deadline = j.period}));
    spec.threads.back().start_time = start_offset();
  }
  hmpeg::VbrTraceConfig tc;
  tc.mean_cost_i = 3 * kMillisecond;
  tc.mean_cost_p = 2 * kMillisecond;
  tc.mean_cost_b = 1200 * kMicrosecond;
  tc.seed = 1234;
  auto trace = std::make_shared<const hmpeg::VbrTrace>(hmpeg::VbrTrace::Generate(tc));
  m->keepalive = trace;
  for (int i = 0; i < 2; ++i) {
    hmpeg::MpegPlayerWorkload::Config pc;
    pc.mode = hmpeg::MpegPlayerWorkload::Mode::kPaced;
    pc.skip_when_late_by = 100 * kMillisecond;
    pc.startup_latency = 50 * kMillisecond;
    const hmpeg::VbrTrace* raw = trace.get();
    spec.threads.push_back(Thread("mpeg" + std::to_string(i), "/mpeg", [raw, pc] {
      return std::make_unique<hmpeg::MpegPlayerWorkload>(raw, pc);
    }));
    spec.threads.back().start_time = start_offset();
  }
}

void SpecTenants(uint64_t seed, bool storm, Machine* m) {
  m->ncpus = 4;
  m->sharded = storm;
  m->horizon = storm ? kStormHorizon : kSpreadHorizon;
  hsim::MultiTenantSpec mt;
  mt.tenants = storm ? kStormTenants : 100;
  mt.users_per_tenant = storm ? kStormUsers : 100;
  mt.sessions_per_user = 10;
  mt.active_per_user = 1;
  mt.seed = seed;
  mt.min_burst = kMinBurst;
  mt.max_burst = kMaxBurst;
  mt.min_sleep = kMinSleep;
  mt.max_sleep = kMaxSleep;
  mt.start_window = kStartWindow;
  mt.storm_period = storm ? kStormPeriod : 0;
  mt.horizon = m->horizon;
  m->spec = hsim::MakeMultiTenantScenario(mt);
  if (!storm) {
    return;
  }
  // First wakes land on storm boundaries too, so the run starts in the storm shape
  // instead of with a spread-out start window.
  for (hsim::ScenarioThreadSpec& t : m->spec.threads) {
    t.start_time = (t.start_time / kStormPeriod + 1) * kStormPeriod;
  }
  // Roaming users: one per tenant, uniquely named so the admin stream can move them
  // to any other tenant without a sibling-name clash.
  hscommon::Prng prng(StreamSeed(seed, 700000));
  uint64_t index = 500000;
  for (size_t r = 0; r < kRoamingUsers; ++r) {
    const std::string user = "/t" + std::to_string(r) + "/r" + std::to_string(r);
    m->spec.nodes.push_back({user, 2, false, ""});
    for (size_t s = 0; s < kRoamingSessions; ++s) {
      const std::string leaf = user + "/s" + std::to_string(s);
      m->spec.nodes.push_back({leaf, 1, true, ""});
      const uint64_t ts = StreamSeed(seed, index++);
      hsim::ScenarioThreadSpec t = Thread("r" + std::to_string(r) + ".s" + std::to_string(s),
                                          leaf, [ts] { return TenantThread(ts, kStormPeriod); });
      t.start_time =
          (static_cast<Time>(prng.UniformU64(static_cast<uint64_t>(kStartWindow))) /
               kStormPeriod +
           1) *
          kStormPeriod;
      m->spec.threads.push_back(std::move(t));
    }
  }
}

}  // namespace

// tenants_storm_churn's fixed-rate admin stream: tree writes beside dispatch reads.
struct AdminStream {
  AdminStream(uint64_t op_seed, uint64_t first_thread_seed)
      : prng(op_seed), thread_seed(first_thread_seed) {}

  void Tick(Machine& m, Recorder* rec) {
    hsim::System& sys = *m.sys;
    hsfq::SchedulingStructure& tree = sys.tree();
    const uint64_t k = ticks++;
    const auto count = [&m](bool ok) {
      ++m.ops_attempted;
      if (!ok) {
        ++m.ops_failed;
      }
      return ok;
    };

    // A new session leaf under a random user, with one thread.
    const hsfq::NodeId user = users[prng.UniformU64(users.size())];
    const std::string name = "a" + std::to_string(k);
    auto made = m.leaf_factory(kDefaultScheduler);
    if (count(made.ok())) {
      const hsfq::LeafScheduler* raw = made->get();
      auto leaf = tree.MakeNode(name, user, 1, std::move(*made));
      if (count(leaf.ok())) {
        if (rec != nullptr) {
          rec->LogMakeNode(*leaf, user, name, 1, kDefaultScheduler);
          rec->BindLeaf(*leaf, raw);
        }
        std::unique_ptr<hsim::Workload> wl = TenantThread(thread_seed + k, kStormPeriod);
        if (rec != nullptr) {
          wl = rec->Wrap(std::move(wl));
        }
        auto t = sys.CreateThread(name, *leaf, {}, std::move(wl), sys.now());
        if (count(t.ok())) {
          live.emplace_back(*leaf, *t);
        }
      }
    }

    // Retire the oldest admin session: kill its thread, detach it, remove the leaf.
    if (live.size() > kAdminLiveSessions) {
      const auto [leaf, thread] = live.front();
      live.pop_front();
      count(sys.Kill(thread).ok());
      count(tree.DetachThread(thread).ok());
      if (count(tree.RemoveNode(leaf).ok()) && rec != nullptr) {
        rec->LogRemoveNode(leaf);
      }
    }

    if (k % 5 == 0) {
      const size_t r = (k / 5) % roaming.size();
      const size_t to = (roaming_at[r] + 1 + prng.UniformU64(tenants.size() - 1)) %
                        tenants.size();
      if (count(tree.MoveNode(roaming[r], tenants[to], sys.now()).ok())) {
        roaming_at[r] = to;
        if (rec != nullptr) {
          rec->LogMoveNode(roaming[r], tenants[to], sys.now());
        }
      }
    } else if (k % 5 == 2) {
      const hsfq::NodeId tenant = tenants[prng.UniformU64(tenants.size())];
      const hscommon::Weight w = 1 + prng.UniformU64(4);
      if (count(tree.SetNodeWeight(tenant, w).ok()) && rec != nullptr) {
        rec->LogSetWeight(tenant, w);
      }
    }
  }

  hscommon::Prng prng;
  uint64_t thread_seed;
  uint64_t ticks = 0;
  std::vector<hsfq::NodeId> users;
  std::vector<hsfq::NodeId> tenants;
  std::vector<hsfq::NodeId> roaming;
  std::vector<size_t> roaming_at;
  std::deque<std::pair<hsfq::NodeId, hsfq::ThreadId>> live;
};

Machine::Machine() = default;
Machine::~Machine() = default;

bool ParseWorkload(const std::string& name, WorkloadKind* kind) {
  if (name == "paper_mm1") {
    *kind = WorkloadKind::kPaperMm1;
  } else if (name == "tenants_spread") {
    *kind = WorkloadKind::kTenantsSpread;
  } else if (name == "tenants_storm_churn") {
    *kind = WorkloadKind::kTenantsStormChurn;
  } else {
    return false;
  }
  return true;
}

std::unique_ptr<Machine> BuildMachine(WorkloadKind kind, uint64_t seed, Recorder* recorder,
                                      std::string* error) {
  auto m = std::make_unique<Machine>();
  const bool storm = kind == WorkloadKind::kTenantsStormChurn;
  if (kind == WorkloadKind::kPaperMm1) {
    SpecPaperMm1(seed, m.get());
  } else {
    SpecTenants(seed, storm, m.get());
  }
  if (recorder != nullptr) {
    for (hsim::ScenarioThreadSpec& t : m->spec.threads) {
      t.make_workload = [recorder, make = std::move(t.make_workload)] {
        return recorder->Wrap(make());
      };
    }
  }

  hsim::System::Config config;
  config.ncpus = m->ncpus;
  config.sharded = m->sharded;
  m->sys = std::make_unique<hsim::System>(config);
  hsim::System& sys = *m->sys;
  m->leaf_factory = recorder != nullptr ? recorder->LeafFactory()
                                        : hsim::LeafSchedulerFactory(hleaf::MakeLeafScheduler);
  auto binding = hsim::BuildScenario(m->spec, kDefaultScheduler, m->leaf_factory, sys);
  m->ops_attempted += m->spec.nodes.size() + m->spec.threads.size();
  if (!binding.ok()) {
    ++m->ops_failed;
    *error = "BuildScenario: " + binding.status().ToString();
    return nullptr;
  }
  if (recorder != nullptr) {
    for (const auto& [path, id] : binding->nodes) {
      if (sys.tree().IsLeaf(id)) {
        recorder->BindLeaf(id, sys.tree().LeafSchedulerOf(id));
      }
    }
  }

  Machine* raw = m.get();
  if (kind == WorkloadKind::kPaperMm1) {
    // Poisson interrupts: the FC server's fluctuation (5% of the CPU on average).
    sys.AddInterruptSource({.arrival = hsim::InterruptSourceConfig::Arrival::kPoisson,
                            .interval = 2 * kMillisecond,
                            .service = 100 * kMicrosecond,
                            .exponential_service = true,
                            .seed = StreamSeed(seed, 90)});
    m->sfq_a = binding->nodes.at("/sfq1");
    m->sfq_b = binding->nodes.at("/sfq2");
    m->lmax = hsim::System::Config{}.default_quantum;
    sys.Every(kFairWindow, kFairWindow, [raw](hsim::System& s) {
      raw->fair_samples.emplace_back(*s.tree().ServiceOf(raw->sfq_a),
                                     *s.tree().ServiceOf(raw->sfq_b));
    });
    raw->fair_samples.emplace_back(0, 0);
  } else {
    // One periodic interrupt source on CPU 0 (10% of that CPU).
    sys.AddInterruptSource({.arrival = hsim::InterruptSourceConfig::Arrival::kPeriodic,
                            .interval = 10 * kMillisecond,
                            .service = 1 * kMillisecond,
                            .seed = StreamSeed(seed, 90),
                            .cpu = 0});
  }
  if (storm) {
    m->admin =
        std::make_unique<AdminStream>(StreamSeed(seed, 800000), StreamSeed(seed, 900000));
    AdminStream& a = *m->admin;
    for (size_t t = 0; t < kStormTenants; ++t) {
      const std::string tenant = "/t" + std::to_string(t);
      a.tenants.push_back(binding->nodes.at(tenant));
      for (size_t u = 0; u < kStormUsers; ++u) {
        a.users.push_back(binding->nodes.at(tenant + "/u" + std::to_string(u)));
      }
    }
    for (size_t r = 0; r < kRoamingUsers; ++r) {
      a.roaming.push_back(
          binding->nodes.at("/t" + std::to_string(r) + "/r" + std::to_string(r)));
      a.roaming_at.push_back(r);
    }
    sys.Every(kMillisecond, kAdminPeriod,
              [raw, recorder](hsim::System&) { raw->admin->Tick(*raw, recorder); });
  }
  if (kind != WorkloadKind::kPaperMm1) {
    const size_t threads = m->spec.threads.size() + (storm ? kAdminLiveSessions : 0);
    m->offered_load = TenantLoadPerCpu(threads, m->ncpus, storm ? kStormPeriod : 0);
  }
  sys.At(m->horizon / 2,
         [raw](hsim::System& s) { raw->dispatches_at_half = s.tree().schedule_count(); });
  m->nodes = std::move(binding->nodes);
  return m;
}

double FairGapRatio(const Machine& m) {
  if (m.fair_samples.size() < 2) {
    return 0.0;
  }
  double worst = 0.0;
  for (size_t i = 1; i < m.fair_samples.size(); ++i) {
    const double da =
        static_cast<double>(m.fair_samples[i].first - m.fair_samples[i - 1].first);
    const double db =
        static_cast<double>(m.fair_samples[i].second - m.fair_samples[i - 1].second);
    worst = std::max(worst, std::abs(da / static_cast<double>(m.weight_a) -
                                     db / static_cast<double>(m.weight_b)));
  }
  return worst / hfair::SfqFairnessBound(m.lmax, m.weight_a, m.lmax, m.weight_b);
}

}  // namespace pbench
