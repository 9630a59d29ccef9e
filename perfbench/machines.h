// The benchmark's three workloads, each built through the public construction API
// (hsim::BuildScenario, System::CreateThread, System::At). See README.md for why each
// one exists and which layers it stresses.

#ifndef PERFBENCH_MACHINES_H_
#define PERFBENCH_MACHINES_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "instrument.h"
#include "src/common/prng.h"
#include "src/sim/scenario.h"
#include "src/sim/system.h"

namespace pbench {

enum class WorkloadKind { kPaperMm1, kTenantsSpread, kTenantsStormChurn };

// Parses a --workload name; false when unknown.
bool ParseWorkload(const std::string& name, WorkloadKind* kind);

struct AdminStream;

// Leaf class of every spec leaf that names none (all tenant sessions).
inline constexpr char kDefaultScheduler[] = "sfq";

// One built machine, ready to RunUntil(horizon).
struct Machine {
  Machine();
  ~Machine();

  int ncpus = 1;
  bool sharded = false;
  hscommon::Time horizon = 0;
  hsim::ScenarioSpec spec;
  // The spec's nodes as BuildScenario made them: path -> node id.
  std::map<std::string, hsfq::NodeId> nodes;
  // Makes every leaf of the machine (the timing decorator's factory when traced).
  hsim::LeafSchedulerFactory leaf_factory;
  std::unique_ptr<hsim::System> sys;

  // Operations issued through the public API (tree build, thread creation, admin
  // stream) and how many of them failed.
  uint64_t ops_attempted = 0;
  uint64_t ops_failed = 0;

  // Offered load per CPU: mean burst / (burst + sleep) x threads / CPUs (tenant
  // workloads; 0 for paper_mm1, whose hogs are always backlogged).
  double offered_load = 0;

  // tree().schedule_count() at horizon / 2 (an in-simulation sampler).
  uint64_t dispatches_at_half = 0;

  // paper_mm1: cumulative service of the two always-backlogged SFQ siblings, sampled
  // every fair-gap window, and their weights and max quantum.
  hsfq::NodeId sfq_a = hsfq::kInvalidNode;
  hsfq::NodeId sfq_b = hsfq::kInvalidNode;
  hscommon::Weight weight_a = 0;
  hscommon::Weight weight_b = 0;
  hscommon::Work lmax = 0;
  std::vector<std::pair<hscommon::Work, hscommon::Work>> fair_samples;

  std::unique_ptr<AdminStream> admin;
  std::shared_ptr<const void> keepalive;  // data workloads point into (the VBR trace)
};

// Builds `kind` from `seed`. With a recorder the leaves and workloads are the timing
// decorators and every structural operation is logged. Returns nullptr and sets
// `error` when the build fails.
std::unique_ptr<Machine> BuildMachine(WorkloadKind kind, uint64_t seed, Recorder* recorder,
                                      std::string* error);

// Largest per-window normalized service gap between the paper_mm1 SFQ siblings over
// the eq. 5 bound (hfair::SfqFairnessBound); 0 when the workload has no such pair.
double FairGapRatio(const Machine& m);

}  // namespace pbench

#endif  // PERFBENCH_MACHINES_H_
