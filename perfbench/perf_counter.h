// One user-space retired-instruction counter (perf_event_open, this process only).
//
// Instruction counts are the benchmark's noise-immune axis: wall time on a shared
// host drifts, retired instructions of a deterministic simulation barely move. Where
// the kernel refuses the counter (perf_event_paranoid, seccomp, no PMU) available()
// is false and callers report the metric as unavailable, never as 0.

#ifndef PERFBENCH_PERF_COUNTER_H_
#define PERFBENCH_PERF_COUNTER_H_

#include <cstdint>

namespace pbench {

class InstructionCounter {
 public:
  InstructionCounter();
  ~InstructionCounter();

  InstructionCounter(const InstructionCounter&) = delete;
  InstructionCounter& operator=(const InstructionCounter&) = delete;

  bool available() const { return fd_ >= 0; }

  // Zeroes and enables the counter. No-op when unavailable.
  void Start();

  // Disables the counter and returns the instructions retired since Start; 0 when
  // unavailable.
  uint64_t Stop();

 private:
  int fd_ = -1;
};

}  // namespace pbench

#endif  // PERFBENCH_PERF_COUNTER_H_
