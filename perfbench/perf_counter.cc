#include "perf_counter.h"

#include <cstring>

#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>

namespace pbench {

InstructionCounter::InstructionCounter() {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = PERF_TYPE_HARDWARE;
  attr.config = PERF_COUNT_HW_INSTRUCTIONS;
  attr.disabled = 1;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  fd_ = static_cast<int>(syscall(SYS_perf_event_open, &attr, /*pid=*/0, /*cpu=*/-1,
                                 /*group_fd=*/-1, /*flags=*/0));
}

InstructionCounter::~InstructionCounter() {
  if (fd_ >= 0) {
    close(fd_);
  }
}

void InstructionCounter::Start() {
  if (fd_ < 0) {
    return;
  }
  ioctl(fd_, PERF_EVENT_IOC_RESET, 0);
  ioctl(fd_, PERF_EVENT_IOC_ENABLE, 0);
}

uint64_t InstructionCounter::Stop() {
  if (fd_ < 0) {
    return 0;
  }
  ioctl(fd_, PERF_EVENT_IOC_DISABLE, 0);
  uint64_t count = 0;
  if (read(fd_, &count, sizeof(count)) != static_cast<ssize_t>(sizeof(count))) {
    return 0;
  }
  return count;
}

}  // namespace pbench
