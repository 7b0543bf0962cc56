// Program-counter sampler, loaded into an unmodified binary with LD_PRELOAD.
//
//   SAMPLER_OUT=/tmp/p LD_PRELOAD=libgdisim_sampler.so gdisim_run ...
//
// On load it arms a POSIX timer on CLOCK_MONOTONIC that signals the loading
// (main) thread every 50 microseconds. The
// handler records the interrupted program counter and the return address
// one frame-pointer hop up (read only when the frame pointer lies inside
// the thread's stack; 0 otherwise). At exit the samples go to $SAMPLER_OUT
// as native-endian (pc, caller) uint64 pairs and /proc/self/maps to
// $SAMPLER_OUT.maps, which tools/profile/profile.py symbolizes. Without
// SAMPLER_OUT the library does nothing. x86-64 Linux only.
#include <pthread.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

// glibc before 2.37 spells the Linux thread-id target only through the union.
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

namespace {

constexpr long kPeriodNs = 50'000;
constexpr std::size_t kMaxSamples = std::size_t{1} << 23;  // 128 MiB of address space

struct Sample {
  std::uint64_t pc;
  std::uint64_t caller;
};

Sample* g_samples = nullptr;
volatile std::size_t g_count = 0;
std::size_t g_dropped = 0;
std::uintptr_t g_stack_lo = 0;
std::uintptr_t g_stack_hi = 0;
timer_t g_timer;
bool g_armed = false;

void on_sample(int, siginfo_t*, void* uc_void) {
  const auto* uc = static_cast<const ucontext_t*>(uc_void);
  const std::size_t n = g_count;
  if (n >= kMaxSamples) {
    ++g_dropped;
    return;
  }
  const auto pc = static_cast<std::uint64_t>(uc->uc_mcontext.gregs[REG_RIP]);
  const auto fp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
  std::uint64_t caller = 0;
  // [fp] holds the saved frame pointer and [fp + 8] the return address; a
  // function compiled without frame pointers may have left any value in rbp.
  if (fp >= g_stack_lo && fp + 16 <= g_stack_hi && fp % 8 == 0) {
    caller = *reinterpret_cast<const std::uint64_t*>(fp + 8);
  }
  g_samples[n] = Sample{pc, caller};
  g_count = n + 1;
}

void copy_file(const char* from, const std::string& to) {
  FILE* in = std::fopen(from, "r");
  FILE* out = std::fopen(to.c_str(), "w");
  if (in != nullptr && out != nullptr) {
    char buf[4096];
    std::size_t k;
    while ((k = std::fread(buf, 1, sizeof(buf), in)) > 0) std::fwrite(buf, 1, k, out);
  }
  if (in != nullptr) std::fclose(in);
  if (out != nullptr) std::fclose(out);
}

__attribute__((constructor)) void sampler_start() {
  const char* out = std::getenv("SAMPLER_OUT");
  if (out == nullptr || *out == '\0') return;

  pthread_attr_t attr;
  void* stack_addr = nullptr;
  std::size_t stack_size = 0;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    pthread_attr_getstack(&attr, &stack_addr, &stack_size);
    pthread_attr_destroy(&attr);
  }
  g_stack_lo = reinterpret_cast<std::uintptr_t>(stack_addr);
  g_stack_hi = g_stack_lo + stack_size;

  void* mem = mmap(nullptr, kMaxSamples * sizeof(Sample), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (mem == MAP_FAILED) return;
  g_samples = static_cast<Sample*>(mem);

  struct sigaction sa = {};
  sa.sa_sigaction = on_sample;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);

  struct sigevent sev = {};
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev.sigev_notify_thread_id = static_cast<pid_t>(syscall(SYS_gettid));
  if (timer_create(CLOCK_MONOTONIC, &sev, &g_timer) != 0) return;
  struct itimerspec its = {};
  its.it_interval.tv_nsec = kPeriodNs;
  its.it_value = its.it_interval;
  g_armed = timer_settime(g_timer, 0, &its, nullptr) == 0;
}

__attribute__((destructor)) void sampler_stop() {
  if (!g_armed) return;
  timer_delete(g_timer);
  g_armed = false;
  const std::string out = std::getenv("SAMPLER_OUT");
  copy_file("/proc/self/maps", out + ".maps");
  if (FILE* f = std::fopen(out.c_str(), "wb")) {
    std::fwrite(g_samples, sizeof(Sample), g_count, f);
    std::fclose(f);
  }
  if (g_dropped > 0) {
    std::fprintf(stderr, "sampler: buffer full, %zu samples dropped\n", g_dropped);
  }
}

}  // namespace
