#include "hardware/cpu.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "core/archive.h"

namespace gdisim {

CpuComponent::CpuComponent(const CpuSpec& spec) : spec_(spec) {
  sockets_.reserve(spec.sockets);
  for (unsigned p = 0; p < spec.sockets; ++p) {
    sockets_.emplace_back(spec.effective_cores_per_socket(), spec.frequency_hz);
  }
}

void CpuComponent::accept(StageJob job) {
  // Deterministic least-loaded socket placement.
  std::size_t best = 0;
  for (std::size_t p = 1; p < sockets_.size(); ++p) {
    if (sockets_[p].total_jobs() < sockets_[best].total_jobs()) best = p;
  }
  // Parallel jobs (§9.1.1) fork across up to `parallelism` cores of the
  // chosen socket; total cycles are unchanged, latency shrinks.
  const unsigned shares =
      std::max(1u, std::min(job.parallelism, spec_.effective_cores_per_socket()));
  PendingJob* pending = pool_.create(PendingJob{job, shares});
  const double share_work = job.work / static_cast<double>(shares);
  for (unsigned k = 0; k < shares; ++k) sockets_[best].enqueue(share_work, pending);
}

void CpuComponent::advance_tick(Tick now, double dt) {
  double util_sum = 0.0;
  for (auto& socket : sockets_) {
    socket.advance(dt, completed_);
    util_sum += socket.last_utilization();
    for (JobCtx ctx : completed_) {
      auto* pending = static_cast<PendingJob*>(ctx);
      if (--pending->outstanding > 0) continue;
      pending->stage.handler->on_stage_complete(*this, now, pending->stage.tag);
      pool_.destroy(pending);
    }
  }
  last_utilization_ = util_sum / static_cast<double>(sockets_.size());
}

void CpuComponent::archive_discipline(StateArchive& ar, HandlerRegistry& reg) {
  ar.section("cpu");
  std::size_t sockets = sockets_.size();
  ar.size_value(sockets);
  ar.expect_equal(sockets, sockets_.size(), "cpu socket count");
  if (ar.writing()) {
    // First-encounter index over the pending jobs referenced by the socket
    // queues (a parallel job appears once per share); the map is
    // lookup-only, never iterated.
    std::vector<PendingJob*> order;
    std::unordered_map<PendingJob*, std::uint64_t> index;  // NOLINT(gdisim-ptr-key-decl) archive-local lookup; never iterated
    const JobCtxEncoder enc = [&](JobCtx ctx) -> std::uint64_t {
      auto* pending = static_cast<PendingJob*>(ctx);
      const auto [it, fresh] = index.emplace(pending, order.size());
      if (fresh) order.push_back(pending);
      return it->second;
    };
    for (auto& socket : sockets_) socket.archive_state(ar, enc, {});
    std::size_t n = order.size();
    ar.size_value(n);
    for (PendingJob* pending : order) {
      archive_stage_job(ar, reg, pending->stage);
      std::uint32_t outstanding = pending->outstanding;
      ar.u32(outstanding);
    }
  } else {
    pool_.release_all();
    std::vector<PendingJob*> loaded;
    // Indices are first-encounter order, so a new job is exactly the next
    // one; a larger index can only come from a corrupt stream.
    const JobCtxDecoder dec = [&](std::uint64_t idx) -> JobCtx {
      ar.expect_below(idx, std::uint64_t{loaded.size() + 1}, "cpu pending-job index");
      if (idx == loaded.size()) loaded.push_back(pool_.create(PendingJob{}));
      return loaded[idx];
    };
    for (auto& socket : sockets_) socket.archive_state(ar, {}, dec);
    std::size_t n = 0;
    ar.size_value(n);
    if (n != loaded.size()) {
      throw std::runtime_error("snapshot: cpu pending-job table disagrees with socket queues");
    }
    for (PendingJob* pending : loaded) {
      archive_stage_job(ar, reg, pending->stage);
      std::uint32_t outstanding = 0;
      ar.u32(outstanding);
      pending->outstanding = outstanding;
    }
  }
  ar.f64(last_utilization_);
}

std::size_t CpuComponent::queue_length() const {
  std::size_t n = 0;
  for (const auto& socket : sockets_) n += socket.total_jobs();
  return n;
}

}  // namespace gdisim
