#include "hardware/san.h"

#include <stdexcept>
#include <unordered_map>

#include "core/archive.h"
#include "core/audit.h"

namespace gdisim {

SanComponent::SanComponent(const SanSpec& spec, Rng rng)
    : spec_(spec),
      rng_(rng),
      fcsw_(1, spec.fcsw_rate_Bps),
      dacc_(1, spec.dacc_rate_Bps),
      fcal_(1, spec.fcal_rate_Bps) {
  if (spec.disks == 0) throw std::invalid_argument("SanComponent: zero disks");
  dcc_.reserve(spec.disks);
  hdd_.reserve(spec.disks);
  for (unsigned i = 0; i < spec.disks; ++i) {
    dcc_.emplace_back(1, spec.dcc_rate_Bps);
    hdd_.emplace_back(1, spec.hdd_rate_Bps);
  }
}

void SanComponent::accept(StageJob job) {
  GDISIM_AUDIT_NONNEG(job.work, "SanComponent: negative work accepted");
  GDISIM_AUDIT_JOB_SPAWNED(audit::Category::kSanJob);
  SanJob* sj = jobs_.create(SanJob{job, 0});
  fcsw_.enqueue(job.work, sj);
}

void SanComponent::complete(SanJob* job, Tick now) {
  job->stage.handler->on_stage_complete(*this, now, job->stage.tag);
  GDISIM_AUDIT_JOB_COMPLETED(audit::Category::kSanJob);
  jobs_.destroy(job);
}

void SanComponent::finish_branch(BranchJob* branch, Tick now) {
  SanJob* parent = branch->parent;
  branch_jobs_.destroy(branch);
  GDISIM_AUDIT_CHECK(parent->outstanding > 0,
                     "SanComponent: branch completion with no outstanding branches");
  if (--parent->outstanding == 0) complete(parent, now);
}

void SanComponent::advance_tick(Tick now, double dt) {
  // Every stage drains into the shared scratch (cleared by the queue) so a
  // busy SAN advances without allocating; the downstream enqueues never
  // touch the scratch mid-iteration.
  // 1. Fiber channel switch -> disk array controller cache.
  fcsw_.advance(dt, scratch_);
  for (JobCtx ctx : scratch_) {
    auto* job = static_cast<SanJob*>(ctx);
    dacc_.enqueue(job->stage.work, job);
  }

  // 2. Controller cache: hit bypasses the loop and the disks.
  dacc_.advance(dt, scratch_);
  for (JobCtx ctx : scratch_) {
    auto* job = static_cast<SanJob*>(ctx);
    if (rng_.next_double() < spec_.dacc_hit_rate) {
      complete(job, now);
    } else {
      fcal_.enqueue(job->stage.work, job);
    }
  }

  // 3. Arbitrated loop -> fork across disks.
  fcal_.advance(dt, scratch_);
  for (JobCtx ctx : scratch_) {
    auto* job = static_cast<SanJob*>(ctx);
    job->outstanding = spec_.disks;
    const double share = job->stage.work / static_cast<double>(spec_.disks);
    for (unsigned i = 0; i < spec_.disks; ++i) {
      dcc_[i].enqueue(share, branch_jobs_.create(BranchJob{job}));
    }
  }

  // 4. Per-disk controller caches.
  for (unsigned i = 0; i < spec_.disks; ++i) {
    dcc_[i].advance(dt, scratch_);
    for (JobCtx ctx : scratch_) {
      auto* branch = static_cast<BranchJob*>(ctx);
      if (rng_.next_double() < spec_.dcc_hit_rate) {
        finish_branch(branch, now);
      } else {
        const double share =
            branch->parent->stage.work / static_cast<double>(spec_.disks);
        hdd_[i].enqueue(share, branch);
      }
    }
  }

  // 5. Disk drives.
  double disk_util = 0.0;
  for (unsigned i = 0; i < spec_.disks; ++i) {
    hdd_[i].advance(dt, scratch_);
    for (JobCtx ctx : scratch_) {
      finish_branch(static_cast<BranchJob*>(ctx), now);
    }
    disk_util += hdd_[i].last_utilization();
  }
  scratch_.clear();
  last_disk_utilization_ = disk_util / static_cast<double>(spec_.disks);
}

std::size_t SanComponent::queue_length() const {
  return jobs_.live();
}

void SanComponent::archive_discipline(StateArchive& ar, HandlerRegistry& reg) {
  ar.section("san");
  std::size_t disks = dcc_.size();
  ar.size_value(disks);
  ar.expect_equal(disks, dcc_.size(), "san disk count");
  rng_.archive_state(ar);
  if (ar.writing()) {
    // Same table-then-queues layout as RaidComponent; enumeration order is
    // fcsw, dacc, fcal, then the per-disk branches. Maps are lookup-only.
    std::vector<SanJob*> job_order;
    std::unordered_map<SanJob*, std::uint64_t> job_index;  // NOLINT(gdisim-ptr-key-decl) archive-local lookup; never iterated
    std::vector<BranchJob*> branch_order;
    std::unordered_map<BranchJob*, std::uint64_t> branch_index;  // NOLINT(gdisim-ptr-key-decl) archive-local lookup; never iterated
    const auto note_job = [&](SanJob* job) {
      if (job_index.emplace(job, job_order.size()).second) job_order.push_back(job);
    };
    const auto note_branch = [&](BranchJob* branch) {
      note_job(branch->parent);
      if (branch_index.emplace(branch, branch_order.size()).second) {
        branch_order.push_back(branch);
      }
    };
    fcsw_.for_each_ctx([&](JobCtx ctx) { note_job(static_cast<SanJob*>(ctx)); });
    dacc_.for_each_ctx([&](JobCtx ctx) { note_job(static_cast<SanJob*>(ctx)); });
    fcal_.for_each_ctx([&](JobCtx ctx) { note_job(static_cast<SanJob*>(ctx)); });
    for (auto& q : dcc_) q.for_each_ctx([&](JobCtx ctx) { note_branch(static_cast<BranchJob*>(ctx)); });
    for (auto& q : hdd_) q.for_each_ctx([&](JobCtx ctx) { note_branch(static_cast<BranchJob*>(ctx)); });

    std::size_t nj = job_order.size();
    ar.count(nj);
    for (SanJob* job : job_order) {
      archive_stage_job(ar, reg, job->stage);
      std::uint32_t outstanding = job->outstanding;
      ar.u32(outstanding);
    }
    std::size_t nb = branch_order.size();
    ar.count(nb);
    for (BranchJob* branch : branch_order) {
      std::uint64_t parent = job_index.at(branch->parent);
      ar.u64(parent);
    }
    const JobCtxEncoder enc_job = [&](JobCtx ctx) {
      return job_index.at(static_cast<SanJob*>(ctx));
    };
    const JobCtxEncoder enc_branch = [&](JobCtx ctx) {
      return branch_index.at(static_cast<BranchJob*>(ctx));
    };
    fcsw_.archive_state(ar, enc_job, {});
    dacc_.archive_state(ar, enc_job, {});
    fcal_.archive_state(ar, enc_job, {});
    for (auto& q : dcc_) q.archive_state(ar, enc_branch, {});
    for (auto& q : hdd_) q.archive_state(ar, enc_branch, {});
  } else {
    GDISIM_AUDIT_JOBS_DISCARDED(audit::Category::kSanJob, jobs_.live());
    jobs_.release_all();
    branch_jobs_.release_all();
    std::size_t nj = 0;
    ar.count(nj);
    std::vector<SanJob*> jobs;
    jobs.reserve(nj);
    for (std::size_t i = 0; i < nj; ++i) {
      StageJob stage;
      archive_stage_job(ar, reg, stage);
      std::uint32_t outstanding = 0;
      ar.u32(outstanding);
      jobs.push_back(jobs_.create(SanJob{stage, outstanding}));
      GDISIM_AUDIT_JOB_SPAWNED(audit::Category::kSanJob);
    }
    std::size_t nb = 0;
    ar.count(nb);
    std::vector<BranchJob*> branches;
    branches.reserve(nb);
    for (std::size_t i = 0; i < nb; ++i) {
      std::uint64_t parent = 0;
      ar.u64(parent);
      ar.expect_below(parent, std::uint64_t{jobs.size()}, "san branch parent index");
      branches.push_back(branch_jobs_.create(BranchJob{jobs[parent]}));
    }
    const JobCtxDecoder dec_job = [&](std::uint64_t idx) -> JobCtx {
      ar.expect_below(idx, std::uint64_t{jobs.size()}, "san job index");
      return jobs[idx];
    };
    const JobCtxDecoder dec_branch = [&](std::uint64_t idx) -> JobCtx {
      ar.expect_below(idx, std::uint64_t{branches.size()}, "san branch index");
      return branches[idx];
    };
    fcsw_.archive_state(ar, {}, dec_job);
    dacc_.archive_state(ar, {}, dec_job);
    fcal_.archive_state(ar, {}, dec_job);
    for (auto& q : dcc_) q.archive_state(ar, {}, dec_branch);
    for (auto& q : hdd_) q.archive_state(ar, {}, dec_branch);
  }
  ar.f64(last_disk_utilization_);
}

}  // namespace gdisim
