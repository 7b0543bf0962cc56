#include "hardware/raid.h"

#include <stdexcept>
#include <unordered_map>

#include "core/archive.h"
#include "core/audit.h"

namespace gdisim {

RaidComponent::RaidComponent(const RaidSpec& spec, Rng rng)
    : spec_(spec), rng_(rng), dacc_(1, spec.dacc_rate_Bps) {
  if (spec.disks == 0) throw std::invalid_argument("RaidComponent: zero disks");
  dcc_.reserve(spec.disks);
  hdd_.reserve(spec.disks);
  for (unsigned i = 0; i < spec.disks; ++i) {
    dcc_.emplace_back(1, spec.dcc_rate_Bps);
    hdd_.emplace_back(1, spec.hdd_rate_Bps);
  }
}

void RaidComponent::accept(StageJob job) {
  GDISIM_AUDIT_NONNEG(job.work, "RaidComponent: negative work accepted");
  GDISIM_AUDIT_JOB_SPAWNED(audit::Category::kRaidJob);
  RaidJob* rj = jobs_.create(RaidJob{job, 0});
  dacc_.enqueue(job.work, rj);
}

void RaidComponent::complete(RaidJob* job, Tick now) {
  job->stage.handler->on_stage_complete(*this, now, job->stage.tag);
  GDISIM_AUDIT_JOB_COMPLETED(audit::Category::kRaidJob);
  jobs_.destroy(job);
}

void RaidComponent::fork(RaidJob* job) {
  job->outstanding = spec_.disks;
  const double share = job->stage.work / static_cast<double>(spec_.disks);
  for (unsigned i = 0; i < spec_.disks; ++i) {
    dcc_[i].enqueue(share, branch_jobs_.create(BranchJob{job}));
  }
}

void RaidComponent::finish_branch(BranchJob* branch, Tick now) {
  RaidJob* parent = branch->parent;
  branch_jobs_.destroy(branch);
  GDISIM_AUDIT_CHECK(parent->outstanding > 0,
                     "RaidComponent: branch completion with no outstanding branches");
  if (--parent->outstanding == 0) complete(parent, now);
}

void RaidComponent::advance_tick(Tick now, double dt) {
  // Stages drain into the shared scratch (cleared by the queue) so a busy
  // array advances without allocating.
  // 1. Disk array controller cache.
  dacc_.advance(dt, scratch_);
  for (JobCtx ctx : scratch_) {
    auto* job = static_cast<RaidJob*>(ctx);
    if (rng_.next_double() < spec_.dacc_hit_rate) {
      complete(job, now);
    } else {
      fork(job);
    }
  }

  // 2. Per-disk controller caches.
  for (unsigned i = 0; i < spec_.disks; ++i) {
    dcc_[i].advance(dt, scratch_);
    for (JobCtx ctx : scratch_) {
      auto* branch = static_cast<BranchJob*>(ctx);
      if (rng_.next_double() < spec_.dcc_hit_rate) {
        finish_branch(branch, now);
      } else {
        // Re-derive the branch share from the parent job.
        const double share =
            branch->parent->stage.work / static_cast<double>(spec_.disks);
        hdd_[i].enqueue(share, branch);
      }
    }
  }

  // 3. Disk drives.
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

std::size_t RaidComponent::queue_length() const {
  return jobs_.live();
}

void RaidComponent::archive_discipline(StateArchive& ar, HandlerRegistry& reg) {
  ar.section("raid");
  std::size_t disks = dcc_.size();
  ar.size_value(disks);
  ar.expect_equal(disks, dcc_.size(), "raid disk count");
  rng_.archive_state(ar);
  if (ar.writing()) {
    // Pre-pass: enumerate every in-flight RaidJob/BranchJob in the same
    // deterministic order the queues will serialize (dacc, then dcc[i],
    // then hdd[i]); tables are streamed first so the read path can rebuild
    // the pool objects before re-linking the queue entries. Maps are
    // lookup-only, never iterated.
    std::vector<RaidJob*> job_order;
    std::unordered_map<RaidJob*, std::uint64_t> job_index;  // NOLINT(gdisim-ptr-key-decl) archive-local lookup; never iterated
    std::vector<BranchJob*> branch_order;
    std::unordered_map<BranchJob*, std::uint64_t> branch_index;  // NOLINT(gdisim-ptr-key-decl) archive-local lookup; never iterated
    const auto note_job = [&](RaidJob* job) {
      if (job_index.emplace(job, job_order.size()).second) job_order.push_back(job);
    };
    const auto note_branch = [&](BranchJob* branch) {
      note_job(branch->parent);
      if (branch_index.emplace(branch, branch_order.size()).second) {
        branch_order.push_back(branch);
      }
    };
    dacc_.for_each_ctx([&](JobCtx ctx) { note_job(static_cast<RaidJob*>(ctx)); });
    for (auto& q : dcc_) q.for_each_ctx([&](JobCtx ctx) { note_branch(static_cast<BranchJob*>(ctx)); });
    for (auto& q : hdd_) q.for_each_ctx([&](JobCtx ctx) { note_branch(static_cast<BranchJob*>(ctx)); });

    std::size_t nj = job_order.size();
    ar.count(nj);
    for (RaidJob* job : job_order) {
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
      return job_index.at(static_cast<RaidJob*>(ctx));
    };
    const JobCtxEncoder enc_branch = [&](JobCtx ctx) {
      return branch_index.at(static_cast<BranchJob*>(ctx));
    };
    dacc_.archive_state(ar, enc_job, {});
    for (auto& q : dcc_) q.archive_state(ar, enc_branch, {});
    for (auto& q : hdd_) q.archive_state(ar, enc_branch, {});
  } else {
    GDISIM_AUDIT_JOBS_DISCARDED(audit::Category::kRaidJob, jobs_.live());
    jobs_.release_all();
    branch_jobs_.release_all();
    std::size_t nj = 0;
    ar.count(nj);
    std::vector<RaidJob*> jobs;
    jobs.reserve(nj);
    for (std::size_t i = 0; i < nj; ++i) {
      StageJob stage;
      archive_stage_job(ar, reg, stage);
      std::uint32_t outstanding = 0;
      ar.u32(outstanding);
      jobs.push_back(jobs_.create(RaidJob{stage, outstanding}));
      GDISIM_AUDIT_JOB_SPAWNED(audit::Category::kRaidJob);
    }
    std::size_t nb = 0;
    ar.count(nb);
    std::vector<BranchJob*> branches;
    branches.reserve(nb);
    for (std::size_t i = 0; i < nb; ++i) {
      std::uint64_t parent = 0;
      ar.u64(parent);
      ar.expect_below(parent, std::uint64_t{jobs.size()}, "raid branch parent index");
      branches.push_back(branch_jobs_.create(BranchJob{jobs[parent]}));
    }
    const JobCtxDecoder dec_job = [&](std::uint64_t idx) -> JobCtx {
      ar.expect_below(idx, std::uint64_t{jobs.size()}, "raid job index");
      return jobs[idx];
    };
    const JobCtxDecoder dec_branch = [&](std::uint64_t idx) -> JobCtx {
      ar.expect_below(idx, std::uint64_t{branches.size()}, "raid branch index");
      return branches[idx];
    };
    dacc_.archive_state(ar, {}, dec_job);
    for (auto& q : dcc_) q.archive_state(ar, {}, dec_branch);
    for (auto& q : hdd_) q.archive_state(ar, {}, dec_branch);
  }
  ar.f64(last_disk_utilization_);
}

}  // namespace gdisim
