#include "queueing/fork_join.h"

#include <stdexcept>
#include <unordered_map>

#include "core/archive.h"
#include "core/audit.h"

namespace gdisim {

ForkJoinQueue::ForkJoinQueue(unsigned branches, double rate_per_branch) {
  if (branches == 0) throw std::invalid_argument("ForkJoinQueue: zero branches");
  branches_.reserve(branches);
  for (unsigned i = 0; i < branches; ++i) branches_.emplace_back(1, rate_per_branch);
}

void ForkJoinQueue::enqueue(double work, JobCtx ctx) {
  GDISIM_AUDIT_NONNEG(work, "ForkJoinQueue: negative work enqueued");
  GDISIM_AUDIT_JOB_SPAWNED(audit::Category::kForkJoinJob);
  JoinState* join = joins_.create(JoinState{branches(), ctx});
  const double share = work / static_cast<double>(branches());
  for (auto& branch : branches_) branch.enqueue(share, join);
}

AdvanceResult ForkJoinQueue::advance(double dt) {
  AdvanceResult result;
  double util_sum = 0.0;
  for (auto& branch : branches_) {
    AdvanceResult r = branch.advance(dt);
    util_sum += branch.last_utilization();
    for (JobCtx jc : r.completed) {
      auto* join = static_cast<JoinState*>(jc);
      GDISIM_AUDIT_CHECK(join->outstanding > 0,
                         "ForkJoinQueue: branch completion with no outstanding shares");
      if (--join->outstanding == 0) {
        result.completed.push_back(join->ctx);
        ++completed_jobs_;
        GDISIM_AUDIT_JOB_COMPLETED(audit::Category::kForkJoinJob);
        joins_.destroy(join);
      }
    }
    result.work_done += r.work_done;
  }
  last_utilization_ = util_sum / static_cast<double>(branches_.size());
  return result;
}

std::size_t ForkJoinQueue::total_jobs() const {
  return joins_.live();
}

void ForkJoinQueue::archive_state(StateArchive& ar, const JobCtxEncoder& enc,
                                  const JobCtxDecoder& dec) {
  ar.section("fork_join");
  std::size_t nb = branches_.size();
  ar.size_value(nb);
  ar.expect_equal(nb, branches_.size(), "fork-join branch count");
  if (ar.writing()) {
    // First-encounter index over the JoinStates referenced from the branch
    // queues. Every live join has outstanding > 0 shares queued, so this
    // enumeration is exhaustive. The map is lookup-only, never iterated.
    std::vector<JoinState*> order;
    std::unordered_map<JoinState*, std::uint64_t> index;  // NOLINT(gdisim-ptr-key-decl) archive-local lookup; never iterated
    const JobCtxEncoder branch_enc = [&](JobCtx ctx) -> std::uint64_t {
      auto* join = static_cast<JoinState*>(ctx);
      const auto [it, fresh] = index.emplace(join, order.size());
      if (fresh) order.push_back(join);
      return it->second;
    };
    for (auto& branch : branches_) branch.archive_state(ar, branch_enc, {});
    std::size_t nj = order.size();
    ar.size_value(nj);
    for (JoinState* join : order) {
      std::uint32_t outstanding = join->outstanding;
      ar.u32(outstanding);
      std::uint64_t code = enc(join->ctx);
      ar.u64(code);
    }
  } else {
    GDISIM_AUDIT_JOBS_DISCARDED(audit::Category::kForkJoinJob, joins_.live());
    joins_.release_all();
    std::vector<JoinState*> loaded;
    // Indices are first-encounter order, so a new join is exactly the next
    // one; a larger index can only come from a corrupt stream.
    const JobCtxDecoder branch_dec = [&](std::uint64_t idx) -> JobCtx {
      ar.expect_below(idx, std::uint64_t{loaded.size() + 1}, "fork-join index");
      if (idx == loaded.size()) {
        loaded.push_back(joins_.create(JoinState{0, nullptr}));
        GDISIM_AUDIT_JOB_SPAWNED(audit::Category::kForkJoinJob);
      }
      return loaded[idx];
    };
    for (auto& branch : branches_) branch.archive_state(ar, {}, branch_dec);
    std::size_t nj = 0;
    ar.size_value(nj);
    if (nj != loaded.size()) {
      throw std::runtime_error("snapshot: fork-join join table disagrees with branch shares");
    }
    for (JoinState* join : loaded) {
      std::uint32_t outstanding = 0;
      ar.u32(outstanding);
      join->outstanding = outstanding;
      std::uint64_t code = 0;
      ar.u64(code);
      join->ctx = dec(code);
    }
  }
  ar.f64(last_utilization_);
  ar.u64(completed_jobs_);
}

}  // namespace gdisim
