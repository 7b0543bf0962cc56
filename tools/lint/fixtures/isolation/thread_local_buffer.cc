// Fixture: thread_local declarations must carry a GDISIM-SHARED reason.
// A per-thread staging buffer written by its owning thread inside a phase
// and consumed by the master at the barrier is a cross-thread handoff with
// no lock, so the inventory must record why it is sound. Annotated
// declarations are exempt.
#include <cstddef>
#include <vector>

namespace fixture {

std::size_t shard_id() {
  thread_local std::size_t id = 0;  // unannotated buffer: flagged
  return id;
}

std::vector<int>& staging() {
  // GDISIM-SHARED: written by this thread in-phase, drained by the master at barriers
  thread_local std::vector<int> buf;
  return buf;
}

}  // namespace fixture
