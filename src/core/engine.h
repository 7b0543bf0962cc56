// Execution engines: strategies for running one phase of agent work.
//
// The simulation loop is engine-agnostic; an engine's only job is to apply a
// function to indices [0, count) with some parallelization strategy. Three
// engines are provided:
//   * SerialEngine         — plain loop (reference semantics)
//   * ScatterGatherEngine  — one dispatcher work item per agent (thesis
//                            §4.3.4; does not scale, reproduced by
//                            bench_scalability_scatter_gather)
//   * HDispatchEngine      — fixed worker pool pulling agent *sets* from a
//                            shared queue (thesis §4.3.5; scales, reproduced
//                            by bench_scalability_h_dispatch)
// All engines must produce identical simulation results; only wall-clock
// performance differs (tested in tests/core/engine_test.cc).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string_view>

namespace gdisim {

class ExecutionEngine {
 public:
  virtual ~ExecutionEngine() = default;

  /// Applies `fn` to every index in [0, count). Returns when all are done.
  /// `fn` must be safe to call concurrently for distinct indices.
  virtual void for_each(std::size_t count, const std::function<void(std::size_t)>& fn) = 0;

  /// True when for_each runs entirely inline on the caller's thread. Lets
  /// the simulation loop skip the std::function indirection (one virtual
  /// dispatch per agent per phase — measurable at hundreds of millions of
  /// agent-phases per run) and loop directly.
  virtual bool serial() const { return false; }

  virtual std::string_view name() const = 0;
};

class SerialEngine final : public ExecutionEngine {
 public:
  void for_each(std::size_t count, const std::function<void(std::size_t)>& fn) override;
  bool serial() const override { return true; }
  std::string_view name() const override { return "serial"; }
};

/// Factory helpers (definitions in scatter_gather.cc / h_dispatch.cc).
std::unique_ptr<ExecutionEngine> make_scatter_gather_engine(std::size_t threads);
std::unique_ptr<ExecutionEngine> make_h_dispatch_engine(std::size_t threads,
                                                        std::size_t agent_set_size);

}  // namespace gdisim
