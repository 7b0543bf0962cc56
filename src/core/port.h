// Port-based programming abstraction (thesis §4.2.2, Figure 4-1).
//
// A Port<T> is the only point of entry to a stateful agent. Messages posted
// to a port are paired with the port's registered receiver by the arbiter
// and submitted to a dispatcher as work items ("active messages").
//
// The thesis lists five CCR-style receivers (single-item, multiple-item,
// join, choice, interleave). The Scatter-Gather baseline of Table 4.1 needs
// only SingleItemReceiver, so that is the one kept. Its handlers execute as
// dispatcher work items: they run on a pool thread's stack and must not
// block.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "core/dispatcher.h"

namespace gdisim {

namespace detail {

/// Type-erased receiver hook installed on a port by a receiver.
/// `on_post` is invoked (under the port lock released) after each message is
/// enqueued; the receiver decides whether to consume messages and schedule
/// handler work items.
class ReceiverHook {
 public:
  virtual ~ReceiverHook() = default;
  virtual void on_post() = 0;
};

}  // namespace detail

template <typename T>
class Port {
 public:
  Port() = default;
  Port(const Port&) = delete;
  Port& operator=(const Port&) = delete;

  /// Posts a message. If a receiver is attached it is notified so it can
  /// evaluate its firing condition.
  void post(T message) {
    std::shared_ptr<detail::ReceiverHook> hook;
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(message));
      hook = hook_;
    }
    if (hook) hook->on_post();
  }

  /// Non-blocking test-and-take.
  std::optional<T> try_take() {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return std::nullopt;
    T front = std::move(queue_.front());
    queue_.pop_front();
    return front;
  }

  /// Takes up to `n` messages at once.
  std::deque<T> take_up_to(std::size_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    std::deque<T> out;
    while (!queue_.empty() && out.size() < n) {
      out.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    return out;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
  }

  /// Installs/replaces the receiver hook. Passing nullptr detaches.
  void attach(std::shared_ptr<detail::ReceiverHook> hook) {
    std::shared_ptr<detail::ReceiverHook> installed;
    {
      std::lock_guard<std::mutex> lock(mu_);
      hook_ = std::move(hook);
      installed = hook_;
    }
    // Fire once in case messages were already waiting.
    if (installed) installed->on_post();
  }

 private:
  mutable std::mutex mu_;
  std::deque<T> queue_;
  std::shared_ptr<detail::ReceiverHook> hook_;
};

/// Fires `handler` for every message posted to `port`. Persistent until the
/// returned registration object is destroyed.
template <typename T>
class SingleItemReceiver : public detail::ReceiverHook,
                           public std::enable_shared_from_this<SingleItemReceiver<T>> {
 public:
  using Handler = std::function<void(T)>;

  static std::shared_ptr<SingleItemReceiver> attach(Port<T>& port, Dispatcher& dispatcher,
                                                    Handler handler) {
    auto r = std::shared_ptr<SingleItemReceiver>(
        new SingleItemReceiver(port, dispatcher, std::move(handler)));
    port.attach(r);
    return r;
  }

  void on_post() override {
    // Drain greedily: each waiting message becomes one work item.
    while (auto msg = port_.try_take()) {
      auto self = this->shared_from_this();
      dispatcher_.post([self, m = std::move(*msg)]() mutable { self->handler_(std::move(m)); });
    }
  }

 private:
  SingleItemReceiver(Port<T>& port, Dispatcher& dispatcher, Handler handler)
      : port_(port), dispatcher_(dispatcher), handler_(std::move(handler)) {}

  Port<T>& port_;
  Dispatcher& dispatcher_;
  Handler handler_;
};

}  // namespace gdisim
