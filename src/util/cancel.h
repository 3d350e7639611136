#pragma once

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>

namespace contango {

/// \file cancel.h
/// \brief Cooperative cancellation for long-running flows.
///
/// A CancelToken is a cheap, copyable handle on a shared flag.  Producers
/// (the service daemon's cancel endpoint, the SIGINT/SIGTERM handler of the
/// bench binaries — util/signal.h) call request_cancel(); consumers (the
/// pass pipeline, the suite runner) poll cancelled() at safe boundaries —
/// between passes and between benchmarks — so an in-flight job stops with
/// every invariant intact and every report flushable, never mid-write.
///
/// A default-constructed token is *inert*: it can never be cancelled and
/// costs one null-pointer check to poll, so the flow code threads tokens
/// unconditionally without a "was cancellation requested?" special case.

/// Thrown by flow code when its CancelToken fires at a checkpoint.  Derives
/// from std::runtime_error so generic error paths still catch it, while the
/// suite runner catches the exact type to mark runs `cancelled` rather than
/// failed.
class CancelledError : public std::runtime_error {
 public:
  CancelledError() : std::runtime_error("cancelled") {}
  explicit CancelledError(const std::string& what) : std::runtime_error(what) {}
};

class CancelToken {
 public:
  /// Inert token: cancelled() is always false, request_cancel() a no-op.
  CancelToken() = default;

  /// A live token (one shared flag; copies observe the same flag).
  static CancelToken make() {
    CancelToken token;
    token.flag_ = std::make_shared<std::atomic<bool>>(false);
    return token;
  }

  /// False for inert (default-constructed) tokens.
  bool valid() const { return flag_ != nullptr; }

  bool cancelled() const {
    return flag_ && flag_->load(std::memory_order_relaxed);
  }

  /// Requests cancellation; sticky and idempotent.  Safe from any thread.
  void request_cancel() const {
    if (flag_) flag_->store(true, std::memory_order_relaxed);
  }

  /// The raw flag, for async-signal-safe use only (a signal handler may
  /// store to an std::atomic<bool> but must not touch shared_ptr control
  /// blocks).  Valid as long as any token copy is alive; nullptr for inert
  /// tokens.  See util/signal.h for the one intended caller.
  std::atomic<bool>* raw_flag() const { return flag_.get(); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

}  // namespace contango
