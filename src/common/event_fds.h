#ifndef TRAJLDP_COMMON_EVENT_FDS_H_
#define TRAJLDP_COMMON_EVENT_FDS_H_

#include <chrono>
#include <cstdint>

#include "common/status_or.h"

namespace trajldp {

/// \brief Kernel-backed readiness/wakeup primitives for event loops —
/// the fd-shaped building blocks of net::Reactor.
///
/// Both wrappers hand out a plain fd that becomes readable when the
/// event fires, so they compose with epoll exactly like a socket does:
/// one wait primitive (epoll_wait) covers sockets, cross-thread wakeups
/// (WakeupFd), and deadlines (TimerFd), with no signals, pipes, or
/// sleeping-with-a-timeout anywhere. Linux-only, like the rest of the
/// socket layer.

/// A level-style wakeup flag over eventfd(2): any thread may Signal()
/// it; the owning event loop sees the fd readable, Drain()s it, and
/// re-arms implicitly. Signals coalesce (N signals before a drain wake
/// the loop once), which is exactly the semantics a "please wake up and
/// look around" doorbell wants.
class WakeupFd {
 public:
  WakeupFd() = default;
  ~WakeupFd();
  WakeupFd(WakeupFd&& other) noexcept;
  WakeupFd& operator=(WakeupFd&& other) noexcept;
  WakeupFd(const WakeupFd&) = delete;
  WakeupFd& operator=(const WakeupFd&) = delete;

  /// Creates the eventfd (non-blocking, close-on-exec).
  Status Open();
  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Wakes the loop. Async-safe with respect to Drain; callable from
  /// any thread, any number of times (signals coalesce).
  void Signal() const;

  /// Consumes all pending signals; the fd reads as not-ready again
  /// until the next Signal(). Called by the loop that owns the fd.
  void Drain() const;

  void Close();

 private:
  int fd_ = -1;
};

/// A deadline as a file descriptor, over timerfd(2). Arm it and the fd
/// becomes readable when the deadline passes — so an event loop waits
/// for "socket readable OR timer due" in one epoll_wait, with no
/// timeout arithmetic in the loop itself.
class TimerFd {
 public:
  TimerFd() = default;
  ~TimerFd();
  TimerFd(TimerFd&& other) noexcept;
  TimerFd& operator=(TimerFd&& other) noexcept;
  TimerFd(const TimerFd&) = delete;
  TimerFd& operator=(const TimerFd&) = delete;

  /// Creates the timerfd (CLOCK_MONOTONIC, non-blocking, close-on-exec).
  Status Open();
  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Fires once, `delay` from now. A delay of zero (or less) fires
  /// immediately (rounded up to 1ns: zero would disarm). Re-arming
  /// replaces any pending deadline. Callable from any thread.
  Status ArmOnce(std::chrono::nanoseconds delay) const;

  /// Consumes the expiration count so the fd reads as not-ready again.
  /// Returns how many times the timer fired since the last drain (0
  /// when it had not fired — e.g. a spurious wake).
  uint64_t Drain() const;

  void Close();

 private:
  int fd_ = -1;
};

}  // namespace trajldp

#endif  // TRAJLDP_COMMON_EVENT_FDS_H_
