#include "common/event_fds.h"

#include <sys/eventfd.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace trajldp {

namespace {

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

// ---------------------------------------------------------------- WakeupFd

WakeupFd::~WakeupFd() { Close(); }

WakeupFd::WakeupFd(WakeupFd&& other) noexcept : fd_(other.fd_) {
  other.fd_ = -1;
}

WakeupFd& WakeupFd::operator=(WakeupFd&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Status WakeupFd::Open() {
  Close();
  fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (fd_ < 0) return Errno("eventfd");
  return Status::Ok();
}

void WakeupFd::Signal() const {
  if (fd_ < 0) return;
  const uint64_t one = 1;
  // EAGAIN means the counter is already saturated — the loop is as
  // woken as it can get; nothing to do.
  while (::write(fd_, &one, sizeof(one)) < 0 && errno == EINTR) {
  }
}

void WakeupFd::Drain() const {
  if (fd_ < 0) return;
  uint64_t count = 0;
  while (::read(fd_, &count, sizeof(count)) < 0 && errno == EINTR) {
  }
}

void WakeupFd::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

// ----------------------------------------------------------------- TimerFd

TimerFd::~TimerFd() { Close(); }

TimerFd::TimerFd(TimerFd&& other) noexcept : fd_(other.fd_) {
  other.fd_ = -1;
}

TimerFd& TimerFd::operator=(TimerFd&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Status TimerFd::Open() {
  Close();
  fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (fd_ < 0) return Errno("timerfd_create");
  return Status::Ok();
}

Status TimerFd::ArmOnce(std::chrono::nanoseconds delay) const {
  if (fd_ < 0) return Status::FailedPrecondition("timer is not open");
  // it_value of all-zero DISARMS a timerfd; clamp to 1ns so "fire now"
  // means "fire immediately", not "never".
  if (delay < std::chrono::nanoseconds(1)) delay = std::chrono::nanoseconds(1);
  itimerspec spec{};  // it_interval stays zero: fire once
  spec.it_value.tv_sec = delay.count() / 1'000'000'000;
  spec.it_value.tv_nsec = delay.count() % 1'000'000'000;
  if (::timerfd_settime(fd_, 0, &spec, nullptr) != 0) {
    return Errno("timerfd_settime");
  }
  return Status::Ok();
}

uint64_t TimerFd::Drain() const {
  if (fd_ < 0) return 0;
  uint64_t expirations = 0;
  for (;;) {
    const ssize_t n = ::read(fd_, &expirations, sizeof(expirations));
    if (n < 0 && errno == EINTR) continue;
    if (n != static_cast<ssize_t>(sizeof(expirations))) return 0;
    return expirations;
  }
}

void TimerFd::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace trajldp
