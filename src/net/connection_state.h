#ifndef TRAJLDP_NET_CONNECTION_STATE_H_
#define TRAJLDP_NET_CONNECTION_STATE_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status_or.h"
#include "io/wire.h"
#include "net/socket.h"

namespace trajldp::net {

/// \brief One connection's half of the reactor: a non-blocking
/// frame-reassembly state machine on the read side and a buffered,
/// EPOLLOUT-drainable ack pipe on the write side.
///
/// PumpRead() feeds whatever bytes the kernel has — possibly none,
/// possibly a frame boundary mid-header — through an io::FrameAssembler,
/// the framing rules every reader shares, and reports one of three
/// things: a complete frame is ready, the socket would block (wait for
/// the next EPOLLIN), or the peer closed cleanly between frames. On a
/// blocking socket it simply returns a frame or the end.
///
/// Deliberately mechanism-free: no CRC, sequence, journal, or collector
/// knowledge here — the server's frame pipeline runs on the assembled
/// bytes. One instance is owned by exactly one thread (a reactor loop,
/// or FaultProxy's forward pump); nothing in this class is thread-safe.
class ConnectionState {
 public:
  enum class ReadEvent {
    kFrameReady,   ///< frame() holds one complete frame
    kWouldBlock,   ///< out of bytes; wait for EPOLLIN
    kPeerClosed,   ///< clean FIN on a frame boundary
  };

  /// Takes ownership of the socket (non-blocking under a reactor).
  explicit ConnectionState(Socket socket) : socket_(std::move(socket)) {}

  int fd() const { return socket_.fd(); }
  Socket& socket() { return socket_; }

  /// Advances the reassembly machine as far as the kernel's bytes
  /// allow. Never reads past the current frame's end, so a paused
  /// connection buffers at most one frame here plus whatever the kernel
  /// already accepted.
  ///
  /// After kFrameReady the machine stays parked on the completed frame:
  /// call TakeFrame() to consume it before pumping again.
  StatusOr<ReadEvent> PumpRead();

  /// Moves out the completed frame and re-arms the machine for the next
  /// header. Only valid after PumpRead() returned kFrameReady.
  std::string TakeFrame();

  /// Queues bytes (an encoded ack frame) for writing; call PumpWrite()
  /// to start draining them.
  void QueueWrite(std::string_view bytes);

  /// Writes queued bytes until drained or the socket would block.
  /// Returns true when the outbound buffer is empty — the caller's cue
  /// to drop EPOLLOUT interest; false means "enable EPOLLOUT and call
  /// again on the next writable event".
  StatusOr<bool> PumpWrite();

  bool wants_write() const { return out_pos_ < out_.size(); }

  /// Lifetime byte totals for this connection (frames in, acks out).
  /// Plain counters — the class is single-reactor-threaded; the owner
  /// folds them into its registry (IngestServer does so at close).
  uint64_t bytes_read() const { return bytes_read_; }
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  Socket socket_;
  io::FrameAssembler assembler_;

  std::string out_;        // pending outbound bytes (acks)
  size_t out_pos_ = 0;     // drained prefix of out_

  uint64_t bytes_read_ = 0;
  uint64_t bytes_written_ = 0;
};

}  // namespace trajldp::net

#endif  // TRAJLDP_NET_CONNECTION_STATE_H_
