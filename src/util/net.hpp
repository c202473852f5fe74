// Checksummed frame transport over Unix-domain and loopback TCP sockets.
//
// This is the wire layer under the socket-dispatched shard workers and the
// `ridnet_cli serve` daemon (see DESIGN.md §13). It deliberately knows
// nothing about messages — it moves *frames*, each framed exactly like a
// checkpoint record:
//
//     u32 payload length | u32 FNV-1a32 checksum of payload | payload
//
// so a worker's per-tree result frame is byte-for-byte the checkpoint
// record the dispatcher appends to the run directory. A frame either
// arrives whole and checksum-clean or it is reported as damage
// (kChecksumError) / loss (kClosed) — torn writes from a crashing peer can
// never smuggle partial data into a durable store.
//
// Failure semantics are explicit and poll-driven: every read carries a
// timeout (kTimeout lets callers run heartbeat/cancellation checks), writes
// never raise SIGPIPE (a dead peer surfaces as a failed write), and the
// deterministic failpoints compiled into the hot paths
// (`net.frame_write`, `net.torn_frame`, `net.frame_read`, `net.accept`,
// `net.connect`) let tests inject torn frames, stalled reads, dropped
// connections, and connect/accept failures on demand (util/failpoint.hpp).
//
// The network chaos shapes layer on top of the same hooks and always fail
// through the transport's *normal* failure statuses, never exceptions:
//   net.partition=window(MS)   every read/write/connect/accept inside the
//                              window fails (timeout/false/unreachable),
//                              then the partition heals
//   net.delay=sleep(MS)        every frame read/write stalls MS ms first
//   net.drop_rate=drop(PCT)    PCT% of written frames silently vanish (the
//                              writer sees success; the reader must absorb
//                              the loss via deadlines + requeue)
// Torn frames (stream death mid-frame) are counted under `net.torn_frame`,
// checksum damage under `net.checksum_error`, injected drops under
// `net.frames_dropped` — all visible in `ridnet_cli stats` and Prometheus.
//
// POSIX only, mirroring util/proc_supervisor: on non-POSIX builds
// net::supported() is false and every operation fails cleanly; callers fall
// back to in-process execution.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

namespace rid::util::net {

/// True when this platform has the socket transport (POSIX).
bool supported() noexcept;

/// Pass as a timeout to block without a deadline.
constexpr double kUnlimitedSeconds = -1.0;

/// Where a listener binds / a client connects. Text forms accepted by
/// parse():  "unix:PATH", "tcp:HOST:PORT", "tcp:PORT" (loopback), or a bare
/// path (unix). to_string() round-trips through parse().
struct Endpoint {
  enum class Kind { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;              // kUnix: socket file path
  std::string host = "127.0.0.1";  // kTcp
  std::uint16_t port = 0;          // kTcp; 0 = ephemeral (listeners only)

  static Endpoint unix_path(std::string path);
  static Endpoint tcp(std::uint16_t port, std::string host = "127.0.0.1");
  /// Throws util::InputError on a malformed endpoint string.
  static Endpoint parse(const std::string& text);
  std::string to_string() const;
};

enum class FrameStatus {
  kOk,             // payload filled, checksum verified
  kClosed,         // orderly close or connection loss (incl. torn frame)
  kTimeout,        // nothing (or not a whole frame) within the timeout
  kChecksumError,  // whole frame arrived but the payload was corrupt
};

const char* to_string(FrameStatus status) noexcept;

/// One connected stream socket (move-only; closes on destruction).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  ~Socket();

  bool valid() const noexcept { return fd_ >= 0; }
  int fd() const noexcept { return fd_; }
  void close() noexcept;

  /// Reads one whole frame within `timeout_seconds` (kUnlimitedSeconds =
  /// block). The timeout covers the *whole frame*: a peer that stalls
  /// mid-frame is a kTimeout, not a hang. kChecksumError consumes the
  /// damaged frame (the stream position stays aligned), so the caller
  /// chooses between dropping the connection and reading on.
  FrameStatus read_frame(std::string& payload, double timeout_seconds);

  /// Writes one frame. Returns false when the peer is gone or the write
  /// failed (never raises SIGPIPE). Armed `net.torn_frame` failpoints fire
  /// mid-frame — an `abort` action models a writer dying with a torn frame
  /// on the wire.
  bool write_frame(std::string_view payload);

  /// True when a read would not block (data, end of stream, shutdown())
  /// within `timeout_seconds`; 0 just looks.
  bool wait_readable(double timeout_seconds);

  /// Ends both directions but keeps the descriptor, so unlike close() it
  /// is safe while another thread waits on the socket (which wakes).
  void shutdown() noexcept;

 private:
  int fd_ = -1;
};

/// A connected pair of Unix stream sockets (close-on-exec): the channel a
/// forked shard worker streams its frames over. Throws util::InputError.
std::pair<Socket, Socket> socket_pair();

/// A bound, listening socket (move-only; closes — and unlinks a unix socket
/// file — on destruction).
class Listener {
 public:
  Listener() = default;
  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;
  ~Listener();

  /// Binds and listens. For tcp with port 0 the resolved ephemeral port is
  /// reported by endpoint(). A stale unix socket file is replaced. Throws
  /// util::InputError on failure.
  static Listener listen(const Endpoint& endpoint, int backlog = 16);

  bool valid() const noexcept { return fd_ >= 0; }
  const Endpoint& endpoint() const noexcept { return endpoint_; }
  void close() noexcept;

  /// Accepts one connection within the timeout; an invalid Socket means
  /// timeout (or a closed/failed listener). The `net.accept` failpoint
  /// fires after a successful accept — a `throw` action drops the freshly
  /// accepted connection.
  Socket accept(double timeout_seconds);

 private:
  int fd_ = -1;
  Endpoint endpoint_;
  bool unlink_on_close_ = false;
};

/// Connects to an endpoint within the timeout. Throws util::InputError when
/// the endpoint is unreachable (callers decide between retry and abort).
Socket connect(const Endpoint& endpoint, double timeout_seconds);

}  // namespace rid::util::net
