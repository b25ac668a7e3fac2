#ifndef LAMP_TRANSPORT_TRANSPORT_H_
#define LAMP_TRANSPORT_TRANSPORT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "transport/wire.h"

/// \file
/// Pluggable transports for MPC communication phases and transducer
/// message delivery.
///
/// A Transport connects `num_endpoints()` ranks with framed, per-channel
/// FIFO delivery: a frame sent from A to B is received by B, after every
/// frame A previously sent to B, via Recv(B, A). Nothing else is promised
/// — no ordering across channels, no delivery scheduling. That split is
/// the determinism contract (DESIGN.md §lamp::transport): the *runtime*
/// (MpcSimulator's merge phase, TransducerNetwork's Scheduler) decides
/// the order in which channels are drained, and because per-channel FIFO
/// is all it relies on, the same decisions replay on every backend. The
/// seeded Scheduler is therefore a delivery-order policy the transport
/// honors, and golden digests stay byte-identical across backends.
///
/// Two shapes of socket backend, both over 127.0.0.1 TCP stream sockets:
///  * MakeLoopbackTransport — every endpoint driven by one object.
///  * MeshTransport         — one rank of a p-rank socket mesh, for
///    runtimes that give each process (or thread) one endpoint.
/// The "inproc" kind has no Transport object: the runtimes keep their
/// zero-copy in-memory path for it.
///
/// The tcp loopback backend gives every endpoint one stream socket
/// (O(p) file descriptors instead of a p^2 mesh), and a sender writes
/// each frame straight into its destination's socket. Sends never block —
/// bytes the socket cannot take yet queue in userspace and the receiving
/// endpoint flushes them while it waits — so a round may send its entire
/// frame volume before any receiver starts draining, exactly what
/// MpcSimulator's route phase does: it hands the round's frames over in one
/// SendBatch call, and a loopback backend makes one write per destination
/// endpoint per round instead of one per frame. Framing, per-frame trace
/// events and the bytes on the wire are those of the equivalent Send
/// calls.
///
/// A loopback backend drives every endpoint itself; a mesh drives one and
/// reaches the rest over sockets (Transport::IsLocal). A remote receiver
/// cannot tell "nothing for you" from "not sent yet", so a runtime ships
/// each remote peer one frame per round, even an empty one.
///
/// Every backend emits kTransportSend/kTransportRecv/kTransportConnect
/// trace events carrying each frame's wire size, so serialization overhead
/// is measured, not modelled; the runtimes account wire bytes per server
/// from the frames they receive.

namespace lamp::transport {

enum class TransportKind : std::uint8_t {
  kInProcess = 0,
  kTcp = 1,
};

/// Stable names: "inproc", "tcp".
std::string_view TransportKindName(TransportKind kind);

/// Parses a TransportKindName; returns false on unknown names.
bool ParseTransportKind(std::string_view name, TransportKind* out);

/// A connected clique of endpoints. Send/Recv are safe to call from
/// different threads for different endpoints (and from lamp::par workers);
/// per-endpoint calls are internally serialized.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual std::size_t num_endpoints() const = 0;

  /// Enqueues \p frame from endpoint `frame.from` to endpoint `frame.to`.
  /// Never blocks indefinitely: the backend buffers as much as the round
  /// requires.
  virtual void Send(WireFrame frame) = 0;

  /// Enqueues every frame of \p frames, in order: the same deliveries
  /// and the same kTransportSend event per frame as one Send call each,
  /// which is what the default does. The loopback backend overrides it to
  /// coalesce each destination endpoint's frames into a single write.
  virtual void SendBatch(std::vector<WireFrame> frames) {
    for (WireFrame& frame : frames) Send(std::move(frame));
  }

  /// True when this object drives endpoint \p endpoint: Send may use it as
  /// `from` and Recv as `to`. Every endpoint of a loopback backend is
  /// local.
  virtual bool IsLocal(std::uint32_t /*endpoint*/) const { return true; }

  /// Blocks until a frame from \p from addressed to \p to is available and
  /// returns it, preserving per-channel FIFO order. Frames arriving on
  /// other channels of \p to are buffered, not lost.
  virtual WireFrame Recv(std::uint32_t to, std::uint32_t from) = 0;

  /// Releases the sockets. Idempotent; the destructor calls it.
  virtual void Shutdown() = 0;
};

/// Builds a connected tcp loopback transport with \p num_endpoints
/// endpoints. Aborts (LAMP_CHECK) if socket setup fails.
std::unique_ptr<Transport> MakeLoopbackTransport(std::size_t num_endpoints);

// --- blocking frame I/O on one file descriptor --------------------------
// Shared by the loopback handshake, the mesh channels and process report
// pipes.

/// Encodes \p frame and writes all of it, retrying short writes and
/// EINTR; aborts (LAMP_CHECK) on any other error.
void WriteFrame(int fd, const WireFrame& frame);

/// Blocking reader of the frame stream on one descriptor. Frames of an
/// unknown type (a newer peer's optional extension) are skipped with a
/// warning on stderr; a malformed stream or EOF mid-read aborts.
class FrameReader {
 public:
  FrameReader() = default;
  explicit FrameReader(int fd) : fd_(fd) {}

  int fd() const { return fd_; }

  /// Blocks until the next complete frame has arrived and returns it.
  WireFrame Read();

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
  std::uint64_t warned_skipped_ = 0;
};

// --- the process mesh ----------------------------------------------------

/// The seed every rank of a \p num_ranks mesh agrees on after the ring
/// exchange seeded with \p base_seed.
std::uint64_t RingSeed(std::uint64_t base_seed, std::size_t num_ranks);

/// The pre-fork half of a mesh: one 127.0.0.1 listener per rank. Each
/// rank's MeshTransport claims its own listener; Close() drops the
/// unclaimed rest (a forked worker after connecting, the launcher after
/// forking every worker).
class MeshSockets {
 public:
  explicit MeshSockets(std::size_t num_ranks);
  ~MeshSockets() { Close(); }
  MeshSockets(const MeshSockets&) = delete;
  MeshSockets& operator=(const MeshSockets&) = delete;

  void Close();

 private:
  friend class MeshTransport;
  std::vector<int> listeners_;  // Per rank.
  std::vector<std::uint16_t> ports_;
};

struct MeshOptions {
  std::uint64_t base_seed = 0;  // Ring seed exchange input.
  std::uint64_t features = 0;   // This rank's Hello feature bits.
  std::uint64_t trace_id = 0;   // Carried by kTraceCtx frames.
};

/// The ring exchange's receipt times in the installed tracer's clock (zero
/// untraced): the probes a trace merger aligns process clocks with.
struct RingProbe {
  std::uint64_t t0_ns = 0;    // Rank 0: fold-lap start.
  std::uint64_t t1_ns = 0;    // Rank 0: fold-lap end.
  std::uint64_t fold_ns = 0;  // Every rank: fold token receipt.
};

/// One rank of a true p-rank socket mesh: a connection to every other rank,
/// and only endpoint `rank` local. Connecting identifies ranks (each rank
/// dials every lower rank and announces itself with a kHello; accept order
/// is not rank order) and then runs the ring seed exchange: a
/// kHello token travels rank -> rank+1 twice, folding every rank's
/// contribution and ANDing its feature bits, then broadcasting both, and
/// the result is checked against RingSeed. With kHelloFeatureTraceCtx
/// negotiated, each kFactBatch is preceded by a kTraceCtx frame on its
/// channel and stamped with kDistSend/kDistRecv events; context frames are
/// not counted, so tracing never moves the audited byte counts. Calls on
/// the one local endpoint are not serialized: Send and Recv from one
/// thread at a time, as MpcSimulator::RunRound does.
class MeshTransport final : public Transport {
 public:
  /// Claims \p rank's listener of \p sockets, connects and runs the
  /// ring exchange; blocks until every rank has done the same.
  MeshTransport(MeshSockets& sockets, std::size_t rank,
                const MeshOptions& options);
  ~MeshTransport() override { Shutdown(); }
  MeshTransport(const MeshTransport&) = delete;
  MeshTransport& operator=(const MeshTransport&) = delete;

  std::size_t num_endpoints() const override { return channels_.size(); }
  bool IsLocal(std::uint32_t endpoint) const override {
    return endpoint == rank_;
  }
  void Send(WireFrame frame) override;
  WireFrame Recv(std::uint32_t to, std::uint32_t from) override;
  void Shutdown() override;

  const RingProbe& ring_probe() const { return probe_; }

 private:
  void RingExchange(const MeshOptions& options);

  std::uint32_t rank_;
  std::vector<FrameReader> channels_;  // Per peer; unset at rank_.
  std::uint64_t features_ = 0;         // Mesh-wide AND.
  std::uint64_t trace_id_ = 0;
  std::uint64_t next_span_ = 0;
  RingProbe probe_;
};

/// The process-wide backend selection honored by MpcSimulator and
/// TransducerNetwork. Defaults to kInProcess; SetActiveKind / --transport
/// override it.
TransportKind ActiveKind();
void SetActiveKind(TransportKind kind);

/// Strips a `--transport <kind>` / `--transport=<kind>` flag from argv
/// (mirroring par::ConfigureFromCommandLine) and applies it via
/// SetActiveKind. Unknown kinds abort with a usage message.
void ConfigureFromCommandLine(int* argc, char** argv);

}  // namespace lamp::transport

#endif  // LAMP_TRANSPORT_TRANSPORT_H_
