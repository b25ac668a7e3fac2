#include "transport/transport.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/hash.h"
#include "obs/trace.h"

namespace lamp::transport {

namespace {

/// Read chunk size of the socket receive paths.
constexpr std::size_t kReadChunk = 1 << 16;

void EmitConnect(std::size_t endpoints, std::size_t fds) {
  obs::Emit(obs::EventKind::kTransportConnect,
            static_cast<std::uint32_t>(endpoints),
            static_cast<std::uint32_t>(TransportKind::kTcp), fds);
}

void EmitSend(const WireFrame& frame) {
  obs::Emit(obs::EventKind::kTransportSend, frame.from, frame.to,
            FrameWireSize(frame));
}

void EmitRecv(const WireFrame& frame) {
  obs::Emit(obs::EventKind::kTransportRecv, frame.to, frame.from,
            FrameWireSize(frame));
}

/// Writes all \p size bytes, retrying short writes and EINTR.
void WriteAll(int fd, const std::uint8_t* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      LAMP_CHECK_MSG(false, "transport: write failed");
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
}

WireFrame HelloFrame(std::uint32_t from, std::uint32_t to, std::uint64_t seed,
                     std::uint64_t features) {
  return {kWireVersion, FrameType::kHello, from, to,
          EncodeHelloPayload(from, seed, features)};
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

sockaddr_in LoopbackAddr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

/// A listener on an ephemeral 127.0.0.1 port, stored in \p port.
int ListenLoopbackTcp(std::uint16_t* port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  LAMP_CHECK_MSG(fd >= 0, "transport: socket failed");
  sockaddr_in addr = LoopbackAddr(0);
  LAMP_CHECK_MSG(
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0,
      "transport: bind failed");
  LAMP_CHECK_MSG(::listen(fd, SOMAXCONN) == 0, "transport: listen failed");
  socklen_t len = sizeof addr;
  LAMP_CHECK(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) ==
             0);
  *port = ntohs(addr.sin_port);
  return fd;
}

int ConnectLoopbackTcp(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  LAMP_CHECK_MSG(fd >= 0, "transport: socket failed");
  const sockaddr_in addr = LoopbackAddr(port);
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  } while (rc != 0 && errno == EINTR);
  LAMP_CHECK_MSG(rc == 0, "transport: connect failed");
  SetNoDelay(fd);
  return fd;
}

/// Dials 127.0.0.1:\p port and announces rank \p from with a kHello.
int DialHello(std::uint16_t port, std::uint32_t from, std::uint32_t to) {
  const int fd = ConnectLoopbackTcp(port);
  WriteFrame(fd, HelloFrame(from, to, 0, 0));
  return fd;
}

/// Accepts one connection on \p listener and reads the rank its dialer
/// announced (accept order is not rank order).
std::pair<FrameReader, std::uint64_t> AcceptHello(int listener) {
  int fd;
  do {
    fd = ::accept(listener, nullptr, nullptr);
  } while (fd < 0 && errno == EINTR);
  LAMP_CHECK_MSG(fd >= 0, "transport: accept failed");
  SetNoDelay(fd);
  FrameReader chan(fd);
  const WireFrame frame = chan.Read();
  LAMP_CHECK(frame.type == FrameType::kHello);
  const auto hello = DecodeHelloPayload(frame.payload);
  LAMP_CHECK(hello.has_value());
  return {std::move(chan), hello->rank};
}

/// The tcp loopback backend. Every endpoint owns one stream socket,
/// and a sender writes each frame straight into its destination's socket:
/// it appends the bytes to the destination's userspace queue and writes
/// whatever the socket takes without blocking. The destination reads its
/// socket and files frames into per-source inboxes, so every channel
/// stays FIFO. A Recv waiting for bytes flushes its own endpoint's queue
/// between reads, so a round may queue its entire frame volume before any
/// receiver starts draining — the shape of an MPC communication phase —
/// and no thread is needed to move it.
class SocketTransport final : public Transport {
 public:
  explicit SocketTransport(std::size_t num_endpoints)
      : n_(num_endpoints), endpoints_(num_endpoints) {
    for (Endpoint& ep : endpoints_) ep.inbox.resize(n_);
    Connect();
    EmitConnect(n_, 2 * n_);
  }

  ~SocketTransport() override { Shutdown(); }

  std::size_t num_endpoints() const override { return n_; }

  void Send(WireFrame frame) override {
    LAMP_CHECK(frame.from < n_ && frame.to < n_);
    EmitSend(frame);
    Endpoint& ep = endpoints_[frame.to];
    std::lock_guard<std::mutex> lock(ep.send_mu);
    AppendFrame(ep.queue, frame);
    Flush(ep);
  }

  /// One buffer per destination endpoint, queued and written once under
  /// its send lock. Frames keep their order within a destination, so
  /// every channel stays FIFO.
  void SendBatch(std::vector<WireFrame> frames) override {
    std::vector<std::vector<std::uint8_t>> out(n_);
    for (const WireFrame& frame : frames) {
      LAMP_CHECK(frame.from < n_ && frame.to < n_);
      EmitSend(frame);
      AppendFrame(out[frame.to], frame);
    }
    for (std::size_t to = 0; to < n_; ++to) {
      if (out[to].empty()) continue;
      Endpoint& ep = endpoints_[to];
      std::lock_guard<std::mutex> lock(ep.send_mu);
      if (ep.queue.empty()) {
        ep.queue.swap(out[to]);
      } else {
        ep.queue.insert(ep.queue.end(), out[to].begin(), out[to].end());
      }
      Flush(ep);
    }
  }

  WireFrame Recv(std::uint32_t to, std::uint32_t from) override {
    LAMP_CHECK(from < n_ && to < n_);
    Endpoint& ep = endpoints_[to];
    std::lock_guard<std::mutex> lock(ep.recv_mu);
    while (ep.inbox[from].empty()) {
      // Never block in a read: the rest of a half-read frame may still sit
      // in this endpoint's queue, so every pass flushes it first and
      // waits in poll, on the write end too while bytes remain queued.
      bool queued;
      {
        std::lock_guard<std::mutex> send_lock(ep.send_mu);
        queued = Flush(ep);
      }
      std::uint8_t buf[kReadChunk];
      const ssize_t n = ::recv(ep.read_fd, buf, sizeof buf, MSG_DONTWAIT);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        pollfd fds[2] = {{ep.read_fd, POLLIN, 0}, {ep.write_fd, POLLOUT, 0}};
        const int rc = ::poll(fds, queued ? 2 : 1, -1);
        LAMP_CHECK_MSG(rc >= 0 || errno == EINTR, "transport: poll failed");
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      LAMP_CHECK_MSG(n > 0, "transport: peer closed mid-frame");
      ep.decoder.Feed(buf, static_cast<std::size_t>(n));
      while (std::optional<WireFrame> frame = ep.decoder.Next()) {
        LAMP_CHECK_MSG(frame->to == to && frame->from < n_,
                       "transport: misrouted frame");
        ep.inbox[frame->from].push_back(*std::move(frame));
      }
      LAMP_CHECK_MSG(!ep.decoder.error(), "transport: corrupt frame stream");
    }
    WireFrame frame = std::move(ep.inbox[from].front());
    ep.inbox[from].pop_front();
    EmitRecv(frame);
    return frame;
  }

  void Shutdown() override {
    for (Endpoint& ep : endpoints_) {
      for (int* fd : {&ep.write_fd, &ep.read_fd}) {
        if (*fd >= 0) ::close(*fd);
        *fd = -1;
      }
    }
  }

 private:
  struct Endpoint {
    std::mutex send_mu;  // Guards queue, head and writes to write_fd.
    std::vector<std::uint8_t> queue;  // Frame bytes; [head, end) unwritten.
    std::size_t head = 0;
    int write_fd = -1;
    std::mutex recv_mu;  // Guards reads of read_fd, decoder and inbox.
    int read_fd = -1;
    FrameDecoder decoder;
    std::vector<std::deque<WireFrame>> inbox;  // Per source.
  };

  /// Writes as much of \p ep's queue as its socket takes without
  /// blocking; returns whether bytes remain. The caller holds ep.send_mu.
  static bool Flush(Endpoint& ep) {
    while (ep.head < ep.queue.size()) {
      const ssize_t n =
          ::send(ep.write_fd, ep.queue.data() + ep.head,
                 ep.queue.size() - ep.head, MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      LAMP_CHECK_MSG(n > 0, "transport: write failed");
      ep.head += static_cast<std::size_t>(n);
    }
    if (ep.head == ep.queue.size()) {
      ep.queue.clear();
      ep.head = 0;
      return false;
    }
    // Drop a large written prefix once it dominates: a head cursor, not
    // an erase per partial write.
    if (ep.head > (1u << 20) && ep.head * 2 > ep.queue.size()) {
      ep.queue.erase(ep.queue.begin(),
                     ep.queue.begin() + static_cast<std::ptrdiff_t>(ep.head));
      ep.head = 0;
    }
    return true;
  }

  /// One listener on an ephemeral 127.0.0.1 port. Each endpoint's write
  /// end dials it and announces the endpoint's rank with a kHello; the
  /// accepted connection becomes that rank's read end.
  void Connect() {
    std::uint16_t port = 0;
    const int listener = ListenLoopbackTcp(&port);
    for (std::size_t i = 0; i < n_; ++i) {
      const auto rank = static_cast<std::uint32_t>(i);
      endpoints_[i].write_fd = DialHello(port, rank, rank);
      auto [accepted, announced] = AcceptHello(listener);
      LAMP_CHECK_MSG(announced < n_ && endpoints_[announced].read_fd == -1,
                     "transport: duplicate rank in handshake");
      endpoints_[announced].read_fd = accepted.fd();
    }
    ::close(listener);
  }

  std::size_t n_;
  std::vector<Endpoint> endpoints_;
};

/// Rank \p rank's term of the ring fold (RingSeed's closed form).
std::uint64_t RingContribution(std::uint64_t base, std::size_t rank) {
  return HashMix(base ^ static_cast<std::uint64_t>(rank + 1));
}

TransportKind g_active_kind = TransportKind::kInProcess;

}  // namespace

// --- blocking frame I/O -----------------------------------------------------

void WriteFrame(int fd, const WireFrame& frame) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(FrameWireSize(frame));
  AppendFrame(bytes, frame);
  WriteAll(fd, bytes.data(), bytes.size());
}

WireFrame FrameReader::Read() {
  for (;;) {
    if (std::optional<WireFrame> frame = decoder_.Next()) {
      if (decoder_.unknown_skipped() > warned_skipped_) {
        std::fprintf(stderr,
                     "transport: warning: skipped %llu frame(s) of unknown"
                     " type 0x%02x on fd %d\n",
                     static_cast<unsigned long long>(
                         decoder_.unknown_skipped() - warned_skipped_),
                     decoder_.last_unknown_type(), fd_);
        warned_skipped_ = decoder_.unknown_skipped();
      }
      return *std::move(frame);
    }
    LAMP_CHECK_MSG(!decoder_.error(), "transport: corrupt frame stream");
    std::uint8_t buf[kReadChunk];
    const ssize_t n = ::read(fd_, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    LAMP_CHECK_MSG(n > 0, "transport: peer closed mid-frame");
    decoder_.Feed(buf, static_cast<std::size_t>(n));
  }
}

// --- the process mesh -------------------------------------------------------

std::uint64_t RingSeed(std::uint64_t base_seed, std::size_t num_ranks) {
  std::uint64_t h = HashMix(base_seed);
  for (std::size_t r = 0; r < num_ranks; ++r) {
    h = HashCombine(h, RingContribution(base_seed, r));
  }
  return h;
}

MeshSockets::MeshSockets(std::size_t num_ranks)
    : listeners_(num_ranks), ports_(num_ranks) {
  LAMP_CHECK(num_ranks > 0);
  for (std::size_t r = 0; r < num_ranks; ++r) {
    listeners_[r] = ListenLoopbackTcp(&ports_[r]);
  }
}

void MeshSockets::Close() {
  for (int& fd : listeners_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
}

MeshTransport::MeshTransport(MeshSockets& sockets, std::size_t rank,
                             const MeshOptions& options)
    : rank_(static_cast<std::uint32_t>(rank)),
      channels_(sockets.listeners_.size()),
      trace_id_(options.trace_id) {
  const std::size_t p = channels_.size();
  LAMP_CHECK(rank < p);
  // Claiming touches only this rank's slot, so ranks on different threads
  // may connect concurrently.
  LAMP_CHECK_MSG(sockets.listeners_[rank] >= 0,
                 "transport: mesh rank claimed twice");
  const int listener = std::exchange(sockets.listeners_[rank], -1);
  for (std::uint32_t peer = 0; peer < rank_; ++peer) {
    channels_[peer] = FrameReader(DialHello(sockets.ports_[peer], rank_, peer));
  }
  for (std::size_t n = rank + 1; n < p; ++n) {
    auto [chan, peer] = AcceptHello(listener);
    LAMP_CHECK(peer > rank && peer < p && channels_[peer].fd() < 0);
    channels_[peer] = std::move(chan);
  }
  ::close(listener);
  EmitConnect(p, p - 1);
  RingExchange(options);
}

void MeshTransport::RingExchange(const MeshOptions& options) {
  const std::size_t p = channels_.size();
  const std::uint64_t base = options.base_seed;
  features_ = options.features;
  if (p == 1) return;
  obs::TraceSpan span("mesh.seed_exchange", rank_);
  const obs::Tracer* clock = obs::InstalledTracer();
  const auto now = [clock] { return clock != nullptr ? clock->NowNs() : 0; };
  const auto succ = static_cast<std::uint32_t>((rank_ + 1) % p);
  FrameReader& pred = channels_[(rank_ + p - 1) % p];
  const auto send = [&](std::uint64_t token, std::uint64_t features) {
    WriteFrame(channels_[succ].fd(), HelloFrame(rank_, succ, token, features));
  };
  const auto receive = [&pred] {
    const WireFrame frame = pred.Read();
    LAMP_CHECK(frame.type == FrameType::kHello);
    const auto payload = DecodeHelloPayload(frame.payload);
    LAMP_CHECK(payload.has_value());
    return *payload;
  };
  // Fold lap: the token starts at rank 0 as HashMix(base); every rank
  // folds in its contribution and ANDs in its feature bits. Rank 0 then
  // holds the result, and the broadcast lap hands it once around.
  HelloPayload token{0, HashMix(base), options.features};
  if (rank_ != 0) token = receive();
  probe_.fold_ns = now();
  if (rank_ == 0) probe_.t0_ns = probe_.fold_ns;
  send(HashCombine(token.seed, RingContribution(base, rank_)),
       token.features & options.features);
  token = receive();  // Rank 0: the fold. Others: the broadcast.
  if (rank_ == 0) probe_.t1_ns = now();
  if (succ != 0) send(token.seed, token.features);
  features_ = token.features;
  LAMP_CHECK_MSG(token.seed == RingSeed(base, p),
                 "transport: ring seed exchange disagrees with the closed"
                 " form");
}

void MeshTransport::Send(WireFrame frame) {
  LAMP_CHECK(frame.from == rank_ && frame.to < channels_.size() &&
             frame.to != rank_);
  const int fd = channels_[frame.to].fd();
  if ((features_ & kHelloFeatureTraceCtx) != 0 &&
      frame.type == FrameType::kFactBatch) {
    // The context frame rides the same channel just ahead of the batch,
    // so the receiver can pair its recv event with this send.
    WireReader payload(frame.payload);
    const std::uint64_t round = payload.ReadVarint().value_or(0);
    const std::uint64_t span = next_span_++;
    WriteFrame(fd, {kWireVersion, FrameType::kTraceCtx, rank_, frame.to,
                    EncodeTraceCtxPayload(trace_id_, span, round)});
    obs::Emit(obs::EventKind::kDistSend, frame.to,
              static_cast<std::uint32_t>(round), span);
  }
  EmitSend(frame);
  WriteFrame(fd, frame);
}

WireFrame MeshTransport::Recv(std::uint32_t to, std::uint32_t from) {
  LAMP_CHECK(to == rank_ && from < channels_.size() && from != rank_);
  FrameReader& chan = channels_[from];
  WireFrame frame = chan.Read();
  std::optional<TraceCtxPayload> ctx;
  if (frame.type == FrameType::kTraceCtx) {
    ctx = DecodeTraceCtxPayload(frame.payload);
    LAMP_CHECK_MSG(ctx.has_value() && ctx->trace_id == trace_id_,
                   "transport: trace context from a different run");
    frame = chan.Read();
  }
  LAMP_CHECK_MSG(frame.from == from && frame.to == to,
                 "transport: misrouted frame");
  EmitRecv(frame);
  if (ctx.has_value()) {
    obs::Emit(obs::EventKind::kDistRecv, from,
              static_cast<std::uint32_t>(ctx->round), ctx->span);
  }
  return frame;
}

void MeshTransport::Shutdown() {
  for (FrameReader& chan : channels_) {
    if (chan.fd() >= 0) ::close(chan.fd());
    chan = FrameReader();
  }
}

std::string_view TransportKindName(TransportKind kind) {
  switch (kind) {
    case TransportKind::kInProcess:
      return "inproc";
    case TransportKind::kTcp:
      return "tcp";
  }
  return "unknown";
}

bool ParseTransportKind(std::string_view name, TransportKind* out) {
  if (name == "inproc") {
    *out = TransportKind::kInProcess;
    return true;
  }
  if (name == "tcp") {
    *out = TransportKind::kTcp;
    return true;
  }
  return false;
}

std::unique_ptr<Transport> MakeLoopbackTransport(std::size_t num_endpoints) {
  LAMP_CHECK(num_endpoints > 0);
  return std::make_unique<SocketTransport>(num_endpoints);
}

TransportKind ActiveKind() { return g_active_kind; }

void SetActiveKind(TransportKind kind) { g_active_kind = kind; }

void ConfigureFromCommandLine(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    if (std::strncmp(arg, "--transport=", 12) == 0) {
      value = arg + 12;
    } else if (std::strcmp(arg, "--transport") == 0 && i + 1 < *argc) {
      value = argv[++i];
    }
    if (value == nullptr) {
      argv[out++] = argv[i];
      continue;
    }
    TransportKind kind;
    if (!ParseTransportKind(value, &kind)) {
      std::fprintf(stderr,
                   "usage: --transport {inproc,tcp} (got '%s')\n", value);
      std::exit(2);
    }
    SetActiveKind(kind);
  }
  argv[out] = nullptr;
  *argc = out;
}

}  // namespace lamp::transport
