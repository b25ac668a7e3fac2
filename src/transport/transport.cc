#include "transport/transport.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/hash.h"
#include "obs/trace.h"

namespace lamp::transport {

namespace {

/// Read chunk size of the relay loop and the endpoint receive path.
constexpr std::size_t kReadChunk = 1 << 16;

void EmitConnect(TransportKind kind, std::size_t endpoints, std::size_t fds) {
  obs::Emit(obs::EventKind::kTransportConnect,
            static_cast<std::uint32_t>(endpoints),
            static_cast<std::uint32_t>(kind), fds);
}

void EmitSend(const WireFrame& frame) {
  obs::Emit(obs::EventKind::kTransportSend, frame.from, frame.to,
            FrameWireSize(frame));
}

void EmitRecv(const WireFrame& frame) {
  obs::Emit(obs::EventKind::kTransportRecv, frame.to, frame.from,
            FrameWireSize(frame));
}

/// The default backend: one FIFO deque per (from, to) channel. Frames are
/// never serialized, but trace events carry FrameWireSize, the bytes the
/// socket backends ship.
class InProcessTransport final : public Transport {
 public:
  explicit InProcessTransport(std::size_t num_endpoints)
      : n_(num_endpoints), channels_(num_endpoints * num_endpoints) {
    EmitConnect(TransportKind::kInProcess, n_, 0);
  }

  TransportKind kind() const override { return TransportKind::kInProcess; }
  std::size_t num_endpoints() const override { return n_; }

  void Send(WireFrame frame) override {
    LAMP_CHECK(frame.from < n_ && frame.to < n_);
    EmitSend(frame);
    Channel& ch = channels_[frame.from * n_ + frame.to];
    {
      std::lock_guard<std::mutex> lock(ch.mu);
      ch.frames.push_back(std::move(frame));
    }
    ch.cv.notify_one();
  }

  WireFrame Recv(std::uint32_t to, std::uint32_t from) override {
    LAMP_CHECK(from < n_ && to < n_);
    Channel& ch = channels_[static_cast<std::size_t>(from) * n_ + to];
    std::unique_lock<std::mutex> lock(ch.mu);
    ch.cv.wait(lock, [&ch] { return !ch.frames.empty(); });
    WireFrame frame = std::move(ch.frames.front());
    ch.frames.pop_front();
    lock.unlock();
    EmitRecv(frame);
    return frame;
  }

  void Shutdown() override {}

 private:
  struct Channel {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<WireFrame> frames;
  };

  std::size_t n_;
  std::vector<Channel> channels_;
};

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

/// Socket backends: every endpoint holds one stream socket whose peer end
/// belongs to a relay thread that forwards frames to their destination
/// endpoint. The relay polls, never blocks on writes (pending bytes queue
/// in userspace), so senders cannot deadlock against receivers that have
/// not started draining — the shape of an MPC communication phase.
class SocketRelayTransport final : public Transport {
 public:
  SocketRelayTransport(TransportKind kind, std::size_t num_endpoints)
      : kind_(kind), n_(num_endpoints), endpoints_(num_endpoints) {
    const std::vector<int> relay_fds =
        kind_ == TransportKind::kUds ? ConnectUds() : ConnectTcp();
    LAMP_CHECK_MSG(::pipe(wake_pipe_) == 0, "transport: pipe failed");
    EmitConnect(kind_, n_, 2 * n_);
    relay_ = std::thread([this, relay_fds] { RelayLoop(relay_fds); });
  }

  ~SocketRelayTransport() override { Shutdown(); }

  TransportKind kind() const override { return kind_; }
  std::size_t num_endpoints() const override { return n_; }

  void Send(WireFrame frame) override {
    LAMP_CHECK(frame.from < n_ && frame.to < n_);
    Endpoint& ep = endpoints_[frame.from];
    EmitSend(frame);
    {
      std::lock_guard<std::mutex> lock(ep.send_mu);
      WriteFrame(ep.reader.fd(), frame);
    }
  }

  /// One buffer per source endpoint, written once under its send lock.
  /// Frames keep their order within a source, so every channel stays
  /// FIFO.
  void SendBatch(std::vector<WireFrame> frames) override {
    std::vector<std::vector<std::uint8_t>> out(n_);
    for (const WireFrame& frame : frames) {
      LAMP_CHECK(frame.from < n_ && frame.to < n_);
      EmitSend(frame);
      AppendFrame(out[frame.from], frame);
    }
    for (std::size_t from = 0; from < n_; ++from) {
      if (out[from].empty()) continue;
      Endpoint& ep = endpoints_[from];
      std::lock_guard<std::mutex> lock(ep.send_mu);
      WriteAll(ep.reader.fd(), out[from].data(), out[from].size());
    }
  }

  WireFrame Recv(std::uint32_t to, std::uint32_t from) override {
    LAMP_CHECK(from < n_ && to < n_);
    Endpoint& ep = endpoints_[to];
    std::lock_guard<std::mutex> lock(ep.recv_mu);
    while (ep.inbox[from].empty()) {
      // Frames for other channels of `to` are buffered in their inbox,
      // preserving per-channel FIFO.
      WireFrame frame = ep.reader.Read();
      LAMP_CHECK_MSG(frame.to == to && frame.from < n_,
                     "transport: misrouted frame");
      ep.inbox[frame.from].push_back(std::move(frame));
    }
    WireFrame frame = std::move(ep.inbox[from].front());
    ep.inbox[from].pop_front();
    EmitRecv(frame);
    return frame;
  }

  void Shutdown() override {
    bool expected = false;
    if (!stopped_.compare_exchange_strong(expected, true)) return;
    // Wake the relay: one byte down the self-pipe, then join.
    const std::uint8_t byte = 0;
    WriteAll(wake_pipe_[1], &byte, 1);
    if (relay_.joinable()) relay_.join();
    ::close(wake_pipe_[0]);
    ::close(wake_pipe_[1]);
    for (Endpoint& ep : endpoints_) {
      if (ep.reader.fd() >= 0) ::close(ep.reader.fd());
      ep.reader = FrameReader();
    }
  }

 private:
  struct Endpoint {
    std::mutex send_mu;
    std::mutex recv_mu;
    FrameReader reader;
    std::vector<std::deque<WireFrame>> inbox;
  };

  /// One socketpair per endpoint: [0] stays with the endpoint, [1] goes to
  /// the relay. Rank mapping is positional — no handshake needed.
  std::vector<int> ConnectUds() {
    std::vector<int> relay_fds(n_, -1);
    for (std::size_t i = 0; i < n_; ++i) {
      int sv[2];
      LAMP_CHECK_MSG(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0,
                     "transport: socketpair failed");
      endpoints_[i].reader = FrameReader(sv[0]);
      endpoints_[i].inbox.resize(n_);
      relay_fds[i] = sv[1];
    }
    return relay_fds;
  }

  /// One listener on an ephemeral 127.0.0.1 port; every endpoint dials it
  /// and identifies itself with a kHello frame.
  std::vector<int> ConnectTcp() {
    std::uint16_t port = 0;
    const int listener = ListenLoopbackTcp(&port);
    std::vector<int> relay_fds(n_, -1);
    for (std::size_t i = 0; i < n_; ++i) {
      const auto rank = static_cast<std::uint32_t>(i);
      endpoints_[i].reader = FrameReader(DialHello(port, rank, rank));
      endpoints_[i].inbox.resize(n_);
      auto [accepted, announced] = AcceptHello(listener);
      LAMP_CHECK_MSG(announced < n_ && relay_fds[announced] == -1,
                     "transport: duplicate rank in handshake");
      relay_fds[announced] = accepted.fd();
    }
    ::close(listener);
    return relay_fds;
  }

  /// Forwards frames between endpoint sockets. Reads are level-triggered
  /// poll; writes are non-blocking with per-destination userspace queues.
  void RelayLoop(std::vector<int> fds) {
    std::vector<FrameDecoder> decoders(n_);
    // Pending output per destination: raw frame bytes plus a head cursor.
    std::vector<std::vector<std::uint8_t>> pending(n_);
    std::vector<std::size_t> head(n_, 0);
    std::vector<pollfd> poll_set(n_ + 1);

    for (std::size_t i = 0; i < n_; ++i) {
      const int flags = ::fcntl(fds[i], F_GETFL, 0);
      ::fcntl(fds[i], F_SETFL, flags | O_NONBLOCK);
    }

    while (true) {
      for (std::size_t i = 0; i < n_; ++i) {
        poll_set[i].fd = fds[i];
        poll_set[i].events = POLLIN;
        if (head[i] < pending[i].size()) poll_set[i].events |= POLLOUT;
        poll_set[i].revents = 0;
      }
      poll_set[n_] = {wake_pipe_[0], POLLIN, 0};
      const int rc = ::poll(poll_set.data(), poll_set.size(), -1);
      if (rc < 0 && errno == EINTR) continue;
      LAMP_CHECK_MSG(rc >= 0, "transport: poll failed");
      if ((poll_set[n_].revents & POLLIN) != 0) break;  // Shutdown.

      for (std::size_t i = 0; i < n_; ++i) {
        if ((poll_set[i].revents & (POLLIN | POLLHUP)) != 0) {
          std::uint8_t buf[kReadChunk];
          while (true) {
            const ssize_t n = ::read(fds[i], buf, sizeof buf);
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
            if (n < 0 && errno == EINTR) continue;
            if (n <= 0) break;  // Peer gone; shutdown will follow.
            decoders[i].Feed(buf, static_cast<std::size_t>(n));
            while (std::optional<WireFrame> frame = decoders[i].Next()) {
              LAMP_CHECK_MSG(frame->to < n_, "transport: bad destination");
              AppendFrame(pending[frame->to], *frame);
            }
            LAMP_CHECK_MSG(!decoders[i].error(),
                           "transport: relay saw corrupt stream");
            if (static_cast<std::size_t>(n) < sizeof buf) break;
          }
        }
        if (head[i] < pending[i].size() &&
            (poll_set[i].revents & POLLOUT) != 0) {
          const ssize_t n = ::write(fds[i], pending[i].data() + head[i],
                                    pending[i].size() - head[i]);
          if (n > 0) head[i] += static_cast<std::size_t>(n);
          if (head[i] == pending[i].size()) {
            pending[i].clear();
            head[i] = 0;
          } else if (head[i] > (1u << 20) && head[i] * 2 > pending[i].size()) {
            pending[i].erase(pending[i].begin(),
                             pending[i].begin() +
                                 static_cast<std::ptrdiff_t>(head[i]));
            head[i] = 0;
          }
        }
      }
    }
    for (const int fd : fds) ::close(fd);
  }

  TransportKind kind_;
  std::size_t n_;
  std::vector<Endpoint> endpoints_;
  int wake_pipe_[2] = {-1, -1};
  std::thread relay_;
  std::atomic<bool> stopped_{false};
};

/// Rank \p rank's term of the ring fold (RingSeed's closed form).
std::uint64_t RingContribution(std::uint64_t base, std::size_t rank) {
  return HashMix(base ^ static_cast<std::uint64_t>(rank + 1));
}

TransportKind g_active_kind = TransportKind::kInProcess;
bool g_active_kind_set = false;

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

MeshSockets::MeshSockets(TransportKind kind, std::size_t num_ranks)
    : kind_(kind), n_(num_ranks) {
  LAMP_CHECK(num_ranks > 0 && kind != TransportKind::kInProcess);
  if (kind_ == TransportKind::kTcp) {
    listeners_.resize(n_);
    ports_.resize(n_);
    for (std::size_t r = 0; r < n_; ++r) {
      listeners_[r] = ListenLoopbackTcp(&ports_[r]);
    }
    return;
  }
  pair_ends_.assign(n_ * n_, -1);
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = i + 1; j < n_; ++j) {
      int sv[2];
      LAMP_CHECK_MSG(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0,
                     "transport: socketpair failed");
      pair_ends_[i * n_ + j] = sv[0];
      pair_ends_[j * n_ + i] = sv[1];
    }
  }
}

void MeshSockets::Close() {
  for (std::vector<int>* fds : {&listeners_, &pair_ends_}) {
    for (int& fd : *fds) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
  }
}

MeshTransport::MeshTransport(MeshSockets& sockets, std::size_t rank,
                             const MeshOptions& options)
    : kind_(sockets.kind_),
      rank_(static_cast<std::uint32_t>(rank)),
      channels_(sockets.n_),
      trace_id_(options.trace_id) {
  const std::size_t p = sockets.n_;
  LAMP_CHECK(rank < p);
  // Claiming touches only this rank's slots, so ranks on different
  // threads may connect concurrently.
  const auto claim = [](int& slot) {
    LAMP_CHECK_MSG(slot >= 0, "transport: mesh rank claimed twice");
    return std::exchange(slot, -1);
  };
  if (kind_ == TransportKind::kTcp) {
    const int listener = claim(sockets.listeners_[rank]);
    for (std::uint32_t peer = 0; peer < rank_; ++peer) {
      channels_[peer] =
          FrameReader(DialHello(sockets.ports_[peer], rank_, peer));
    }
    for (std::size_t n = rank + 1; n < p; ++n) {
      auto [chan, peer] = AcceptHello(listener);
      LAMP_CHECK(peer > rank && peer < p && channels_[peer].fd() < 0);
      channels_[peer] = std::move(chan);
    }
    ::close(listener);
  } else {
    for (std::size_t peer = 0; peer < p; ++peer) {
      if (peer == rank) continue;
      channels_[peer] = FrameReader(claim(sockets.pair_ends_[rank * p + peer]));
    }
  }
  EmitConnect(kind_, p, p - 1);
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
    case TransportKind::kUds:
      return "uds";
  }
  return "unknown";
}

bool ParseTransportKind(std::string_view name, TransportKind* out) {
  if (name == "inproc" || name == "inprocess" || name == "in-process") {
    *out = TransportKind::kInProcess;
    return true;
  }
  if (name == "tcp") {
    *out = TransportKind::kTcp;
    return true;
  }
  if (name == "uds" || name == "unix") {
    *out = TransportKind::kUds;
    return true;
  }
  return false;
}

std::unique_ptr<Transport> MakeLoopbackTransport(TransportKind kind,
                                                 std::size_t num_endpoints) {
  LAMP_CHECK(num_endpoints > 0);
  if (kind == TransportKind::kInProcess) {
    return std::make_unique<InProcessTransport>(num_endpoints);
  }
  return std::make_unique<SocketRelayTransport>(kind, num_endpoints);
}

TransportKind ActiveKind() {
  if (!g_active_kind_set) {
    g_active_kind_set = true;
    const char* env = std::getenv("LAMP_TRANSPORT");
    if (env != nullptr && env[0] != '\0') {
      TransportKind kind;
      if (ParseTransportKind(env, &kind)) {
        g_active_kind = kind;
      } else {
        std::fprintf(stderr, "transport: unknown LAMP_TRANSPORT '%s'\n", env);
      }
    }
  }
  return g_active_kind;
}

void SetActiveKind(TransportKind kind) {
  g_active_kind = kind;
  g_active_kind_set = true;
}

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
                   "usage: --transport {inproc,tcp,uds} (got '%s')\n", value);
      std::exit(2);
    }
    SetActiveKind(kind);
  }
  argv[out] = nullptr;
  *argc = out;
}

}  // namespace lamp::transport
