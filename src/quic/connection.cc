#include "quic/connection.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "cc/cubic.h"
#include "cc/newreno.h"
#include "common/clock.h"
#include "common/log.h"
#include "obs/prof.h"
#include "quic/audit.h"

namespace mpq::quic {

Connection::Connection(sim::Simulator& sim, Perspective perspective,
                       ConnectionId cid, ConnectionConfig config, Rng rng,
                       SendFunction send)
    : sim_(sim),
      perspective_(perspective),
      cid_(cid),
      config_(config),
      rng_(rng),
      scheduler_(MakeScheduler(config.scheduler)),
      flow_(config.receive_window) {
  if (config_.congestion == CongestionAlgo::kOlia) {
    olia_ = std::make_unique<cc::OliaCoordinator>(config_.max_packet_size);
  } else if (config_.congestion == CongestionAlgo::kLia) {
    lia_ = std::make_unique<cc::LiaCoordinator>(config_.max_packet_size);
  }
  // The delegate casts must happen here, inside a Connection member,
  // where the private bases are accessible.
  recovery_ = std::make_unique<RecoveryManager>(
      sim_, stats_, config_.failed_path_probe_interval, config_.max_rto,
      static_cast<RecoveryDelegate&>(*this));
  assembler_ = std::make_unique<PacketAssembler>(
      sim_, config_, cid_, stats_, flow_, send_streams_, control_, *recovery_,
      static_cast<AssemblerDelegate&>(*this), std::move(send));
  dispatcher_ = std::make_unique<FrameDispatcher>(
      sim_, cid_, stats_, flow_, static_cast<DispatchDelegate&>(*this));
  handshake_ = std::make_unique<HandshakeLayer>(
      sim_, perspective_, cid_, config_, rng_,
      static_cast<HandshakeDelegate&>(*this));
  if (config_.idle_timeout > 0) {
    connection_idle_timer_ = std::make_unique<sim::Timer>(sim_, [this] {
      // The timer is rearmed on packet activity, but a path outage can
      // silence both directions for its full duration: nothing arrives,
      // and once the probe/RTO backoff exceeds the idle timeout nothing
      // is sent either. Killing the connection then turns every outage
      // longer than the idle timeout into a spurious close even though
      // recovery is still working on it — so while the transfer is
      // unfinished or data is in flight, the timer only rearms.
      if (ExpectingData() || AnyPathInFlight()) {
        connection_idle_timer_->SetIn(config_.idle_timeout);
        return;
      }
      MPQ_DEBUG(sim_.now(), "quic", "cid=%llu idle timeout",
                static_cast<unsigned long long>(cid_));
      Close(0, "idle timeout");
    });
    connection_idle_timer_->SetIn(config_.idle_timeout);
  }
  if (config_.migrate_on_path_failure &&
      perspective_ == Perspective::kClient) {
    idle_timer_ =
        std::make_unique<sim::Timer>(sim_, [this] { OnIdleFailureTimer(); });
  }
}

Connection::~Connection() = default;

void Connection::SetTracer(ConnectionTracer* tracer) {
  tracer_ = tracer;
  recovery_->SetTracer(tracer);
  assembler_->SetTracer(tracer);
  dispatcher_->SetTracer(tracer);
  handshake_->SetTracer(tracer);
}

void Connection::SetStreamDataHandler(StreamDataHandler handler) {
  dispatcher_->SetStreamDataHandler(std::move(handler));
}

bool Connection::ExpectingData() const {
  if (dispatcher_->AnyRecvStreamUnfinished()) return true;
  for (const auto& [id, stream] : send_streams_) {
    if (!stream->AllDataSentOnce()) return true;
  }
  return false;
}

bool Connection::AnyPathInFlight() const {
  for (const auto& [id, path] : paths_) {
    if (path->HasInFlight()) return true;
  }
  return false;
}

void Connection::OnIdleFailureTimer() {
  if (closed_ || !established_) return;
  AuditScope audit(*this);
  if (ExpectingData() && !paths_.empty()) {
    Path& path = *paths_.begin()->second;
    if (tracer_ != nullptr && !path.potentially_failed()) {
      tracer_->OnPathStateChange(sim_.now(), path.id(), "potentially-failed");
    }
    path.set_potentially_failed(true);
    TryAutoMigrate(path);
  }
  idle_timer_->SetIn(config_.idle_failure_timeout);
}

void Connection::SetLocalAddresses(std::vector<sim::Address> addresses) {
  local_addresses_ = std::move(addresses);
}

std::vector<const Path*> Connection::paths() const {
  std::vector<const Path*> out;
  out.reserve(paths_.size());
  for (const auto& [id, path] : paths_) out.push_back(path.get());
  return out;
}

Path* Connection::GetPath(PathId id) {
  auto it = paths_.find(id);
  return it == paths_.end() ? nullptr : it->second.get();
}

std::vector<Path*> Connection::PathPointers() {
  std::vector<Path*> out;
  out.reserve(paths_.size());
  for (auto& [id, path] : paths_) out.push_back(path.get());
  return out;
}

std::unique_ptr<cc::CongestionController> Connection::MakeController() {
  switch (config_.congestion) {
    case CongestionAlgo::kOlia:
      return olia_->CreateController();
    case CongestionAlgo::kLia:
      return lia_->CreateController();
    case CongestionAlgo::kNewReno:
      return std::make_unique<cc::NewReno>(config_.max_packet_size);
    case CongestionAlgo::kCubic:
      break;
  }
  return std::make_unique<cc::Cubic>(config_.max_packet_size);
}

Path& Connection::CreatePath(PathId id, sim::Address local,
                             sim::Address remote) {
  auto [it, inserted] = paths_.emplace(
      id, std::make_unique<Path>(id, local, remote, MakeController()));
  assert(inserted);
  recovery_->RegisterPath(*it->second);
  assembler_->RegisterPath(*it->second);
  MPQ_DEBUG(sim_.now(), "quic", "cid=%llu new path %u",
            static_cast<unsigned long long>(cid_), id.value());
  if (tracer_ != nullptr) {
    tracer_->OnPathStateChange(sim_.now(), id, "created");
  }
  return *it->second;
}

// ---------------------------------------------------------------------------
// Handshake (the state machine lives in quic/handshake.h; these are the
// composer-side effects it triggers through HandshakeDelegate)

void Connection::Connect(sim::Address server_address) {
  assert(perspective_ == Perspective::kClient);
  assert(!local_addresses_.empty());
  CreatePath(PathId{0}, local_addresses_[0], server_address);
  handshake_->StartClient();
}

void Connection::OnHandshakeKeys(
    std::unique_ptr<crypto::PacketProtection> seal,
    std::unique_ptr<crypto::PacketProtection> open) {
  assembler_->SetSealer(std::move(seal));
  dispatcher_->SetOpener(std::move(open));
}

void Connection::SendHandshakeFrames(std::vector<Frame>& frames) {
  assembler_->TransmitPacket(*paths_.at(PathId{0}), frames,
                             /*retransmittable=*/false,
                             /*handshake_cleartext=*/true);
}

void Connection::RecordHandshakePacketNumber(PathId path,
                                             PacketNumber truncated,
                                             std::size_t pn_length) {
  if (auto it = paths_.find(path); it != paths_.end()) {
    const PacketNumber full = DecodePacketNumber(
        it->second->receiver().largest_received(), truncated, pn_length);
    it->second->receiver().OnPacketReceived(full, sim_.now());
  }
}

void Connection::OnServerChloAccepted(sim::Address local,
                                      sim::Address remote) {
  CreatePath(PathId{0}, local, remote);
  BecomeEstablished();
}

void Connection::OnPeerAddresses(std::vector<sim::Address> addresses) {
  peer_addresses_ = std::move(addresses);
}

void Connection::OnClientHandshakeComplete() {
  OpenClientPaths();
  BecomeEstablished();
  TrySend();
}

void Connection::OnZeroRttConfirmed(
    const std::vector<sim::Address>& peer_addresses) {
  if (peer_addresses_.empty()) {
    peer_addresses_ = peer_addresses;
    OpenClientPaths();
  }
}

void Connection::AddHandshakeRttSample(Duration rtt, bool only_if_no_sample) {
  Path& path = *paths_.at(PathId{0});
  if (only_if_no_sample && path.rtt().has_sample()) return;
  // The CHLO/SHLO exchange gives the initial path its first RTT sample —
  // one of the reasons MPQUIC starts with usable latency estimates.
  path.rtt().AddSample(rtt, 0);
}

void Connection::OnHandshakeFailed() { closed_ = true; }

void Connection::BecomeEstablished() {
  established_ = true;
  assembler_->set_established(true);
  MPQ_DEBUG(sim_.now(), "quic", "cid=%llu established (%s)",
            static_cast<unsigned long long>(cid_),
            perspective_ == Perspective::kClient ? "client" : "server");
  if (tracer_ != nullptr) {
    tracer_->OnHandshakeEvent(sim_.now(), "established");
  }
  // §3 "Path Management": advertise our other addresses so the peer can
  // open paths toward them (the server already put its own in the SHLO).
  if (config_.multipath && config_.advertise_addresses &&
      perspective_ == Perspective::kClient && local_addresses_.size() > 1) {
    EnqueueControl(AddAddressFrame{local_addresses_});
  }
  if (on_established_) on_established_();
}

// ---------------------------------------------------------------------------
// Path management (§3 "Path Management")

void Connection::MaybeOpenServerPaths() {
  if (!config_.multipath || !config_.allow_server_paths ||
      perspective_ != Perspective::kServer || !established_) {
    return;
  }
  PathId next_even{2};
  for (const auto& [id, path] : paths_) {
    if (id % 2 == 0 && id >= next_even) {
      next_even = static_cast<PathId>(id + 2);
    }
  }
  for (const auto& remote : peer_addresses_) {
    bool used = false;
    for (const auto& [id, path] : paths_) {
      if (path->remote_address() == remote) used = true;
    }
    if (used) continue;
    const sim::Address* local = nullptr;
    for (const auto& addr : local_addresses_) {
      if (addr.iface == remote.iface) {
        local = &addr;
        break;
      }
    }
    if (local == nullptr) continue;
    CreatePath(next_even, *local, remote);
    next_even = static_cast<PathId>(next_even + 2);
  }
  TrySend();
}

void Connection::RemoveLocalAddress(sim::Address address) {
  if (closed_) return;
  std::erase(local_addresses_, address);
  for (auto& [id, path] : paths_) {
    if (path->local_address() == address) {
      if (tracer_ != nullptr && !path->potentially_failed()) {
        tracer_->OnPathStateChange(sim_.now(), id, "potentially-failed");
      }
      path->set_potentially_failed(true);
      recovery_->RequeueLostFrames(id,
                                   path->OnRetransmissionTimeout(sim_.now()));
    }
  }
  EnqueueControl(RemoveAddressFrame{{address}});
  TrySend();
}

void Connection::AddLocalAddress(sim::Address address) {
  if (closed_) return;
  if (std::find(local_addresses_.begin(), local_addresses_.end(), address) ==
      local_addresses_.end()) {
    local_addresses_.push_back(address);
  }
  for (auto& [id, path] : paths_) {
    if (path->local_address() == address && path->potentially_failed()) {
      path->set_potentially_failed(false);
      if (tracer_ != nullptr) {
        tracer_->OnPathStateChange(sim_.now(), id, "recovered");
      }
    }
  }
  EnqueueControl(AddAddressFrame{{address}});
  TrySend();
}

void Connection::OpenClientPaths() {
  if (!config_.multipath || perspective_ != Perspective::kClient ||
      !config_.client_opens_paths) {
    return;
  }
  // §3 "Path Management": upon handshake completion, open one path over
  // each (additional) client interface. Client-created paths get odd ids.
  // Idempotent: with 0-RTT this runs again once the SHLO delivers the
  // peer's addresses.
  PathId next_id{1};
  while (paths_.contains(next_id)) next_id = static_cast<PathId>(next_id + 2);
  for (std::size_t i = 1; i < local_addresses_.size(); ++i) {
    // Pair the i-th local interface with the peer address advertised for
    // the same interface index, if any.
    const sim::Address local = local_addresses_[i];
    const sim::Address* remote = nullptr;
    for (const auto& addr : peer_addresses_) {
      if (addr.iface == local.iface) {
        remote = &addr;
        break;
      }
    }
    if (remote == nullptr) continue;
    bool already = false;
    for (const auto& [id, path] : paths_) {
      if (path->remote_address() == *remote) already = true;
    }
    if (already) continue;
    Path& path = CreatePath(next_id, local, *remote);
    next_id = static_cast<PathId>(next_id + 2);
    // Announce the new path right away (path-validation PING): the server
    // only learns of a path from a packet carrying its id, and a pure
    // downloader might otherwise never send one. The PING's ACK also
    // seeds the path's RTT estimate.
    if (established_) assembler_->SendPing(path, /*track=*/true);
  }
}

// ---------------------------------------------------------------------------
// Application API

void Connection::SendOnStream(StreamId id,
                              std::unique_ptr<SendSource> source) {
  assert(id != 0);  // stream id 0 addresses the connection in WINDOW_UPDATE
  auto [it, inserted] = send_streams_.try_emplace(
      id, std::make_unique<SendStream>(id, std::move(source)));
  assert(inserted && "stream already exists");
  (void)it;
  if (established_) TrySend();
}

void Connection::ResetStream(StreamId id, std::uint16_t error_code) {
  auto it = send_streams_.find(id);
  if (it == send_streams_.end() || closed_) return;
  RstStreamFrame frame;
  frame.stream_id = id;
  frame.error_code = error_code;
  frame.final_offset = it->second->max_offset_sent();
  // Drop the stream: no more (re)transmissions of its data. STREAM frames
  // of this id from lost packets are silently discarded from now on.
  send_streams_.erase(it);
  EnqueueControl(frame);
  TrySend();
}

void Connection::Close(std::uint16_t error_code, const std::string& reason) {
  if (closed_) return;
  if (established_ && !paths_.empty()) {
    ConnectionCloseFrame frame;
    frame.error_code = error_code;
    frame.reason = reason;
    // Best effort on the initial path.
    std::vector<Frame> frames;
    frames.emplace_back(std::move(frame));
    assembler_->TransmitPacket(*paths_.begin()->second, frames,
                               /*retransmittable=*/false,
                               /*handshake_cleartext=*/false);
  }
  closed_ = true;
  recovery_->OnConnectionClosed();
  assembler_->OnConnectionClosed();
  handshake_->OnConnectionClosed();
  if (idle_timer_) idle_timer_->Cancel();
  if (connection_idle_timer_) connection_idle_timer_->Cancel();
}

// ---------------------------------------------------------------------------
// Receive (decrypt/parse/route live in quic/dispatch.h; these are the
// composer-side effects the dispatcher triggers through DispatchDelegate)

void Connection::OnDatagram(sim::Datagram& datagram) {
  if (closed_) return;
  AuditScope audit(*this);
  BufReader reader(datagram.payload);
  ParsedHeader parsed;
  if (!DecodeHeader(reader, parsed)) return;
  if (parsed.header.cid != cid_) return;
  ++stats_.packets_received;
  if (idle_timer_) idle_timer_->SetIn(config_.idle_failure_timeout);
  if (connection_idle_timer_) {
    connection_idle_timer_->SetIn(config_.idle_timeout);
  }
  if (parsed.header.handshake) {
    handshake_->OnHandshakePacket(parsed, reader, datagram);
    TrySend();
    return;
  }
  dispatcher_->OnEncryptedPacket(parsed, datagram);
  TrySend();
}

Path* Connection::EnsurePath(PathId id, const sim::Datagram& datagram) {
  auto it = paths_.find(id);
  if (it == paths_.end()) {
    return &CreatePath(id, datagram.dst, datagram.src);
  }
  return it->second.get();
}

void Connection::OnAckFrame(const AckFrame& ack) {
  auto it = paths_.find(ack.path_id);
  if (it == paths_.end()) return;
  recovery_->OnAckReceived(*it->second, ack);
}

void Connection::OnWindowUpdateFrame(const WindowUpdateFrame& frame) {
  if (frame.stream_id == 0) {
    flow_.OnMaxData(frame.max_data);
  } else if (auto it = send_streams_.find(frame.stream_id);
             it != send_streams_.end()) {
    it->second->OnMaxStreamData(frame.max_data);
  }
}

void Connection::OnPathsFrame(const PathsFrame& frame) {
  for (const auto& entry : frame.paths) {
    auto it = paths_.find(entry.path_id);
    if (it == paths_.end()) continue;
    it->second->set_remote_reported_failed(entry.status ==
                                           PathStatus::kPotentiallyFailed);
  }
}

void Connection::OnAddAddressFrame(const AddAddressFrame& frame) {
  for (const auto& addr : frame.addresses) {
    if (std::find(peer_addresses_.begin(), peer_addresses_.end(), addr) ==
        peer_addresses_.end()) {
      peer_addresses_.push_back(addr);
    }
    // Re-adding an address the peer previously withdrew un-strands every
    // path to it: REMOVE_ADDRESS set remote_reported_failed, and without
    // this the only other way back is a PATHS frame — which the peer
    // only sends while it considers the path worth reporting. A path
    // whose remote address is advertised again is usable again.
    for (auto& [id, path] : paths_) {
      if (path->remote_address() == addr && path->remote_reported_failed()) {
        path->set_remote_reported_failed(false);
        if (tracer_ != nullptr) {
          tracer_->OnPathStateChange(sim_.now(), id, "recovered");
        }
      }
    }
  }
  MaybeOpenServerPaths();
}

void Connection::OnRemoveAddressFrame(const RemoveAddressFrame& frame) {
  for (const auto& addr : frame.addresses) {
    std::erase(peer_addresses_, addr);
    for (auto& [id, path] : paths_) {
      if (path->remote_address() == addr) {
        path->set_remote_reported_failed(true);
      }
    }
  }
}

void Connection::OnPeerClose(const ConnectionCloseFrame& frame) {
  Close(frame.error_code, "peer close");
}

void Connection::FanOutWindowUpdate(const WindowUpdateFrame& frame) {
  EnqueueWindowUpdates(frame);
}

void Connection::OnAckElicitingPacket(Path& path, bool out_of_order) {
  path.NoteRetransmittableReceived();
  assembler_->MaybeScheduleAck(path, out_of_order);
}

// ---------------------------------------------------------------------------
// Send

PathsFrame Connection::BuildPathsFrame() const {
  PathsFrame frame;
  for (const auto& [id, path] : paths_) {
    PathsFrame::Entry entry;
    entry.path_id = id;
    entry.status = path->potentially_failed() ? PathStatus::kPotentiallyFailed
                                              : PathStatus::kActive;
    entry.srtt = path->rtt().smoothed();
    frame.paths.push_back(entry);
  }
  return frame;
}

void Connection::EnqueueControl(Frame frame) {
  control_.EnqueueShared(std::move(frame));
}

void Connection::EnqueueWindowUpdates(const WindowUpdateFrame& frame) {
  if (config_.multipath && config_.window_update_on_all_paths) {
    // §3: WINDOW_UPDATE goes out on ALL paths so a receive-buffer
    // deadlock cannot arise from one path losing the update.
    for (auto& [id, path] : paths_) {
      control_.EnqueuePinned(id, Frame{frame});
    }
  } else {
    EnqueueControl(frame);
  }
}

void Connection::TrySend() {
  if (!established_ || closed_ || in_try_send_) return;
  AuditScope audit(*this);
  in_try_send_ = true;

  // Scheduler-requested probes (ping-first ablation).
  for (auto& [id, path] : paths_) {
    if (scheduler_->WantsProbe(*path) &&
        !recovery_->ping_probe_outstanding(id) && path->Usable()) {
      recovery_->set_ping_probe_outstanding(id, true);
      assembler_->SendPing(*path, /*track=*/true);
    }
  }

  // Drain path-pinned control frames (per-path WINDOW_UPDATE copies).
  // These bypass the congestion window check: they are tiny and withhold-
  // ing them can deadlock the transfer — the exact failure mode §3's
  // "WINDOW_UPDATE on all paths" rule exists to avoid.
  for (auto& [id, path] : paths_) {
    while (control_.HasPinned(id)) {
      if (!assembler_->SendOnePacket(*path, /*include_stream_data=*/false,
                                     nullptr, nullptr)) {
        break;
      }
    }
  }

  // Flow-control diagnostics: report BLOCKED (once per episode) when
  // data is waiting but the connection-level window is exhausted.
  if (established_ && assembler_->SendAllowance() == 0) {
    bool data_waiting = false;
    for (auto& [id, stream] : send_streams_) {
      if (!stream->AllDataSentOnce()) data_waiting = true;
    }
    if (data_waiting && !blocked_reported_) {
      blocked_reported_ = true;
      if (tracer_ != nullptr) {
        tracer_->OnFlowControlBlocked(sim_.now(), StreamId{0});
      }
      EnqueueControl(BlockedFrame{StreamId{0}});
    }
  } else {
    blocked_reported_ = false;
  }

  // Main data loop: one packet per iteration, path chosen by the
  // scheduler among paths the pacer currently allows, duplicates onto
  // unknown-RTT paths (§3).
  for (int guard = 0; guard < 100000; ++guard) {
    const bool have_control = !control_.shared_empty();
    if (!have_control && !assembler_->AnyStreamHasData()) break;
    std::vector<Path*> eligible;
    bool pacing_blocked = false;
    bool usable_exists = false;
    for (auto& [id, path] : paths_) {
      if (path->Usable()) usable_exists = true;
      if (assembler_->PacingAllows(*path, config_.max_packet_size)) {
        eligible.push_back(path.get());
      } else if (path->Usable() &&
                 path->congestion().CanSend(config_.max_packet_size)) {
        pacing_blocked = true;
      }
    }
    // A potentially-failed path is a last resort: the scheduler's
    // failed-path fallback must only engage when NO path is usable.
    // Offering a failed path while a live one is merely pacing- or
    // cwnd-limited strands fresh data on a black-holed link, where only
    // an RTO can recover it. Wait for the live path instead.
    if (usable_exists) {
      std::erase_if(eligible, [](Path* p) { return !p->Usable(); });
    }
    Path* chosen;
    if (tracer_ != nullptr) {
      // Measured decision: the wall-clock cost of the scheduler itself is
      // one of the hot-path numbers the metrics registry tracks. Only the
      // traced configuration pays for the clock reads. This feeds the
      // tracer API (OnSchedulerDecision carries elapsed_ns), so the raw
      // clock reads stay; the profiler records the same span.
      MPQ_PROF_SCOPE("scheduler/select");
      const std::uint64_t before = MonotonicNanos();  // NOLINT(mpq-prof-clock)
      chosen = scheduler_->SelectPath(eligible, config_.max_packet_size);
      const std::uint64_t elapsed =
          MonotonicNanos() - before;  // NOLINT(mpq-prof-clock)
      if (chosen != nullptr) {
        tracer_->OnSchedulerDecision(sim_.now(), chosen->id(),
                                     scheduler_->last_reason(), elapsed);
      }
    } else {
      MPQ_PROF_SCOPE("scheduler/select");
      chosen = scheduler_->SelectPath(eligible, config_.max_packet_size);
    }
    if (chosen == nullptr) {
      if (pacing_blocked) assembler_->ArmPaceTimer();
      break;
    }
    std::vector<StreamFrame> sent_stream_frames;
    if (!assembler_->SendOnePacket(*paths_.at(chosen->id()),
                                   /*include_stream_data=*/true, nullptr,
                                   &sent_stream_frames)) {
      break;
    }
    if (!sent_stream_frames.empty()) {
      for (Path* target : scheduler_->DuplicationTargets(
               eligible, chosen, config_.max_packet_size)) {
        ++stats_.duplicated_scheduler_packets;
        if (tracer_ != nullptr) {
          tracer_->OnSchedulerDecision(sim_.now(), target->id(), "duplicate",
                                       0);
        }
        assembler_->SendOnePacket(*paths_.at(target->id()),
                                  /*include_stream_data=*/false,
                                  &sent_stream_frames, nullptr);
      }
    }
  }
  in_try_send_ = false;
}

void Connection::OnPacketTransmitted() {
  if (connection_idle_timer_) {
    connection_idle_timer_->SetIn(config_.idle_timeout);
  }
}

// ---------------------------------------------------------------------------
// Loss recovery (timers and requeue live in quic/recovery.h; these are
// the composer-side effects it triggers through RecoveryDelegate)

void Connection::OnStreamFrameLost(StreamId stream, ByteCount offset,
                                   ByteCount length, bool fin) {
  auto it = send_streams_.find(stream);
  if (it != send_streams_.end()) {
    it->second->OnFrameLost(offset, length, fin);
  }
}

void Connection::RequeueWindowUpdate(const WindowUpdateFrame& frame) {
  // Values are monotonic; resending the same limit is safe and
  // refreshing it is better.
  WindowUpdateFrame fresh = frame;
  if (frame.stream_id == 0) {
    fresh.max_data = std::max(fresh.max_data, flow_.local_max_data());
  }
  EnqueueWindowUpdates(fresh);
}

void Connection::RequeuePathsSnapshot() {
  EnqueueControl(BuildPathsFrame());  // fresh snapshot
}

void Connection::RequeueControlFrame(Frame frame) {
  EnqueueControl(std::move(frame));
}

bool Connection::OnPathPotentiallyFailed(PathId path) {
  MPQ_DEBUG(sim_.now(), "quic", "cid=%llu path %u potentially failed",
            static_cast<unsigned long long>(cid_), path.value());
  if (tracer_ != nullptr) {
    tracer_->OnPathStateChange(sim_.now(), path, "potentially-failed");
  }
  if (config_.send_paths_frame && config_.multipath) {
    // §4.3: tell the peer immediately so it does not wait for its own RTO
    // before answering on another path.
    EnqueueControl(BuildPathsFrame());
  }
  if (!config_.multipath && config_.migrate_on_path_failure &&
      perspective_ == Perspective::kClient) {
    TryAutoMigrate(*paths_.at(path));
    return false;  // migrating — probing the dead address pair is pointless
  }
  return true;  // recovery probes the path until it recovers
}

void Connection::OnPathRecovered(PathId path) {
  (void)path;
  if (config_.send_paths_frame && config_.multipath) {
    EnqueueControl(BuildPathsFrame());  // path recovered: tell the peer
  }
}

void Connection::SendProbePing(PathId path) {
  assembler_->SendPing(*paths_.at(path), /*track=*/true);
}

void Connection::RunAudit() { MPQ_AUDIT_CHECK(*this); }

void Connection::TryAutoMigrate(Path& path) {
  // Hard handover: hop to the next local/peer address pair (round robin
  // over the client's interfaces).
  if (local_addresses_.size() < 2) return;
  ++migrations_;
  const sim::Address local = local_addresses_[static_cast<std::size_t>(
      migrations_) % local_addresses_.size()];
  const sim::Address* remote = nullptr;
  for (const auto& addr : peer_addresses_) {
    if (addr.iface == local.iface) {
      remote = &addr;
      break;
    }
  }
  if (remote == nullptr) return;
  MigratePath(path.id(), local, *remote);
}

void Connection::MigratePath(PathId id, sim::Address new_local,
                             sim::Address new_remote) {
  auto it = paths_.find(id);
  if (it == paths_.end() || closed_) return;
  Path& path = *it->second;
  MPQ_DEBUG(sim_.now(), "quic", "cid=%llu migrating path %u",
            static_cast<unsigned long long>(cid_), id.value());
  if (tracer_ != nullptr) {
    tracer_->OnPathStateChange(sim_.now(), id, "migrated");
  }
  recovery_->RequeueLostFrames(
      id, path.Migrate(new_local, new_remote, MakeController(), sim_.now()));
  recovery_->OnPathMigrated(id);
  assembler_->ResetPathPacing(id);
  // Probe the new address pair immediately (the PATH_CHALLENGE analogue):
  // it announces the migration to the peer even when we have no data to
  // send, and its ACK seeds the new path's RTT estimate.
  assembler_->SendPing(path, /*track=*/true);
  TrySend();
}

}  // namespace mpq::quic
