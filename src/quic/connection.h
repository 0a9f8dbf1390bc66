// The (MP)QUIC connection — §2 and §3 of the paper, composed from five
// enforced layers rather than one monolith:
//
//   HandshakeLayer   CHLO/SHLO exchange, 0-RTT gating   (quic/handshake.h)
//   FrameDispatcher  decrypt → parse → route            (quic/dispatch.h)
//   PacketAssembler  frame packing, sealing, pacing     (quic/assembler.h)
//   RecoveryManager  loss detection, RTO/probe timers   (quic/recovery.h)
//   ControlQueue     reliable control-frame scheduling  (quic/control_queue.h)
//
// Connection is the composer: it owns the paths, the send streams, flow
// control and the scheduler, and implements the layers' delegate
// interfaces (privately — the delegate vocabulary is plumbing, not API).
// Each layer sees only its delegate plus the layers strictly below it;
// the mpq-layering lint rule turns that DAG into a build-time check.
//
// Single-path QUIC is the degenerate configuration (multipath disabled:
// no Path ID byte on the wire, one packet-number space, CUBIC), so the
// evaluation compares the same code base with and without the multipath
// extension — mirroring how the paper extends quic-go.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cc/congestion.h"
#include "cc/lia.h"
#include "cc/olia.h"
#include "common/rng.h"
#include "common/types.h"
#include "quic/assembler.h"
#include "quic/config.h"
#include "quic/control_queue.h"
#include "quic/dispatch.h"
#include "quic/handshake.h"
#include "quic/path.h"
#include "quic/recovery.h"
#include "quic/scheduler.h"
#include "quic/stats.h"
#include "quic/streams.h"
#include "quic/trace.h"
#include "quic/wire.h"
#include "sim/net.h"
#include "sim/simulator.h"
#include "sim/timer.h"

namespace mpq::quic {

class Connection : private RecoveryDelegate,
                   private AssemblerDelegate,
                   private DispatchDelegate,
                   private HandshakeDelegate {
 public:
  /// `send` transmits a datagram from a local address this connection
  /// owns; the endpoint wires it to the right socket.
  using SendFunction = PacketAssembler::SendFunction;

  Connection(sim::Simulator& sim, Perspective perspective, ConnectionId cid,
             ConnectionConfig config, Rng rng, SendFunction send);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  // -- endpoint wiring ----------------------------------------------------
  /// Local addresses (one per interface). The first is the initial path's.
  void SetLocalAddresses(std::vector<sim::Address> addresses);
  /// Feed an incoming datagram (already demultiplexed by CID).
  /// 1-RTT payloads are decrypted in place: the caller owns the datagram
  /// and must not reuse its payload bytes afterwards.
  void OnDatagram(sim::Datagram& datagram);

  // -- client lifecycle ---------------------------------------------------
  /// Start the secure handshake toward the server's initial address.
  void Connect(sim::Address server_address);

  // -- application API ----------------------------------------------------
  /// Called when the handshake completes (client: SHLO received; server:
  /// first CHLO processed).
  void SetEstablishedHandler(std::function<void()> handler) {
    on_established_ = std::move(handler);
  }
  /// In-order stream delivery: (stream, offset, bytes, finished).
  using StreamDataHandler = FrameDispatcher::StreamDataHandler;
  void SetStreamDataHandler(StreamDataHandler handler);
  /// Open (or continue) a send stream fed by `source`; transmission starts
  /// as soon as the handshake and the scheduler allow.
  void SendOnStream(StreamId id, std::unique_ptr<SendSource> source);

  /// Abort a send stream: stop (re)transmitting its data and tell the
  /// peer via RST_STREAM. The receiver's handler sees finished=true with
  /// whatever prefix was delivered.
  void ResetStream(StreamId id, std::uint16_t error_code);

  /// QUIC connection migration (§1: "a form of hard handover"): move an
  /// existing path to a new local/remote address pair. Path state (packet
  /// numbers, keys) survives; RTT and congestion state are reset because
  /// the new network path shares nothing with the old one. In-flight data
  /// is re-sent via the normal loss-recovery machinery.
  void MigratePath(PathId id, sim::Address new_local,
                   sim::Address new_remote);

  /// Withdraw one of our addresses (interface going away): sends
  /// REMOVE_ADDRESS and marks the paths bound to it as failed so the
  /// scheduler drains off them.
  void RemoveLocalAddress(sim::Address address);

  /// (Re-)announce one of our addresses (interface came back): sends
  /// ADD_ADDRESS and clears the local failure mark on paths bound to it,
  /// undoing RemoveLocalAddress. The peer clears its own
  /// remote-reported-failed mark when the frame arrives.
  void AddLocalAddress(sim::Address address);

  void Close(std::uint16_t error_code, const std::string& reason);

  /// Attach a tracer (not owned; must outlive the connection or be
  /// detached with nullptr). Fans out to every layer. See quic/trace.h.
  void SetTracer(ConnectionTracer* tracer);

  // -- introspection ------------------------------------------------------
  bool established() const { return established_; }
  bool closed() const { return closed_; }
  /// Canonical digest of the protocol state (quic/digest.cc): equal
  /// digests ⇒ equivalent states for the mpq_model explorer; identical
  /// schedules must yield identical digest sequences. Excludes
  /// observability state (tracers, stats, profiler) by construction —
  /// tests/digest_test.cc holds that line.
  std::uint64_t StateDigest() const;
  ConnectionId cid() const { return cid_; }
  const ConnectionStats& stats() const { return stats_; }
  std::vector<const Path*> paths() const;
  Path* GetPath(PathId id);
  const Scheduler& scheduler() const { return *scheduler_; }
  sim::Simulator& simulator() { return sim_; }
  const ConnectionConfig& config() const { return config_; }

 private:
  friend class Auditor;

  // -- HandshakeDelegate ---------------------------------------------------
  bool connection_established() const override { return established_; }
  const std::vector<sim::Address>& local_addresses() const override {
    return local_addresses_;
  }
  void OnHandshakeKeys(std::unique_ptr<crypto::PacketProtection> seal,
                       std::unique_ptr<crypto::PacketProtection> open) override;
  void SendHandshakeFrames(std::vector<Frame>& frames) override;
  void RecordHandshakePacketNumber(PathId path, PacketNumber truncated,
                                   std::size_t pn_length) override;
  void OnServerChloAccepted(sim::Address local, sim::Address remote) override;
  void OnPeerAddresses(std::vector<sim::Address> addresses) override;
  void OnClientHandshakeComplete() override;
  void OnZeroRttConfirmed(
      const std::vector<sim::Address>& peer_addresses) override;
  void AddHandshakeRttSample(Duration rtt, bool only_if_no_sample) override;
  void OnHandshakeFailed() override;

  // -- DispatchDelegate ----------------------------------------------------
  bool connection_closed() const override { return closed_; }
  Path* EnsurePath(PathId id, const sim::Datagram& datagram) override;
  void OnAckFrame(const AckFrame& ack) override;
  void OnWindowUpdateFrame(const WindowUpdateFrame& frame) override;
  void OnPathsFrame(const PathsFrame& frame) override;
  void OnAddAddressFrame(const AddAddressFrame& frame) override;
  void OnRemoveAddressFrame(const RemoveAddressFrame& frame) override;
  void OnPeerClose(const ConnectionCloseFrame& frame) override;
  void FanOutWindowUpdate(const WindowUpdateFrame& frame) override;
  void OnAckElicitingPacket(Path& path, bool out_of_order) override;

  // -- RecoveryDelegate ----------------------------------------------------
  void OnStreamFrameLost(StreamId stream, ByteCount offset, ByteCount length,
                         bool fin) override;
  void RequeueWindowUpdate(const WindowUpdateFrame& frame) override;
  void RequeuePathsSnapshot() override;
  void RequeueControlFrame(Frame frame) override;
  bool OnPathPotentiallyFailed(PathId path) override;
  void OnPathRecovered(PathId path) override;
  void SendProbePing(PathId path) override;
  void RunAudit() override;

  // -- AssemblerDelegate (RequestSend is shared with RecoveryDelegate) -----
  void RequestSend() override { TrySend(); }
  void OnPacketTransmitted() override;

  // -- composer logic ------------------------------------------------------
  void BecomeEstablished();
  Path& CreatePath(PathId id, sim::Address local, sim::Address remote);
  void OpenClientPaths();
  /// Server-initiated paths toward freshly advertised client addresses
  /// (even path ids, §3) — only with config.allow_server_paths.
  void MaybeOpenServerPaths();
  std::unique_ptr<cc::CongestionController> MakeController();
  void TryAutoMigrate(Path& path);
  PathsFrame BuildPathsFrame() const;
  std::vector<Path*> PathPointers();
  /// Drive the scheduler until windows/flow control/data run out.
  void TrySend();
  void EnqueueControl(Frame frame);
  /// §3: WINDOW_UPDATE goes out on ALL paths (when configured) so a
  /// receive-buffer deadlock cannot arise from one path losing the update.
  void EnqueueWindowUpdates(const WindowUpdateFrame& frame);
  bool ExpectingData() const;
  bool AnyPathInFlight() const;
  void OnIdleFailureTimer();

  sim::Simulator& sim_;
  Perspective perspective_;
  ConnectionId cid_;
  ConnectionConfig config_;
  Rng rng_;

  std::vector<sim::Address> local_addresses_;
  std::vector<sim::Address> peer_addresses_;

  bool established_ = false;
  bool closed_ = false;

  // NOTE: the OLIA coordinator must outlive the per-path controllers the
  // paths own (they unregister from it on destruction), so it is declared
  // before `paths_`.
  std::unique_ptr<cc::OliaCoordinator> olia_;  // when congestion == kOlia
  std::unique_ptr<cc::LiaCoordinator> lia_;    // when congestion == kLia
  std::unique_ptr<Scheduler> scheduler_;
  // Paths, ordered by id. unique_ptr for stable addresses (the layers
  // keep Path* across their lifetime).
  std::map<PathId, std::unique_ptr<Path>> paths_;

  std::map<StreamId, std::unique_ptr<SendStream>> send_streams_;
  FlowController flow_;
  ControlQueue control_;

  std::function<void()> on_established_;
  ConnectionTracer* tracer_ = nullptr;
  ConnectionStats stats_;
  bool in_try_send_ = false;
  int migrations_ = 0;
  /// Armed only in migrate-on-failure mode: detects a dead path from the
  /// receiver side (nothing arrives while a transfer is in progress).
  std::unique_ptr<sim::Timer> idle_timer_;
  /// Connection-level idle timeout (config.idle_timeout > 0 only).
  std::unique_ptr<sim::Timer> connection_idle_timer_;
  /// BLOCKED is sent once per flow-control-blocked episode (diagnostic;
  /// also what real stacks do to aid troubleshooting).
  bool blocked_reported_ = false;

  // The layers. Construction order matters (the assembler holds a
  // reference to the recovery manager); destruction in reverse member
  // order tears the composer down before the state the layers reference.
  std::unique_ptr<RecoveryManager> recovery_;
  std::unique_ptr<PacketAssembler> assembler_;
  std::unique_ptr<FrameDispatcher> dispatcher_;
  std::unique_ptr<HandshakeLayer> handshake_;
};

}  // namespace mpq::quic
