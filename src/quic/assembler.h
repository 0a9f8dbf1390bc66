// Packet assembly and transmission: frame packing under the byte budget,
// sealing, retransmittable-packet tracking, delayed-ACK scheduling and
// per-path pacing. The assembler owns the send half of the datapath —
// the recycled frame scratch, the sealing keys, the per-path ack/pace
// token state — and is the only layer that calls the datagram send
// function.
//
// Packing order per packet (§2/§3): piggybacked ACK, path-pinned control
// frames, shared control frames, then stream data round-robined across
// the send streams (one chunk each per pass, which is what "streams
// prevent head-of-line blocking" rests on).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/types.h"
#include "crypto/aead.h"
#include "quic/config.h"
#include "quic/control_queue.h"
#include "quic/path.h"
#include "quic/recovery.h"
#include "quic/stats.h"
#include "quic/streams.h"
#include "quic/trace.h"
#include "sim/net.h"
#include "sim/simulator.h"
#include "sim/timer.h"

namespace mpq::quic {

/// What the assembler needs from the composer: a way to kick the send
/// loop (pace timer) and the connection-level idle-timer reset on every
/// transmission.
class AssemblerDelegate {
 public:
  virtual ~AssemblerDelegate() = default;
  virtual void RequestSend() = 0;
  virtual void OnPacketTransmitted() = 0;
};

class PacketAssembler {
 public:
  using SendFunction = std::function<void(
      sim::Address local, sim::Address remote, std::vector<std::uint8_t>)>;

  PacketAssembler(sim::Simulator& sim, const ConnectionConfig& config,
                  ConnectionId cid, ConnectionStats& stats,
                  FlowController& flow,
                  std::map<StreamId, std::unique_ptr<SendStream>>& streams,
                  ControlQueue& control, RecoveryManager& recovery,
                  AssemblerDelegate& delegate, SendFunction send);

  void SetTracer(ConnectionTracer* tracer) { tracer_ = tracer; }
  /// Install the sealing keys (ours; the dispatcher holds the opener).
  void SetSealer(std::unique_ptr<crypto::PacketProtection> seal);
  bool HasKeys() const { return seal_ != nullptr; }

  /// Adopt a path: create its (unarmed) delayed-ACK timer and pacing
  /// bucket. Paths are never unregistered.
  void RegisterPath(Path& path);

  void set_established(bool established) { established_ = established; }
  /// Connection closed: stop the ack/pace timers, refuse late ack-only
  /// sends.
  void OnConnectionClosed();

  /// Assemble and transmit one packet on `path` from a piggybacked ACK,
  /// control frames and stream data. Returns false if there was nothing
  /// to send.
  bool SendOnePacket(Path& path, bool include_stream_data,
                     const std::vector<StreamFrame>* duplicate_of,
                     std::vector<StreamFrame>* sent_stream_frames);
  void SendAckOnlyPacket(Path& path);
  void SendPing(Path& path, bool track);
  /// `frames` is consumed (retransmittable frames are moved into the sent-
  /// packet record) but the vector's allocation stays with the caller, so
  /// per-packet scratch can be recycled.
  void TransmitPacket(Path& path, std::vector<Frame>& frames,
                      bool retransmittable, bool handshake_cleartext);

  /// An ACK-eliciting packet arrived on `path`: send the ACK now (out of
  /// order, or enough unacked packets) or arm the delayed-ACK timer.
  void MaybeScheduleAck(Path& path, bool out_of_order);

  // -- pacing -------------------------------------------------------------
  bool PacingAllows(Path& path, ByteCount bytes);
  /// Arm the pace timer for the earliest time any path can send again.
  void ArmPaceTimer();
  /// Migration: the new network path starts with an empty token bucket.
  void ResetPathPacing(PathId id);

  // -- send-side flow accounting ------------------------------------------
  ByteCount SendAllowance() const {
    return flow_.SendAllowance(new_stream_bytes_sent_);
  }
  bool AnyStreamHasData();

 private:
  friend class Auditor;

  struct PathSendState {
    Path* path = nullptr;
    std::unique_ptr<sim::Timer> ack_timer;  // delayed ACK
    /// Pacing token bucket (bytes); refilled from cwnd/RTT.
    double pace_tokens = 0.0;
    TimePoint pace_refill_time = 0;
  };

  AckFrame BuildAck(PathSendState& state);
  /// Bytes/microsecond this path may currently emit.
  double PacingRate(const Path& path) const;
  void RefillPaceTokens(PathSendState& state);
  void ConsumePaceTokens(PathSendState& state, ByteCount bytes);

  sim::Simulator& sim_;
  const ConnectionConfig& config_;
  ConnectionId cid_;
  ConnectionStats& stats_;
  FlowController& flow_;
  std::map<StreamId, std::unique_ptr<SendStream>>& send_streams_;
  ControlQueue& control_;
  RecoveryManager& recovery_;
  AssemblerDelegate& delegate_;
  SendFunction send_;
  ConnectionTracer* tracer_ = nullptr;

  std::unique_ptr<crypto::PacketProtection> seal_;  // our direction
  bool established_ = false;
  bool closed_ = false;
  std::map<PathId, PathSendState> paths_;
  std::unique_ptr<sim::Timer> pace_timer_;

  /// Round-robin position for stream scheduling: concurrent streams share
  /// the connection fairly (one chunk each per packet-fill pass).
  StreamId next_stream_to_serve_{};
  ByteCount new_stream_bytes_sent_{};

  // Recycled per-packet scratch. The capacity survives across packets so
  // the steady-state datapath allocates only the outgoing datagram itself.
  std::vector<Frame> send_frames_scratch_;
};

}  // namespace mpq::quic
