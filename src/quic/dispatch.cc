#include "quic/dispatch.h"

#include <cassert>
#include <utility>
#include <variant>

#include "common/log.h"
#include "obs/prof.h"

namespace mpq::quic {

FrameDispatcher::FrameDispatcher(sim::Simulator& sim, ConnectionId cid,
                                 ConnectionStats& stats, FlowController& flow,
                                 DispatchDelegate& delegate)
    : sim_(sim), cid_(cid), stats_(stats), flow_(flow), delegate_(delegate) {}

void FrameDispatcher::SetOpener(
    std::unique_ptr<crypto::PacketProtection> open) {
  open_ = std::move(open);
}

bool FrameDispatcher::AnyRecvStreamUnfinished() const {
  for (const auto& [id, stream] : recv_streams_) {
    if (!stream->finished()) return true;
  }
  return false;
}

void FrameDispatcher::OnEncryptedPacket(const ParsedHeader& parsed,
                                        sim::Datagram& datagram) {
  MPQ_PROF_SCOPE("dispatch/packet");
  if (!open_) return;  // keys not established yet
  const PathId pid =
      parsed.header.multipath ? parsed.header.path_id : PathId{0};
  // First packet of a peer-created path (§3: data can ride in the very
  // first packet of a new path — no handshake required).
  Path& path = *delegate_.EnsurePath(pid, datagram);

  const PacketNumber pn =
      DecodePacketNumber(path.receiver().largest_received(),
                         parsed.header.packet_number, parsed.pn_length);
  // Decrypt where the ciphertext lies: the public header is the AAD, and
  // the plaintext replaces the ciphertext in the datagram's own buffer.
  const std::span<std::uint8_t> payload(datagram.payload);
  const std::span<std::uint8_t> sealed = payload.subspan(parsed.header_size);
  std::size_t plaintext_len = 0;
  if (!open_->OpenInPlace(pid, pn, payload.first(parsed.header_size), sealed,
                          plaintext_len)) {
    ++stats_.packets_decrypt_failed;
    return;
  }
  const std::span<const std::uint8_t> plaintext = sealed.first(plaintext_len);

  const PacketNumber largest_before = path.receiver().largest_received();
  if (!path.receiver().OnPacketReceived(pn, sim_.now())) {
    ++stats_.packets_duplicate;
    return;
  }
  if (tracer_ != nullptr) {
    tracer_->OnPacketReceived(sim_.now(), pid, pn,
                              ByteCount{datagram.payload.size()});
  }
  // NAT rebinding / peer migration: the packet authenticated under this
  // path's keys but arrived from a new address — follow it (§3), keeping
  // the path's state.
  if (!(datagram.src == path.remote_address())) {
    MPQ_DEBUG(sim_.now(), "quic", "cid=%llu path %u peer address changed",
              static_cast<unsigned long long>(cid_), pid.value());
    path.UpdateAddresses(datagram.dst, datagram.src);
  }
  std::vector<Frame>& frames = recv_frames_scratch_;
  if (!DecodePayload(plaintext, frames)) return;

  bool any_retransmittable = false;
  for (const Frame& frame : frames) {
    if (IsRetransmittable(frame)) any_retransmittable = true;
  }
  ProcessFrames(path, frames);
  if (delegate_.connection_closed()) return;
  if (any_retransmittable) {
    const bool out_of_order = pn != largest_before + 1;
    delegate_.OnAckElicitingPacket(path, out_of_order);
  }
}

void FrameDispatcher::ProcessFrames(Path& path, std::vector<Frame>& frames) {
  MPQ_PROF_SCOPE("dispatch/frames");
  if (tracer_ != nullptr) {
    for (const Frame& frame : frames) {
      tracer_->OnFrameReceived(sim_.now(), path.id(), frame);
    }
  }
  for (Frame& frame : frames) {
    if (delegate_.connection_closed()) return;
    std::visit(
        [&](auto& f) {
          using T = std::decay_t<decltype(f)>;
          if constexpr (std::is_same_v<T, AckFrame>) {
            delegate_.OnAckFrame(f);
          } else if constexpr (std::is_same_v<T, StreamFrame>) {
            OnStreamFrameReceived(f);
          } else if constexpr (std::is_same_v<T, WindowUpdateFrame>) {
            delegate_.OnWindowUpdateFrame(f);
          } else if constexpr (std::is_same_v<T, PathsFrame>) {
            delegate_.OnPathsFrame(f);
          } else if constexpr (std::is_same_v<T, AddAddressFrame>) {
            delegate_.OnAddAddressFrame(f);
          } else if constexpr (std::is_same_v<T, RemoveAddressFrame>) {
            delegate_.OnRemoveAddressFrame(f);
          } else if constexpr (std::is_same_v<T, RstStreamFrame>) {
            // Peer aborted its send stream: surface EOF-with-error to the
            // app (delivered prefix stays delivered, the rest never comes).
            auto rs = recv_streams_.find(f.stream_id);
            if (rs != recv_streams_.end() && !rs->second->finished()) {
              if (on_stream_data_) {
                on_stream_data_(f.stream_id, rs->second->delivered_offset(),
                                {}, true);
              }
            }
          } else if constexpr (std::is_same_v<T, ConnectionCloseFrame>) {
            MPQ_DEBUG(sim_.now(), "quic", "cid=%llu closed by peer: %s",
                      static_cast<unsigned long long>(cid_),
                      f.reason.c_str());
            delegate_.OnPeerClose(f);
          }
          // PING, PADDING, BLOCKED, HANDSHAKE: nothing to do here (PING
          // only elicits the ACK machinery).
        },
        frame);
  }
}

RecvStream& FrameDispatcher::GetOrCreateRecvStream(StreamId id) {
  auto it = recv_streams_.find(id);
  if (it != recv_streams_.end()) return *it->second;
  auto stream = std::make_unique<RecvStream>(id);
  RecvStream* raw = stream.get();
  stream_advertised_.emplace(id, flow_.window());
  stream->SetSink([this, id, raw](ByteCount offset,
                                  std::span<const std::uint8_t> data,
                                  bool finished) {
    stats_.stream_bytes_received += data.size();
    if (!data.empty() && flow_.OnBytesConsumed(ByteCount{data.size()})) {
      delegate_.FanOutWindowUpdate(
          WindowUpdateFrame{StreamId{0}, flow_.NextAdvertisement()});
    }
    // Stream-level window replenishment, same half-window policy.
    auto adv = stream_advertised_.find(id);
    if (adv != stream_advertised_.end() &&
        raw->consumed_bytes() + flow_.window() >=
            adv->second + flow_.window() / 2) {
      adv->second = raw->consumed_bytes() + flow_.window();
      delegate_.FanOutWindowUpdate(WindowUpdateFrame{id, adv->second});
    }
    if (on_stream_data_) on_stream_data_(id, offset, data, finished);
  });
  auto [inserted_it, ok] = recv_streams_.emplace(id, std::move(stream));
  assert(ok);
  return *inserted_it->second;
}

void FrameDispatcher::OnStreamFrameReceived(StreamFrame& frame) {
  RecvStream& stream = GetOrCreateRecvStream(frame.stream_id);
  // Receive-side enforcement: data past the advertised limit is a
  // protocol violation and must be dropped BEFORE it reaches the stream —
  // once a bogus offset or fin enters RecvStream it pins the stream's
  // final size and the connection-level receive accounting forever (and
  // trips the auditor's total_highest_received <= local_max_data
  // invariant). An honest peer never sends past our advertisement, so
  // only corrupt or forged traffic lands here.
  const ByteCount frame_end = frame.offset + frame.data.size();
  const ByteCount growth = frame_end > stream.highest_received()
                               ? frame_end - stream.highest_received()
                               : ByteCount{0};
  if (!flow_.WithinReceiveLimit(total_highest_received_ + growth)) {
    ++stats_.flow_control_overruns;
    MPQ_WARN(sim_.now(), "quic", "cid=%llu flow control violated",
             static_cast<unsigned long long>(cid_));
    return;
  }
  total_highest_received_ += stream.OnStreamFrame(std::move(frame));
}

}  // namespace mpq::quic
