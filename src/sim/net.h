// Simulated network: addresses, datagrams, links and sockets.
//
// The model mirrors what the paper configures in Mininet per path
// (Table 1): link capacity, propagation delay (RTT/2 per direction), a
// drop-tail queue sized by the maximum queuing delay (the "bufferbloat"
// factor), and Bernoulli random loss on the wire. Datagrams are real byte
// buffers; transmission time is computed from their true size plus a
// configurable per-packet header overhead (IP+UDP or IP+TCP).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "sim/simulator.h"

namespace mpq::sim {

/// (node, interface) pair. One interface has exactly one outgoing link in
/// the topologies used here (disjoint paths), so an Address fully
/// determines the route.
struct Address {
  std::uint16_t node = 0;
  std::uint16_t iface = 0;

  friend bool operator==(const Address&, const Address&) = default;
};

struct AddressHash {
  std::size_t operator()(const Address& a) const {
    return (std::size_t{a.node} << 16) | a.iface;
  }
};

struct Datagram {
  Address src;
  Address dst;
  std::vector<std::uint8_t> payload;
};

/// Gilbert–Elliott burst-loss channel: a two-state Markov chain evaluated
/// once per packet at the loss decision point. The channel sits in a Good
/// or Bad state with independent loss probabilities; the state transition
/// probabilities set the expected burst length (1/bad_to_good packets).
/// Disabled channels draw nothing from the link's RNG, so enabling the
/// mode on one link cannot perturb any other link's loss sequence.
struct GilbertElliottConfig {
  bool enabled = false;
  /// Per-packet P(Good -> Bad) and P(Bad -> Good).
  double good_to_bad = 0.0;
  double bad_to_good = 1.0;
  /// Loss probability while in each state.
  double loss_good = 0.0;
  double loss_bad = 1.0;
};

struct LinkConfig {
  double capacity_mbps = 10.0;
  Duration propagation_delay = 10 * kMillisecond;
  /// Drop-tail queue capacity in bytes (includes the packet being
  /// transmitted). Derived from Table 1's queuing-delay factor as
  /// capacity * max_queuing_delay; clamped to at least 2 full-size packets
  /// so a link can always make progress.
  ByteCount queue_capacity_bytes{64 * 1024};
  /// Probability that a packet that made it through the queue is lost on
  /// the wire (wireless-style random loss, Table 1's loss factor).
  double random_loss_rate = 0.0;
  /// Burst loss (chaos harness). When enabled it replaces the Bernoulli
  /// `random_loss_rate` as the wire-loss model.
  GilbertElliottConfig gilbert_elliott;
  /// Per-packet extra propagation delay, uniform in [0, jitter]. Values
  /// larger than a packet's serialization gap reorder packets in flight —
  /// not part of Table 1, but useful for stressing loss detection
  /// (QUIC's packet threshold, TCP's dupack threshold).
  Duration jitter = 0;
  /// Lower-layer header bytes charged per datagram on the wire
  /// (IP+UDP = 28 for QUIC, IP = 20 for the TCP model whose own header is
  /// already part of the datagram).
  ByteCount per_packet_overhead{28};
};

/// One scheduled change to a link — the unit of the fault-injection
/// subsystem (docs/ROBUSTNESS.md). Applied by Link::ApplyFault, either
/// immediately or at `time` via Link::ScheduleFaults /
/// SchedulePathFaults (sim/topology.h).
struct LinkFault {
  enum class Kind {
    kDown,         ///< hard outage: every offered packet is dropped
    kUp,           ///< end of an outage
    kLossRate,     ///< set Bernoulli wire loss (disables burst mode)
    kReconfigure,  ///< change capacity / delay / queue mid-run
    kBurstLoss,    ///< install (or disable) a Gilbert–Elliott channel
  };

  TimePoint time = 0;
  Kind kind = Kind::kDown;
  /// kLossRate: the new Bernoulli loss probability.
  double loss_rate = 0.0;
  /// kReconfigure: fields left at 0 keep their current value.
  double capacity_mbps = 0.0;
  Duration propagation_delay = 0;
  ByteCount queue_capacity_bytes{0};
  /// kBurstLoss: the channel to install; `enabled = false` switches burst
  /// loss off again.
  GilbertElliottConfig gilbert_elliott;
};

/// Unidirectional point-to-point link with a drop-tail queue.
class Link {
 public:
  using DeliveryHandler = std::function<void(Datagram&&)>;

  Link(Simulator& sim, LinkConfig config, Rng rng);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  void SetDeliveryHandler(DeliveryHandler handler) {
    deliver_ = std::move(handler);
  }

  /// Offer a datagram to the link. It is queued if there is room and
  /// silently dropped otherwise (counted in stats).
  void Transmit(Datagram dgram);

  /// Change the random loss rate mid-simulation — used by the handover
  /// scenario where the initial path "becomes completely lossy" at t=3 s.
  void SetRandomLossRate(double rate) { config_.random_loss_rate = rate; }

  /// Hard outage toggle: a down link drops every packet it is offered
  /// (and everything still serializing) without consuming RNG draws.
  void SetDown(bool down) { down_ = down; }
  bool down() const { return down_; }

  /// Install or disable the Gilbert–Elliott burst-loss channel. The chain
  /// (re)starts in the Good state.
  void SetGilbertElliott(const GilbertElliottConfig& ge) {
    config_.gilbert_elliott = ge;
    ge_bad_ = false;
  }

  /// Independence tag stamped onto this link's delivery events (see
  /// Simulator::PendingEventInfo::scope). The Network sets it to
  /// 1 + destination node, so deliveries toward different hosts form
  /// different classes for the explorer's partial-order reduction.
  void SetDeliveryScope(std::uint32_t scope) { delivery_scope_ = scope; }

  /// Apply one fault right now (see LinkFault; `time` is ignored here).
  void ApplyFault(const LinkFault& fault);

  /// Schedule every fault at its absolute `time` (one simulator event
  /// each). Times in the past are clamped to "now" by the simulator.
  void ScheduleFaults(const std::vector<LinkFault>& faults);

  const LinkConfig& config() const { return config_; }

  struct Stats {
    std::uint64_t offered = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped_queue_full = 0;
    std::uint64_t dropped_random = 0;
    /// Packets dropped because the link was down (LinkFault::kDown).
    std::uint64_t dropped_link_down = 0;
    ByteCount wire_bytes_delivered;
    /// Highest queue occupancy seen, in bytes (bufferbloat diagnostics).
    ByteCount max_queue_bytes;
  };
  const Stats& stats() const { return stats_; }

  /// Serialization delay of `wire_bytes` at the configured capacity.
  Duration TransmissionTime(ByteCount wire_bytes) const;

 private:
  /// One wire-loss decision for a packet that finished serializing.
  /// Draws from the RNG only when a loss model is active, so fault-free
  /// links keep a byte-identical draw sequence.
  bool WireLoss();

  Simulator& sim_;
  LinkConfig config_;
  Rng rng_;
  DeliveryHandler deliver_;
  TimePoint busy_until_ = 0;
  ByteCount queued_bytes_;
  std::uint32_t delivery_scope_ = 0;
  bool down_ = false;
  bool ge_bad_ = false;  // Gilbert–Elliott channel state
  Stats stats_;
};

class Node;

/// An endpoint handle bound to one local Address. Protocol stacks use this
/// exactly like a UDP socket: Send() and a receive callback.
class DatagramSocket {
 public:
  /// The handler may modify the datagram (QUIC decrypts in place): each
  /// delivery hands over a datagram the network no longer uses.
  using ReceiveHandler = std::function<void(Datagram&)>;

  Address local_address() const { return local_; }
  void SetReceiveHandler(ReceiveHandler handler) {
    receive_ = std::move(handler);
  }
  /// Send `payload` from this socket's interface to `dst`.
  void Send(Address dst, std::vector<std::uint8_t> payload);

 private:
  friend class Network;
  DatagramSocket(class Network& net, Address local)
      : net_(net), local_(local) {}

  Network& net_;
  Address local_;
  ReceiveHandler receive_;
};

/// Owns links and sockets; routes datagrams. Routing is by source
/// interface: each (node, iface) has at most one outgoing link.
class Network {
 public:
  Network(Simulator& sim, Rng rng) : sim_(sim), rng_(rng) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Create a unidirectional link from `from` to `to`. Returns a stable
  /// pointer owned by the network.
  Link* AddLink(Address from, Address to, const LinkConfig& config);

  /// Create a unidirectional *shared* (multipoint) link out of `from`:
  /// datagrams to any destination traverse it and are routed to the
  /// destination socket on delivery. This models a server's access link
  /// fanning out to many clients — the shared bottleneck the
  /// many-connection workload contends on (point-to-point links keep
  /// their strict one-peer check). Returns a stable pointer owned by
  /// the network.
  Link* AddSharedLink(Address from, const LinkConfig& config);

  /// Convenience: a link in each direction with per-direction configs.
  std::pair<Link*, Link*> AddDuplexLink(Address a, Address b,
                                        const LinkConfig& a_to_b,
                                        const LinkConfig& b_to_a);

  /// Bind a socket at `local`. At most one socket per address; rebinding
  /// an in-use address is a setup error and throws.
  DatagramSocket* CreateSocket(Address local);

  /// Remove the socket bound at `local` (endpoint teardown).
  void CloseSocket(Address local) { sockets_.erase(local); }

  Link* FindLinkFrom(Address from);

  Simulator& simulator() { return sim_; }

 private:
  friend class DatagramSocket;
  void Send(Datagram dgram);
  void Deliver(Datagram&& dgram);

  Simulator& sim_;
  Rng rng_;
  struct LinkEnds {
    std::unique_ptr<Link> link;
    Address to;
    /// Shared (multipoint) link: any destination is routable; `to` is
    /// meaningless.
    bool any_dst = false;
  };
  std::unordered_map<Address, LinkEnds, AddressHash> links_by_src_;
  std::unordered_map<Address, std::unique_ptr<DatagramSocket>, AddressHash>
      sockets_;
};

}  // namespace mpq::sim
