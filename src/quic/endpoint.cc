#include "quic/endpoint.h"

namespace mpq::quic {

ClientEndpoint::ClientEndpoint(sim::Simulator& sim, sim::Network& net,
                               std::vector<sim::Address> locals,
                               const ConnectionConfig& config,
                               std::uint64_t seed)
    : net_(net), locals_(std::move(locals)) {
  std::vector<sim::DatagramSocket*> sockets;
  sockets.reserve(locals_.size());
  for (const auto& addr : locals_) {
    sockets.push_back(net_.CreateSocket(addr));
  }
  Rng rng(seed);
  const ConnectionId cid = rng.NextU64() | 1;  // == CidForSeed(seed)
  auto send = [sockets, locals = locals_](sim::Address local,
                                          sim::Address remote,
                                          std::vector<std::uint8_t> payload) {
    for (std::size_t i = 0; i < locals.size(); ++i) {
      if (locals[i] == local) {
        sockets[i]->Send(remote, std::move(payload));
        return;
      }
    }
  };
  connection_ = std::make_unique<Connection>(
      sim, Perspective::kClient, cid, config, rng.Fork(), std::move(send));
  connection_->SetLocalAddresses(locals_);
  for (auto* socket : sockets) {
    socket->SetReceiveHandler([this](sim::Datagram& datagram) {
      connection_->OnDatagram(datagram);
    });
  }
}

ClientEndpoint::~ClientEndpoint() {
  for (const auto& addr : locals_) net_.CloseSocket(addr);
}

void ClientEndpoint::Connect(sim::Address server_address) {
  connection_->Connect(server_address);
}

}  // namespace mpq::quic
