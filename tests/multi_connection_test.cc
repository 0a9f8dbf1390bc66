// Server endpoints under concurrent load: several clients sharing one
// server, interleaved transfers, and per-connection isolation (stats,
// streams, keys). The Fig. 2 topology only has one client node, so these
// tests build wider custom topologies.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "quic/endpoint.h"
#include "sim/net.h"
#include "sim/simulator.h"
#include "tcpsim/endpoint.h"

namespace mpq {
namespace {

/// N client nodes, each with one interface, all wired to the same server
/// interface-per-client (the server has one address per client so the
/// one-link-per-interface routing holds).
struct StarTopology {
  sim::Simulator sim;
  sim::Network net{sim, Rng(2024)};
  std::vector<sim::Address> client_addrs;
  std::vector<sim::Address> server_addrs;

  explicit StarTopology(int clients) {
    for (int i = 0; i < clients; ++i) {
      sim::Address client{static_cast<std::uint16_t>(10 + i), 0};
      sim::Address server{1, static_cast<std::uint16_t>(i)};
      sim::LinkConfig link;
      link.capacity_mbps = 10;
      link.propagation_delay = 20 * kMillisecond;
      link.queue_capacity_bytes = ByteCount{64 * 1024};
      net.AddDuplexLink(client, server, link, link);
      client_addrs.push_back(client);
      server_addrs.push_back(server);
    }
  }
};

/// Answer each "GET <size>" request on stream 3 with <size> pattern bytes.
void ServeRequestedSizes(quic::Server& server) {
  server.SetAcceptHandler([](quic::Connection& conn) {
    auto request = std::make_shared<std::string>();
    conn.SetStreamDataHandler(
        [&conn, request](StreamId id, ByteCount,
                         std::span<const std::uint8_t> data, bool fin) {
          request->append(data.begin(), data.end());
          if (fin) {
            conn.SendOnStream(
                id, std::make_unique<PatternSource>(
                        id, ByteCount{std::stoull(request->substr(4))}));
          }
        });
  });
}

std::unique_ptr<BufferSource> GetRequest(std::size_t size) {
  const std::string request = "GET " + std::to_string(size);
  return std::make_unique<BufferSource>(
      std::vector<std::uint8_t>(request.begin(), request.end()));
}

TEST(MultiConnection, QuicServerHandlesManyClients) {
  constexpr int kClients = 5;
  StarTopology topo(kClients);

  quic::ConnectionConfig config;  // single-path QUIC per client
  quic::ServerEndpoint server(topo.sim, topo.net, topo.server_addrs, config,
                              1);
  ServeRequestedSizes(server);

  std::vector<std::unique_ptr<quic::ClientEndpoint>> clients;
  std::vector<ByteCount> received(kClients, ByteCount{0});
  std::vector<ByteCount> errors(kClients, ByteCount{0});
  int finished = 0;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<quic::ClientEndpoint>(
        topo.sim, topo.net,
        std::vector<sim::Address>{topo.client_addrs[i]}, config, 100 + i));
    // Every client asks for a different size to catch cross-talk.
    const ByteCount size = ByteCount{(i + 1) * 256 * 1024};
    clients[i]->connection().SetStreamDataHandler(
        [&, i](StreamId id, ByteCount offset,
               std::span<const std::uint8_t> data, bool fin) {
          for (std::size_t k = 0; k < data.size(); ++k) {
            if (data[k] != PatternByte(id.value(), offset + k)) ++errors[i];
          }
          received[i] += data.size();
          if (fin) ++finished;
        });
    clients[i]->connection().SetEstablishedHandler([&, i, size] {
      clients[i]->connection().SendOnStream(StreamId{3},
                                            GetRequest(size.value()));
    });
    clients[i]->Connect(topo.server_addrs[i]);
  }
  while (finished < kClients && topo.sim.RunOne(300 * kSecond)) {
  }
  ASSERT_EQ(finished, kClients);
  EXPECT_EQ(server.connection_count(), static_cast<std::size_t>(kClients));
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(received[i], static_cast<ByteCount>(i + 1) * 256 * 1024)
        << "client " << i;
    EXPECT_EQ(errors[i], 0u) << "client " << i;
  }
}

TEST(MultiConnection, QuicConnectionsAreCryptographicallyIsolated) {
  // Two clients; verify their connections derived different keys — i.e.
  // a packet for one CID never decrypts under the other connection.
  StarTopology topo(2);
  quic::ConnectionConfig config;
  quic::ServerEndpoint server(topo.sim, topo.net, topo.server_addrs, config,
                              1);
  server.SetAcceptHandler([](quic::Connection& conn) {
    conn.SetStreamDataHandler(
        [&conn](StreamId id, ByteCount, std::span<const std::uint8_t>,
                bool fin) {
          if (fin) {
            conn.SendOnStream(id, std::make_unique<PatternSource>(id, ByteCount{1024}));
          }
        });
  });
  std::vector<std::unique_ptr<quic::ClientEndpoint>> clients;
  int finished = 0;
  for (int i = 0; i < 2; ++i) {
    clients.push_back(std::make_unique<quic::ClientEndpoint>(
        topo.sim, topo.net,
        std::vector<sim::Address>{topo.client_addrs[i]}, config, 300 + i));
    clients[i]->connection().SetStreamDataHandler(
        [&](StreamId, ByteCount, std::span<const std::uint8_t>, bool fin) {
          if (fin) ++finished;
        });
    clients[i]->connection().SetEstablishedHandler([&, i] {
      clients[i]->connection().SendOnStream(
          StreamId{3}, std::make_unique<BufferSource>(
                 std::vector<std::uint8_t>{'G', 'E', 'T', ' ', '1'}));
    });
    clients[i]->Connect(topo.server_addrs[i]);
  }
  topo.sim.Run(30 * kSecond);
  EXPECT_EQ(finished, 2);
  EXPECT_NE(clients[0]->connection().cid(), clients[1]->connection().cid());
  // Distinct nonce/key material: both connections decrypted only their
  // own traffic (zero cross-connection decrypt failures implies the demux
  // never even offered foreign packets — also fine).
  for (auto& client : clients) {
    EXPECT_EQ(client->connection().stats().packets_decrypt_failed, 0u);
  }
}

TEST(MultiConnection, DuplicatedDeliveryIsCountedAsDuplicateNotDecryptFailure) {
  // Receivers decrypt every 1-RTT datagram in place. A duplicated
  // delivery event (wire duplication) owns its own copy of the
  // ciphertext, so opening the first copy must leave the second intact:
  // the clone is a duplicate packet, never a decrypt failure.
  StarTopology topo(1);
  quic::ConnectionConfig config;
  quic::ServerEndpoint server(topo.sim, topo.net, topo.server_addrs, config,
                              1);
  ServeRequestedSizes(server);
  quic::ClientEndpoint client(topo.sim, topo.net, {topo.client_addrs[0]},
                              config, 7);
  constexpr std::size_t kSize = 256 * 1024;
  ByteCount received{0};
  bool finished = false;
  client.connection().SetStreamDataHandler(
      [&](StreamId, ByteCount, std::span<const std::uint8_t> data,
          bool fin) {
        received += data.size();
        finished |= fin;
      });
  client.connection().SetEstablishedHandler([&] {
    client.connection().SendOnStream(StreamId{3}, GetRequest(kSize));
  });
  client.Connect(topo.server_addrs[0]);

  // Mid-transfer, every delivery toward the client is a 1-RTT data packet.
  while (received < ByteCount{64 * 1024} && topo.sim.RunOne(30 * kSecond)) {
  }
  ASSERT_GE(received, ByteCount{64 * 1024});
  const std::uint32_t to_client = 1u + topo.client_addrs[0].node;
  sim::Simulator::EventId delivery = 0;
  while (delivery == 0) {
    for (const auto& event : topo.sim.PendingEvents()) {
      if (event.kind == sim::EventKind::kDelivery &&
          event.scope == to_client) {
        delivery = event.id;
        break;
      }
    }
    if (delivery == 0) {
      ASSERT_TRUE(topo.sim.RunOne(30 * kSecond));
    }
  }
  ASSERT_NE(topo.sim.DuplicateEvent(delivery), 0u);

  topo.sim.Run(30 * kSecond);
  EXPECT_TRUE(finished);
  EXPECT_EQ(received, ByteCount{kSize});
  EXPECT_EQ(client.connection().stats().packets_duplicate, 1u);
  EXPECT_EQ(client.connection().stats().packets_decrypt_failed, 0u);
}

TEST(MultiConnection, TamperedTagIsCountedAndTheFlowStillCompletes) {
  // A 1-RTT datagram whose tag was corrupted on the wire reaches a
  // quic::Server connection: it fails to open in place, is counted and
  // dropped, and recovery resends its data under a fresh packet number.
  StarTopology topo(1);
  quic::ConnectionConfig config;
  quic::ServerEndpoint server(topo.sim, topo.net, topo.server_addrs, config,
                              1);
  ServeRequestedSizes(server);

  // Hand-wired client (what ClientEndpoint does), so its first 1-RTT
  // datagram can be corrupted on the way to the wire.
  sim::DatagramSocket* socket = topo.net.CreateSocket(topo.client_addrs[0]);
  bool tamper_next = false;
  int tampered = 0;
  quic::Connection client(
      topo.sim, quic::Perspective::kClient, ConnectionId{0x5EED1}, config,
      Rng(9),
      [&](sim::Address, sim::Address remote,
          std::vector<std::uint8_t> payload) {
        if (tamper_next && (payload[0] & quic::kFlagHandshake) == 0) {
          payload.back() ^= 0x01;  // the last byte belongs to the tag
          tamper_next = false;
          ++tampered;
        }
        socket->Send(remote, std::move(payload));
      });
  client.SetLocalAddresses({topo.client_addrs[0]});
  socket->SetReceiveHandler(
      [&client](sim::Datagram& datagram) { client.OnDatagram(datagram); });

  constexpr std::size_t kSize = 64 * 1024;
  ByteCount received{0};
  bool finished = false;
  client.SetStreamDataHandler([&](StreamId, ByteCount,
                                  std::span<const std::uint8_t> data,
                                  bool fin) {
    received += data.size();
    finished |= fin;
  });
  client.SetEstablishedHandler([&] {
    tamper_next = true;
    client.SendOnStream(StreamId{3}, GetRequest(kSize));
  });
  client.Connect(topo.server_addrs[0]);
  topo.sim.Run(30 * kSecond);

  EXPECT_EQ(tampered, 1);
  EXPECT_TRUE(finished);
  EXPECT_EQ(received, ByteCount{kSize});
  const quic::Connection* served = server.FindConnection(client.cid());
  ASSERT_NE(served, nullptr);
  EXPECT_EQ(served->stats().packets_decrypt_failed, 1u);
}

TEST(MultiConnection, TcpServerHandlesManyClients) {
  constexpr int kClients = 4;
  StarTopology topo(kClients);

  tcp::TcpConfig config;
  tcp::TcpServerEndpoint server(topo.sim, topo.net, topo.server_addrs,
                                config, 1);
  server.SetAcceptHandler([](tcp::TcpConnection& conn) {
    auto request = std::make_shared<std::string>();
    conn.SetAppDataHandler([&conn, request](
                               ByteCount, std::span<const std::uint8_t> d,
                               bool) {
      request->append(d.begin(), d.end());
      if (!request->empty() && request->back() == '\n') {
        const ByteCount n = ByteCount{std::stoull(request->substr(4))};
        request->clear();
        conn.SendAppData(std::make_unique<PatternSource>(7, n));
      }
    });
  });

  std::vector<std::unique_ptr<tcp::TcpClientEndpoint>> clients;
  std::vector<ByteCount> received(kClients, ByteCount{0});
  int finished = 0;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<tcp::TcpClientEndpoint>(
        topo.sim, topo.net,
        std::vector<sim::Address>{topo.client_addrs[i]}, config, 200 + i));
    const ByteCount size = ByteCount{(i + 1) * 128 * 1024};
    clients[i]->connection().SetAppDataHandler(
        [&, i](ByteCount, std::span<const std::uint8_t> d, bool eof) {
          received[i] += d.size();
          if (eof) ++finished;
        });
    clients[i]->connection().SetSecureEstablishedHandler([&, i, size] {
      const std::string request = "GET " + std::to_string(size.value()) + "\n";
      clients[i]->connection().SendAppData(std::make_unique<BufferSource>(
          std::vector<std::uint8_t>(request.begin(), request.end())));
    });
    clients[i]->Connect({topo.server_addrs[i]});
  }
  while (finished < kClients && topo.sim.RunOne(300 * kSecond)) {
  }
  ASSERT_EQ(finished, kClients);
  EXPECT_EQ(server.connection_count(), static_cast<std::size_t>(kClients));
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(received[i], static_cast<ByteCount>(i + 1) * 128 * 1024);
  }
}

}  // namespace
}  // namespace mpq
