// Tests of the synchronous random-phone-call engine (src/sim).

#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.hpp"

namespace drrg::sim {
namespace {

struct Ping {
  int tag = 0;
};

/// Node 0 sends one message to node 1 in round 0.
struct OneShot {
  bool sent = false;
  std::vector<std::pair<std::uint32_t, int>> received;  // (round, tag)

  void on_round(Network<Ping>& net, NodeId v) {
    if (v == 0 && !sent) {
      sent = true;
      net.send(0, 1, Ping{7}, 16);
    }
  }
  void on_message(Network<Ping>& net, NodeId, NodeId dst, const Ping& m) {
    if (dst == 1) received.push_back({net.round(), m.tag});
  }
};

TEST(Engine, DeliversWithinTheRound) {
  RngFactory rngs{1};
  Network<Ping> net{4, rngs};
  OneShot proto;
  net.run(proto, 3);
  ASSERT_EQ(proto.received.size(), 1u);
  EXPECT_EQ(proto.received[0].first, 0u);  // delivered in round 0
  EXPECT_EQ(proto.received[0].second, 7);
  EXPECT_EQ(net.counters().sent, 1u);
  EXPECT_EQ(net.counters().delivered, 1u);
  EXPECT_EQ(net.counters().bits, 16u);
  EXPECT_EQ(net.counters().rounds, 3u);
}

/// Forwarding: 0 -> 1 (round 0), 1 forwards -> 2 (arrives round 1).
struct ForwardChain {
  std::uint32_t arrival_round = 99;

  void on_round(Network<Ping>& net, NodeId v) {
    if (v == 0 && net.round() == 0) net.send(0, 1, Ping{1}, 8);
  }
  void on_message(Network<Ping>& net, NodeId, NodeId dst, const Ping& m) {
    if (dst == 1) net.send(1, 2, m, 8);  // forward costs one extra round
    if (dst == 2) arrival_round = net.round();
  }
};

TEST(Engine, ForwardingCostsOneRound) {
  RngFactory rngs{2};
  Network<Ping> net{3, rngs};
  ForwardChain proto;
  net.run(proto, 4);
  EXPECT_EQ(proto.arrival_round, 1u);
  EXPECT_EQ(net.counters().sent, 2u);
}

/// Replies are delivered in the same round via on_reply.
struct Echo {
  std::uint32_t reply_round = 99;
  int reply_tag = 0;

  void on_round(Network<Ping>& net, NodeId v) {
    if (v == 0 && net.round() == 0) net.send(0, 1, Ping{5}, 8);
  }
  void on_message(Network<Ping>& net, NodeId src, NodeId dst, const Ping& m) {
    net.reply(dst, src, Ping{m.tag + 1}, 8);
  }
  void on_reply(Network<Ping>& net, NodeId, NodeId dst, const Ping& m) {
    if (dst == 0) {
      reply_round = net.round();
      reply_tag = m.tag;
    }
  }
};

TEST(Engine, RepliesSameRound) {
  RngFactory rngs{3};
  Network<Ping> net{2, rngs};
  Echo proto;
  net.run(proto, 3);
  EXPECT_EQ(proto.reply_round, 0u);
  EXPECT_EQ(proto.reply_tag, 6);
}

TEST(Engine, RepliesAreReliableUnderLoss) {
  // loss_prob = 1 would drop every initiating call; replies never drop.
  // Use loss 0 for the initiating call by sending enough attempts.
  RngFactory rngs{4};
  FaultSchedule fm{0.5, 0.0};
  Network<Ping> net{2, rngs, fm};
  struct P {
    int got_reply = 0;
    int sent = 0;
    void on_round(Network<Ping>& net_, NodeId v) {
      if (v == 0) {
        ++sent;
        net_.send(0, 1, Ping{1}, 8);
      }
    }
    void on_message(Network<Ping>& net_, NodeId src, NodeId dst, const Ping& m) {
      net_.reply(dst, src, m, 8);
    }
    void on_reply(Network<Ping>&, NodeId, NodeId dst, const Ping&) {
      if (dst == 0) ++got_reply;
    }
  } proto;
  net.run(proto, 200);
  // Every delivered call produced a reply: delivered = 2 * (calls through).
  EXPECT_EQ(net.counters().delivered, 2 * static_cast<std::uint64_t>(proto.got_reply));
  EXPECT_GT(proto.got_reply, 40);   // ~half of 200
  EXPECT_LT(proto.got_reply, 160);
}

struct Flood {
  void on_round(Network<Ping>& net, NodeId v) { net.send(v, (v + 1) % net.size(), Ping{}, 4); }
  void on_message(Network<Ping>&, NodeId, NodeId, const Ping&) {}
};

TEST(Engine, LossRateMatchesModel) {
  RngFactory rngs{5};
  FaultSchedule fm{0.125, 0.0};
  Network<Ping> net{64, rngs, fm};
  Flood proto;
  net.run(proto, 500);
  const auto& c = net.counters();
  EXPECT_EQ(c.sent, 64u * 500);
  const double loss_rate = static_cast<double>(c.lost) / static_cast<double>(c.sent);
  EXPECT_NEAR(loss_rate, 0.125, 0.01);
  EXPECT_EQ(c.sent, c.delivered + c.lost);
}

TEST(Engine, CrashedNodesNeitherSendNorReceive) {
  RngFactory rngs{6};
  FaultSchedule fm{0.0, 0.25};
  Network<Ping> net{100, rngs, fm};
  EXPECT_EQ(net.alive_nodes().size(), 75u);
  for (NodeId v : net.alive_nodes()) EXPECT_TRUE(net.alive(v));

  struct P {
    std::vector<int> received;
    P() : received(100, 0) {}
    void on_round(Network<Ping>& net_, NodeId v) { net_.send(v, (v + 1) % 100, Ping{}, 4); }
    void on_message(Network<Ping>&, NodeId, NodeId dst, const Ping&) { ++received[dst]; }
  } proto;
  net.run(proto, 10);
  for (NodeId v = 0; v < 100; ++v) {
    if (!net.alive(v)) {
      EXPECT_EQ(proto.received[v], 0) << "crashed node received";
    }
  }
  // Messages to crashed nodes are counted lost.
  EXPECT_GT(net.counters().lost, 0u);
}

TEST(Engine, CrashSetConsistentAcrossPurposes) {
  RngFactory rngs{7};
  FaultSchedule fm{0.0, 0.3};
  Network<Ping> a{50, rngs, fm, /*purpose=*/1};
  Network<Ping> b{50, rngs, fm, /*purpose=*/2};
  ASSERT_EQ(a.alive_nodes().size(), b.alive_nodes().size());
  for (std::size_t i = 0; i < a.alive_nodes().size(); ++i)
    EXPECT_EQ(a.alive_nodes()[i], b.alive_nodes()[i]);
}

TEST(Engine, AtLeastOneNodeSurvives) {
  RngFactory rngs{8};
  FaultSchedule fm{0.0, 0.999};
  Network<Ping> net{10, rngs, fm};
  EXPECT_GE(net.alive_nodes().size(), 1u);
}

TEST(Engine, DoneStopsEarly) {
  RngFactory rngs{9};
  Network<Ping> net{4, rngs};
  struct P {
    int rounds_seen = 0;
    void on_round(Network<Ping>&, NodeId v) {
      if (v == 0) ++rounds_seen;
    }
    [[nodiscard]] bool done(const Network<Ping>&) const { return rounds_seen >= 3; }
  } proto;
  const std::uint32_t executed = net.run(proto, 100);
  EXPECT_EQ(executed, 3u);
  EXPECT_EQ(net.counters().rounds, 3u);
}

TEST(Engine, DeterministicTranscript) {
  auto run_once = [] {
    RngFactory rngs{10};
    FaultSchedule fm{0.1, 0.1};
    Network<Ping> net{32, rngs, fm};
    struct P {
      std::vector<std::uint32_t> log;
      void on_round(Network<Ping>& net_, NodeId v) {
        net_.send(v, net_.sample_peer(v), Ping{}, 4);
      }
      void on_message(Network<Ping>&, NodeId src, NodeId dst, const Ping&) {
        log.push_back(src * 1000 + dst);
      }
    } proto;
    net.run(proto, 20);
    return proto.log;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, SampleUniformCoversRange) {
  RngFactory rngs{11};
  Network<Ping> net{16, rngs};
  std::vector<bool> seen(16, false);
  for (int i = 0; i < 2000; ++i) seen[net.sample_peer(3)] = true;
  for (NodeId v = 0; v < 16; ++v) EXPECT_TRUE(seen[v]) << v;
}

TEST(Counters, Accumulate) {
  Counters a{10, 8, 2, 100, 5};
  Counters b{1, 1, 0, 10, 2};
  a += b;
  EXPECT_EQ(a.sent, 11u);
  EXPECT_EQ(a.delivered, 9u);
  EXPECT_EQ(a.lost, 2u);
  EXPECT_EQ(a.bits, 110u);
  EXPECT_EQ(a.rounds, 7u);
  a.reset();
  EXPECT_EQ(a.sent, 0u);
}

}  // namespace
}  // namespace drrg::sim
