// Zero-allocation pins of the simulated message path.
//
// This binary links the counting global operator new of the end-to-end
// benchmark (bench_e2e/alloc_counter.cpp), so each case can count the
// heap allocations of a warmed-up operation.  Once the scheduler's
// heap and task slots, the network's parked-packet slab, the batch
// staging vectors and the pipeline's hop slab have grown to the
// traffic's size, scheduling, sending, delivering and hopping allocate
// nothing, and a broker's route step allocates only when its table of
// routed ids doubles: a failure here means a heap allocation is back on
// the per-message path.  An overlay node's replica set, which every
// put, reconstruction and healing sweep asks for, lives inline too.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "alloc_counter.hpp"
#include "common/body.hpp"
#include "common/rng.hpp"
#include "event/event.hpp"
#include "overlay/messages.hpp"
#include "overlay/node.hpp"
#include "pipeline/pipeline_network.hpp"
#include "pubsub/broker.hpp"
#include "pubsub/messages.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"
#include "sim/topology.hpp"

namespace aa::sim {
namespace {

using bench_e2e::allocations;

// Every bus message, and the largest message struct in src/, travels
// inside the packet.
static_assert(Body::stores_inline<pubsub::SubscribeMsg>);
static_assert(Body::stores_inline<pubsub::AdvertiseMsg>);
static_assert(Body::stores_inline<pubsub::UnsubscribeMsg>);
static_assert(Body::stores_inline<pubsub::PublishMsg>);
static_assert(Body::stores_inline<pubsub::DeliverMsg>);
static_assert(Body::stores_inline<pubsub::SyncRequestMsg>);
static_assert(Body::stores_inline<pubsub::SyncReplyMsg>);
static_assert(Body::stores_inline<overlay::RouteMsg>);
static_assert(Body::stores_inline<BatchFrame>);

constexpr int kWarmup = 256;
constexpr int kMeasured = 1024;

/// Heap allocations made by `rounds` calls of `op`, after `kWarmup`
/// unmeasured calls.
template <typename Op>
std::uint64_t allocations_after_warmup(Op op, int rounds = kMeasured) {
  for (int i = 0; i < kWarmup; ++i) op(i);
  const std::uint64_t before = allocations();
  for (int i = 0; i < rounds; ++i) op(kWarmup + i);
  return allocations() - before;
}

std::size_t header_frame(std::span<const std::size_t> sizes) {
  std::size_t total = 16;
  for (std::size_t d : sizes) total += d + 2;
  return total;
}

struct TwoHosts {
  Scheduler sched;
  Network net{sched, std::make_shared<UniformTopology>(2, 1000)};
  std::uint64_t delivered = 0;
  event::Event event{"temperature"};

  TwoHosts() {
    event.set("celsius", 21.5);
    net.register_handler(1, pubsub::kBrokerProto, [this](const Packet& p) {
      if (packet_body<pubsub::PublishMsg>(p) != nullptr) ++delivered;
    });
  }
  void publish(int i) {
    net.send<pubsub::PublishMsg>(0, 1, pubsub::kBrokerProto,
                                 pubsub::PublishMsg{event, static_cast<std::uint64_t>(i)}, 80);
  }
};

TEST(Alloc, SchedulerAfterAndStepAllocateNothing) {
  Scheduler s;
  Rng r(7);
  for (int k = 0; k < 64; ++k) s.at(static_cast<SimTime>(r.below(1'000'000)), [] {});
  const std::uint64_t n = allocations_after_warmup([&](int) {
    s.after(static_cast<SimDuration>(r.below(1'000'000)), [] {});
    ASSERT_TRUE(s.step());
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(s.pending(), 64u);
}

TEST(Alloc, SendPublishAndDeliverAllocateNothing) {
  TwoHosts h;
  const std::uint64_t n = allocations_after_warmup([&](int i) {
    h.publish(i);
    h.sched.run();
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(h.delivered, static_cast<std::uint64_t>(kWarmup + kMeasured));
}

TEST(Alloc, BatchedBurstToOneNeighbourAllocatesNothing) {
  TwoHosts h;
  h.net.enable_batching(0, header_frame);
  constexpr int kBurst = 8;
  const std::uint64_t n = allocations_after_warmup([&](int i) {
    for (int k = 0; k < kBurst; ++k) h.publish(i * kBurst + k);
    h.sched.run();  // one flush, one frame, eight member deliveries
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(h.delivered, static_cast<std::uint64_t>((kWarmup + kMeasured) * kBurst));
  EXPECT_EQ(h.net.stats().frames_sent, static_cast<std::uint64_t>(kWarmup + kMeasured));
}

TEST(Alloc, FaultDuplicatedSendAllocatesNothing) {
  TwoHosts h;
  LinkFaults dup;
  dup.duplicate = 1.0;
  h.net.set_link_faults(dup);
  const std::uint64_t n = allocations_after_warmup([&](int i) {
    h.publish(i);
    h.sched.run();
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(h.delivered, static_cast<std::uint64_t>(2 * (kWarmup + kMeasured)));
  EXPECT_EQ(h.net.stats().duplicated, static_cast<std::uint64_t>(kWarmup + kMeasured));
}

TEST(Alloc, BrokerRouteAllocatesOnlyItsIdTableDoublings) {
  // Fresh stamped publications from host 0 to a broker on host 1 with
  // one local subscriber: the route step reuses its scratch vectors, so
  // only the routed-id table's doublings allocate (it doubles at 512
  // and 1024 ids in the measured rounds).
  TwoHosts h;
  pubsub::Broker broker(h.net, 1, wire::binary_codec());
  h.net.register_handler(1, pubsub::kBrokerProto, [&](const Packet& p) { broker.on_message(p); });
  std::uint64_t delivered = 0;
  h.net.register_handler(0, pubsub::kClientProto, [&](const Packet& p) {
    if (packet_body<pubsub::DeliverMsg>(p) != nullptr) ++delivered;
  });
  h.net.send<pubsub::SubscribeMsg>(
      0, 1, pubsub::kBrokerProto,
      pubsub::SubscribeMsg{1, event::Filter().where("type", event::Op::kEq, "temperature")}, 64);
  h.sched.run();
  const std::uint64_t n = allocations_after_warmup([&](int i) {
    h.publish(i + 1);
    h.sched.run();
  });
  EXPECT_LE(n, 2u);
  EXPECT_EQ(delivered, static_cast<std::uint64_t>(kWarmup + kMeasured));
  EXPECT_EQ(broker.stats().publications_routed, static_cast<std::uint64_t>(kWarmup + kMeasured));
}

TEST(Alloc, ReplicaSetAllocatesNothing) {
  // A full leaf set (eight peers from sixteen), so the largest replica
  // set, self plus every leaf, is asked for too.
  Scheduler sched;
  Network net{sched, std::make_shared<UniformTopology>(17, 1000)};
  Rng rng(29);
  overlay::OverlayNode node(net, {rng.uid(), 0}, /*proximity_selection=*/false);
  for (HostId h = 1; h < 17; ++h) node.consider({rng.uid(), h});
  ASSERT_EQ(node.leaf_set().size(), static_cast<std::size_t>(overlay::OverlayNode::kLeafSetSize));
  std::size_t members = 0;
  const std::uint64_t n = allocations_after_warmup([&](int i) {
    members += node.replica_set(rng.uid(), 1 + i % (overlay::OverlayNode::kLeafSetSize + 1)).size();
  });
  EXPECT_EQ(n, 0u);
  EXPECT_GT(members, 0u);
}

/// Re-emits every event it is given.
class Relay : public pipeline::Component {
 public:
  using Component::Component;

 protected:
  void on_event(const event::Event& e) override { emit(e); }
};

/// Consumes every event it is given.
class Sink : public pipeline::Component {
 public:
  using Component::Component;

 protected:
  void on_event(const event::Event&) override { drop(); }
};

TEST(Alloc, IntraNodePipelineHopAllocatesNothing) {
  // Names longer than the small-string buffer, so a copied target name
  // would allocate: the hop slot keeps its name's buffer.
  TwoHosts h;
  pipeline::PipelineNetwork pipes(h.net);
  const pipeline::ComponentRef relay =
      pipes.add(0, std::make_unique<Relay>("relay-with-a-long-name"));
  const pipeline::ComponentRef sink =
      pipes.add(0, std::make_unique<Sink>("sink-with-a-long-name"));
  ASSERT_TRUE(pipes.connect(relay, sink).is_ok());
  const std::uint64_t n = allocations_after_warmup([&](int) {
    pipes.inject(relay, h.event);
    h.sched.run();
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(pipes.stats().intra_node_hops, static_cast<std::uint64_t>(kWarmup + kMeasured));
  EXPECT_EQ(pipes.component(sink)->stats().received,
            static_cast<std::uint64_t>(kWarmup + kMeasured));
}

}  // namespace
}  // namespace aa::sim
