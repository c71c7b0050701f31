// Tests for the P2P event service layers added on top of the core
// stack: Siena's advertisement-forwarding semantics, and C1's
// Scribe-style rendezvous baseline over the Plaxton overlay (§4.1/§5:
// "Both classes of events are supported by a Siena-like P2P system").
#include <gtest/gtest.h>

#include <memory>

#include "baselines/scribe.hpp"
#include "pubsub/siena_network.hpp"
#include "sim/churn.hpp"

namespace aa::pubsub {
namespace {

using baselines::ScribeNetwork;
using event::Event;
using event::Filter;
using event::Op;

Event temp_event(double celsius) {
  Event e("temperature");
  e.set("celsius", celsius);
  return e;
}

// --- Advertisement-based subscription forwarding (Siena semantics) ---

struct AdvFixture {
  sim::Scheduler sched;
  std::shared_ptr<sim::Topology> topo;
  sim::Network net;
  SienaNetwork ps;

  AdvFixture()
      : topo(std::make_shared<sim::UniformTopology>(16, duration::millis(5))),
        net(sched, topo),
        ps(net, {0, 1, 2, 3}) {
    // Chain: 0 - 1 - 2 - 3
    EXPECT_TRUE(ps.connect(0, 1).is_ok());
    EXPECT_TRUE(ps.connect(1, 2).is_ok());
    EXPECT_TRUE(ps.connect(2, 3).is_ok());
    EXPECT_TRUE(ps.set_advertisement_forwarding(true).is_ok());
    ps.attach_client(10, 0);  // publisher at one end
    ps.attach_client(11, 3);  // subscriber at the other
    ps.attach_client(12, 1);  // bystander broker 1 client
  }
};

TEST(Advertisements, SubscriptionChasesAdvertisement) {
  AdvFixture f;
  f.ps.advertise(10, Filter().where("type", Op::kEq, "temperature"));
  f.sched.run();
  int got = 0;
  f.ps.subscribe(11, Filter().where("type", Op::kEq, "temperature"),
                 [&](const Event&) { ++got; });
  f.sched.run();
  f.ps.publish(10, temp_event(20.0));
  f.sched.run();
  EXPECT_EQ(got, 1);
}

TEST(Advertisements, NonOverlappingSubscriptionNotForwarded) {
  AdvFixture f;
  f.ps.advertise(10, Filter().where("type", Op::kEq, "temperature"));
  f.sched.run();
  // A subscription no advertised publisher can satisfy stays at its
  // access broker.
  f.ps.subscribe(11, Filter().where("type", Op::kEq, "stock-tick"), [](const Event&) {});
  f.sched.run();
  EXPECT_EQ(f.ps.broker(0)->table_size(), 0u);
  EXPECT_EQ(f.ps.broker(1)->table_size(), 0u);
  EXPECT_EQ(f.ps.broker(2)->table_size(), 0u);
  EXPECT_EQ(f.ps.broker(3)->table_size(), 1u);  // only the access broker
}

TEST(Advertisements, SubscribeBeforeAdvertiseHealsOnAdvert) {
  AdvFixture f;
  int got = 0;
  // Subscription first: it cannot propagate yet (no advertisement).
  f.ps.subscribe(11, Filter().where("type", Op::kEq, "temperature"),
                 [&](const Event&) { ++got; });
  f.sched.run();
  EXPECT_EQ(f.ps.broker(0)->table_size(), 0u);
  // The advertisement unlocks the pending subscription along its path.
  f.ps.advertise(10, Filter().where("type", Op::kEq, "temperature"));
  f.sched.run();
  EXPECT_EQ(f.ps.broker(0)->table_size(), 1u);
  f.ps.publish(10, temp_event(25.0));
  f.sched.run();
  EXPECT_EQ(got, 1);
}

TEST(Advertisements, ReducesSubscriptionStateVersusFlooding) {
  // Many disjoint subscriptions, one advertised event class: with
  // advertisement forwarding, only the overlapping subscription spreads.
  AdvFixture f;
  f.ps.advertise(10, Filter().where("type", Op::kEq, "temperature"));
  f.sched.run();
  for (int i = 0; i < 8; ++i) {
    f.ps.subscribe(11, Filter().where("type", Op::kEq, "kind" + std::to_string(i)),
                   [](const Event&) {});
  }
  f.ps.subscribe(11, Filter().where("type", Op::kEq, "temperature"), [](const Event&) {});
  f.sched.run();
  // Broker 0 (the publisher's end) holds only the one relevant entry.
  EXPECT_EQ(f.ps.broker(0)->table_size(), 1u);
  // The access broker holds all 9.
  EXPECT_EQ(f.ps.broker(3)->table_size(), 9u);
}

// --- ScribeNetwork over the overlay ---

struct ScribeFixture {
  sim::Scheduler sched;
  std::shared_ptr<sim::Topology> topo;
  sim::Network net;
  overlay::OverlayNetwork overlay;

  explicit ScribeFixture(std::size_t hosts = 24, SimDuration maintenance = 0)
      : topo(std::make_shared<sim::UniformTopology>(hosts, duration::millis(5))),
        net(sched, topo),
        overlay(net, params(maintenance)) {
    std::vector<sim::HostId> hs;
    for (sim::HostId h = 0; h < hosts; ++h) hs.push_back(h);
    overlay.build_ring(hs);
  }
  static overlay::OverlayNetwork::Params params(SimDuration maintenance) {
    overlay::OverlayNetwork::Params p;
    p.maintenance_period = maintenance;
    return p;
  }
};

TEST(Scribe, TopicExtraction) {
  EXPECT_EQ(ScribeNetwork::topic_of_filter(Filter().where("type", Op::kEq, "temperature")),
            "temperature");
  EXPECT_EQ(ScribeNetwork::topic_of_filter(Filter().where("celsius", Op::kGt, 5.0)),
            ScribeNetwork::kCatchAllTopic);
  EXPECT_EQ(ScribeNetwork::topic_of_type(""), ScribeNetwork::kCatchAllTopic);
}

TEST(Scribe, DeliversToSubscriber) {
  ScribeFixture f;
  ScribeNetwork::Params sp;
  sp.refresh_period = 0;
  ScribeNetwork scribe(f.net, f.overlay, sp);
  int got = 0;
  scribe.subscribe(5, Filter().where("type", Op::kEq, "temperature"),
                   [&](const Event& e) {
                     EXPECT_DOUBLE_EQ(e.get_real("celsius").value(), 21.5);
                     ++got;
                   });
  f.sched.run();  // joins settle
  scribe.publish(17, temp_event(21.5));
  f.sched.run();
  EXPECT_EQ(got, 1);
}

TEST(Scribe, ContentFilteringAtTheEdge) {
  ScribeFixture f;
  ScribeNetwork::Params sp;
  sp.refresh_period = 0;
  ScribeNetwork scribe(f.net, f.overlay, sp);
  int hot = 0, all = 0;
  scribe.subscribe(3, Filter().where("type", Op::kEq, "temperature").where("celsius", Op::kGt, 25.0),
                   [&](const Event&) { ++hot; });
  scribe.subscribe(4, Filter().where("type", Op::kEq, "temperature"),
                   [&](const Event&) { ++all; });
  f.sched.run();
  scribe.publish(10, temp_event(20.0));
  f.sched.run();
  EXPECT_EQ(hot, 0);
  EXPECT_EQ(all, 1);
}

TEST(Scribe, ManySubscribersShareTree) {
  ScribeFixture f;
  ScribeNetwork::Params sp;
  sp.refresh_period = 0;
  ScribeNetwork scribe(f.net, f.overlay, sp);
  int got = 0;
  for (sim::HostId h = 0; h < 12; ++h) {
    scribe.subscribe(h, Filter().where("type", Op::kEq, "temperature"),
                     [&](const Event&) { ++got; });
  }
  f.sched.run();
  f.net.reset_stats();
  scribe.publish(20, temp_event(5.0));
  f.sched.run();
  EXPECT_EQ(got, 12);
  // Tree dissemination: messages well below one per (publisher,
  // subscriber) unicast fan-out through the rendezvous would be 12;
  // tree sharing keeps the multicast fan-out bounded by distinct tree
  // edges.
  EXPECT_GT(scribe.stats().multicast_messages, 0u);
}

TEST(Scribe, CatchAllSubscribersSeeTypedEvents) {
  ScribeFixture f;
  ScribeNetwork::Params sp;
  sp.refresh_period = 0;
  ScribeNetwork scribe(f.net, f.overlay, sp);
  int got = 0;
  scribe.subscribe(2, Filter().where("celsius", Op::kExists), [&](const Event&) { ++got; });
  f.sched.run();
  scribe.publish(9, temp_event(7.0));
  f.sched.run();
  EXPECT_EQ(got, 1);
}

TEST(Scribe, UnsubscribeStopsDelivery) {
  ScribeFixture f;
  ScribeNetwork::Params sp;
  sp.refresh_period = 0;
  ScribeNetwork scribe(f.net, f.overlay, sp);
  int got = 0;
  const auto id = scribe.subscribe(5, Filter().where("type", Op::kEq, "temperature"),
                                   [&](const Event&) { ++got; });
  f.sched.run();
  scribe.unsubscribe(5, id);
  scribe.publish(17, temp_event(1.0));
  f.sched.run();
  EXPECT_EQ(got, 0);
}

TEST(Scribe, DuplicatePublishesBothDelivered) {
  // The cycle guard must not suppress legitimate repeats of identical
  // content.
  ScribeFixture f;
  ScribeNetwork::Params sp;
  sp.refresh_period = 0;
  ScribeNetwork scribe(f.net, f.overlay, sp);
  int got = 0;
  scribe.subscribe(5, Filter().where("type", Op::kEq, "temperature"),
                   [&](const Event&) { ++got; });
  f.sched.run();
  scribe.publish(17, temp_event(3.0));
  scribe.publish(17, temp_event(3.0));  // identical XML
  f.sched.run();
  EXPECT_EQ(got, 2);
}

TEST(Scribe, SurvivesForwarderCrashViaRefresh) {
  ScribeFixture f(24, duration::seconds(2));  // overlay gossip on
  ScribeNetwork::Params sp;
  sp.refresh_period = duration::seconds(5);
  ScribeNetwork scribe(f.net, f.overlay, sp);
  int got = 0;
  scribe.subscribe(5, Filter().where("type", Op::kEq, "temperature"),
                   [&](const Event&) { ++got; });
  f.sched.run_for(duration::seconds(5));

  // Kill an interior forwarder of the temperature tree (any non-client,
  // non-rendezvous node holding children).
  const auto key = ScribeNetwork::rendezvous_key("temperature");
  const sim::HostId root = f.overlay.true_root(key).host;
  sim::ChurnInjector churn(f.net, {});
  sim::HostId victim = sim::kNoHost;
  for (sim::HostId h = 0; h < 24; ++h) {
    if (h == 5 || h == root) continue;
    if (scribe.children_at(h, "temperature") > 0) {
      victim = h;
      break;
    }
  }
  if (victim != sim::kNoHost) churn.kill(victim, false);

  // Refresh joins rebuild the path around the dead forwarder.
  f.sched.run_for(duration::seconds(40));
  scribe.publish(17, temp_event(9.0));
  f.sched.run_for(duration::seconds(20));
  EXPECT_GE(got, 1);
}

}  // namespace
}  // namespace aa::pubsub
