// Tests for the event services: Siena-model distributed routing
// (delivery, covering-based pruning, unsubscription) on broker trees and
// on one broker (the Elvin-style central server), the flooding
// baseline (baselines/), and mobility proxies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "baselines/flooding_network.hpp"
#include "common/rng.hpp"
#include "event/filter_parser.hpp"
#include "pubsub/mobility.hpp"
#include "pubsub/siena_network.hpp"
#include "wire/codec.hpp"

namespace aa::pubsub {
namespace {

using baselines::FloodingNetwork;
using event::Event;
using event::Filter;
using event::Op;

struct Fixture {
  sim::Scheduler sched;
  std::shared_ptr<sim::UniformTopology> topo;
  sim::Network net;

  explicit Fixture(std::size_t hosts = 16)
      : topo(std::make_shared<sim::UniformTopology>(hosts, duration::millis(5))),
        net(sched, topo) {}
};

Event temp_event(double celsius) {
  Event e("temperature");
  e.set("celsius", celsius);
  return e;
}

// --- SienaNetwork ---

TEST(Siena, DeliversMatchingEventAcrossBrokers) {
  Fixture f;
  SienaNetwork ps(f.net, {0, 1, 2, 3});
  ps.connect_tree();
  ps.attach_client(10, 0);
  ps.attach_client(11, 3);

  std::vector<Event> got;
  ps.subscribe(11, Filter().where("type", Op::kEq, "temperature"),
               [&](const Event& e) { got.push_back(e); });
  f.sched.run();

  ps.publish(10, temp_event(21.0));
  f.sched.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_DOUBLE_EQ(got[0].get_real("celsius").value(), 21.0);
}

// A hot-only and a match-all subscriber, one mild reading: only the
// match-all subscriber receives it.
void expect_filtered_delivery(const std::vector<sim::HostId>& brokers) {
  Fixture f;
  SienaNetwork ps(f.net, brokers);
  ps.connect_tree();
  ps.attach_client(10, brokers.front());
  ps.attach_client(11, brokers.back());
  int hot = 0, all = 0;
  ps.subscribe(11, Filter().where("celsius", Op::kGt, 30.0), [&](const Event&) { ++hot; });
  ps.subscribe(12, Filter(), [&](const Event&) { ++all; });
  f.sched.run();
  ps.publish(10, temp_event(21.0));
  f.sched.run();
  EXPECT_EQ(hot, 0);
  EXPECT_EQ(all, 1);
}

TEST(Siena, FiltersNonMatchingEvents) { expect_filtered_delivery({0, 1}); }

TEST(Siena, EventNotSentToUninterestedBranches) {
  // Star of brokers: events should only traverse edges toward matching
  // subscribers, never to broker 2's branch.
  Fixture f;
  SienaNetwork ps(f.net, {0, 1, 2});
  ASSERT_TRUE(ps.connect(0, 1).is_ok());
  ASSERT_TRUE(ps.connect(0, 2).is_ok());
  ps.attach_client(10, 1);  // publisher
  ps.attach_client(11, 2);  // subscriber to something else
  ps.subscribe(11, Filter().where("type", Op::kEq, "other"), [](const Event&) {});
  f.sched.run();
  ps.publish(10, temp_event(25.0));
  f.sched.run();
  // Broker 2 received the subscription but must not receive the
  // non-matching publication.
  EXPECT_EQ(ps.broker(2)->stats().publications_routed, 0u);
}

TEST(Siena, CoveringSuppressesSubscriptionForwarding) {
  Fixture f;
  SienaNetwork ps(f.net, {0, 1});
  ps.connect_tree();
  ps.attach_client(10, 0);
  ps.attach_client(11, 0);
  // Wide subscription first, then a covered narrower one: the second
  // must not be forwarded from broker 0 to broker 1.
  ps.subscribe(10, Filter().where("celsius", Op::kGt, 0.0), [](const Event&) {});
  f.sched.run();
  ps.subscribe(11, Filter().where("celsius", Op::kGt, 10.0), [](const Event&) {});
  f.sched.run();
  EXPECT_GE(ps.broker(0)->stats().subscriptions_suppressed, 1u);
  // Broker 1 holds only the covering subscription.
  EXPECT_EQ(ps.broker(1)->table_size(), 1u);
}

TEST(Siena, CoveredSubscriberStillReceivesEvents) {
  Fixture f;
  SienaNetwork ps(f.net, {0, 1});
  ps.connect_tree();
  ps.attach_client(10, 0);
  ps.attach_client(11, 0);
  ps.attach_client(12, 1);
  int wide = 0, narrow = 0;
  ps.subscribe(10, Filter().where("celsius", Op::kGt, 0.0), [&](const Event&) { ++wide; });
  f.sched.run();
  ps.subscribe(11, Filter().where("celsius", Op::kGt, 10.0), [&](const Event&) { ++narrow; });
  f.sched.run();
  ps.publish(12, temp_event(20.0));  // matches both, from the far broker
  f.sched.run();
  EXPECT_EQ(wide, 1);
  EXPECT_EQ(narrow, 1);
}

TEST(Siena, UnsubscribeStopsDeliveryAndRestoresCovered) {
  Fixture f;
  SienaNetwork ps(f.net, {0, 1});
  ps.connect_tree();
  ps.attach_client(10, 0);
  ps.attach_client(12, 1);
  int wide = 0, narrow = 0;
  const auto wide_id =
      ps.subscribe(10, Filter().where("celsius", Op::kGt, 0.0), [&](const Event&) { ++wide; });
  f.sched.run();
  ps.subscribe(10, Filter().where("celsius", Op::kGt, 10.0), [&](const Event&) { ++narrow; });
  f.sched.run();

  ps.unsubscribe(10, wide_id);
  f.sched.run();
  // The narrow subscription must now be installed at broker 1 (it was
  // suppressed by the wide one before).
  EXPECT_EQ(ps.broker(1)->table_size(), 1u);

  ps.publish(12, temp_event(20.0));
  f.sched.run();
  EXPECT_EQ(wide, 0);
  EXPECT_EQ(narrow, 1);
}

TEST(Siena, MultipleSubscriptionsOneClientOneDeliveryEach) {
  Fixture f;
  SienaNetwork ps(f.net, {0});
  ps.attach_client(10, 0);
  ps.attach_client(11, 0);
  int a = 0, b = 0;
  ps.subscribe(10, Filter().where("celsius", Op::kGt, 0.0), [&](const Event&) { ++a; });
  ps.subscribe(10, Filter().where("celsius", Op::kGt, 10.0), [&](const Event&) { ++b; });
  f.sched.run();
  ps.publish(11, temp_event(20.0));
  f.sched.run();
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
}

TEST(Siena, CallbackMayUnsubscribeDuringDispatch) {
  // Client dispatch fixes the matching ids before the first callback and
  // looks each one up again before calling it.  So a callback that
  // unsubscribes a later sibling stops that sibling's copy of the event
  // being dispatched, and a subscription it adds sees only later events.
  Fixture f;
  SienaNetwork ps(f.net, {0});
  ps.attach_client(10, 0);
  ps.attach_client(11, 0);
  const Filter warm = Filter().where("celsius", Op::kGt, 0.0);
  int first = 0, second = 0, third = 0, fourth = 0;
  std::uint64_t second_id = 0;
  ps.subscribe(10, warm, [&](const Event&) {
    if (++first > 1) return;
    ps.unsubscribe(10, second_id);
    ps.subscribe(10, warm, [&](const Event&) { ++fourth; });
  });
  second_id = ps.subscribe(10, warm, [&](const Event&) { ++second; });
  ps.subscribe(10, warm, [&](const Event&) { ++third; });
  f.sched.run();

  ps.publish(11, temp_event(20.0));
  f.sched.run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 0);
  EXPECT_EQ(third, 1);
  EXPECT_EQ(fourth, 0);

  ps.publish(11, temp_event(21.0));
  f.sched.run();
  EXPECT_EQ(first, 2);
  EXPECT_EQ(second, 0);
  EXPECT_EQ(third, 2);
  EXPECT_EQ(fourth, 1);
}

TEST(Siena, ReattachedClientReceivesAfterMove) {
  // Regression: re-attaching an attached client used to silently switch
  // its access broker, leaving its live subscriptions routed at the old
  // one — delivery then depended entirely on the stale broker.  A move
  // must re-issue the subscriptions at the new access broker.
  Fixture f;
  SienaNetwork ps(f.net, {0, 1});
  ps.connect_tree();
  ps.attach_client(10, 0);
  ps.attach_client(11, 1);  // publisher
  int got = 0;
  ps.subscribe(10, Filter().where("type", Op::kEq, "temperature"),
               [&](const Event&) { ++got; });
  f.sched.run();

  ps.attach_client(10, 1);  // the client moves to broker 1
  f.sched.run();
  ps.publish(11, temp_event(20.0));
  f.sched.run();
  EXPECT_EQ(got, 1);  // exactly one delivery — moved, not duplicated

  // The old broker is now irrelevant to this client: delivery must
  // survive its death.
  f.net.set_host_up(0, false);
  ps.publish(11, temp_event(21.0));
  f.sched.run();
  EXPECT_EQ(got, 2);
}

TEST(Siena, ReadvertisementWithChangedFilterPropagates) {
  // Regression: a re-advertisement that changed an advertisement's
  // filter was recorded locally but never re-flooded or re-evaluated,
  // so a publisher widening its event class was silently lost and
  // pending subscriptions stayed suppressed downstream.
  Fixture f;
  SienaNetwork ps(f.net, {0, 1});
  ps.connect_tree();
  ASSERT_TRUE(ps.set_advertisement_forwarding(true).is_ok());
  ps.attach_client(10, 0);  // publisher
  ps.attach_client(11, 1);  // subscriber
  ps.advertise(10, Filter().where("type", Op::kEq, "temperature"));
  f.sched.run();
  const std::uint64_t adv_id = ps.advertisements().back().id;

  int got = 0;
  ps.subscribe(11, Filter().where("type", Op::kEq, "humidity"),
               [&](const Event&) { ++got; });
  f.sched.run();
  // No advertised overlap yet: the subscription stays at broker 1.
  EXPECT_GE(ps.broker(1)->stats().subscriptions_suppressed, 1u);

  // The publisher widens its declared event class to everything.
  ASSERT_TRUE(ps.re_advertise(10, adv_id, Filter().where("type", Op::kExists)).is_ok());
  f.sched.run();
  Event e("humidity");
  e.set("percent", 60.0);
  ps.publish(10, e);
  f.sched.run();
  EXPECT_EQ(got, 1);
}

TEST(Siena, UnsubscribeReforwardsOnlyUncoveredSubscriptions) {
  // Covering-suppression regression for the unsubscribe re-forward
  // path: removing a covering subscription must re-forward the widest
  // still-covered subscription and keep narrower ones suppressed.
  Fixture f;
  SienaNetwork ps(f.net, {0, 1});
  ps.connect_tree();
  ps.attach_client(10, 0);
  ps.attach_client(12, 1);
  int wide = 0, mid = 0, narrow = 0;
  const auto wide_id =
      ps.subscribe(10, Filter().where("celsius", Op::kGt, 0.0), [&](const Event&) { ++wide; });
  f.sched.run();
  ps.subscribe(10, Filter().where("celsius", Op::kGt, 10.0), [&](const Event&) { ++mid; });
  ps.subscribe(10, Filter().where("celsius", Op::kGt, 20.0), [&](const Event&) { ++narrow; });
  f.sched.run();
  EXPECT_EQ(ps.broker(1)->table_size(), 1u);  // only the widest forwarded

  const auto forwarded_before = ps.total_broker_stats().subscriptions_forwarded;
  ps.unsubscribe(10, wide_id);
  f.sched.run();
  // Exactly one re-forward: the mid subscription; the narrow one is
  // covered by it and stays suppressed.
  EXPECT_EQ(ps.broker(1)->table_size(), 1u);
  EXPECT_EQ(ps.total_broker_stats().subscriptions_forwarded - forwarded_before, 1u);

  ps.publish(12, temp_event(15.0));
  f.sched.run();
  EXPECT_EQ(wide, 0);
  EXPECT_EQ(mid, 1);
  EXPECT_EQ(narrow, 0);
  ps.publish(12, temp_event(25.0));
  f.sched.run();
  EXPECT_EQ(mid, 2);
  EXPECT_EQ(narrow, 1);
}

TEST(Siena, UnsubscribeReforwardBatchIsOrderIndependent) {
  // Batch-invariant regression: when a covering filter departs, the
  // newly-uncovered subscriptions must be re-forwarded as one batch of
  // covering-maximal filters.  Here the *narrow* subscription holds the
  // lower id, so a per-entry re-forward loop walking the table in id
  // order would forward it first and then forward the mid one as well
  // (narrow does not cover mid) — two sends and a stranded narrow entry
  // upstream, where one send suffices.
  Fixture f;
  SienaNetwork ps(f.net, {0, 1});
  ps.connect_tree();
  ps.attach_client(10, 0);
  ps.attach_client(12, 1);
  int wide = 0, mid = 0, narrow = 0;
  const auto wide_id =
      ps.subscribe(10, Filter().where("celsius", Op::kGt, 0.0), [&](const Event&) { ++wide; });
  f.sched.run();
  ps.subscribe(10, Filter().where("celsius", Op::kGt, 20.0), [&](const Event&) { ++narrow; });
  ps.subscribe(10, Filter().where("celsius", Op::kGt, 10.0), [&](const Event&) { ++mid; });
  f.sched.run();
  EXPECT_EQ(ps.broker(1)->table_size(), 1u);  // only the widest forwarded

  const auto before = ps.total_broker_stats();
  ps.unsubscribe(10, wide_id);
  f.sched.run();
  const auto after = ps.total_broker_stats();
  // One re-forward (the mid filter), and the narrow sibling counted as
  // suppressed — it rides along under mid exactly as if mid had been
  // installed first.
  EXPECT_EQ(ps.broker(1)->table_size(), 1u);
  EXPECT_EQ(after.subscriptions_forwarded - before.subscriptions_forwarded, 1u);
  EXPECT_EQ(after.subscriptions_suppressed - before.subscriptions_suppressed, 1u);

  ps.publish(12, temp_event(15.0));
  f.sched.run();
  EXPECT_EQ(wide, 0);
  EXPECT_EQ(mid, 1);
  EXPECT_EQ(narrow, 0);
  ps.publish(12, temp_event(25.0));
  f.sched.run();
  EXPECT_EQ(mid, 2);
  EXPECT_EQ(narrow, 1);
}

TEST(Siena, ChangedFilterReforwardsWhatTheOldFilterCovered) {
  // A re-subscribe that narrows an already-forwarded filter must release
  // the subscriptions the old filter held back, at once — not whenever
  // some unrelated unsubscribe toward that neighbour happens to rescan.
  Fixture f;
  SienaNetwork ps(f.net, {0, 1});
  ps.connect_tree();
  ps.attach_client(10, 0);
  ps.attach_client(11, 0);
  ps.attach_client(12, 1);
  const auto wide_id = ps.subscribe(10, Filter().where("celsius", Op::kGt, 0.0),
                                    [](const Event&) {});
  f.sched.run();
  int narrow = 0;
  ps.subscribe(11, Filter().where("celsius", Op::kGt, 10.0), [&](const Event&) { ++narrow; });
  f.sched.run();
  EXPECT_EQ(ps.broker(1)->table_size(), 1u);  // the narrow one is held back

  // The client re-sends its subscription id with a disjoint filter.
  const SubscribeMsg changed{wide_id, Filter().where("celsius", Op::kLt, -5.0)};
  f.net.send(10, 0, kBrokerProto, changed, wire::xml_codec().size(changed));
  f.sched.run();
  EXPECT_EQ(ps.broker(1)->table_size(), 2u);

  ps.publish(12, temp_event(20.0));
  f.sched.run();
  EXPECT_EQ(narrow, 1);
}

TEST(Siena, CoveringChurnDeliversExactlyTheOracle) {
  // Covering-rich subscriptions on a 7-broker tree under random
  // subscribe, unsubscribe and move rounds.  After each quiescent round a
  // publication from every broker must reach exactly the live
  // subscriptions whose filters match it, once each, whatever covering
  // held back and re-forwarded along the way.  The operations of a round
  // run concurrently.
  Fixture f(64);
  const std::vector<sim::HostId> brokers{0, 1, 2, 3, 4, 5, 6};
  SienaNetwork ps(f.net, brokers);
  ps.connect_tree();
  constexpr sim::HostId kFirstPublisher = 10;
  constexpr sim::HostId kFirstClient = 20;
  constexpr std::uint64_t kClients = 12;
  for (sim::HostId b : brokers) ps.attach_client(kFirstPublisher + b, b);
  for (std::uint64_t c = 0; c < kClients; ++c) {
    ps.attach_client(kFirstClient + static_cast<sim::HostId>(c), brokers[c % brokers.size()]);
  }

  Rng rng(2024);
  const std::vector<std::string> types{"temperature", "humidity"};
  auto bound = [&rng] { return static_cast<double>(10 * rng.below(4)); };
  auto random_filter = [&]() -> Filter {
    const std::string& type = types[rng.below(types.size())];
    switch (rng.below(5)) {
      case 0: return Filter().where("celsius", Op::kGt, bound());
      case 1: return Filter().where("type", Op::kEq, type);
      case 2:
        return Filter()
            .where("type", Op::kEq, type)
            .where("user", Op::kEq, "u" + std::to_string(rng.below(3)));
      case 3:
        return Filter().where("room", Op::kPrefix,
                              rng.chance(0.5) ? "lab" : "lab-" + std::to_string(rng.below(2)));
      default: return Filter().where("type", Op::kEq, type).where("celsius", Op::kGt, bound());
    }
  };

  struct Live {
    sim::HostId client;
    std::uint64_t id;
    Filter filter;
  };
  std::map<int, Live> live;  // by test key
  std::map<int, std::vector<std::int64_t>> got;
  int next_key = 0;
  std::int64_t seq = 0;
  for (int round = 0; round < 80; ++round) {
    for (int op = 0; op < 4; ++op) {
      const std::uint64_t kind = rng.below(4);
      const auto client = kFirstClient + static_cast<sim::HostId>(rng.below(kClients));
      if (kind == 0 && !live.empty()) {
        const auto it = std::next(live.begin(), static_cast<long>(rng.below(live.size())));
        ps.unsubscribe(it->second.client, it->second.id);
        live.erase(it);
      } else if (kind == 1) {
        ps.attach_client(client, brokers[rng.below(brokers.size())]);
      } else {
        const int key = next_key++;
        Filter filter = random_filter();
        const std::uint64_t id = ps.subscribe(client, filter, [&got, key](const Event& e) {
          got[key].push_back(e.get_int("seq").value());
        });
        live.emplace(key, Live{client, id, std::move(filter)});
      }
    }
    f.sched.run();

    got.clear();
    std::map<int, std::vector<std::int64_t>> expected;
    for (sim::HostId b : brokers) {
      Event e(types[rng.below(types.size())]);
      e.set("celsius", static_cast<double>(rng.below(40)))
          .set("user", "u" + std::to_string(rng.below(3)))
          .set("room", rng.chance(0.7) ? "lab-" + std::to_string(rng.below(3)) : "office")
          .set("seq", seq);
      for (const auto& [key, sub] : live) {
        if (sub.filter.matches(e)) expected[key].push_back(seq);
      }
      ++seq;
      ps.publish(kFirstPublisher + b, e);
    }
    f.sched.run();
    for (auto& [key, seqs] : got) std::sort(seqs.begin(), seqs.end());  // arrival order varies
    ASSERT_EQ(got, expected) << "round " << round;
  }
  EXPECT_GT(ps.total_broker_stats().subscriptions_suppressed, 0u);
}

// Brokers and client dispatch match through FilterIndex; the oracle is
// Filter::matches over the installed subscriptions.  Each client must
// receive exactly the oracle's events, in publish order, while the
// index probes fewer entries than a linear scan of every broker's table
// would test.
void expect_indexed_matching_matches_oracle(const std::vector<sim::HostId>& brokers) {
  Fixture f(64);
  SienaNetwork ps(f.net, brokers);
  ps.connect_tree();
  constexpr int kSubs = 24;
  std::vector<Filter> filters;
  std::vector<std::vector<std::string>> got(kSubs);
  for (int s = 0; s < kSubs; ++s) {
    Filter filt;
    switch (s % 3) {
      case 0: filt.where("topic", Op::kEq, "t" + std::to_string(s % 6)); break;
      case 1: filt.where("value", Op::kGt, static_cast<double>(s)); break;
      default: filt.where("name", Op::kPrefix, "n" + std::to_string(s % 2)); break;
    }
    filters.push_back(filt);
    const sim::HostId host = static_cast<sim::HostId>(20 + s);
    ps.attach_client(host, brokers[static_cast<std::size_t>(s) % brokers.size()]);
    ps.subscribe(host, filt, [&got, s](const Event& e) { got[s].push_back(e.describe()); });
  }
  f.sched.run();
  ps.attach_client(50, brokers[3 % brokers.size()]);
  std::vector<std::vector<std::string>> expected(kSubs);
  for (int i = 0; i < 30; ++i) {
    Event e("reading");
    e.set("topic", "t" + std::to_string(i % 6))
        .set("value", static_cast<double>(i))
        .set("name", "n" + std::to_string(i % 3));
    for (int s = 0; s < kSubs; ++s) {
      if (filters[s].matches(e)) expected[s].push_back(e.describe());
    }
    ps.publish(50, e);
    f.sched.run();
  }
  EXPECT_EQ(got, expected);
  EXPECT_NE(expected, std::vector<std::vector<std::string>>(kSubs));
  // Tables are static while publishing, so a scan would have tested
  // every entry of every table once per publication routed there.
  std::uint64_t scan_cost = 0;
  for (sim::HostId b : brokers) {
    scan_cost += ps.broker(b)->stats().publications_routed * ps.broker(b)->table_size();
  }
  EXPECT_LT(ps.total_broker_stats().index_probes, scan_cost);
}

TEST(Siena, IndexedMatchingMatchesNaiveOracle) {
  expect_indexed_matching_matches_oracle({0, 1, 2, 3, 4, 5, 6, 7});
}

TEST(Siena, SetCodecAfterSubscribeRepricesEveryLink) {
  // The codec is fixed when the bus is built and prices every send: a
  // publish on a binary bus is charged the binary size on every link it
  // crosses (client -> access broker, broker -> broker, broker ->
  // client).
  Fixture f;
  SienaNetwork ps(f.net, {0, 1, 2, 3}, wire::WireCodec::kBinary);
  ps.connect_tree();  // 0-1, 0-2, 1-3
  ps.attach_client(10, 2);
  ps.attach_client(11, 3);
  int got = 0;
  ps.subscribe(11, Filter().where("type", Op::kEq, "temperature"),
               [&](const Event&) { ++got; });
  f.sched.run();

  f.net.reset_stats();
  const Event e = temp_event(21.0);
  ps.publish(10, e);
  f.sched.run();
  ASSERT_EQ(got, 1);
  // Path 10 -> 2 -> 0 -> 1 -> 3 -> 11: one client hop in, three broker
  // hops, one delivery out.
  const std::size_t publish = wire::binary_codec().size(PublishMsg{e, 1});
  const std::size_t deliver = wire::binary_codec().size(DeliverMsg{e});
  EXPECT_LT(publish, wire::xml_codec().size(PublishMsg{e, 1}));
  EXPECT_EQ(f.net.stats().messages_sent, 5u);
  EXPECT_EQ(f.net.stats().bytes_sent, 4 * publish + deliver);
}

TEST(Siena, RejectsCyclicOverlayLinks) {
  Fixture f;
  SienaNetwork ps(f.net, {0, 1, 2});
  EXPECT_TRUE(ps.connect(0, 1).is_ok());
  EXPECT_TRUE(ps.connect(1, 2).is_ok());
  EXPECT_FALSE(ps.connect(2, 0).is_ok());
}

// Brokers do not replay their tables to a new neighbour, so a link added
// once routing state exists would carry no routes: connect refuses it,
// after a subscription and after an advertisement alike.
TEST(Siena, ConnectAfterSubscribeIsRejected) {
  Fixture f;
  SienaNetwork ps(f.net, {0, 1, 2});
  ASSERT_TRUE(ps.connect(0, 1).is_ok());
  ps.attach_client(10, 0);
  ps.subscribe(10, Filter().where("type", Op::kEq, "temperature"), [](const Event&) {});
  f.sched.run();
  EXPECT_EQ(ps.connect(1, 2).code(), Code::kFailedPrecondition);
  EXPECT_TRUE(ps.broker(2)->neighbours().empty());
  EXPECT_EQ(ps.broker(1)->neighbours(), std::set<sim::HostId>{0});

  Fixture g;
  SienaNetwork advertised(g.net, {0, 1});
  advertised.advertise(10, Filter().where("type", Op::kEq, "temperature"));
  EXPECT_EQ(advertised.connect(0, 1).code(), Code::kFailedPrecondition);
  EXPECT_TRUE(advertised.broker(0)->neighbours().empty());
}

TEST(Siena, AdvertisementModeAfterSubscribeIsRejected) {
  // Enabled late, the mode would leave the subscriptions already
  // forwarded under flooding rules while later ones wait for
  // advertisements.
  Fixture f;
  SienaNetwork ps(f.net, {0, 1});
  ps.connect_tree();
  ps.attach_client(10, 0);  // a publisher that never advertises
  ps.attach_client(11, 1);
  int temperature = 0, humidity = 0;
  ps.subscribe(11, Filter().where("type", Op::kEq, "temperature"),
               [&](const Event&) { ++temperature; });
  f.sched.run();
  EXPECT_EQ(ps.set_advertisement_forwarding(true).code(), Code::kFailedPrecondition);
  // The mode stayed off, so a later subscription still floods.
  ps.subscribe(11, Filter().where("type", Op::kEq, "humidity"),
               [&](const Event&) { ++humidity; });
  f.sched.run();
  Event damp("humidity");
  damp.set("percent", 60.0);
  ps.publish(10, temp_event(20.0));
  ps.publish(10, damp);
  f.sched.run();
  EXPECT_EQ(temperature, 1);
  EXPECT_EQ(humidity, 1);

  Fixture g;
  SienaNetwork advertised(g.net, {0});
  advertised.advertise(10, Filter().where("type", Op::kEq, "temperature"));
  EXPECT_EQ(advertised.set_advertisement_forwarding(true).code(), Code::kFailedPrecondition);
}

TEST(Siena, ReAdvertiseUnknownIdIsRejected) {
  // Flooding an unknown id would install a phantom advertisement at
  // every broker, under an id advertise() may mint later.
  Fixture f;
  SienaNetwork ps(f.net, {0, 1});
  ps.connect_tree();
  ASSERT_TRUE(ps.set_advertisement_forwarding(true).is_ok());
  ps.attach_client(10, 0);  // publisher
  ps.attach_client(11, 1);  // subscriber
  const Filter temperature = Filter().where("type", Op::kEq, "temperature");
  ps.advertise(10, temperature);
  f.sched.run();
  const std::uint64_t unknown = ps.advertisements().back().id + 1;
  const std::uint64_t sent = f.net.stats().messages_sent;
  EXPECT_EQ(ps.re_advertise(10, unknown, Filter().where("type", Op::kExists)).code(),
            Code::kNotFound);
  f.sched.run();
  EXPECT_EQ(f.net.stats().messages_sent, sent);
  ASSERT_EQ(ps.advertisements().size(), 1u);
  EXPECT_EQ(ps.advertisements().back().filter, temperature);
  // Only the temperature advertisement exists, so a humidity
  // subscription stays at its access broker.
  int got = 0;
  ps.subscribe(11, Filter().where("type", Op::kEq, "humidity"), [&](const Event&) { ++got; });
  f.sched.run();
  Event damp("humidity");
  damp.set("percent", 60.0);
  ps.publish(10, damp);
  f.sched.run();
  EXPECT_EQ(got, 0);
}

TEST(Siena, AutoAttachesUnattachedClients) {
  Fixture f;
  SienaNetwork ps(f.net, {0});
  int got = 0;
  ps.subscribe(9, Filter(), [&](const Event&) { ++got; });
  f.sched.run();
  ps.publish(8, temp_event(1.0));
  f.sched.run();
  EXPECT_EQ(got, 1);
}

TEST(Siena, DeepChainDelivery) {
  Fixture f(40);
  std::vector<sim::HostId> brokers;
  for (sim::HostId h = 0; h < 20; ++h) brokers.push_back(h);
  SienaNetwork ps(f.net, brokers);
  for (sim::HostId h = 0; h + 1 < 20; ++h) ASSERT_TRUE(ps.connect(h, h + 1).is_ok());
  ps.attach_client(30, 0);
  ps.attach_client(31, 19);
  int got = 0;
  ps.subscribe(31, Filter().where("type", Op::kEq, "temperature"),
               [&](const Event&) { ++got; });
  f.sched.run();
  ps.publish(30, temp_event(5.0));
  f.sched.run();
  EXPECT_EQ(got, 1);
}

// --- One broker: Elvin's central server ---
//
// Elvin's single server (section 3) is a SienaNetwork with one broker,
// as in C1's "central" row: every client talks to it directly.

TEST(Central, DeliversAndFilters) { expect_filtered_delivery({0}); }

TEST(Central, UnsubscribeStopsDelivery) {
  Fixture f;
  SienaNetwork ps(f.net, {0});
  int got = 0;
  const auto id = ps.subscribe(10, Filter(), [&](const Event&) { ++got; });
  f.sched.run();
  ps.publish(11, temp_event(1.0));
  f.sched.run();
  EXPECT_EQ(got, 1);
  ps.unsubscribe(10, id);
  f.sched.run();
  ps.publish(11, temp_event(2.0));
  f.sched.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(f.net.delivered_to(0), 4u);  // subscribe, publish, unsubscribe, publish
}

TEST(Central, AllTrafficTouchesServer) {
  // Every subscribe and publish lands on the one broker, and it still
  // matches through FilterIndex instead of scanning its table: each
  // publication verifies only the filter keyed under its type.
  Fixture f;
  SienaNetwork ps(f.net, {0});
  int got = 0;
  ps.subscribe(10,
               Filter().where("type", Op::kEq, "temperature").where("celsius", Op::kGt, 2.5),
               [&](const Event&) { ++got; });
  ps.subscribe(12, Filter().where("type", Op::kEq, "humidity"), [](const Event&) {});
  f.sched.run();
  for (int i = 0; i < 5; ++i) ps.publish(11, temp_event(i));
  f.sched.run();
  EXPECT_EQ(got, 2);
  EXPECT_EQ(f.net.delivered_to(0), 7u);  // 2 subscribes + 5 publishes
  const BrokerStats stats = ps.total_broker_stats();
  EXPECT_LT(stats.index_probes, stats.publications_routed * ps.broker(0)->table_size());
}

TEST(Central, IndexedMatchingMatchesNaiveOracle) { expect_indexed_matching_matches_oracle({0}); }

// --- FloodingNetwork ---

TEST(Flooding, DeliversToMatchingSubscriberOnly) {
  Fixture f;
  FloodingNetwork ps(f.net, {0, 1, 2, 3});
  ps.connect_tree();
  ps.attach_client(10, 0);
  ps.attach_client(11, 3);
  int got = 0, other = 0;
  ps.subscribe(11, Filter().where("type", Op::kEq, "temperature"), [&](const Event&) { ++got; });
  ps.subscribe(11, Filter().where("type", Op::kEq, "humidity"), [&](const Event&) { ++other; });
  f.sched.run();
  ps.publish(10, temp_event(9.0));
  f.sched.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(other, 0);
}

TEST(Flooding, VisitsAllBrokersRegardlessOfInterest) {
  Fixture f;
  FloodingNetwork ps(f.net, {0, 1, 2, 3});
  ps.connect_tree();
  ps.attach_client(10, 0);
  f.sched.run();
  const auto before = ps.broker_messages();
  ps.publish(10, temp_event(1.0));
  f.sched.run();
  // The publication reaches every broker: 1 client->broker + 3 flood hops.
  EXPECT_EQ(ps.broker_messages() - before, 4u);
}

// --- MobilityService ---

TEST(Mobility, RelaysWhileConnected) {
  Fixture f;
  SienaNetwork siena(f.net, {0, 1});
  siena.connect_tree();
  MobilityService mob(f.net, siena, /*proxy_host=*/1);
  mob.register_mobile("bob", 10);
  int got = 0;
  mob.subscribe("bob", Filter().where("type", Op::kEq, "temperature"),
                [&](const Event&) { ++got; });
  f.sched.run();
  siena.publish(11, temp_event(20.0));
  f.sched.run();
  EXPECT_EQ(got, 1);
}

TEST(Mobility, BuffersWhileDisconnectedAndReplaysOnReconnect) {
  Fixture f;
  SienaNetwork siena(f.net, {0, 1});
  siena.connect_tree();
  MobilityService mob(f.net, siena, 1);
  mob.register_mobile("bob", 10);
  std::vector<double> got;
  mob.subscribe("bob", Filter().where("type", Op::kEq, "temperature"),
                [&](const Event& e) { got.push_back(e.get_real("celsius").value()); });
  f.sched.run();

  mob.disconnect("bob");
  siena.publish(11, temp_event(1.0));
  siena.publish(11, temp_event(2.0));
  f.sched.run();
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(mob.buffered("bob"), 2u);

  mob.reconnect("bob", /*new_host=*/12);  // reappears elsewhere
  f.sched.run();
  EXPECT_EQ(got, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(mob.buffered("bob"), 0u);
}

TEST(Mobility, BufferOverflowDropsOldest) {
  Fixture f;
  SienaNetwork siena(f.net, {0});
  MobilityService mob(f.net, siena, 0, /*capacity=*/2);
  mob.register_mobile("bob", 10);
  std::vector<double> got;
  mob.subscribe("bob", Filter().where("type", Op::kEq, "temperature"),
                [&](const Event& e) { got.push_back(e.get_real("celsius").value()); });
  f.sched.run();
  mob.disconnect("bob");
  for (int i = 1; i <= 5; ++i) siena.publish(11, temp_event(i));
  f.sched.run();
  EXPECT_EQ(mob.dropped(), 3u);
  mob.reconnect("bob", 10);
  f.sched.run();
  EXPECT_EQ(got, (std::vector<double>{4.0, 5.0}));
}

// --- Cross-implementation comparison (the C1 claim in miniature) ---

TEST(Comparison, SienaSendsFewerBytesThanFloodingForLocalTraffic) {
  // Publisher and subscriber share a branch; flooding still traverses
  // the whole overlay while content-based routing stays local.
  auto run = [&](bool flooding) -> std::uint64_t {
    Fixture f(64);
    std::vector<sim::HostId> brokers;
    for (sim::HostId h = 0; h < 16; ++h) brokers.push_back(h);
    std::uint64_t bytes = 0;
    if (flooding) {
      FloodingNetwork ps(f.net, brokers);
      ps.connect_tree();
      ps.attach_client(20, 15);
      ps.attach_client(21, 15);
      ps.subscribe(21, Filter().where("type", Op::kEq, "temperature"), [](const Event&) {});
      f.sched.run();
      f.net.reset_stats();
      for (int i = 0; i < 10; ++i) ps.publish(20, temp_event(i));
      f.sched.run();
      bytes = f.net.stats().bytes_sent;
    } else {
      SienaNetwork ps(f.net, brokers);
      ps.connect_tree();
      ps.attach_client(20, 15);
      ps.attach_client(21, 15);
      ps.subscribe(21, Filter().where("type", Op::kEq, "temperature"), [](const Event&) {});
      f.sched.run();
      f.net.reset_stats();
      for (int i = 0; i < 10; ++i) ps.publish(20, temp_event(i));
      f.sched.run();
      bytes = f.net.stats().bytes_sent;
    }
    return bytes;
  };
  EXPECT_LT(run(false), run(true));
}

}  // namespace
}  // namespace aa::pubsub
