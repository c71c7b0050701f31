// Tests for knowledge-base replication over the event bus (§1.2: "the
// knowledge base must be delivered to the locations at which the
// matching computation occurs").
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "event/filter_parser.hpp"
#include "match/replicated_knowledge.hpp"
#include "pubsub/siena_network.hpp"

namespace aa::match {
namespace {

Fact preference(const std::string& user, double min_celsius) {
  Fact f;
  f.set("kind", "preference").set("user", user).set("min_celsius", min_celsius);
  return f;
}

event::Filter filt(const std::string& text) {
  return event::parse_filter(text).value_or(event::Filter());
}

struct Fixture {
  sim::Scheduler sched;
  std::shared_ptr<sim::Topology> topo;
  sim::Network net;
  pubsub::SienaNetwork bus;
  ReplicatedKnowledge rk;

  Fixture()
      : topo(std::make_shared<sim::UniformTopology>(8, duration::millis(5))),
        net(sched, topo),
        bus(net, {0, 1}),
        rk(bus, /*authority=*/0) {
    EXPECT_TRUE(bus.connect(0, 1).is_ok());
  }
};

TEST(ReplicatedKnowledge, StateTransferToLateReplica) {
  Fixture f;
  f.rk.add(preference("bob", 18.0));
  f.rk.add(preference("anna", 12.0));
  // The replica is created after the writes: it must receive a copy.
  KnowledgeBase& replica = f.rk.replica(5);
  EXPECT_EQ(replica.size(), 2u);
  EXPECT_EQ(replica.query(filt("user = bob")).size(), 1u);
  EXPECT_EQ(f.rk.stats().state_transfers, 1u);
}

TEST(ReplicatedKnowledge, UpdatesPropagateOverTheBus) {
  Fixture f;
  KnowledgeBase& replica = f.rk.replica(5);
  f.sched.run();  // let the replica's subscription install
  EXPECT_EQ(replica.size(), 0u);

  f.rk.add(preference("bob", 18.0));
  f.sched.run();  // propagation delay
  EXPECT_EQ(replica.size(), 1u);
  EXPECT_EQ(replica.query(filt("user = bob")).size(), 1u);
}

TEST(ReplicatedKnowledge, RemovePropagatesWithCorrectId) {
  Fixture f;
  const FactId bob = f.rk.add(preference("bob", 18.0));
  f.rk.add(preference("anna", 12.0));
  KnowledgeBase& replica = f.rk.replica(3);
  f.sched.run();
  ASSERT_EQ(replica.size(), 2u);

  EXPECT_TRUE(f.rk.remove(bob));
  f.sched.run();
  EXPECT_EQ(replica.size(), 1u);
  EXPECT_TRUE(replica.query(filt("user = bob")).empty());
  EXPECT_EQ(replica.query(filt("user = anna")).size(), 1u);
}

TEST(ReplicatedKnowledge, UpdateUpserts) {
  Fixture f;
  const FactId id = f.rk.add(preference("bob", 18.0));
  KnowledgeBase& replica = f.rk.replica(3);
  f.sched.run();
  EXPECT_TRUE(f.rk.update(id, preference("bob", 25.0)));
  f.sched.run();
  const auto facts = replica.query(filt("user = bob"));
  ASSERT_EQ(facts.size(), 1u);
  EXPECT_DOUBLE_EQ(facts[0]->get_real("min_celsius").value(), 25.0);
}

TEST(ReplicatedKnowledge, MultipleReplicasConverge) {
  Fixture f;
  std::vector<KnowledgeBase*> replicas;
  for (sim::HostId h = 2; h < 7; ++h) replicas.push_back(&f.rk.replica(h));
  f.sched.run();
  for (int i = 0; i < 10; ++i) f.rk.add(preference("user" + std::to_string(i), i));
  const FactId removed = f.rk.add(preference("victim", 0));
  f.rk.remove(removed);
  f.sched.run();
  for (KnowledgeBase* r : replicas) {
    EXPECT_EQ(r->size(), 10u);  // 10 users; the victim was removed
  }
}

TEST(ReplicatedKnowledge, VersionsInFlightApplyInTurnAndConverge) {
  // Two versions of one fact and the remove of another are in flight at
  // once.  Replica 3 sits at the publishing broker and applies both
  // versions before replica 5, one broker further, applies the first:
  // replicas share parsed facts, yet each must hold v1's content right
  // after applying v1 and v2's right after v2.
  Fixture f;
  f.bus.attach_client(3, 0);
  f.bus.attach_client(5, 1);
  const FactId bob = f.rk.add(preference("bob", 18.0));
  const FactId anna = f.rk.add(preference("anna", 12.0));
  // (replica, bob's min_celsius) right after each of bob's updates.
  std::vector<std::pair<sim::HostId, double>> seen;
  for (sim::HostId h : {3u, 5u}) {
    KnowledgeBase& replica = f.rk.replica(h);
    // Subscribed after the replica, so it runs right after each apply.
    f.bus.subscribe(h,
                    event::Filter().where("type", event::Op::kEq,
                                          ReplicatedKnowledge::kUpdateEventType),
                    [&seen, &replica, h, bob](const event::Event& e) {
                      if (e.get_int("fact_id") != static_cast<std::int64_t>(bob)) return;
                      const Fact* fact = replica.fact(bob);
                      seen.emplace_back(h, fact != nullptr ? *fact->get_real("min_celsius") : -1);
                    });
  }
  f.sched.run();
  ASSERT_TRUE(f.rk.update(bob, preference("bob", 21.0)));
  ASSERT_TRUE(f.rk.update(bob, preference("bob", 25.0)));
  ASSERT_TRUE(f.rk.remove(anna));
  f.sched.run();

  const std::vector<std::pair<sim::HostId, double>> expected{
      {3, 21.0}, {3, 25.0}, {5, 21.0}, {5, 25.0}};
  EXPECT_EQ(seen, expected);
  for (sim::HostId h : {3u, 5u}) {
    const KnowledgeBase& replica = f.rk.replica(h);
    ASSERT_EQ(replica.size(), f.rk.master().size()) << "replica " << h;
    for (const auto& [id, fact] : f.rk.master().snapshot()) {
      ASSERT_NE(replica.fact(id), nullptr) << "replica " << h << " fact " << id;
      EXPECT_EQ(*replica.fact(id), *fact) << "replica " << h << " fact " << id;
    }
  }
  EXPECT_EQ(f.rk.stats().updates_applied, 6u);
}

TEST(ReplicatedKnowledge, RemoveOfUnknownIdIsFalse) {
  Fixture f;
  EXPECT_FALSE(f.rk.remove(999));
  EXPECT_FALSE(f.rk.update(999, preference("x", 1)));
}

}  // namespace
}  // namespace aa::match
