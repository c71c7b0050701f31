// Coverage for smaller surfaces not exercised elsewhere: logging,
// scheduler introspection, network handler teardown, XML child removal,
// event describe, mobility unsubscribe, store-node fragments, broker
// neighbour removal, histogram values access.
#include <gtest/gtest.h>

#include <memory>

#include "common/log.hpp"
#include "pubsub/mobility.hpp"
#include "pubsub/siena_network.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"
#include "storage/store_node.hpp"
#include "xml/xml.hpp"

namespace aa {
namespace {

TEST(Log, LevelGatingAndOutput) {
  const LogLevel before = Logger::level();
  Logger::set_level(LogLevel::kWarn);
  EXPECT_FALSE(Logger::enabled(LogLevel::kDebug));
  EXPECT_TRUE(Logger::enabled(LogLevel::kError));
  AA_DEBUG("test") << "suppressed " << 1;
  AA_ERROR("test") << "emitted " << 2;  // visible on stderr; no assert
  Logger::set_level(before);
}

TEST(Scheduler, IntrospectionCounters) {
  sim::Scheduler s;
  EXPECT_FALSE(s.step());
  s.after(10, [] {});
  s.after(20, [] {});
  EXPECT_EQ(s.pending(), 2u);
  s.run();
  EXPECT_EQ(s.executed_events(), 2u);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Network, ClearHandlersSilencesHost) {
  sim::Scheduler sched;
  auto topo = std::make_shared<sim::UniformTopology>(4, 1000);
  sim::Network net(sched, topo);
  int got = 0;
  net.register_handler(1, "a", [&](const sim::Packet&) { ++got; });
  net.register_handler(1, "b", [&](const sim::Packet&) { ++got; });
  net.register_handler(2, "a", [&](const sim::Packet&) { got += 10; });
  net.unregister_handler(1, "a");
  net.unregister_handler(1, "b");
  net.send(0, 1, "a", 1, 8);
  net.send(0, 1, "b", 1, 8);
  net.send(0, 2, "a", 1, 8);  // another host's table is untouched
  sched.run();
  EXPECT_EQ(got, 10);
  EXPECT_EQ(net.stats().messages_dropped, 2u);
}

TEST(Xml, RemoveChildren) {
  auto doc = xml::parse("<r><a/><b/><a/><c/></r>");
  ASSERT_TRUE(doc.is_ok());
  xml::Element e = doc.value();
  EXPECT_EQ(e.remove_children("a"), 2u);
  EXPECT_EQ(e.remove_children("a"), 0u);
  EXPECT_EQ(e.child_elements().size(), 2u);
}

TEST(Event, DescribeListsAttributes) {
  event::Event e("t");
  e.set("x", 1).set("y", "z");
  const std::string d = e.describe();
  EXPECT_NE(d.find("x=1"), std::string::npos);
  EXPECT_NE(d.find("y=z"), std::string::npos);
  EXPECT_NE(d.find("type=t"), std::string::npos);
}

TEST(Mobility, UnsubscribeStopsRelay) {
  sim::Scheduler sched;
  auto topo = std::make_shared<sim::UniformTopology>(8, 1000);
  sim::Network net(sched, topo);
  pubsub::SienaNetwork bus(net, {0});
  pubsub::MobilityService mob(net, bus, 0);
  mob.register_mobile("m", 3);
  int got = 0;
  const auto id = mob.subscribe("m", event::Filter(), [&](const event::Event&) { ++got; });
  sched.run();
  mob.unsubscribe("m", id);
  sched.run();
  event::Event e("x");
  bus.publish(4, e);
  sched.run();
  EXPECT_EQ(got, 0);
  EXPECT_FALSE(mob.connected("ghost"));
  EXPECT_EQ(mob.buffered("ghost"), 0u);
}

TEST(StoreNode, FragmentLifecycle) {
  storage::StoreNode node(1024);
  const ObjectId id = Uid160::from_content("o");
  storage::Fragment f;
  f.index = 2;
  f.data = to_bytes("frag");
  node.store_fragment(id, f);
  ASSERT_NE(node.fragment(id), nullptr);
  EXPECT_EQ(node.fragment(id)->index, 2);
  EXPECT_EQ(node.fragment_ids().size(), 1u);
  EXPECT_TRUE(node.drop_fragment(id));
  EXPECT_FALSE(node.drop_fragment(id));
}

TEST(Broker, RemoveNeighbourStopsForwarding) {
  sim::Scheduler sched;
  auto topo = std::make_shared<sim::UniformTopology>(8, 1000);
  sim::Network net(sched, topo);
  pubsub::SienaNetwork ps(net, {0, 1});
  ASSERT_TRUE(ps.connect(0, 1).is_ok());
  ps.attach_client(4, 1);
  int got = 0;
  ps.subscribe(4, event::Filter(), [&](const event::Event&) { ++got; });
  sched.run();
  // Severing the link at broker 0 stops publications flowing to 1.
  ps.broker(0)->remove_neighbour(1);
  ps.attach_client(5, 0);
  ps.publish(5, event::Event("x"));
  sched.run();
  EXPECT_EQ(got, 0);

  // Chain 0 - 1 - 2: broker 1 forwards the subscriber's wide filter from
  // 2 on to 0, holding back its own client's narrower one.  Severing the
  // link to 2 must unsubscribe the wide filter at 0, as an unsubscribe
  // from 2 would, and release the narrow one in its place.
  sim::Scheduler chain_sched;
  sim::Network chain_net(chain_sched, topo);
  pubsub::SienaNetwork chain(chain_net, {0, 1, 2});
  ASSERT_TRUE(chain.connect(0, 1).is_ok());
  ASSERT_TRUE(chain.connect(1, 2).is_ok());
  chain.attach_client(4, 2);
  chain.attach_client(5, 1);
  chain.attach_client(6, 0);
  chain.subscribe(4, event::Filter().where("celsius", event::Op::kGt, 0.0),
                  [](const event::Event&) {});
  chain_sched.run();
  int narrow = 0;
  chain.subscribe(5, event::Filter().where("celsius", event::Op::kGt, 10.0),
                  [&](const event::Event&) { ++narrow; });
  chain_sched.run();
  ASSERT_EQ(chain.broker(0)->table_size(), 1u);
  chain.broker(1)->remove_neighbour(2);
  chain_sched.run();
  EXPECT_EQ(chain.broker(1)->table_size(), 1u);
  EXPECT_EQ(chain.broker(0)->table_size(), 1u);  // the narrow filter, not the wide one
  event::Event warm("reading");
  warm.set("celsius", 20.0);
  event::Event mild("reading");
  mild.set("celsius", 5.0);
  chain.publish(6, warm);
  chain.publish(6, mild);
  chain_sched.run();
  EXPECT_EQ(narrow, 1);
  EXPECT_EQ(chain.broker(1)->stats().publications_routed, 1u);
}

TEST(Histogram, ValuesAccessAndClear) {
  sim::Histogram h;
  h.record(3);
  h.record(1);
  EXPECT_EQ(h.values().size(), 2u);
  EXPECT_DOUBLE_EQ(h.sum(), 4.0);
  h.clear();
  EXPECT_EQ(h.count(), 0u);
}

TEST(Status, CodeNamesComplete) {
  EXPECT_STREQ(code_name(Code::kOk), "OK");
  EXPECT_STREQ(code_name(Code::kCorrupt), "CORRUPT");
  EXPECT_STREQ(code_name(Code::kPermissionDenied), "PERMISSION_DENIED");
  EXPECT_STREQ(code_name(Code::kExhausted), "EXHAUSTED");
  EXPECT_STREQ(code_name(Code::kAlreadyExists), "ALREADY_EXISTS");
}

}  // namespace
}  // namespace aa
