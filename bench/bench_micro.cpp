// Micro-benchmarks (google-benchmark) for the primitive operations the
// architecture leans on per event: hashing, XML encode/decode, filter
// matching and covering checks, erasure coding, event serialisation,
// knowledge-base probes.  These bound the per-event CPU budget behind
// the system-level numbers in the F/C experiment harnesses.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "event/filter_parser.hpp"
#include "match/knowledge.hpp"
#include "overlay/node.hpp"
#include "sim/scheduler.hpp"
#include "storage/erasure.hpp"
#include "xml/projection.hpp"

using namespace aa;

namespace {

event::Event sample_event() {
  event::Event e("user-location");
  e.set("user", "bob").set("lat", 56.3397).set("lon", -2.80753).set("speed", 1.4)
      .set("indoors", false).set_time(123456789);
  return e;
}

void BM_Sha1(benchmark::State& state) {
  std::string data(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1::hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha1)->Arg(64)->Arg(1024)->Arg(16384);

void BM_EventToXml(benchmark::State& state) {
  const event::Event e = sample_event();
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.to_xml_string());
  }
}
BENCHMARK(BM_EventToXml);

void BM_EventParse(benchmark::State& state) {
  const std::string xml_text = sample_event().to_xml_string();
  for (auto _ : state) {
    auto e = event::Event::parse(xml_text);
    benchmark::DoNotOptimize(e);
  }
}
BENCHMARK(BM_EventParse);

void BM_FilterMatch(benchmark::State& state) {
  const event::Event e = sample_event();
  const event::Filter f =
      event::parse_filter("type = user-location and lat > 56 and user prefix \"bo\"").value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.matches(e));
  }
}
BENCHMARK(BM_FilterMatch);

void BM_FilterCovers(benchmark::State& state) {
  const event::Filter wide = event::parse_filter("lat > 50 and user exists").value();
  const event::Filter narrow =
      event::parse_filter("lat > 56 and user prefix \"bob\" and type = user-location").value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(wide.covers(narrow));
  }
}
BENCHMARK(BM_FilterCovers);

void BM_FilterParse(benchmark::State& state) {
  for (auto _ : state) {
    auto f = event::parse_filter("type = temperature and celsius >= 18.5 and sensor exists");
    benchmark::DoNotOptimize(f);
  }
}
BENCHMARK(BM_FilterParse);

void BM_ErasureEncode(benchmark::State& state) {
  storage::ErasureCoder coder(4, 2);
  Rng rng(1);
  Bytes object(static_cast<std::size_t>(state.range(0)));
  for (auto& b : object) b = static_cast<std::uint8_t>(rng.below(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(coder.encode(object));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ErasureEncode)->Arg(1024)->Arg(65536);

void BM_ErasureDecodeWorstCase(benchmark::State& state) {
  storage::ErasureCoder coder(4, 2);
  Rng rng(2);
  Bytes object(static_cast<std::size_t>(state.range(0)));
  for (auto& b : object) b = static_cast<std::uint8_t>(rng.below(256));
  auto fragments = coder.encode(object);
  // Drop two data fragments: decode must invert a parity-bearing matrix.
  fragments.erase(fragments.begin(), fragments.begin() + 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(coder.decode(fragments));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ErasureDecodeWorstCase)->Arg(1024)->Arg(65536);

void BM_TypeProjection(benchmark::State& state) {
  auto doc = xml::parse("<ev><loc user=\"bob\"><lat>56.3</lat><lon>-2.8</lon></loc>"
                        "<junk a=\"1\"/><junk b=\"2\"/></ev>");
  const xml::ProjType t = xml::ProjType::record({xml::ProjType::field(
      "loc", xml::ProjType::record({
                 xml::ProjType::field("user", xml::ProjType::string()),
                 xml::ProjType::field("lat", xml::ProjType::real()),
                 xml::ProjType::field("lon", xml::ProjType::real()),
             }))});
  for (auto _ : state) {
    benchmark::DoNotOptimize(xml::project(doc.value(), t));
  }
}
BENCHMARK(BM_TypeProjection);

void BM_KnowledgeIndexedProbe(benchmark::State& state) {
  match::KnowledgeBase kb;
  Rng rng(3);
  for (int i = 0; i < state.range(0); ++i) {
    match::Fact f;
    f.set("kind", "preference").set("user", "user" + std::to_string(i));
    kb.add(f);
  }
  const event::Filter probe = event::parse_filter("kind = preference and user = user7").value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(kb.query(probe));
  }
}
BENCHMARK(BM_KnowledgeIndexedProbe)->Arg(1000)->Arg(100000);

void BM_SchedulerStepHeavyClosure(benchmark::State& state) {
  // The per-event scheduler cost with a closure whose copy is expensive
  // (range(0) words captured by value).  Execution must move the entry
  // out of the heap: the pre-fix step() copied the whole std::function
  // — and its captured state — out of queue_.top() for every event,
  // which this line makes visible as a per-item regression.
  const std::size_t words = static_cast<std::size_t>(state.range(0));
  constexpr int kTasks = 512;
  for (auto _ : state) {
    sim::Scheduler s;
    const std::vector<std::uint64_t> payload(words, 7);
    std::uint64_t sink = 0;
    for (int i = 0; i < kTasks; ++i) {
      s.after(i + 1, [payload, &sink] { sink += payload[0]; });
    }
    while (s.step()) {
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * kTasks);
}
BENCHMARK(BM_SchedulerStepHeavyClosure)->Arg(16)->Arg(256);

void BM_Uid160RingDistance(benchmark::State& state) {
  Rng rng(4);
  const Uid160 a = rng.uid(), b = rng.uid();
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.ring_distance(b));
  }
}
BENCHMARK(BM_Uid160RingDistance);

void BM_Uid160CloserTo(benchmark::State& state) {
  Rng rng(5);
  const Uid160 a = rng.uid(), b = rng.uid(), key = rng.uid();
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.closer_to(key, b));
  }
}
BENCHMARK(BM_Uid160CloserTo);

void BM_OverlayConsider(benchmark::State& state) {
  // A node whose 48-peer candidate pool is full.  Arg 0 re-offers a
  // pooled peer on the same host — the steady state of leaf-set gossip,
  // which changes nothing; arg 1 offers a fresh peer each time, which
  // is inserted into the ordered pool and trims it back to 48.
  sim::Scheduler sched;
  auto topo = std::make_shared<sim::UniformTopology>(64, duration::millis(10));
  sim::Network net(sched, topo);
  Rng rng(6);
  overlay::OverlayNode node(net, {rng.uid(), 0}, /*proximity_selection=*/true);
  std::vector<overlay::NodeRef> pooled;
  for (sim::HostId h = 1; h <= 48; ++h) {
    pooled.push_back({rng.uid(), h});
    node.consider(pooled.back());
  }
  const bool fresh = state.range(0) != 0;
  std::size_t i = 0;
  for (auto _ : state) {
    node.consider(fresh ? overlay::NodeRef{rng.uid(), 1} : pooled[i++ % pooled.size()]);
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(node.leaf_set());
}
BENCHMARK(BM_OverlayConsider)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
