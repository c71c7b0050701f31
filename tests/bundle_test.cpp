// Tests for Cingal-style code push: bundle XML round-trip, sealing,
// thin-server verification (authentication, capabilities, unknown
// components), install/replace/uninstall lifecycle, and network push
// via the deployer.
#include <gtest/gtest.h>

#include <memory>

#include "bundle/deployer.hpp"
#include "bundle/thin_server.hpp"

namespace aa::bundle {
namespace {

CodeBundle make_bundle(const std::string& name = "matchlet-1") {
  xml::Element config("config");
  config.set_attribute("filter", "type = temperature");
  CodeBundle b(name, "filter-component", config);
  b.require_capability("run.matchlet");
  b.set_payload(to_bytes("pretend native code bytes"));
  return b;
}

TEST(CodeBundle, XmlRoundTrip) {
  const CodeBundle b = make_bundle();
  auto back = CodeBundle::parse(b.to_xml_string());
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(back.value().name(), b.name());
  EXPECT_EQ(back.value().component_type(), b.component_type());
  EXPECT_EQ(back.value().version(), b.version());
  EXPECT_EQ(back.value().payload(), b.payload());
  EXPECT_EQ(back.value().required_capabilities(), b.required_capabilities());
  EXPECT_EQ(back.value().config().attribute("filter"), b.config().attribute("filter"));
  EXPECT_EQ(back.value().id(), b.id());
}

TEST(CodeBundle, IdChangesWithContent) {
  CodeBundle a = make_bundle();
  CodeBundle b = make_bundle();
  b.set_version(2);
  EXPECT_NE(a.id(), b.id());
}

TEST(CodeBundle, SealDependsOnSecretAndContent) {
  const CodeBundle b = make_bundle();
  EXPECT_NE(b.seal("secret-a"), b.seal("secret-b"));
  CodeBundle tampered = b;
  tampered.set_payload(to_bytes("evil"));
  EXPECT_NE(b.seal("s"), tampered.seal("s"));
}

TEST(CodeBundle, ParseRejectsMalformed) {
  EXPECT_FALSE(CodeBundle::parse("<notabundle/>").is_ok());
  EXPECT_FALSE(CodeBundle::parse("<bundle name=\"x\"/>").is_ok());  // no component
  EXPECT_FALSE(CodeBundle::parse(
                   "<bundle name=\"x\" component=\"y\"><payload>zz</payload></bundle>")
                   .is_ok());  // bad hex
}

struct Fixture {
  sim::Scheduler sched;
  std::shared_ptr<sim::Topology> topo = std::make_shared<sim::UniformTopology>(8, 1000);
  sim::Network net{sched, topo};
  ThinServerRuntime runtime{net, "gloss-authority-secret"};
  int installs = 0;
  int stops = 0;

  Fixture() {
    runtime.register_installer("filter-component",
                               [this](const CodeBundle&, sim::HostId) {
                                 ++installs;
                                 return Result<std::function<void()>>(
                                     std::function<void()>([this]() { ++stops; }));
                               });
  }
};

TEST(ThinServer, InstallHappyPath) {
  Fixture f;
  f.runtime.start_server(1, {"run.matchlet"});
  const CodeBundle b = make_bundle();
  EXPECT_EQ(f.runtime.install_local(1, b, b.seal("gloss-authority-secret")),
            DeployResult::kInstalled);
  EXPECT_EQ(f.installs, 1);
  ASSERT_NE(f.runtime.installation(1, "matchlet-1"), nullptr);
  EXPECT_NE(f.runtime.stored_bundle(1, b.id()), nullptr);
}

TEST(ThinServer, RejectsBadSeal) {
  Fixture f;
  f.runtime.start_server(1, {"run.matchlet"});
  const CodeBundle b = make_bundle();
  EXPECT_EQ(f.runtime.install_local(1, b, b.seal("wrong-secret")), DeployResult::kBadSeal);
  EXPECT_EQ(f.installs, 0);
  EXPECT_EQ(f.runtime.stats().rejected_seal, 1u);
}

TEST(ThinServer, RejectsMissingCapability) {
  Fixture f;
  f.runtime.start_server(1, {});  // no grants
  const CodeBundle b = make_bundle();
  EXPECT_EQ(f.runtime.install_local(1, b, b.seal("gloss-authority-secret")),
            DeployResult::kMissingCapability);
  f.runtime.grant_capability(1, "run.matchlet");
  EXPECT_EQ(f.runtime.install_local(1, b, b.seal("gloss-authority-secret")),
            DeployResult::kInstalled);
  f.runtime.revoke_capability(1, "run.matchlet");
  CodeBundle v2 = make_bundle();
  v2.set_version(2);
  EXPECT_EQ(f.runtime.install_local(1, v2, v2.seal("gloss-authority-secret")),
            DeployResult::kMissingCapability);
}

TEST(ThinServer, RejectsUnknownComponentType) {
  Fixture f;
  f.runtime.start_server(1, {"run.matchlet"});
  CodeBundle b("x", "no-such-component", xml::Element("config"));
  EXPECT_EQ(f.runtime.install_local(1, b, b.seal("gloss-authority-secret")),
            DeployResult::kUnknownComponent);
}

TEST(ThinServer, VersionedReplacementStopsOldInstance) {
  Fixture f;
  f.runtime.start_server(1, {"run.matchlet"});
  const CodeBundle v1 = make_bundle();
  ASSERT_EQ(f.runtime.install_local(1, v1, v1.seal("gloss-authority-secret")),
            DeployResult::kInstalled);
  CodeBundle v2 = make_bundle();
  v2.set_version(2);
  EXPECT_EQ(f.runtime.install_local(1, v2, v2.seal("gloss-authority-secret")),
            DeployResult::kReplaced);
  EXPECT_EQ(f.stops, 1);
  EXPECT_EQ(f.runtime.installation(1, "matchlet-1")->bundle.version(), 2);
  // Re-pushing the old version is an idempotent no-op.
  EXPECT_EQ(f.runtime.install_local(1, v1, v1.seal("gloss-authority-secret")),
            DeployResult::kInstalled);
  EXPECT_EQ(f.runtime.installation(1, "matchlet-1")->bundle.version(), 2);
}

TEST(ThinServer, UninstallRunsTeardown) {
  Fixture f;
  f.runtime.start_server(1, {"run.matchlet"});
  const CodeBundle b = make_bundle();
  ASSERT_EQ(f.runtime.install_local(1, b, b.seal("gloss-authority-secret")),
            DeployResult::kInstalled);
  EXPECT_TRUE(f.runtime.uninstall(1, "matchlet-1"));
  EXPECT_EQ(f.stops, 1);
  EXPECT_FALSE(f.runtime.uninstall(1, "matchlet-1"));
  EXPECT_EQ(f.runtime.installation(1, "matchlet-1"), nullptr);
}

TEST(ThinServer, StopServerTearsDownEverything) {
  Fixture f;
  f.runtime.start_server(1, {"run.matchlet"});
  for (int i = 0; i < 3; ++i) {
    CodeBundle b = make_bundle("m" + std::to_string(i));
    ASSERT_EQ(f.runtime.install_local(1, b, b.seal("gloss-authority-secret")),
              DeployResult::kInstalled);
  }
  f.runtime.stop_server(1);
  EXPECT_EQ(f.stops, 3);
  EXPECT_FALSE(f.runtime.server_running(1));
}

TEST(Deployer, PushOverNetwork) {
  Fixture f;
  f.runtime.start_server(2, {"run.matchlet"});
  BundleDeployer deployer(f.net, f.runtime);
  Result<DeployResult> outcome = Status(Code::kUnavailable, "pending");
  deployer.push(0, 2, make_bundle(), [&](Result<DeployResult> r) { outcome = std::move(r); });
  f.sched.run();
  ASSERT_TRUE(outcome.is_ok());
  EXPECT_EQ(outcome.value(), DeployResult::kInstalled);
  EXPECT_NE(f.runtime.installation(2, "matchlet-1"), nullptr);
}

TEST(Deployer, ForgedSealRejectedRemotely) {
  Fixture f;
  f.runtime.start_server(2, {"run.matchlet"});
  BundleDeployer deployer(f.net, f.runtime);
  const CodeBundle b = make_bundle();
  Result<DeployResult> outcome = Status(Code::kUnavailable, "pending");
  deployer.push_with_seal(0, 2, b, b.seal("attacker"), [&](Result<DeployResult> r) {
    outcome = std::move(r);
  });
  f.sched.run();
  ASSERT_TRUE(outcome.is_ok());
  EXPECT_EQ(outcome.value(), DeployResult::kBadSeal);
}

TEST(Deployer, TimeoutWhenTargetDead) {
  Fixture f;
  f.runtime.start_server(2, {"run.matchlet"});
  f.net.set_host_up(2, false);
  BundleDeployer deployer(f.net, f.runtime);
  Result<DeployResult> outcome = Status(Code::kUnavailable, "pending");
  deployer.push(0, 2, make_bundle(), [&](Result<DeployResult> r) { outcome = std::move(r); });
  f.sched.run();
  EXPECT_FALSE(outcome.is_ok());
  EXPECT_EQ(outcome.status().code(), Code::kTimeout);
}

TEST(Deployer, InstallObserverFires) {
  Fixture f;
  f.runtime.start_server(2, {"run.matchlet"});
  sim::HostId observed = sim::kNoHost;
  std::string observed_name;
  f.runtime.add_install_observer([&](sim::HostId h, const Installation& inst) {
    observed = h;
    observed_name = inst.bundle.name();
  });
  BundleDeployer deployer(f.net, f.runtime);
  deployer.push(0, 2, make_bundle());
  f.sched.run();
  EXPECT_EQ(observed, 2u);
  EXPECT_EQ(observed_name, "matchlet-1");
}

}  // namespace
}  // namespace aa::bundle
