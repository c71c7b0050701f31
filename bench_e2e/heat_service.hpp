// The paper's Fig. 1 service, as F1 (bench/bench_fig1_global_matching)
// deploys it: per-user "personal-heat" suggestions, joining a user's
// location report with recent weather against that user's preference
// fact.  The benchmark's own copy, so its inputs change only when the
// benchmark does.
#pragma once

#include <string>

#include "common/rng.hpp"
#include "event/filter_parser.hpp"
#include "gloss/active_architecture.hpp"

namespace aa::bench_e2e {

inline event::Filter filt(const std::string& text) { return event::parse_filter(text).value(); }

inline std::string user_name(int u) { return "user" + std::to_string(u); }

/// F1's rule: a location report joined with any weather reading of the
/// last five minutes that is at least as warm as the user's threshold;
/// one suggestion per user per ten minutes.
inline match::Rule heat_rule() {
  match::Rule rule;
  rule.name = "personal-heat";
  rule.cooldown = duration::minutes(10);
  rule.triggers = {
      {"loc", filt("type = user-location"), duration::minutes(2)},
      {"w", filt("type = temperature"), duration::minutes(5)},
  };
  rule.facts = {{"pref", filt("kind = preference")}};
  rule.joins = {
      {match::Operand::ref("loc", "user"), event::Op::kEq, match::Operand::ref("pref", "user")},
      {match::Operand::ref("w", "celsius"), event::Op::kGe,
       match::Operand::ref("pref", "min_celsius")},
  };
  rule.emit.type = "suggestion";
  rule.emit.sets = {{"user", std::nullopt, "loc", "user"}};
  return rule;
}

/// Sensor events carry source = "sensor", which is what the service
/// subscribes to.  (F1 subscribes to "time exists", which also feeds
/// every suggestion and every unrelated publication back into the
/// matchlets; a workload mixing the heat service with other bus
/// traffic needs the narrower input.)
inline constexpr const char* kSensorSource = "sensor";

/// The heat service: F1's rule on two matchlet instances.
inline gloss::ServiceSpec heat_service() {
  gloss::ServiceSpec spec;
  spec.name = "heat";
  spec.input = filt(std::string("source = ") + kSensorSource);
  spec.rules = {heat_rule()};
  spec.min_instances = 2;
  return spec;
}

/// Thresholds lie in [15, 25) and weather readings in [25, 35), so every
/// (location, weather) pair passes the join: the number of suggestions
/// is set by the rule's windows and cooldown, not by the seed, which
/// keeps per-suggestion costs comparable across seeds.
inline match::Fact preference_fact(int user, Rng& rng) {
  match::Fact pref;
  pref.set("kind", "preference").set("user", user_name(user))
      .set("min_celsius", rng.uniform(15.0, 25.0));
  return pref;
}

inline event::Event location_event(int user, Rng& rng) {
  event::Event loc("user-location");
  loc.set("user", user_name(user))
      .set("lat", rng.uniform(56.0, 56.7))
      .set("lon", rng.uniform(-3.0, -2.0))
      .set_source(kSensorSource);
  return loc;
}

inline event::Event weather_event(int sensor, Rng& rng) {
  event::Event w("temperature");
  w.set("celsius", rng.uniform(25.0, 35.0))
      .set("sensor", "s" + std::to_string(sensor))
      .set_source(kSensorSource);
  return w;
}

/// A user's device subscription to its own suggestions.
inline event::Filter suggestion_filter(int user) {
  return filt("type = suggestion and user = \"" + user_name(user) + "\"");
}

}  // namespace aa::bench_e2e
