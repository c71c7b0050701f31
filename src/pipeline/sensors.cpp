#include "pipeline/sensors.hpp"

#include <cmath>

namespace aa::pipeline {

void SensorSource::start() {
  if (task_ != sim::kInvalidTask || network() == nullptr) return;
  task_ = network()->network().scheduler().every(period_, [this]() {
    auto e = sample();
    if (!e.has_value()) return;
    e->set_time(now());
    if (!e->has(event::source_atom())) e->set_source(name());
    emit(*e);
  });
}

void SensorSource::stop() {
  if (task_ == sim::kInvalidTask || network() == nullptr) return;
  network()->network().scheduler().cancel(task_);
  task_ = sim::kInvalidTask;
}

std::optional<event::Event> TemperatureSensor::sample() {
  constexpr double kDayMicros = 24.0 * 3600.0 * 1e6;
  const double phase = 2.0 * 3.14159265358979323846 *
                       (static_cast<double>(now()) / kDayMicros - 0.25);  // peak mid-afternoon
  const double celsius = params_.base_celsius + params_.amplitude * std::sin(phase) +
                         rng_.gaussian(0.0, params_.noise_stddev);
  event::Event e("temperature");
  e.set("celsius", celsius).set("sensor", params_.sensor_id);
  if (!params_.location.empty()) e.set("location", params_.location);
  return e;
}

GpsSensor::GpsSensor(std::string name, SimDuration period, Params params)
    : SensorSource(std::move(name), period), params_(std::move(params)), rng_(params_.seed) {
  position_ = {rng_.uniform(params_.area.lat_min, params_.area.lat_max),
               rng_.uniform(params_.area.lon_min, params_.area.lon_max)};
  pick_waypoint();
}

void GpsSensor::pick_waypoint() {
  waypoint_ = {rng_.uniform(params_.area.lat_min, params_.area.lat_max),
               rng_.uniform(params_.area.lon_min, params_.area.lon_max)};
}

std::optional<event::Event> GpsSensor::sample() {
  const SimTime t = now();
  const double dt = to_seconds(t - last_tick_);
  last_tick_ = t;
  // Advance toward the waypoint at walking speed.
  const double dist_to_wp = geo_distance_m(position_, waypoint_);
  const double step = params_.speed_mps * dt;
  if (dist_to_wp <= step || dist_to_wp < 1.0) {
    position_ = waypoint_;
    pick_waypoint();
  } else {
    const double frac = step / dist_to_wp;
    position_.lat += (waypoint_.lat - position_.lat) * frac;
    position_.lon += (waypoint_.lon - position_.lon) * frac;
  }
  event::Event e("user-location");
  e.set("user", params_.user).set("lat", position_.lat).set("lon", position_.lon);
  return e;
}

std::optional<event::Event> PresenceSensor::sample() {
  constexpr double kMoveProbability = 0.2;
  constexpr double kSightingProbability = 0.8;
  if (rng_.chance(kMoveProbability) && params_.places.size() > 1) {
    std::size_t next = rng_.below(params_.places.size());
    if (next == place_) next = (next + 1) % params_.places.size();
    place_ = next;
  }
  if (!rng_.chance(kSightingProbability)) return std::nullopt;
  event::Event e("presence");
  e.set("user", params_.user).set("place", params_.places[place_]);
  return e;
}

}  // namespace aa::pipeline
