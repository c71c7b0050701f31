// Synthetic sensor wrappers (§4.2): "Events may also arise from local
// devices and sensors such as GPS and GSM devices, RFID tag readers,
// weather sensors, etc.  Each hardware device has a wrapper component
// that makes it usable as a pipeline component."
//
// Real hardware is unavailable in a simulation, so each wrapper drives
// a deterministic synthetic model (DESIGN.md §2): a GPS wrapper walks a
// random-waypoint trajectory, a weather wrapper follows a diurnal
// temperature curve with noise, a presence wrapper emits sightings of a
// user at named places.
#pragma once

#include <optional>

#include "common/geo.hpp"
#include "common/rng.hpp"
#include "pipeline/pipeline_network.hpp"

namespace aa::pipeline {

/// Base for event-producing components: fires sample() every `period`
/// once started.  Sensors ignore upstream events.
class SensorSource : public Component {
 public:
  SensorSource(std::string name, SimDuration period)
      : Component(std::move(name)), period_(period) {}
  ~SensorSource() override { stop(); }

  /// Must be called after the component is added to a PipelineNetwork.
  void start();
  void stop();

 protected:
  void on_event(const event::Event&) override { drop(); }
  /// One reading; nullopt = nothing to report this tick.
  virtual std::optional<event::Event> sample() = 0;

 private:
  SimDuration period_;
  sim::TaskId task_ = sim::kInvalidTask;
};

/// Diurnal temperature curve with Gaussian noise.
class TemperatureSensor final : public SensorSource {
 public:
  struct Params {
    std::string sensor_id = "temp-0";
    std::string location = "";      // logical location attribute
    double base_celsius = 12.0;     // daily mean
    double amplitude = 8.0;         // day/night swing
    double noise_stddev = 0.5;
    std::uint64_t seed = 1;
  };
  TemperatureSensor(std::string name, SimDuration period, Params params)
      : SensorSource(std::move(name), period), params_(params), rng_(params.seed) {}

 protected:
  std::optional<event::Event> sample() override;

 private:
  Params params_;
  Rng rng_;
};

/// Random-waypoint pedestrian GPS track within a bounding region.
class GpsSensor final : public SensorSource {
 public:
  struct Params {
    std::string user = "bob";
    GeoRegion area{"area", 56.33, 56.35, -2.82, -2.77};
    double speed_mps = 1.4;
    std::uint64_t seed = 2;
  };
  GpsSensor(std::string name, SimDuration period, Params params);

  const GeoPoint& position() const { return position_; }

 protected:
  std::optional<event::Event> sample() override;

 private:
  void pick_waypoint();

  Params params_;
  Rng rng_;
  GeoPoint position_;
  GeoPoint waypoint_;
  SimTime last_tick_ = 0;
};

/// Emits sightings of a user at named places (an RFID/badge model):
/// each tick the user moves to a random other place with probability
/// 0.2, then is seen at the current place with probability 0.8.
class PresenceSensor final : public SensorSource {
 public:
  struct Params {
    std::string user = "anna";
    std::vector<std::string> places{"library", "lab", "cafe"};
    std::uint64_t seed = 3;
  };
  PresenceSensor(std::string name, SimDuration period, Params params)
      : SensorSource(std::move(name), period), params_(params), rng_(params.seed) {}

 protected:
  std::optional<event::Event> sample() override;

 private:
  Params params_;
  Rng rng_;
  std::size_t place_ = 0;
};

}  // namespace aa::pipeline
