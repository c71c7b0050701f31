#include "pipeline/installers.hpp"

#include <cstdlib>

#include "event/filter_parser.hpp"
#include "pipeline/components.hpp"
#include "pipeline/sensors.hpp"

namespace aa::pipeline {

namespace {

double attr_double(const xml::Element& config, const std::string& key, double fallback) {
  const auto v = config.attribute(key);
  return v ? std::strtod(v->c_str(), nullptr) : fallback;
}

std::int64_t attr_int(const xml::Element& config, const std::string& key,
                      std::int64_t fallback) {
  const auto v = config.attribute(key);
  return v ? std::strtoll(v->c_str(), nullptr, 10) : fallback;
}

std::string attr_str(const xml::Element& config, const std::string& key,
                     const std::string& fallback) {
  return config.attribute(key).value_or(fallback);
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const auto comma = s.find(',', pos);
    const std::string item =
        s.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace

Result<std::function<void()>> finish_install(PipelineNetwork& pipelines, sim::HostId host,
                                             const bundle::CodeBundle& b,
                                             std::unique_ptr<Component> component,
                                             SensorSource* sensor_to_start) {
  const ComponentRef ref = pipelines.add(host, std::move(component));
  for (const xml::Element* link : b.config().children_named("connect")) {
    const auto to_host = link->attribute("host");
    const auto to_comp = link->attribute("component");
    if (!to_host || !to_comp) {
      pipelines.remove(ref);
      return Status(Code::kInvalidArgument, "<connect> needs host and component");
    }
    const ComponentRef target{static_cast<sim::HostId>(std::strtoul(to_host->c_str(), nullptr, 10)),
                              *to_comp};
    const Status s = pipelines.connect(ref, target);
    if (!s.is_ok()) {
      pipelines.remove(ref);
      return s;
    }
  }
  if (sensor_to_start != nullptr && attr_int(b.config(), "autostart", 1) != 0) {
    sensor_to_start->start();
  }
  return std::function<void()>([&pipelines, ref]() { pipelines.remove(ref); });
}

void register_pipeline_installers(bundle::ThinServerRuntime& runtime,
                                  PipelineNetwork& pipelines, pubsub::EventService* bus) {
  runtime.register_installer(
      "pipe.filter", [&pipelines](const bundle::CodeBundle& b, sim::HostId host) {
        auto filter = event::parse_filter(attr_str(b.config(), "filter", ""));
        if (!filter.is_ok()) return Result<std::function<void()>>(filter.status());
        return finish_install(pipelines, host, b,
                              std::make_unique<FilterComponent>(b.name(), filter.value()));
      });

  runtime.register_installer(
      "pipe.threshold", [&pipelines](const bundle::CodeBundle& b, sim::HostId host) {
        const double meters = attr_double(b.config(), "meters", 100.0);
        return finish_install(pipelines, host, b,
                              std::make_unique<MovementThresholdFilter>(b.name(), meters));
      });

  runtime.register_installer(
      "pipe.buffer", [&pipelines](const bundle::CodeBundle& b, sim::HostId host) {
        const auto count = static_cast<std::size_t>(attr_int(b.config(), "count", 16));
        const SimDuration period = duration::millis(attr_int(b.config(), "period_ms", 1000));
        return finish_install(pipelines, host, b,
                              std::make_unique<BufferComponent>(b.name(), count, period));
      });

  runtime.register_installer(
      "pipe.publisher", [&pipelines, bus](const bundle::CodeBundle& b, sim::HostId host) {
        if (bus == nullptr) {
          return Result<std::function<void()>>(
              Status(Code::kFailedPrecondition, "no event bus wired"));
        }
        return finish_install(pipelines, host, b,
                              std::make_unique<BusPublisher>(b.name(), *bus));
      });

  runtime.register_installer(
      "pipe.subscriber", [&pipelines, bus](const bundle::CodeBundle& b, sim::HostId host) {
        if (bus == nullptr) {
          return Result<std::function<void()>>(
              Status(Code::kFailedPrecondition, "no event bus wired"));
        }
        auto filter = event::parse_filter(attr_str(b.config(), "filter", ""));
        if (!filter.is_ok()) return Result<std::function<void()>>(filter.status());
        return finish_install(
            pipelines, host, b,
            std::make_unique<BusSubscriber>(b.name(), *bus, host, filter.value()));
      });

  runtime.register_installer(
      "pipe.sensor.temperature", [&pipelines](const bundle::CodeBundle& b, sim::HostId host) {
        TemperatureSensor::Params p;
        p.sensor_id = attr_str(b.config(), "sensor_id", "temp-0");
        p.location = attr_str(b.config(), "location", "");
        p.base_celsius = attr_double(b.config(), "base", 12.0);
        p.amplitude = attr_double(b.config(), "amplitude", 8.0);
        p.seed = static_cast<std::uint64_t>(attr_int(b.config(), "seed", 1));
        const SimDuration period = duration::millis(attr_int(b.config(), "period_ms", 60000));
        auto sensor = std::make_unique<TemperatureSensor>(b.name(), period, p);
        SensorSource* raw = sensor.get();
        return finish_install(pipelines, host, b, std::move(sensor), raw);
      });

  runtime.register_installer(
      "pipe.sensor.gps", [&pipelines](const bundle::CodeBundle& b, sim::HostId host) {
        GpsSensor::Params p;
        p.user = attr_str(b.config(), "user", "bob");
        p.area.lat_min = attr_double(b.config(), "lat_min", 56.33);
        p.area.lat_max = attr_double(b.config(), "lat_max", 56.35);
        p.area.lon_min = attr_double(b.config(), "lon_min", -2.82);
        p.area.lon_max = attr_double(b.config(), "lon_max", -2.77);
        p.speed_mps = attr_double(b.config(), "speed", 1.4);
        p.seed = static_cast<std::uint64_t>(attr_int(b.config(), "seed", 2));
        const SimDuration period = duration::millis(attr_int(b.config(), "period_ms", 5000));
        auto sensor = std::make_unique<GpsSensor>(b.name(), period, p);
        SensorSource* raw = sensor.get();
        return finish_install(pipelines, host, b, std::move(sensor), raw);
      });

  runtime.register_installer(
      "pipe.sensor.presence", [&pipelines](const bundle::CodeBundle& b, sim::HostId host) {
        PresenceSensor::Params p;
        p.user = attr_str(b.config(), "user", "anna");
        const auto places = split_csv(attr_str(b.config(), "places", ""));
        if (!places.empty()) p.places = places;
        p.seed = static_cast<std::uint64_t>(attr_int(b.config(), "seed", 3));
        const SimDuration period = duration::millis(attr_int(b.config(), "period_ms", 10000));
        auto sensor = std::make_unique<PresenceSensor>(b.name(), period, p);
        SensorSource* raw = sensor.get();
        return finish_install(pipelines, host, b, std::move(sensor), raw);
      });
}

}  // namespace aa::pipeline
