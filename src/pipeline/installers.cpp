#include "pipeline/installers.hpp"

#include <charconv>
#include <cmath>
#include <limits>

#include "event/filter_parser.hpp"
#include "pipeline/components.hpp"
#include "pipeline/sensors.hpp"

namespace aa::pipeline {

namespace {

/// Reads a bundle's <config>.  Bundle config arrives from outside the
/// installing host, so a present number must be spelled whole: empty
/// text, trailing characters and values out of range (or not finite)
/// fail.  The first bad value is kept in status(); an absent one reads
/// as its fallback.
class ConfigReader {
 public:
  explicit ConfigReader(const xml::Element& config) : config_(config) {}

  std::string str(const std::string& key, const std::string& fallback) const {
    return config_.attribute(key).value_or(fallback);
  }
  template <typename T>
  T number(const std::string& key, T fallback) {
    const auto text = config_.attribute(key);
    if (!text) return fallback;
    T value{};
    const char* end = text->data() + text->size();
    const auto [last, ec] = std::from_chars(text->data(), end, value);
    bool ok = ec == std::errc() && last == end;
    if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
    if (ok) return value;
    fail(key, *text);
    return fallback;
  }
  /// period_ms as a duration.  A value below `min_ms`, or too large to
  /// count in microseconds, fails.
  SimDuration period(std::int64_t fallback_ms, std::int64_t min_ms) {
    const std::int64_t ms = number("period_ms", fallback_ms);
    if (ms >= min_ms && ms <= std::numeric_limits<SimDuration>::max() / 1000) {
      return duration::millis(ms);
    }
    fail("period_ms", std::to_string(ms));
    return duration::millis(fallback_ms);
  }
  const Status& status() const { return status_; }

 private:
  void fail(const std::string& key, const std::string& text) {
    if (!status_.is_ok()) return;
    status_ = Status(Code::kInvalidArgument, "bad " + key + ": '" + text + "'");
  }

  const xml::Element& config_;
  Status status_;
};

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
  ConfigReader config(b.config());
  const bool autostart = config.number<std::int64_t>("autostart", 1) != 0;
  if (!config.status().is_ok()) return config.status();
  const ComponentRef ref = pipelines.add(host, std::move(component));
  for (const xml::Element* link : b.config().children_named("connect")) {
    // A missing host or component leaves the target invalid, which
    // connect() refuses.
    ConfigReader target(*link);
    const ComponentRef to{target.number("host", sim::kNoHost), target.str("component", "")};
    const Status s = target.status().is_ok() ? pipelines.connect(ref, to) : target.status();
    if (!s.is_ok()) {
      pipelines.remove(ref);
      return s;
    }
  }
  if (sensor_to_start != nullptr && autostart) sensor_to_start->start();
  return std::function<void()>([&pipelines, ref]() { pipelines.remove(ref); });
}

void register_pipeline_installers(bundle::ThinServerRuntime& runtime,
                                  PipelineNetwork& pipelines, pubsub::EventService* bus) {
  runtime.register_installer(
      "pipe.filter", [&pipelines](const bundle::CodeBundle& b, sim::HostId host) {
        auto filter = event::parse_filter(b.config().attribute("filter").value_or(""));
        if (!filter.is_ok()) return Result<std::function<void()>>(filter.status());
        return finish_install(pipelines, host, b,
                              std::make_unique<FilterComponent>(b.name(), filter.value()));
      });

  runtime.register_installer(
      "pipe.threshold", [&pipelines](const bundle::CodeBundle& b, sim::HostId host) {
        ConfigReader config(b.config());
        const double meters = config.number("meters", 100.0);
        if (!config.status().is_ok()) return Result<std::function<void()>>(config.status());
        return finish_install(pipelines, host, b,
                              std::make_unique<MovementThresholdFilter>(b.name(), meters));
      });

  runtime.register_installer(
      "pipe.buffer", [&pipelines](const bundle::CodeBundle& b, sim::HostId host) {
        ConfigReader config(b.config());
        const auto count = config.number<std::size_t>("count", 16);
        const SimDuration period = config.period(1000, 0);  // 0: no flush timer
        if (!config.status().is_ok()) return Result<std::function<void()>>(config.status());
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
        auto filter = event::parse_filter(b.config().attribute("filter").value_or(""));
        if (!filter.is_ok()) return Result<std::function<void()>>(filter.status());
        return finish_install(
            pipelines, host, b,
            std::make_unique<BusSubscriber>(b.name(), *bus, host, filter.value()));
      });

  runtime.register_installer(
      "pipe.sensor.temperature", [&pipelines](const bundle::CodeBundle& b, sim::HostId host) {
        ConfigReader config(b.config());
        TemperatureSensor::Params p;
        p.sensor_id = config.str("sensor_id", "temp-0");
        p.location = config.str("location", "");
        p.base_celsius = config.number("base", 12.0);
        p.amplitude = config.number("amplitude", 8.0);
        p.seed = config.number<std::uint64_t>("seed", 1);
        const SimDuration period = config.period(60000, 1);
        if (!config.status().is_ok()) return Result<std::function<void()>>(config.status());
        auto sensor = std::make_unique<TemperatureSensor>(b.name(), period, p);
        SensorSource* raw = sensor.get();
        return finish_install(pipelines, host, b, std::move(sensor), raw);
      });

  runtime.register_installer(
      "pipe.sensor.gps", [&pipelines](const bundle::CodeBundle& b, sim::HostId host) {
        ConfigReader config(b.config());
        GpsSensor::Params p;
        p.user = config.str("user", "bob");
        p.area.lat_min = config.number("lat_min", 56.33);
        p.area.lat_max = config.number("lat_max", 56.35);
        p.area.lon_min = config.number("lon_min", -2.82);
        p.area.lon_max = config.number("lon_max", -2.77);
        p.speed_mps = config.number("speed", 1.4);
        p.seed = config.number<std::uint64_t>("seed", 2);
        const SimDuration period = config.period(5000, 1);
        if (!config.status().is_ok()) return Result<std::function<void()>>(config.status());
        auto sensor = std::make_unique<GpsSensor>(b.name(), period, p);
        SensorSource* raw = sensor.get();
        return finish_install(pipelines, host, b, std::move(sensor), raw);
      });

  runtime.register_installer(
      "pipe.sensor.presence", [&pipelines](const bundle::CodeBundle& b, sim::HostId host) {
        ConfigReader config(b.config());
        PresenceSensor::Params p;
        p.user = config.str("user", "anna");
        const auto places = split_csv(config.str("places", ""));
        if (!places.empty()) p.places = places;
        p.seed = config.number<std::uint64_t>("seed", 3);
        const SimDuration period = config.period(10000, 1);
        if (!config.status().is_ok()) return Result<std::function<void()>>(config.status());
        auto sensor = std::make_unique<PresenceSensor>(b.name(), period, p);
        SensorSource* raw = sensor.get();
        return finish_install(pipelines, host, b, std::move(sensor), raw);
      });
}

}  // namespace aa::pipeline
