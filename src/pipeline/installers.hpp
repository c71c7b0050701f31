// Bridges code push to the pipeline fabric: registers Cingal installers
// that materialise pipeline components from bundle configuration (§4.3:
// "constructing the pipeline components as code bundles that may be
// deployed onto Cingal thin servers").
//
// Component types understood:
//   pipe.filter       config: filter="<subscription language>"
//   pipe.threshold    config: meters="250"
//   pipe.buffer       config: count="10" period_ms="500"
//   pipe.publisher    (publishes every event onto the event bus)
//   pipe.subscriber   config: filter="..." (bus -> pipeline injection)
//   pipe.sensor.temperature   config: period_ms, sensor_id, location,
//                             base, amplitude, seed
//   pipe.sensor.gps           config: period_ms, user, lat_min/max,
//                             lon_min/max, speed, seed
//   pipe.sensor.presence      config: period_ms, user, places (comma
//                             separated), seed
//
// Any component's config may carry <connect host="H" component="C"/>
// children: downstream links wired at install time — a bundle therefore
// describes both a pipeline stage and its place in the topology.
//
// Numbers (a connect host included) must be spelled whole and in range;
// a sensor's period_ms must be positive, while a buffer's period_ms="0"
// means no flush timer.  A bad value fails the install with nothing
// left behind.
#pragma once

#include "bundle/thin_server.hpp"
#include "pipeline/pipeline_network.hpp"
#include "pubsub/event_service.hpp"

namespace aa::pipeline {

class SensorSource;

/// The tail every component installer shares (the pipe.* ones and the
/// "matchlet" installer): adds `component` on `host`, wires the bundle
/// config's <connect/> links, starts `sensor_to_start` unless the config
/// says autostart="0", and returns the teardown hook.  A malformed
/// autostart fails the install before `component` is added; a malformed
/// or failing link removes it again and fails the install.
Result<std::function<void()>> finish_install(PipelineNetwork& pipelines, sim::HostId host,
                                             const bundle::CodeBundle& b,
                                             std::unique_ptr<Component> component,
                                             SensorSource* sensor_to_start = nullptr);

/// Registers all pipe.* installers on the runtime.  `bus` may be null
/// if no event service is wired (pipe.publisher / pipe.subscriber then
/// fail installation).
void register_pipeline_installers(bundle::ThinServerRuntime& runtime,
                                  PipelineNetwork& pipelines, pubsub::EventService* bus);

}  // namespace aa::pipeline
