// Geographic primitives for contextual matching and placement policies.
//
// The paper's motivating scenario (§1.1) correlates coordinate locations
// ("Anna is at 56.3397, -2.80753"), logical locations ("Bob is in North
// Street") and named regions; its placement constraints (§4.4) talk
// about "a given geographical region".  This module supplies both the
// coordinate algebra and a simple named-region model.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace aa {

/// WGS84-style latitude/longitude in degrees.
struct GeoPoint {
  double lat = 0.0;
  double lon = 0.0;

  friend bool operator==(const GeoPoint&, const GeoPoint&) = default;
};

/// Great-circle distance in metres (haversine).
double geo_distance_m(const GeoPoint& a, const GeoPoint& b);

/// Walking time between two points at a pedestrian pace (~1.4 m/s),
/// in seconds.  Used by spatial reachability predicates ("close enough
/// to Janetta's to get there before it closes").
double walking_time_s(const GeoPoint& a, const GeoPoint& b);

/// An axis-aligned lat/lon bounding box naming a geographic region.
struct GeoRegion {
  std::string name;
  double lat_min = 0.0;
  double lat_max = 0.0;
  double lon_min = 0.0;
  double lon_max = 0.0;

  bool contains(const GeoPoint& p) const {
    return p.lat >= lat_min && p.lat <= lat_max && p.lon >= lon_min && p.lon <= lon_max;
  }
};

/// A named-region directory: resolves points to regions and regions to
/// names.  Regions may overlap; `locate` returns the first match in
/// registration order (most specific first by convention).
class RegionMap {
 public:
  void add(GeoRegion region);
  const GeoRegion* find(const std::string& name) const;
  /// Name of the first region containing `p`, if any.
  std::optional<std::string> locate(const GeoPoint& p) const;

 private:
  std::vector<GeoRegion> regions_;
};

}  // namespace aa
