// Code bundles, after the authors' Cingal system (§3, §4.3): "bundles
// of code and data wrapped in XML packets to be deployed and run on a
// thin server.  On arrival at a thin server, and subject to verification
// and security checks, the code may be executed within a security
// domain."
//
// Native code cannot be shipped inside a simulation, so a bundle carries
// a *component type* resolved against a factory registry on the thin
// server (DESIGN.md §2 lists this substitution).  Everything else is
// faithful: XML wrapping, content-hash integrity, capability-based
// authorisation, and an explicit payload for code/data bytes whose size
// is charged to the network.
#pragma once

#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/status.hpp"
#include "xml/xml.hpp"

namespace aa::bundle {

class CodeBundle {
 public:
  CodeBundle() = default;
  CodeBundle(std::string name, std::string component_type, xml::Element config);

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  const std::string& component_type() const { return component_type_; }
  int version() const { return version_; }
  void set_version(int v) { version_ = v; }

  const xml::Element& config() const { return config_; }
  xml::Element& config() { return config_; }

  /// Opaque code/data payload (its size models transfer cost).
  const Bytes& payload() const { return payload_; }
  void set_payload(Bytes payload) { payload_ = std::move(payload); }

  /// Capabilities this bundle needs on the executing server (e.g.
  /// "run.matchlet", "run.storelet").
  const std::vector<std::string>& required_capabilities() const { return caps_; }
  void require_capability(std::string cap) { caps_.push_back(std::move(cap)); }

  /// Canonical XML form (excludes the seal).
  xml::Element to_xml() const;
  static Result<CodeBundle> from_xml(const xml::Element& element);

  std::string to_xml_string() const;
  static Result<CodeBundle> parse(std::string_view text);

  /// Content-derived GUID: hash of the canonical XML form.
  ObjectId id() const;

  /// Authentication seal: keyed hash of (secret, canonical content).
  /// Models Cingal's bundle authentication without a PKI.
  Sha1Digest seal(std::string_view authority_secret) const;

 private:
  std::string name_;
  std::string component_type_;
  int version_ = 1;
  xml::Element config_{"config"};
  Bytes payload_;
  std::vector<std::string> caps_;
};

}  // namespace aa::bundle
