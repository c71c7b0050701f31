// Minimal XML document model, parser and writer.
//
// The paper fixes XML as the interchange format for both events and
// knowledge ("it is reasonable to assume that both events and knowledge
// will be stored in an XML format", §3), and events flow between
// pipeline components as XML.  This is a deliberately small, strict
// subset: elements, attributes, character data, comments, declarations,
// and the five predefined entities.  No DTDs or namespaces — the
// architecture layers above never need them.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"

namespace aa::xml {

class Element;

/// Mixed content: an element's children interleave text runs and child
/// elements in document order.
struct Node {
  enum class Kind { kElement, kText };
  Kind kind;
  std::unique_ptr<Element> element;  // when kind == kElement
  std::string text;                  // when kind == kText
};

class Element {
 public:
  Element() = default;
  explicit Element(std::string name) : name_(std::move(name)) {}

  // Deep copy (unique_ptr children make the default copy unavailable).
  Element(const Element& other);
  Element& operator=(const Element& other);
  Element(Element&&) = default;
  Element& operator=(Element&&) = default;

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  const std::map<std::string, std::string>& attributes() const { return attrs_; }
  std::optional<std::string> attribute(const std::string& key) const;
  Element& set_attribute(std::string key, std::string value);

  const std::vector<Node>& children() const { return children_; }

  /// Appends a child element; returns a reference for chained building.
  Element& add_child(Element child);
  Element& add_text(std::string text);

  /// First child element with the given name, if any.
  const Element* child(std::string_view name) const;
  Element* child(std::string_view name);
  std::vector<const Element*> children_named(std::string_view name) const;
  std::vector<const Element*> child_elements() const;

  /// Concatenation of all directly contained text runs, trimmed.
  std::string text() const;

  /// Removes all children with the given element name; returns count.
  std::size_t remove_children(std::string_view name);

  bool operator==(const Element& other) const;

 private:
  std::string name_;
  std::map<std::string, std::string> attrs_;
  std::vector<Node> children_;
};

/// Parses a complete document (a single root element, optionally
/// preceded by an XML declaration / comments).
Result<Element> parse(std::string_view input);

struct WriteOptions {
  bool pretty = false;
  int indent = 2;
};

std::string to_string(const Element& root, const WriteOptions& options = {});

/// Escapes the five predefined entities in character data.
std::string escape(std::string_view text);
/// escape(text).size(), counted without building the string.
std::size_t escaped_size(std::string_view text);

}  // namespace aa::xml
