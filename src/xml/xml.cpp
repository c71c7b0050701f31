#include "xml/xml.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace aa::xml {

Element::Element(const Element& other) { *this = other; }

Element& Element::operator=(const Element& other) {
  if (this == &other) return *this;
  name_ = other.name_;
  attrs_ = other.attrs_;
  children_.clear();
  children_.reserve(other.children_.size());
  for (const Node& n : other.children_) {
    Node copy;
    copy.kind = n.kind;
    if (n.kind == Node::Kind::kElement) {
      copy.element = std::make_unique<Element>(*n.element);
    } else {
      copy.text = n.text;
    }
    children_.push_back(std::move(copy));
  }
  return *this;
}

std::optional<std::string> Element::attribute(const std::string& key) const {
  auto it = attrs_.find(key);
  if (it == attrs_.end()) return std::nullopt;
  return it->second;
}

Element& Element::set_attribute(std::string key, std::string value) {
  attrs_[std::move(key)] = std::move(value);
  return *this;
}

Element& Element::add_child(Element child) {
  Node n;
  n.kind = Node::Kind::kElement;
  n.element = std::make_unique<Element>(std::move(child));
  children_.push_back(std::move(n));
  return *this;
}

Element& Element::add_text(std::string text) {
  Node n;
  n.kind = Node::Kind::kText;
  n.text = std::move(text);
  children_.push_back(std::move(n));
  return *this;
}

const Element* Element::child(std::string_view name) const {
  for (const Node& n : children_) {
    if (n.kind == Node::Kind::kElement && n.element->name() == name) return n.element.get();
  }
  return nullptr;
}

Element* Element::child(std::string_view name) {
  return const_cast<Element*>(static_cast<const Element*>(this)->child(name));
}

std::vector<const Element*> Element::children_named(std::string_view name) const {
  std::vector<const Element*> out;
  for (const Node& n : children_) {
    if (n.kind == Node::Kind::kElement && n.element->name() == name) out.push_back(n.element.get());
  }
  return out;
}

std::vector<const Element*> Element::child_elements() const {
  std::vector<const Element*> out;
  for (const Node& n : children_) {
    if (n.kind == Node::Kind::kElement) out.push_back(n.element.get());
  }
  return out;
}

namespace {
std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}
}  // namespace

std::string Element::text() const {
  std::string out;
  for (const Node& n : children_) {
    if (n.kind == Node::Kind::kText) out += n.text;
  }
  return trim(out);
}

std::size_t Element::remove_children(std::string_view name) {
  const std::size_t before = children_.size();
  std::erase_if(children_, [&](const Node& n) {
    return n.kind == Node::Kind::kElement && n.element->name() == name;
  });
  return before - children_.size();
}

bool Element::operator==(const Element& other) const {
  if (name_ != other.name_ || attrs_ != other.attrs_) return false;
  // Compare normalised child sequences: consecutive text runs coalesce
  // (serialisation writes them adjacently, so a parse reads them back
  // as one run), runs are trimmed, and empty ones dropped — making the
  // relation stable across parse/print round-trips, pretty or compact.
  struct Item {
    const Element* element = nullptr;  // null => text item
    std::string text;
  };
  auto normalised = [](const Element& e) {
    std::vector<Item> out;
    for (const Node& n : e.children_) {
      if (n.kind == Node::Kind::kText) {
        if (!out.empty() && out.back().element == nullptr) {
          out.back().text += n.text;
        } else {
          out.push_back(Item{nullptr, n.text});
        }
      } else {
        out.push_back(Item{n.element.get(), {}});
      }
    }
    std::erase_if(out, [](const Item& i) { return i.element == nullptr && trim(i.text).empty(); });
    return out;
  };
  auto a = normalised(*this);
  auto b = normalised(other);
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if ((a[i].element == nullptr) != (b[i].element == nullptr)) return false;
    if (a[i].element == nullptr) {
      if (trim(a[i].text) != trim(b[i].text)) return false;
    } else if (!(*a[i].element == *b[i].element)) {
      return false;
    }
  }
  return true;
}

std::string escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '&': out += "&amp;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&apos;"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::size_t escaped_size(std::string_view text) {
  std::size_t size = text.size();
  for (char c : text) {
    switch (c) {
      case '<': case '>': size += 3; break;   // &lt; &gt;
      case '&': size += 4; break;             // &amp;
      case '"': case '\'': size += 5; break;  // &quot; &apos;
      default: break;
    }
  }
  return size;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view input) : in_(input) {}

  Result<Element> parse_document() {
    skip_prolog();
    auto root = parse_element();
    if (!root.is_ok()) return root;
    skip_misc();
    if (pos_ != in_.size()) {
      return Status(Code::kInvalidArgument, "trailing content after root element");
    }
    return root;
  }

 private:
  bool eof() const { return pos_ >= in_.size(); }
  char peek() const { return in_[pos_]; }
  bool starts_with(std::string_view s) const { return in_.substr(pos_, s.size()) == s; }

  void skip_ws() {
    while (!eof() && std::isspace(static_cast<unsigned char>(peek()))) ++pos_;
  }

  bool skip_comment() {
    if (!starts_with("<!--")) return false;
    const auto end = in_.find("-->", pos_ + 4);
    pos_ = (end == std::string_view::npos) ? in_.size() : end + 3;
    return true;
  }

  void skip_prolog() {
    skip_ws();
    if (starts_with("<?")) {
      const auto end = in_.find("?>", pos_);
      pos_ = (end == std::string_view::npos) ? in_.size() : end + 2;
    }
    skip_misc();
  }

  void skip_misc() {
    for (;;) {
      skip_ws();
      if (!skip_comment()) break;
    }
  }

  static bool is_name_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-' || c == '.' ||
           c == ':';
  }

  std::string parse_name() {
    std::string name;
    while (!eof() && is_name_char(peek())) name.push_back(in_[pos_++]);
    return name;
  }

  Result<std::string> unescape(std::string_view raw) {
    std::string out;
    out.reserve(raw.size());
    for (std::size_t i = 0; i < raw.size(); ++i) {
      if (raw[i] != '&') {
        out.push_back(raw[i]);
        continue;
      }
      const auto semi = raw.find(';', i);
      if (semi == std::string_view::npos) {
        return Status(Code::kInvalidArgument, "unterminated entity");
      }
      const std::string_view ent = raw.substr(i + 1, semi - i - 1);
      if (ent == "lt") {
        out.push_back('<');
      } else if (ent == "gt") {
        out.push_back('>');
      } else if (ent == "amp") {
        out.push_back('&');
      } else if (ent == "quot") {
        out.push_back('"');
      } else if (ent == "apos") {
        out.push_back('\'');
      } else if (!ent.empty() && ent[0] == '#') {
        // Numeric character reference; ASCII range only.  The bound is
        // checked per digit, so a long digit run cannot overflow.
        const bool hex = ent.size() > 1 && (ent[1] == 'x' || ent[1] == 'X');
        const std::string_view digits = ent.substr(hex ? 2 : 1);
        if (digits.empty()) {
          return Status(Code::kInvalidArgument, "empty character reference");
        }
        int code = 0;
        for (char c : digits) {
          const auto u = static_cast<unsigned char>(c);
          int digit = -1;
          if (std::isdigit(u)) {
            digit = c - '0';
          } else if (hex && std::isxdigit(u)) {
            digit = std::tolower(u) - 'a' + 10;
          }
          if (digit < 0) {
            return Status(Code::kInvalidArgument, "bad character reference: " + std::string(ent));
          }
          code = code * (hex ? 16 : 10) + digit;
          if (code > 0x7F) {
            return Status(Code::kInvalidArgument,
                          "character reference outside ASCII: " + std::string(ent));
          }
        }
        out.push_back(static_cast<char>(code));
      } else {
        return Status(Code::kInvalidArgument, "unknown entity: " + std::string(ent));
      }
      i = semi;
    }
    return out;
  }

  Result<Element> parse_element() {
    if (eof() || peek() != '<') {
      return Status(Code::kInvalidArgument, "expected element start");
    }
    ++pos_;
    Element elem(parse_name());
    if (elem.name().empty()) {
      return Status(Code::kInvalidArgument, "empty element name");
    }

    // Attributes.
    for (;;) {
      skip_ws();
      if (eof()) return Status(Code::kInvalidArgument, "unexpected end in tag");
      if (peek() == '/' || peek() == '>') break;
      const std::string key = parse_name();
      if (key.empty()) return Status(Code::kInvalidArgument, "bad attribute name");
      skip_ws();
      if (eof() || peek() != '=') return Status(Code::kInvalidArgument, "expected '='");
      ++pos_;
      skip_ws();
      if (eof() || (peek() != '"' && peek() != '\'')) {
        return Status(Code::kInvalidArgument, "expected quoted attribute value");
      }
      const char quote = in_[pos_++];
      const auto end = in_.find(quote, pos_);
      if (end == std::string_view::npos) {
        return Status(Code::kInvalidArgument, "unterminated attribute value");
      }
      auto value = unescape(in_.substr(pos_, end - pos_));
      if (!value.is_ok()) return value.status();
      elem.set_attribute(key, std::move(value).value());
      pos_ = end + 1;
    }

    if (peek() == '/') {
      ++pos_;
      if (eof() || peek() != '>') return Status(Code::kInvalidArgument, "malformed self-close");
      ++pos_;
      return elem;
    }
    ++pos_;  // consume '>'

    // Content.
    for (;;) {
      const auto lt = in_.find('<', pos_);
      if (lt == std::string_view::npos) {
        return Status(Code::kInvalidArgument, "unterminated element: " + elem.name());
      }
      if (lt > pos_) {
        auto text = unescape(in_.substr(pos_, lt - pos_));
        if (!text.is_ok()) return text.status();
        if (!trim(text.value()).empty()) elem.add_text(std::move(text).value());
      }
      pos_ = lt;
      if (starts_with("<!--")) {
        skip_comment();
        continue;
      }
      if (starts_with("</")) {
        pos_ += 2;
        const std::string closing = parse_name();
        skip_ws();
        if (eof() || peek() != '>') return Status(Code::kInvalidArgument, "malformed close tag");
        ++pos_;
        if (closing != elem.name()) {
          return Status(Code::kInvalidArgument,
                        "mismatched close tag: <" + elem.name() + "> vs </" + closing + ">");
        }
        return elem;
      }
      auto kid = parse_element();
      if (!kid.is_ok()) return kid;
      elem.add_child(std::move(kid).value());
    }
  }

  std::string_view in_;
  std::size_t pos_ = 0;
};

void write_element(const Element& e, std::ostringstream& out, const WriteOptions& opt, int depth) {
  const std::string pad = opt.pretty ? std::string(static_cast<std::size_t>(depth * opt.indent), ' ') : "";
  out << pad << '<' << e.name();
  for (const auto& [k, v] : e.attributes()) {
    out << ' ' << k << "=\"" << escape(v) << '"';
  }
  if (e.children().empty()) {
    out << "/>";
    if (opt.pretty) out << '\n';
    return;
  }
  out << '>';
  const bool text_only = std::all_of(e.children().begin(), e.children().end(), [](const Node& n) {
    return n.kind == Node::Kind::kText;
  });
  if (opt.pretty && !text_only) out << '\n';
  for (const Node& n : e.children()) {
    if (n.kind == Node::Kind::kText) {
      out << escape(n.text);
    } else {
      write_element(*n.element, out, opt, depth + 1);
    }
  }
  if (opt.pretty && !text_only) out << pad;
  out << "</" << e.name() << '>';
  if (opt.pretty) out << '\n';
}

}  // namespace

Result<Element> parse(std::string_view input) { return Parser(input).parse_document(); }

std::string to_string(const Element& root, const WriteOptions& options) {
  std::ostringstream out;
  write_element(root, out, options, 0);
  return out.str();
}

}  // namespace aa::xml
