#include "event/filter_parser.hpp"

#include <cctype>
#include <cstdlib>
#include <vector>

namespace aa::event {

namespace {

struct Token {
  enum class Kind { kWord, kOp, kString, kNumber, kEnd };
  Kind kind;
  std::string text;
};

class Lexer {
 public:
  explicit Lexer(std::string_view in) : in_(in) {}

  Result<std::vector<Token>> lex() {
    std::vector<Token> tokens;
    for (;;) {
      skip_ws();
      if (pos_ >= in_.size()) break;
      const char c = in_[pos_];
      if (c == '"' || c == '\'') {
        auto t = lex_string(c);
        if (!t.is_ok()) return t.status();
        tokens.push_back(std::move(t).value());
      } else if (c == '=' || c == '!' || c == '<' || c == '>') {
        std::string op(1, c);
        ++pos_;
        if (pos_ < in_.size() && in_[pos_] == '=') {
          op.push_back('=');
          ++pos_;
        }
        if (op == "!") return Status(Code::kInvalidArgument, "lone '!'");
        tokens.push_back(Token{Token::Kind::kOp, op});
      } else if (std::isdigit(static_cast<unsigned char>(c)) || c == '-' || c == '+') {
        tokens.push_back(lex_number());
      } else if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
        tokens.push_back(lex_word());
      } else {
        return Status(Code::kInvalidArgument, std::string("unexpected character '") + c + "'");
      }
    }
    tokens.push_back(Token{Token::Kind::kEnd, ""});
    return tokens;
  }

 private:
  void skip_ws() {
    while (pos_ < in_.size() && std::isspace(static_cast<unsigned char>(in_[pos_]))) ++pos_;
  }

  /// A quoted string; a backslash before the quote character or
  /// another backslash escapes it (Constraint::describe writes both),
  /// and any other backslash is literal.
  Result<Token> lex_string(char quote) {
    ++pos_;
    std::string out;
    while (pos_ < in_.size() && in_[pos_] != quote) {
      if (in_[pos_] == '\\' && pos_ + 1 < in_.size() &&
          (in_[pos_ + 1] == quote || in_[pos_ + 1] == '\\')) {
        ++pos_;
      }
      out.push_back(in_[pos_++]);
    }
    if (pos_ >= in_.size()) return Status(Code::kInvalidArgument, "unterminated string");
    ++pos_;
    return Token{Token::Kind::kString, std::move(out)};
  }

  /// A number: digits with an optional sign, point and exponent, or a
  /// signed "inf" or "nan" (Constraint::describe writes "-inf"; the
  /// unsigned spellings lex as words and read back as reals).
  Token lex_number() {
    std::string out;
    if (in_[pos_] == '-' || in_[pos_] == '+') out.push_back(in_[pos_++]);
    for (const std::string_view special : {"inf", "nan"}) {
      if (in_.substr(pos_, special.size()) == special) {
        out += special;
        pos_ += special.size();
        return Token{Token::Kind::kNumber, std::move(out)};
      }
    }
    while (pos_ < in_.size() &&
           (std::isdigit(static_cast<unsigned char>(in_[pos_])) || in_[pos_] == '.' ||
            in_[pos_] == 'e' || in_[pos_] == 'E' ||
            ((in_[pos_] == '-' || in_[pos_] == '+') && (in_[pos_ - 1] == 'e' || in_[pos_ - 1] == 'E')))) {
      out.push_back(in_[pos_++]);
    }
    return Token{Token::Kind::kNumber, std::move(out)};
  }

  Token lex_word() {
    std::string out;
    while (pos_ < in_.size() && (std::isalnum(static_cast<unsigned char>(in_[pos_])) ||
                                 in_[pos_] == '_' || in_[pos_] == '-' || in_[pos_] == '.')) {
      out.push_back(in_[pos_++]);
    }
    return Token{Token::Kind::kWord, std::move(out)};
  }

  std::string_view in_;
  std::size_t pos_ = 0;
};

Result<AttrValue> token_to_value(const Token& t) {
  switch (t.kind) {
    case Token::Kind::kString:
      return AttrValue(t.text);
    case Token::Kind::kNumber: {
      // Digits alone read as an int; a point, exponent, inf or nan as a
      // real.
      if (t.text.find_first_of(".eEin") == std::string::npos) {
        return AttrValue(static_cast<std::int64_t>(std::strtoll(t.text.c_str(), nullptr, 10)));
      }
      return AttrValue(std::strtod(t.text.c_str(), nullptr));
    }
    case Token::Kind::kWord:
      if (t.text == "true") return AttrValue(true);
      if (t.text == "false") return AttrValue(false);
      if (t.text == "inf" || t.text == "nan") return AttrValue(std::strtod(t.text.c_str(), nullptr));
      return AttrValue(t.text);  // bareword string
    default:
      return Status(Code::kInvalidArgument, "expected a value");
  }
}

}  // namespace

Result<Filter> parse_filter(std::string_view text) {
  auto tokens_result = Lexer(text).lex();
  if (!tokens_result.is_ok()) return tokens_result.status();
  const auto& tokens = tokens_result.value();

  Filter filter;
  std::size_t i = 0;
  for (;;) {
    if (tokens[i].kind != Token::Kind::kWord) {
      return Status(Code::kInvalidArgument, "expected attribute name");
    }
    const std::string attr = tokens[i++].text;

    std::string op_text;
    if (tokens[i].kind == Token::Kind::kOp) {
      op_text = tokens[i++].text;
    } else if (tokens[i].kind == Token::Kind::kWord &&
               (tokens[i].text == "prefix" || tokens[i].text == "suffix" ||
                tokens[i].text == "contains" || tokens[i].text == "exists")) {
      op_text = tokens[i++].text;
    } else {
      return Status(Code::kInvalidArgument, "expected operator after '" + attr + "'");
    }
    auto op = op_from_name(op_text);
    if (!op.is_ok()) return op.status();

    if (op.value() == Op::kExists) {
      filter.where(attr, Op::kExists);
    } else {
      auto value = token_to_value(tokens[i]);
      if (!value.is_ok()) return value.status();
      ++i;
      filter.where(attr, op.value(), std::move(value).value());
    }

    if (tokens[i].kind == Token::Kind::kEnd) break;
    if (tokens[i].kind == Token::Kind::kWord && tokens[i].text == "and") {
      ++i;
      continue;
    }
    return Status(Code::kInvalidArgument, "expected 'and' or end, got '" + tokens[i].text + "'");
  }
  return filter;
}

}  // namespace aa::event
