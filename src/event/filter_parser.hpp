// Textual subscription language, in the spirit of Elvin/Siena
// subscription languages (§3).
//
// Grammar:
//   filter     := constraint ('and' constraint)*
//   constraint := attr op value | attr 'exists'
//   op         := '=' | '!=' | '<' | '<=' | '>' | '>=' |
//                 'prefix' | 'suffix' | 'contains'
//   value      := "quoted string" | 'quoted string' | number |
//                 true | false | bareword
//   number     := an int ("20"), or a real: one with a point or an
//                 exponent ("20.0", "1e+308"), or [sign] inf | nan
//
// Inside a quoted string a backslash escapes the enclosing quote or a
// second backslash; any other backslash is literal.
//
// Examples:
//   type = "temperature" and celsius > 20
//   type = "user-location" and street prefix "North" and user exists
#pragma once

#include <string_view>

#include "common/status.hpp"
#include "event/filter.hpp"

namespace aa::event {

Result<Filter> parse_filter(std::string_view text);

}  // namespace aa::event
