//===- support/JsonEscape.h - JSON string escaping --------------*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The JSON string escaper of the analyzer's `--json` report, the trace
/// exporter and the server's wire format.
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_SUPPORT_JSONESCAPE_H
#define FEARLESS_SUPPORT_JSONESCAPE_H

#include <string>
#include <string_view>

namespace fearless {

/// Escapes \p S as the *contents* of a JSON string (no quotes added):
/// `"` and `\` are backslash-escaped, \b \f \n \r \t use their short
/// forms, and every other control character becomes `\u00XX`.
std::string escapeJson(std::string_view S);

} // namespace fearless

#endif // FEARLESS_SUPPORT_JSONESCAPE_H
