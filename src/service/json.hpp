// Minimal JSON reader for the synthesis service's line-delimited protocol
// (docs/SERVICE.md); responses are written with util/json.hpp's json_writer.
//
// The service cannot assume anything about bytes arriving on its socket, so
// json_parse() is written defensively: it never throws, it bounds recursion
// depth, and every malformed input -- truncated literals, bad escapes, stray
// bytes after the value -- yields nullopt rather than a partial value.  The
// feature set is deliberately the JSON core (objects, arrays, strings with
// escapes incl. \uXXXX, numbers, true/false/null); there is no streaming,
// comments or NaN/Infinity dialect, because the protocol needs none of them.
//
// This is a service-layer utility, not a general serialisation framework:
// records in the result store use their own checksummed format
// (store/record.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace asynth::service {

/// One parsed JSON value (tagged union kept simple on purpose; protocol
/// messages are a handful of fields, not documents).
struct json_value {
    enum class kind : uint8_t { null, boolean, number, string, array, object };
    kind k = kind::null;
    bool b = false;
    double num = 0.0;
    std::string str;
    std::vector<json_value> arr;
    /// Members in input order; duplicate keys keep the *first* occurrence
    /// (find returns it), matching the defensive reading of the protocol.
    std::vector<std::pair<std::string, json_value>> obj;

    /// Member lookup on an object; nullptr when absent or not an object.
    [[nodiscard]] const json_value* find(std::string_view key) const;

    // Typed getters with defaults, for terse protocol handling.
    [[nodiscard]] std::string get_string(std::string_view key, std::string def = "") const;
    [[nodiscard]] double get_number(std::string_view key, double def = 0.0) const;
    [[nodiscard]] bool get_bool(std::string_view key, bool def = false) const;
    [[nodiscard]] bool has(std::string_view key) const { return find(key) != nullptr; }
};

/// Parses one complete JSON value (trailing whitespace allowed, anything
/// else after it is an error).  Never throws.
[[nodiscard]] std::optional<json_value> json_parse(std::string_view text);

/// The library's one JSON string escaper (util/json.hpp), under the name
/// protocol code has always used.
using asynth::json_append_escaped;

}  // namespace asynth::service
