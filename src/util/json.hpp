// JSON output shared by every JSON emitter in the library: the string
// escaper (trace export, structured log lines, the batch report, the service
// protocol) and the object writer (the batch report, the service protocol).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

namespace asynth {

/// Appends the JSON string literal of @p s (quotes included) to @p out.
/// Quote, backslash, \n, \r and \t get their short escapes, every other
/// control byte \u00XX; bytes >= 0x20 (UTF-8 included) pass through.
void json_append_escaped(std::string& out, std::string_view s);

/// Writes one JSON object member by member, in call order.  The layout is
/// the member and key separators: `compact` for protocol lines, `spaced`
/// for the schema-stable batch report.  Numbers print as %.9g.
struct json_writer {
    struct layout {
        std::string_view comma, colon;
    };
    static constexpr layout compact{",", ":"};
    static constexpr layout spaced{", ", ": "};

    explicit json_writer(layout l = compact) : sep(l) {}

    void key(std::string_view k);
    void field(std::string_view k, std::string_view v) { key(k), json_append_escaped(out, v); }
    void field(std::string_view k, const char* v) { field(k, std::string_view(v)); }
    void field(std::string_view k, double v);
    void field(std::string_view k, std::uint64_t v) { key(k), out += std::to_string(v); }
    void field(std::string_view k, bool v) { key(k), out += v ? "true" : "false"; }
    /// Appends pre-serialised JSON (e.g. a nested array) verbatim.
    void raw(std::string_view k, std::string_view json) { key(k), out += json; }

    [[nodiscard]] std::string finish() && { return std::move(out) + "}"; }

    std::string out = "{";
    layout sep;
    bool first = true;
};

}  // namespace asynth
