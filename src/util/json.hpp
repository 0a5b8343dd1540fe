// JSON string escaping shared by every JSON emitter in the library: trace
// export, structured log lines, the batch report and the service protocol.
#pragma once

#include <string>
#include <string_view>

namespace asynth {

/// Appends the JSON string literal of @p s (quotes included) to @p out.
/// Quote, backslash, \n, \r and \t get their short escapes, every other
/// control byte \u00XX; bytes >= 0x20 (UTF-8 included) pass through.
void json_append_escaped(std::string& out, std::string_view s);

}  // namespace asynth
