#include "util/json.hpp"

#include <cstdio>

namespace asynth {

void json_append_escaped(std::string& out, std::string_view s) {
    out += '"';
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    out += '"';
}

void json_writer::key(std::string_view k) {
    if (!first) out += sep.comma;
    first = false;
    json_append_escaped(out, k);
    out += sep.colon;
}

void json_writer::field(std::string_view k, double v) {
    key(k);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    out += buf;
}

}  // namespace asynth
