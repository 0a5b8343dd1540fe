// The flow-option table: one row per knob of the Fig. 4 flow a user can set
// -- the section-7 cost weight W, the Fig. 9 beam width and depth, the
// handshake protocol, the CSC budget, the quality dial and the tail stages.
//
// Every front end derives its handling of these knobs from the table:
// single-spec `asynth` and `asynth batch` parse their flags with one generic
// loop, `asynth client` forwards every keyed row, the service applies the
// keyed rows of a request (service::parse_request), and the "flow options"
// part of `--help` is printed from the rows.  Each knob is therefore parsed,
// range-checked and documented in exactly one place.
//
// Knobs that exist only as test oracles (search_options::engine and
// ::minimizer) and knobs without a user-facing flag (gate library, delays,
// channel interfaces) deliberately have no row.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <string>
#include <string_view>

#include "pipeline/pipeline.hpp"

namespace asynth {

/// How a row's value is spelled and range-checked.
enum class option_kind : uint8_t {
    unit,    ///< a finite number in [0,1]
    size,    ///< an integer in [flow_option::min, 1e9]
    choice,  ///< one of flow_option::choices
    flag,    ///< no value: the CLI flag sets the field to !flow_option::negated
};

/// One parsed value; the member that matters depends on the row's kind.
struct option_value {
    double unit = 0.0;  ///< unit rows
    std::size_t n = 0;  ///< size rows: the integer; choice rows: index into choices
    bool on = false;    ///< flag rows: the new value of the pipeline_options field
};

/// One user-settable flow option.
struct flow_option {
    const char* flag = nullptr;     ///< CLI flag, e.g. "--w"
    const char* key = nullptr;      ///< request JSON key; nullptr for CLI-only rows
    const char* metavar = nullptr;  ///< e.g. "<x>"; nullptr for flag rows
    const char* help = nullptr;     ///< --help text, pre-wrapped lines split by '\n'
    option_kind kind = option_kind::flag;
    std::size_t min = 0;                   ///< size rows: smallest accepted value
    std::array<const char*, 3> choices{};  ///< choice rows: names, nullptr-padded
    bool negated = false;                  ///< flag rows: the CLI flag turns the field off
    /// Does the knob change the result?  Result-affecting knobs join
    /// store::options_fingerprint (pinned by tests/test_options.cpp).
    bool affects_result = true;
    void (*set)(pipeline_options&, const option_value&) = nullptr;
};

/// Every flow option, in --help order.
[[nodiscard]] std::span<const flow_option> flow_options();

/// The row whose CLI flag is @p flag, or nullptr.
[[nodiscard]] const flow_option* find_flow_option(std::string_view flag);

/// What a valid value of @p row looks like ("a number in [0,1]", "one of
/// none | beam | full", ...), for diagnostics.
[[nodiscard]] std::string option_expectation(const flow_option& row);

/// Choice rows whose names are numerals ("2" / "4") travel as JSON numbers.
[[nodiscard]] bool numeric_choice(const flow_option& row);

/// Parses the CLI text of a value for @p row (not a flag row).  On a bad
/// value returns false and fills @p error with a diagnostic naming the flag.
[[nodiscard]] bool parse_option_value(const flow_option& row, std::string_view text,
                                      option_value& out, std::string& error);

/// Cross-field rules no single row can check.  Returns an empty string when
/// @p opt is consistent, else the diagnostic.
[[nodiscard]] std::string validate(const pipeline_options& opt);

/// Strict parsers shared with the CLI's other flags: the whole text must be
/// the number (strtoull alone would wrap "-1" into a huge value).
[[nodiscard]] bool parse_size_text(std::string_view text, std::size_t& out);
[[nodiscard]] bool parse_double_text(std::string_view text, double& out);

}  // namespace asynth
