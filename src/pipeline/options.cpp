#include "pipeline/options.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <thread>

namespace asynth {

namespace {

using value = const option_value&;

/// Upper bound of every size row.  Far beyond any useful beam, depth, budget
/// or deadline, and it keeps deadline arithmetic (ms -> ns) clear of overflow
/// for values that arrive off a socket.
constexpr std::size_t size_cap = 1'000'000'000;

const flow_option rows[] = {
    {.flag = "--strategy", .key = "strategy", .metavar = "<s>",
     .help = "none | beam | full   (default: beam, the Fig. 9 search)",
     .kind = option_kind::choice, .choices = {"none", "beam", "full"},
     .set = [](pipeline_options& o, value v) {
         o.strategy = static_cast<reduction_strategy>(v.n);
     }},
    {.flag = "--quality", .key = "quality", .metavar = "<q>",
     .help = "exact | bounded | anytime search quality (default:\n"
             "exact = bit-identical classic beam; bounded admits\n"
             "the beam on literal bounds and reports its bound\n"
             "gap; anytime honours --deadline; docs/SEARCH.md)",
     .kind = option_kind::choice, .choices = {"exact", "bounded", "anytime"},
     .set = [](pipeline_options& o, value v) {
         o.search.quality = static_cast<search_quality>(v.n);
     }},
    {.flag = "--deadline", .key = "deadline_ms", .metavar = "<ms>",
     .help = "anytime wall-clock budget in milliseconds, checked\n"
             "between search levels (requires --quality anytime)",
     .kind = option_kind::size,
     .set = [](pipeline_options& o, value v) { o.search.deadline_ms = v.n; }},
    {.flag = "--search-jobs", .metavar = "<n>",
     .help = "incremental-engine scoring threads; 0 = all hardware\n"
             "cores (default 1; identical results for every value)",
     .kind = option_kind::size, .affects_result = false,
     .set = [](pipeline_options& o, value v) {
         o.search.jobs = v.n ? v.n : std::max(1u, std::thread::hardware_concurrency());
     }},
    {.flag = "--w", .key = "w", .metavar = "<x>",
     .help = "cost weight W in [0,1]; 0 biases CSC, 1 logic\n"
             "(default 0.5)",
     .kind = option_kind::unit,
     .set = [](pipeline_options& o, value v) { o.search.cost.w = v.unit; }},
    {.flag = "--frontier", .key = "frontier", .metavar = "<n>",
     .help = "beam frontier size (default 4)", .kind = option_kind::size, .min = 1,
     .set = [](pipeline_options& o, value v) { o.search.size_frontier = v.n; }},
    {.flag = "--max-levels", .key = "max_levels", .metavar = "<n>",
     .help = "beam depth limit (default 128)", .kind = option_kind::size,
     .set = [](pipeline_options& o, value v) { o.search.max_levels = v.n; }},
    {.flag = "--phases", .key = "phases", .metavar = "<2|4>",
     .help = "handshake expansion protocol (default 4)",
     .kind = option_kind::choice, .choices = {"2", "4"},
     .set = [](pipeline_options& o, value v) { o.expand.phases = v.n == 0 ? 2 : 4; }},
    {.flag = "--csc-signals", .key = "csc_signals", .metavar = "<n>",
     .help = "max inserted state signals (default 4)", .kind = option_kind::size,
     .set = [](pipeline_options& o, value v) { o.csc.max_signals = v.n; }},
    {.flag = "--no-perf", .key = "perf",
     .help = "skip the timed critical-cycle analysis", .negated = true,
     .set = [](pipeline_options& o, value v) { o.run_performance = v.on; }},
    {.flag = "--no-recover", .key = "recover",
     .help = "skip region-based STG recovery (ignored with --out)", .negated = true,
     .set = [](pipeline_options& o, value v) { o.recover_stg = v.on; }},
    {.flag = "--verify-impl", .key = "verify",
     .help = "emulate the emitted gate-level implementation\n"
             "against the spec's state graph; a divergence is a\n"
             "stage failure (docs/NETLIST.md)",
     .set = [](pipeline_options& o, value v) { o.verify_impl = v.on; }},
};

}  // namespace

std::span<const flow_option> flow_options() { return rows; }

const flow_option* find_flow_option(std::string_view flag) {
    for (const flow_option& row : rows)
        if (flag == row.flag) return &row;
    return nullptr;
}

std::string option_expectation(const flow_option& row) {
    switch (row.kind) {
        case option_kind::unit: return "a number in [0,1]";
        case option_kind::size:
            return "an integer in [" + std::to_string(row.min) + ", " + std::to_string(size_cap) +
                   "]";
        case option_kind::choice: {
            std::string s = "one of ";
            for (std::size_t i = 0; i < row.choices.size() && row.choices[i]; ++i)
                s += std::string(i ? " | " : "") + row.choices[i];
            return s;
        }
        case option_kind::flag: return "a boolean";
    }
    return "?";
}

bool numeric_choice(const flow_option& row) {
    return row.kind == option_kind::choice &&
           std::isdigit(static_cast<unsigned char>(*row.choices[0]));
}

bool parse_size_text(std::string_view text, std::size_t& out) {
    if (text.empty() || !std::all_of(text.begin(), text.end(),
                                     [](char c) { return c >= '0' && c <= '9'; }))
        return false;
    const std::string s(text);
    errno = 0;
    const unsigned long long v = std::strtoull(s.c_str(), nullptr, 10);
    if (errno == ERANGE || v > std::numeric_limits<std::size_t>::max()) return false;
    out = static_cast<std::size_t>(v);
    return true;
}

bool parse_double_text(std::string_view text, double& out) {
    const std::string s(text);
    char* end = nullptr;
    out = std::strtod(s.c_str(), &end);
    return !s.empty() && *end == '\0';
}

bool parse_option_value(const flow_option& row, std::string_view text, option_value& out,
                        std::string& error) {
    bool ok = false;
    switch (row.kind) {
        // Written as 0 <= x <= 1 rather than !(x < 0 || x > 1): NaN fails it.
        case option_kind::unit:
            ok = parse_double_text(text, out.unit) && out.unit >= 0.0 && out.unit <= 1.0;
            break;
        case option_kind::size:
            ok = parse_size_text(text, out.n) && out.n >= row.min && out.n <= size_cap;
            break;
        case option_kind::choice:
            for (std::size_t i = 0; i < row.choices.size() && row.choices[i]; ++i)
                if (text == row.choices[i]) {
                    out.n = i;
                    ok = true;
                }
            break;
        case option_kind::flag: break;
    }
    if (!ok)
        error = std::string(row.flag) + " expects " + option_expectation(row) + ", got '" +
                std::string(text) + "'";
    return ok;
}

std::string validate(const pipeline_options& opt) {
    if (opt.search.deadline_ms > 0 && opt.search.quality != search_quality::anytime)
        return "--deadline (deadline_ms) requires --quality anytime";
    return {};
}

}  // namespace asynth
