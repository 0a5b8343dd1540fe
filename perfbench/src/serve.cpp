// serve_cold: the real `asynth serve` daemon, driven by a closed loop from
// this process over 2 Unix-socket connections.  Set-up starts the daemon and
// warms its store with the hit set; the timed phase sends a seeded shuffle
// of 95% never-seen specs (misses: a synthesis plus a store write each) and
// 5% hits.
//
// Why not mostly hits: a hit takes 0.2-0.8 ms, almost all of it thread
// wake-ups and system calls, and on a shared 4-vCPU VM that time follows the
// host's load -- an 80%-hit mix put its median there and swung by more than
// a third between runs minutes apart.  With misses dominating, both reported
// percentiles fall in the CPU-bound miss class; the hits still exercise the
// read path under write load and show up in the per-layer split.
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "service/json.hpp"
#include "service/service.hpp"
#include "store/result_store.hpp"

namespace perfbench {

using asynth::service::json_value;

namespace {

constexpr std::size_t connections = 2;
constexpr int setup_repeats = 3;
constexpr double tail_q = 0.95;  ///< a 30 s run has about 600 requests
constexpr std::size_t block = 20;  ///< requests per shuffled block, one of them a hit
/// circuit_area/circuit_cycle sum over this many first misses: a fixed set
/// per seed, large enough that the sums vary little from seed to seed (a
/// 30 s run answers 400-550 misses).
constexpr std::size_t quality_misses = 256;

/// One client connection: line-delimited JSON over a Unix socket.
class connection {
public:
    connection() = default;
    ~connection() {
        if (fd_ >= 0) ::close(fd_);
    }
    connection(const connection&) = delete;
    connection& operator=(const connection&) = delete;

    bool open(const std::string& path) {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd_ < 0) return false;
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (path.size() >= sizeof addr.sun_path) return false;
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
    }

    /// Sends @p line and reads one response line into @p resp.
    bool request(const std::string& line, std::string& resp) {
        std::size_t off = 0;
        while (off < line.size()) {
            const ssize_t n = ::send(fd_, line.data() + off, line.size() - off, MSG_NOSIGNAL);
            if (n <= 0) return false;
            off += static_cast<std::size_t>(n);
        }
        for (;;) {
            if (const auto nl = buf_.find('\n'); nl != std::string::npos) {
                resp.assign(buf_, 0, nl);
                buf_.erase(0, nl + 1);
                return true;
            }
            char chunk[65536];
            const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
            if (n <= 0) return false;
            buf_.append(chunk, static_cast<std::size_t>(n));
        }
    }

private:
    int fd_ = -1;
    std::string buf_;
};

/// The daemon process; the destructor stops it and waits for it.
class daemon_process {
public:
    daemon_process() = default;
    ~daemon_process() { stop(); }
    daemon_process(const daemon_process&) = delete;
    daemon_process& operator=(const daemon_process&) = delete;

    /// Starts `asynth serve` in @p dir and waits until {"op":"health"}
    /// answers.  Returns false when it does not come up within 30 s.
    bool start(const std::string& asynth, const std::string& dir, bool report) {
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        socket_ = dir + "/asynth.sock";
        store_ = dir + "/store";
        report_ = report ? dir + "/report.json" : "";
        std::vector<std::string> argv_s = {asynth, "serve", "--socket", socket_, "--store",
                                           store_, "--jobs", "2", "--log-level", "warn"};
        if (report) {
            argv_s.push_back("--report");
            argv_s.push_back(report_);
        }
        const std::string log = dir + "/daemon.log";
        pid_ = ::fork();
        if (pid_ < 0) return false;
        if (pid_ == 0) {
            const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
            if (fd >= 0) {
                ::dup2(fd, 1);
                ::dup2(fd, 2);
            }
            std::vector<char*> argv;
            for (auto& s : argv_s) argv.push_back(s.data());
            argv.push_back(nullptr);
            ::execv(argv[0], argv.data());
            ::_exit(127);
        }
        const auto t0 = clock_type::now();
        while (ms_since(t0) < 30e3) {
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                return false;
            }
            connection c;
            std::string resp;
            if (c.open(socket_) && c.request("{\"op\":\"health\"}\n", resp)) return true;
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        return false;
    }

    /// Drains the daemon (op shutdown, then SIGTERM, then SIGKILL) and waits.
    void stop() {
        if (pid_ <= 0) return;
        {
            connection c;
            std::string resp;
            if (c.open(socket_)) (void)c.request("{\"op\":\"shutdown\"}\n", resp);
        }
        for (int sig : {0, SIGTERM, SIGKILL}) {
            if (sig) ::kill(pid_, sig);
            const auto t0 = clock_type::now();
            while (ms_since(t0) < 10e3) {
                if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
                    pid_ = -1;
                    return;
                }
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
            }
        }
    }

    [[nodiscard]] pid_t pid() const { return pid_; }
    [[nodiscard]] const std::string& socket() const { return socket_; }
    [[nodiscard]] const std::string& store() const { return store_; }
    [[nodiscard]] const std::string& report() const { return report_; }

private:
    pid_t pid_ = -1;
    std::string socket_, store_, report_;
};

std::string synth_line(std::uint64_t id, const spec_input& in) {
    std::string line = "{\"op\":\"synth\",\"id\":" + std::to_string(id) + ",\"name\":";
    asynth::service::json_append_escaped(line, in.name);
    line += ",\"spec\":";
    asynth::service::json_append_escaped(line, in.text);
    line += "}\n";
    return line;
}

/// One request of the timed phase: which distinct spec it sends.
struct planned {
    std::size_t spec = 0;  ///< index into the distinct list (hits first, then misses)
    bool miss = false;
};

/// The seeded shuffle: blocks of `block` requests with exactly one hit at a
/// seeded position, so every prefix keeps the 95/5 mix; hits walk successive
/// seeded permutations of the hit set, misses walk the never-seen pool.
std::vector<planned> make_plan(std::uint64_t seed, std::size_t hits, std::size_t misses) {
    std::mt19937_64 rng(mix64(seed ^ 0x5e57e));
    std::vector<planned> plan;
    std::vector<std::size_t> perm(hits);
    std::size_t next_hit = hits, next_miss = 0;
    while (next_miss + block - 1 <= misses) {
        std::array<bool, block> is_miss{};
        is_miss.fill(true);
        is_miss[0] = false;
        std::shuffle(is_miss.begin(), is_miss.end(), rng);
        for (bool m : is_miss) {
            if (m) {
                plan.push_back({hits + next_miss++, true});
                continue;
            }
            if (next_hit == hits) {
                for (std::size_t i = 0; i < hits; ++i) perm[i] = i;
                std::shuffle(perm.begin(), perm.end(), rng);
                next_hit = 0;
            }
            plan.push_back({perm[next_hit++], false});
        }
    }
    return plan;
}

/// One answered request of the timed phase.
struct answered {
    std::size_t plan_index = 0;
    double rtt_ms = 0.0;
    bool transport_ok = false;
    std::string response;
};

/// Fields of a synth response, in the shape the gate compares.
outcome outcome_of_response(const json_value& v) {
    outcome o;
    o.completed = v.get_bool("completed");
    o.states = static_cast<std::size_t>(v.get_number("states"));
    o.explored = static_cast<std::size_t>(v.get_number("explored"));
    o.csc_signals = static_cast<std::size_t>(v.get_number("csc_signals"));
    o.literals = static_cast<std::size_t>(v.get_number("literals"));
    o.area = v.get_number("area", -1.0);
    o.cycle = v.get_number("cycle");
    o.has_equations = true;
    if (const json_value* eq = v.find("equations"))
        for (const auto& e : eq->arr) o.equations.push_back(e.str);
    return o;
}

/// The reference outcome as the daemon prints it (doubles at %.9g).
outcome as_printed(outcome o) {
    auto round9 = [](double x) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.9g", x);
        return std::strtod(buf, nullptr);
    };
    o.area = round9(o.area);
    o.cycle = round9(o.cycle);
    return o;
}

/// Starts a daemon and warms its store with the hit set over 2 connections.
bool warm_daemon(daemon_process& d, const args& a, const std::string& dir,
                 const std::vector<std::string>& hit_lines) {
    if (!d.start(a.asynth, dir, a.trace)) return false;
    std::atomic<bool> ok{true};
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < connections; ++c)
        threads.emplace_back([&, c] {
            connection conn;
            if (!conn.open(d.socket())) {
                ok = false;
                return;
            }
            std::string resp;
            for (std::size_t i = c; i < hit_lines.size(); i += connections)
                if (!conn.request(hit_lines[i], resp) ||
                    resp.find("\"ok\":true") == std::string::npos)
                    ok = false;
        });
    for (auto& t : threads) t.join();
    return ok;
}

}  // namespace

void add_unused_service_layers(run_result& res) {
    for (const char* name :
         {"store.key_ms", "store.get_ms_p50", "store.get_ms_tail", "store.put_ms",
          "service.parse_ms", "service.execute_ms_hit", "service.execute_ms_miss",
          "server.queue_ms_hit", "server.queue_ms_miss", "server.transport_ms_hit",
          "server.transport_ms_miss"})
        res.add(name, 0.0, "ms");
    res.add("store.hit_ratio", 0.0, "ratio");
}

run_result run_serve_cold(const args& a) {
    run_result res;
    if (a.asynth.empty() || ::access(a.asynth.c_str(), X_OK) != 0) {
        res.fail("serve_cold needs the asynth daemon binary (--asynth)");
        return res;
    }

    // ---- set-up, several times; the last daemon stays up -------------------
    serve_inputs in;
    std::vector<spec_input> distinct;
    std::vector<std::string> lines;
    std::vector<planned> plan;
    std::vector<double> setups;
    daemon_process d;
    for (int k = 0; k < setup_repeats; ++k) {
        d.stop();
        const auto t0 = clock_type::now();
        in = make_serve_inputs(a.seed);
        distinct = in.hits;
        distinct.insert(distinct.end(), in.misses.begin(), in.misses.end());
        lines.clear();
        for (std::size_t i = 0; i < distinct.size(); ++i)
            lines.push_back(synth_line(i + 1, distinct[i]));
        plan = make_plan(a.seed, in.hits.size(), in.misses.size());
        const std::vector<std::string> hit_lines(lines.begin(),
                                                 lines.begin() + static_cast<long>(in.hits.size()));
        if (!warm_daemon(d, a, a.work_dir + "/serve" + std::to_string(k), hit_lines)) {
            res.fail("daemon did not start or warm its store (see " + a.work_dir + "/serve" +
                     std::to_string(k) + "/daemon.log)");
            return res;
        }
        setups.push_back(ms_since(t0) / 1e3);
    }

    // ---- timed phase ------------------------------------------------------
    std::atomic<std::size_t> next{0};
    std::vector<std::vector<answered>> per_conn(connections);
    // Traced runs probe the store from a third thread while misses write it.
    std::atomic<bool> phase_over{false};
    std::vector<double> probe_key_ms, probe_get_ms;
    std::size_t probe_hits = 0;
    std::atomic<bool> connect_failed{false};
    asynth::obs::trace_session session;
    if (a.trace) session.start();
    const auto t0 = clock_type::now();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < connections; ++c)
        threads.emplace_back([&, c] {
            connection conn;
            if (!conn.open(d.socket())) {
                connect_failed = true;
                return;
            }
            auto& out = per_conn[c];
            out.reserve(plan.size() / connections + 1);
            for (;;) {
                const std::size_t i = next.fetch_add(1);
                if (i >= plan.size() || ms_since(t0) >= a.seconds * 1e3) break;
                answered r;
                r.plan_index = i;
                layer_span sp(plan[i].miss ? "client.request_miss" : "client.request_hit", i);
                r.transport_ok = conn.request(lines[plan[i].spec], r.response);
                r.rtt_ms = sp.ms();
                out.push_back(std::move(r));
                if (!out.back().transport_ok) break;
            }
        });
    if (a.trace)
        threads.emplace_back([&] {
            const auto store = asynth::store::result_store::open(d.store());
            const std::string fp = asynth::store::options_fingerprint(asynth::pipeline_options{});
            for (std::size_t i = 0; !phase_over.load(); i = (i + 1) % in.hits.size()) {
                asynth::store::store_key key;
                {
                    layer_span sp("store.key_of", i);
                    key = asynth::store::key_of(in.hits[i].text, fp);
                    probe_key_ms.push_back(sp.ms());
                }
                layer_span sp("store.get", i);
                if (store.get(key)) ++probe_hits;
                probe_get_ms.push_back(sp.ms());
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
            }
        });
    for (std::size_t c = 0; c < connections; ++c) threads[c].join();
    const double wall_s = ms_since(t0) / 1e3;
    phase_over = true;
    if (a.trace) threads.back().join();
    const double rss = peak_rss_mb(std::to_string(d.pid()));
    d.stop();
    if (connect_failed) res.fail("a client connection to the daemon failed");

    std::vector<answered> all;
    for (auto& v : per_conn)
        for (auto& r : v) all.push_back(std::move(r));
    std::size_t max_miss = 0;
    for (const auto& r : all)
        if (plan[r.plan_index].miss) max_miss = std::max(max_miss, plan[r.plan_index].spec + 1);
    const std::size_t sent_distinct = std::max(in.hits.size(), max_miss);
    std::vector<spec_input> checked(distinct.begin(),
                                    distinct.begin() + static_cast<long>(sent_distinct));

    // ---- store put and request parse probes (traced run) ---------------------
    std::vector<double> put_ms, parse_ms;
    if (a.trace) {
        // Store writes: re-put every record of the daemon's store into a fresh one.
        const auto src = asynth::store::result_store::open(d.store());
        const auto dst = asynth::store::result_store::open(a.work_dir + "/put_probe");
        const std::string fp = asynth::store::options_fingerprint(asynth::pipeline_options{});
        for (std::size_t i = 0; i < checked.size(); ++i) {
            const auto key = asynth::store::key_of(checked[i].text, fp);
            const auto rec = src.get(key);
            if (!rec) {
                res.fail(checked[i].name + ": not in the daemon's store after the run");
                continue;
            }
            layer_span sp("store.put", i);
            if (!dst.put(key, *rec)) res.fail(checked[i].name + ": store put failed");
            put_ms.push_back(sp.ms());
        }
        std::filesystem::remove_all(a.work_dir + "/put_probe");
        for (std::size_t i = 0; i < checked.size(); ++i) {
            std::string err;
            layer_span sp("service.parse_request", i);
            if (!asynth::service::parse_request(lines[i], asynth::pipeline_options{}, err))
                res.fail(checked[i].name + ": parse_request rejected the request: " + err);
            parse_ms.push_back(sp.ms());
        }
        save_spans(res, session, a, "serve_cold");
    }

    // ---- responses ----------------------------------------------------------
    const reference ref = synthesize_reference(checked, asynth::pipeline_options{});
    const std::vector<std::string> why =
        check_reference(checked, ref, load_expected(a.expected, "serve_cold"), a.seed);

    std::vector<sample> lat;
    std::vector<double> exec_ms[2], queue_ms[2], transport_ms[2];
    double service_sum_ms = 0.0;
    std::size_t completed = 0, hits = 0, misses = 0;
    std::vector<bool> area_counted(quality_misses, false);
    double area = 0.0, cycle = 0.0;
    for (const auto& r : all) {
        const planned& p = plan[r.plan_index];
        ++res.attempted;
        const std::string label = distinct[p.spec].name + " (request " +
                                  std::to_string(r.plan_index) + ")";
        if (!r.transport_ok) {
            res.fail(label + ": no response");
            continue;
        }
        const auto v = asynth::service::json_parse(r.response);
        if (!v || !v->get_bool("ok")) {
            res.fail(label + ": error response " + r.response.substr(0, 200));
            continue;
        }
        const std::string store_state = v->get_string("store");
        if (store_state != (p.miss ? "miss" : "hit")) {
            res.fail(label + ": store " + store_state + ", expected " + (p.miss ? "miss" : "hit"));
            continue;
        }
        if (!why[p.spec].empty()) {
            res.fail(label + ": " + why[p.spec]);
            continue;
        }
        const outcome got = outcome_of_response(*v);
        if (const std::string d2 = compare(got, as_printed(ref.out[p.spec])); !d2.empty()) {
            res.fail(label + ": response differs from in-process synthesis: " + d2);
            continue;
        }
        ++completed;
        (p.miss ? misses : hits) += 1;
        lat.push_back({r.rtt_ms, p.miss ? "miss" : "hit"});
        const double q = v->get_number("queue_ms"), s = v->get_number("service_ms");
        exec_ms[p.miss].push_back(s);
        queue_ms[p.miss].push_back(q);
        transport_ms[p.miss].push_back(r.rtt_ms - q - s);
        service_sum_ms += s;
        if (p.miss && p.spec - in.hits.size() < quality_misses) {
            area_counted[p.spec - in.hits.size()] = true;
            area += std::max(0.0, got.area);
            cycle += got.cycle;
        }
    }
    std::printf("serve_cold: %zu requests in %.2f s over %zu connections (%zu hits, %zu misses, "
                "%zu distinct specs checked)\n",
                all.size(), wall_s, connections, hits, misses, checked.size());
    if (std::count(area_counted.begin(), area_counted.end(), false) != 0)
        res.fail("the timed phase did not answer the first " + std::to_string(quality_misses) +
                 " misses");
    if (next.load() >= plan.size())
        res.fail("the request plan ran out before the timed phase ended");

    if (!a.trace) {
        res.add("setup_s", median(setups), "s");
        res.add("throughput_per_s", static_cast<double>(completed) / wall_s, "op/s");
        const percentile_report p50 = class_percentile(lat, 0.5);
        check_percentile(res, "latency_ms_p50", 0.5, p50, "miss");
        res.add("latency_ms_p50", p50.value, "ms");
        const percentile_report tail = class_percentile(lat, tail_q);
        check_percentile(res, "latency_ms_tail", tail_q, tail, "miss");
        res.add("latency_ms_tail", tail.value, "ms");
        res.add("peak_rss_mb", rss, "MiB");
        res.add("circuit_area", area, "area");
        res.add("circuit_cycle", cycle, "time");
        return res;
    }

    // ---- per-layer metrics (traced run) -------------------------------------
    measure_pipeline_layers(res, a, checked, asynth::pipeline_options{}, a.seconds / 2);
    res.add("batch.busy_ratio", service_sum_ms / 1e3 / (2.0 * wall_s), "ratio");
    double queue_wait_p50 = 0.0;
    {
        std::ifstream f(d.report());
        std::stringstream ss;
        ss << f.rdbuf();
        if (const auto rep = asynth::service::json_parse(ss.str()))
            queue_wait_p50 = rep->get_number("queue_wait_p50_ms");
        else
            res.fail("the daemon wrote no drain report");
    }
    res.add("batch.queue_wait_ms_p50", queue_wait_p50, "ms");

    auto mean = [](const std::vector<double>& v) {
        double s = 0;
        for (double x : v) s += x;
        return v.empty() ? 0.0 : s / static_cast<double>(v.size());
    };
    res.add("store.key_ms", mean(probe_key_ms), "ms");
    res.add("store.get_ms_p50", median(probe_get_ms), "ms");
    res.add("store.get_ms_tail", percentile(probe_get_ms, 0.9), "ms");
    res.add("store.put_ms", mean(put_ms), "ms");
    res.add("store.hit_ratio",
            static_cast<double>(hits) / static_cast<double>(std::max<std::size_t>(1, completed)),
            "ratio");
    if (probe_hits != probe_get_ms.size()) res.fail("a store probe of a warmed spec missed");
    res.add("service.parse_ms", mean(parse_ms), "ms");
    res.add("service.execute_ms_hit", median(exec_ms[0]), "ms");
    res.add("service.execute_ms_miss", median(exec_ms[1]), "ms");
    res.add("server.queue_ms_hit", median(queue_ms[0]), "ms");
    res.add("server.queue_ms_miss", median(queue_ms[1]), "ms");
    res.add("server.transport_ms_hit", median(transport_ms[0]), "ms");
    res.add("server.transport_ms_miss", median(transport_ms[1]), "ms");
    return res;
}

}  // namespace perfbench
