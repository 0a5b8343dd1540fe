#include "service/server.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include "batch/pool.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"
#include "util/version.hpp"

namespace asynth::service {

namespace {

using clock_type = std::chrono::steady_clock;

double ms_since(clock_type::time_point t0) {
    return std::chrono::duration<double, std::milli>(clock_type::now() - t0).count();
}

// ---- signal plumbing: handler writes one byte into a self-pipe -------------

int g_signal_pipe_wr = -1;

extern "C" void drain_signal_handler(int) {
    const char byte = 1;
    // write(2) is async-signal-safe; a full pipe just means a wake-up is
    // already pending.
    if (g_signal_pipe_wr >= 0) (void)!write(g_signal_pipe_wr, &byte, 1);
}

/// Per-connection state.  The main thread owns the fd lifecycle; workers
/// only write responses (under `write_m`) and flip `closed` on send errors.
/// Read-EOF and write-broken are deliberately separate states: a one-shot
/// client that half-closes its write side after the request (send;
/// shutdown(SHUT_WR); recv -- the `nc -N` pattern) must still receive its
/// response.
struct connection {
    int fd = -1;
    std::string inbuf;
    std::mutex write_m;
    std::atomic<int> pending{0};        ///< queued + in-flight synth requests
    std::atomic<bool> read_done{false}; ///< client sent EOF; no more requests
    std::atomic<bool> closed{false};    ///< write side broken; drop responses
};

/// A synth request waiting for a worker.
struct queued_request {
    std::shared_ptr<connection> conn;
    request req;
    clock_type::time_point arrival;
};

/// Sends one response line (appending '\n').  Serialised per connection so
/// concurrent completions cannot interleave bytes.  The fd is non-blocking
/// (accept4), so a full socket buffer -- a healthy client that reads slowly
/// -- reports EAGAIN: wait for writability instead of poisoning the
/// connection, and only give up on a client that stays unwritable for the
/// whole window (backpressure with an upper bound, mirroring the bounded
/// request queue on the read side).
void send_line(connection& conn, std::string line) {
    constexpr int write_stall_ms = 10'000;
    line += '\n';
    std::lock_guard<std::mutex> lock(conn.write_m);
    if (conn.closed.load(std::memory_order_relaxed)) return;
    std::size_t off = 0;
    while (off < line.size()) {
        const ssize_t n =
            ::send(conn.fd, line.data() + off, line.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                pollfd pfd{conn.fd, POLLOUT, 0};
                if (::poll(&pfd, 1, write_stall_ms) > 0) continue;
            }
            conn.closed.store(true, std::memory_order_relaxed);
            return;
        }
        off += static_cast<std::size_t>(n);
    }
}

std::string error_line(std::uint64_t id, const std::string& what,
                       const std::string& req_id = {}) {
    json_writer line;
    line.field("op", "error");
    if (id != 0) line.field("id", id);
    if (!req_id.empty()) line.field("req_id", req_id);
    line.field("ok", false);
    line.field("error", what);
    return std::move(line).finish();
}

/// On an unhandled exception the ring of recent log events is the flight
/// recorder: dump it to stderr before dying so post-mortems see the last
/// requests, not just the abort message.
std::terminate_handler g_prev_terminate = nullptr;

[[noreturn]] void terminate_with_recent_log() {
    std::fputs("asynth serve: terminating on unhandled exception; recent events:\n", stderr);
    obs::dump_recent_log(stderr);
    if (g_prev_terminate) g_prev_terminate();
    std::abort();
}

/// Wakes the poll loop (worker completions, queue transitions).
void poke(int pipe_wr) {
    const char byte = 1;
    (void)!write(pipe_wr, &byte, 1);
}

/// Bounds one connection's unread request bytes: a client that never sends a
/// newline must not grow daemon memory forever.
constexpr std::size_t max_inbuf = 16u << 20;

}  // namespace

int run_server(const server_options& opt) {
    const auto t_start = clock_type::now();
    obs::name_thread("main");
    g_prev_terminate = std::set_terminate(terminate_with_recent_log);

    // ---- listen socket -----------------------------------------------------
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (opt.socket_path.empty() || opt.socket_path.size() >= sizeof addr.sun_path) {
        std::fprintf(stderr, "asynth serve: socket path empty or too long (max %zu): '%s'\n",
                     sizeof addr.sun_path - 1, opt.socket_path.c_str());
        return 1;
    }
    std::memcpy(addr.sun_path, opt.socket_path.c_str(), opt.socket_path.size() + 1);

    // Non-blocking: the accept loop drains until EAGAIN after each poll wake.
    const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
    if (listen_fd < 0) {
        std::fprintf(stderr, "asynth serve: socket(): %s\n", std::strerror(errno));
        return 1;
    }
    // A previous daemon that died hard leaves the path bound; one daemon per
    // path is the documented contract, so reclaim it.
    ::unlink(opt.socket_path.c_str());
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(listen_fd, 64) != 0) {
        std::fprintf(stderr, "asynth serve: cannot bind '%s': %s\n", opt.socket_path.c_str(),
                     std::strerror(errno));
        ::close(listen_fd);
        return 1;
    }

    // ---- self-pipes + signals ---------------------------------------------
    int sigpipe[2] = {-1, -1}, wakepipe[2] = {-1, -1};
    if (::pipe2(sigpipe, O_CLOEXEC | O_NONBLOCK) != 0 ||
        ::pipe2(wakepipe, O_CLOEXEC | O_NONBLOCK) != 0) {
        std::fprintf(stderr, "asynth serve: pipe2(): %s\n", std::strerror(errno));
        ::close(listen_fd);
        return 1;
    }
    g_signal_pipe_wr = sigpipe[1];
    struct sigaction sa{};
    sa.sa_handler = drain_signal_handler;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
    ::signal(SIGPIPE, SIG_IGN);

    // ---- engine + dispatcher ----------------------------------------------
    engine eng(opt.service);
    if (opt.verbose) {
        std::printf("asynth serve: listening on %s (store: %s, jobs: %zu, queue: %zu)\n",
                    opt.socket_path.c_str(),
                    eng.store().enabled() ? eng.store().dir().c_str() : "off",
                    eng.options().jobs, opt.service.queue_capacity);
        if (!eng.store().enabled() && !opt.service.store_dir.empty())
            std::printf("asynth serve: %s\n", eng.store().message().c_str());
        std::fflush(stdout);
    }
    const std::size_t high_water =
        opt.service.ready_high_water != 0
            ? opt.service.ready_high_water
            : std::max<std::size_t>(1, opt.service.queue_capacity * 3 / 4);
    obs::log_event(obs::log_level::info, "server.start")
        .field("socket", opt.socket_path)
        .field("version", asynth::version_string)
        .field("pid", static_cast<std::int64_t>(::getpid()))
        .field("jobs", static_cast<std::uint64_t>(eng.options().jobs))
        .field("queue_capacity", static_cast<std::uint64_t>(opt.service.queue_capacity))
        .field("high_water", static_cast<std::uint64_t>(high_water))
        .field("store", eng.store().enabled() ? eng.store().dir() : std::string("off"));

    std::mutex queue_m;
    std::condition_variable queue_cv;
    std::deque<queued_request> queue;
    bool stop_dispatch = false;
    std::atomic<std::size_t> in_flight{0};
    std::atomic<std::uint64_t> rejected{0};

    const bool tracing = !opt.trace_dir.empty();
    if (tracing) ::mkdir(opt.trace_dir.c_str(), 0777);  // EEXIST is fine

    std::thread dispatcher([&] {
        // One persistent pool for the daemon's lifetime (PR 4's pool reuse
        // contract); each popped batch is one run() epoch.  With --trace DIR
        // each drained batch runs under its own trace session and lands as
        // one Chrome-trace file, so a slow batch can be profiled post hoc.
        batch::work_stealing_pool pool(eng.options().jobs);
        // The dispatcher participates in every run() as pool worker 0, so it
        // shows up as a span track of its own; name it for the trace viewer.
        obs::name_thread("dispatcher");
        obs::trace_session session;
        std::uint64_t batch_seq = 0;
        std::vector<queued_request> chunk;
        for (;;) {
            chunk.clear();
            {
                std::unique_lock<std::mutex> lock(queue_m);
                queue_cv.wait(lock, [&] { return stop_dispatch || !queue.empty(); });
                if (queue.empty() && stop_dispatch) return;
                // Take everything queued: the pool spreads the batch over its
                // workers and new arrivals form the next batch.
                while (!queue.empty()) {
                    chunk.push_back(std::move(queue.front()));
                    queue.pop_front();
                }
            }
            if (tracing) session.start();
            pool.run(chunk.size(), [&](std::size_t i) {
                queued_request& qr = chunk[i];
                std::string resp = eng.execute(qr.req, ms_since(qr.arrival));
                send_line(*qr.conn, std::move(resp));
                qr.conn->pending.fetch_sub(1, std::memory_order_acq_rel);
                in_flight.fetch_sub(1, std::memory_order_acq_rel);
                poke(wakepipe[1]);
            });
            if (tracing) {
                session.stop();
                const std::string path =
                    opt.trace_dir + "/trace_batch_" + std::to_string(batch_seq++) + ".json";
                std::ofstream out(path, std::ios::binary);
                out << session.chrome_json();
            }
        }
    });

    // ---- main poll loop ----------------------------------------------------
    std::unordered_map<int, std::shared_ptr<connection>> conns;
    bool draining = false;
    bool listen_open = true;

    auto begin_drain = [&](const char* why) {
        if (draining) return;
        draining = true;
        // The listen socket stays open through the drain: supervisors keep
        // probing health/ready on fresh connections while in-flight work
        // finishes, and see ready:false instead of a connection refusal.
        // Synth requests are refused with an explicit "draining" error.
        obs::log_event(obs::log_level::info, "server.drain_begin").field("reason", why);
        if (opt.verbose) {
            std::printf("asynth serve: draining (%s)\n", why);
            std::fflush(stdout);
        }
    };

    /// One request line from one connection.
    auto handle_line = [&](const std::shared_ptr<connection>& conn, std::string_view text) {
        std::string error;
        std::uint64_t failed_id = 0;
        auto req = parse_request(text, opt.service.pipeline, error, &failed_id);
        if (!req) {
            send_line(*conn, error_line(failed_id, error));
            return;
        }
        // Inline ops answer from the poll thread: they never queue, so they
        // stay responsive while every worker is busy (or while draining).
        auto id_fields = [&](json_writer& line, const char* op) {
            line.field("op", op);
            if (req->id != 0) line.field("id", req->id);
            if (!req->req_id.empty()) line.field("req_id", req->req_id);
        };
        if (req->op == "ping") {
            json_writer line;
            id_fields(line, "ping");
            line.field("ok", true);
            line.field("draining", draining);
            line.field("uptime_s", ms_since(t_start) / 1e3);
            line.field("version", asynth::version_string);
            line.field("pid", static_cast<std::uint64_t>(::getpid()));
            send_line(*conn, std::move(line).finish());
            return;
        }
        if (req->op == "health") {
            // Liveness: "the process is up and answering".  Always ok:true --
            // a dead daemon answers nothing, which is the failure signal.
            json_writer line;
            id_fields(line, "health");
            line.field("ok", true);
            line.field("uptime_s", ms_since(t_start) / 1e3);
            line.field("version", asynth::version_string);
            line.field("pid", static_cast<std::uint64_t>(::getpid()));
            line.field("draining", draining);
            send_line(*conn, std::move(line).finish());
            return;
        }
        if (req->op == "ready") {
            // Readiness: "send me traffic".  ok mirrors ready, so a probe can
            // use the client's exit code directly (0 = ready, 1 = not).  The
            // depth is every admitted, unanswered request: the dispatcher
            // empties the queue into one pool batch, so queue.size() would
            // read 0 under a full batch of work.
            const std::size_t depth = in_flight.load(std::memory_order_acquire);
            const char* reason = draining ? "draining" : depth >= high_water ? "queue" : "";
            json_writer line;
            id_fields(line, "ready");
            line.field("ok", *reason == '\0');
            line.field("ready", *reason == '\0');
            line.field("queue_depth", static_cast<std::uint64_t>(depth));
            line.field("high_water", static_cast<std::uint64_t>(high_water));
            if (*reason != '\0') line.field("reason", reason);
            send_line(*conn, std::move(line).finish());
            return;
        }
        if (req->op == "stats") {
            send_line(*conn, eng.stats_line(req->want_log));
            return;
        }
        if (req->op == "metrics") {
            // Prometheus text exposition rides inside the line protocol as an
            // escaped "text" field; `asynth client --op metrics` unwraps it.
            json_writer line;
            id_fields(line, "metrics");
            line.field("ok", true);
            line.field("text", engine::metrics_text());
            send_line(*conn, std::move(line).finish());
            return;
        }
        if (req->op == "shutdown") {
            json_writer line;
            id_fields(line, "shutdown");
            line.field("ok", true);
            send_line(*conn, std::move(line).finish());
            begin_drain("shutdown request");
            return;
        }
        // op == "synth"
        obs::log_context log_ctx(req->req_id);  // stamps the admission events below
        if (draining) {
            send_line(*conn, error_line(req->id, "draining", req->req_id));
            return;
        }
        {
            std::lock_guard<std::mutex> lock(queue_m);
            if (queue.size() >= opt.service.queue_capacity) {
                rejected.fetch_add(1, std::memory_order_relaxed);
                obs::log_event(obs::log_level::warn, "server.queue_full")
                    .field("queue_capacity",
                           static_cast<std::uint64_t>(opt.service.queue_capacity));
                send_line(*conn, error_line(req->id, "queue full", req->req_id));
                return;
            }
            conn->pending.fetch_add(1, std::memory_order_acq_rel);
            in_flight.fetch_add(1, std::memory_order_acq_rel);
            queue.push_back({conn, std::move(*req), clock_type::now()});
        }
        queue_cv.notify_one();
    };

    std::vector<char> rdbuf(64 * 1024);
    for (;;) {
        std::vector<pollfd> fds;
        fds.push_back({sigpipe[0], POLLIN, 0});
        fds.push_back({wakepipe[0], POLLIN, 0});
        if (listen_open) fds.push_back({listen_fd, POLLIN, 0});
        std::vector<int> conn_fds;  // parallel to fds entries after the fixed ones
        for (const auto& [fd, conn] : conns)
            // A read_done conn stays open for pending responses but is no
            // longer polled (its fd would report readable-EOF forever).
            if (!conn->closed.load(std::memory_order_relaxed) &&
                !conn->read_done.load(std::memory_order_relaxed)) {
                fds.push_back({fd, POLLIN, 0});
                conn_fds.push_back(fd);
            }

        if (::poll(fds.data(), fds.size(), -1) < 0 && errno != EINTR) break;

        // Drain both self-pipes.  The *read* result decides whether a signal
        // arrived -- when the handler interrupts poll() itself (EINTR), the
        // byte is in the pipe but revents was never filled in.
        bool signal_seen = false;
        {
            char sink[256];
            ssize_t n;
            while ((n = ::read(sigpipe[0], sink, sizeof sink)) > 0) signal_seen = true;
            while (::read(wakepipe[0], sink, sizeof sink) > 0) {}
        }
        if (signal_seen) begin_drain("signal");

        // New connections.
        if (listen_open)
            for (const auto& pfd : fds)
                if (pfd.fd == listen_fd && (pfd.revents & POLLIN)) {
                    for (;;) {
                        const int cfd = ::accept4(listen_fd, nullptr, nullptr,
                                                  SOCK_CLOEXEC | SOCK_NONBLOCK);
                        if (cfd < 0) break;
                        auto conn = std::make_shared<connection>();
                        conn->fd = cfd;
                        conns.emplace(cfd, std::move(conn));
                    }
                }

        // Readable connections.
        const std::size_t fixed = fds.size() - conn_fds.size();
        for (std::size_t i = 0; i < conn_fds.size(); ++i) {
            const auto& pfd = fds[fixed + i];
            if (!(pfd.revents & (POLLIN | POLLHUP | POLLERR))) continue;
            auto it = conns.find(conn_fds[i]);
            if (it == conns.end()) continue;
            auto& conn = it->second;
            for (;;) {
                const ssize_t n = ::recv(conn->fd, rdbuf.data(), rdbuf.size(), 0);
                if (n > 0) {
                    if (conn->inbuf.size() + static_cast<std::size_t>(n) > max_inbuf) {
                        send_line(*conn, error_line(0, "request line too large"));
                        conn->closed.store(true, std::memory_order_relaxed);
                        break;
                    }
                    conn->inbuf.append(rdbuf.data(), static_cast<std::size_t>(n));
                    continue;
                }
                if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
                if (n < 0 && errno == EINTR) continue;
                if (n == 0)
                    conn->read_done.store(true, std::memory_order_relaxed);  // half-close
                else
                    conn->closed.store(true, std::memory_order_relaxed);  // hard error
                break;
            }
            std::size_t start = 0;
            for (;;) {
                const auto nl = conn->inbuf.find('\n', start);
                if (nl == std::string::npos) break;
                std::string_view text(conn->inbuf.data() + start, nl - start);
                if (!text.empty() && text.back() == '\r') text.remove_suffix(1);
                if (!text.empty()) handle_line(conn, text);
                start = nl + 1;
            }
            conn->inbuf.erase(0, start);
        }

        // Sweep connections that are done (no more requests coming, nothing
        // owed).  A half-closed conn is only reaped after its last response
        // went out.
        for (auto it = conns.begin(); it != conns.end();) {
            auto& conn = it->second;
            const bool finished = conn->closed.load(std::memory_order_relaxed) ||
                                  conn->read_done.load(std::memory_order_relaxed);
            if (finished && conn->pending.load(std::memory_order_acquire) == 0) {
                ::close(conn->fd);
                it = conns.erase(it);
            } else {
                ++it;
            }
        }

        if (draining && in_flight.load(std::memory_order_acquire) == 0) break;
    }

    // ---- shut the dispatcher down and report -------------------------------
    {
        std::lock_guard<std::mutex> lock(queue_m);
        stop_dispatch = true;
    }
    queue_cv.notify_all();
    dispatcher.join();

    for (auto& [fd, conn] : conns) ::close(fd);
    if (listen_open) ::close(listen_fd);
    ::unlink(opt.socket_path.c_str());
    g_signal_pipe_wr = -1;
    ::close(sigpipe[0]);
    ::close(sigpipe[1]);
    ::close(wakepipe[0]);
    ::close(wakepipe[1]);

    const double wall = ms_since(t_start) / 1e3;
    {
        const engine_stats s = eng.stats();
        obs::log_event(obs::log_level::info, "server.drained")
            .field("uptime_s", wall)
            .field("requests", s.requests)
            .field("completed", s.completed)
            .field("failed", s.failed)
            .field("rejected", rejected.load());
    }
    if (!opt.report_file.empty()) {
        std::ofstream out(opt.report_file);
        out << batch::report_json(eng.drain_report(wall));
        out.close();
        if (!out)
            std::fprintf(stderr, "asynth serve: cannot write '%s'\n", opt.report_file.c_str());
        else if (opt.verbose)
            std::printf("asynth serve: wrote %s\n", opt.report_file.c_str());
    }
    if (opt.verbose) {
        const engine_stats s = eng.stats();
        std::printf("asynth serve: drained cleanly after %.2f s: %llu requests "
                    "(%llu completed, %llu failed, %llu rejected), store %llu hits / %llu "
                    "misses, queue wait p50 %.2f ms p90 %.2f ms\n",
                    wall, static_cast<unsigned long long>(s.requests),
                    static_cast<unsigned long long>(s.completed),
                    static_cast<unsigned long long>(s.failed),
                    static_cast<unsigned long long>(rejected.load()),
                    static_cast<unsigned long long>(s.store_hits),
                    static_cast<unsigned long long>(s.store_misses), s.queue_wait_p50_ms,
                    s.queue_wait_p90_ms);
        std::fflush(stdout);
    }
    std::set_terminate(g_prev_terminate);
    return 0;
}

int run_client(const client_options& opt, const std::string& request_line,
               std::string& response) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (opt.socket_path.empty() || opt.socket_path.size() >= sizeof addr.sun_path) {
        response = "socket path empty or too long";
        return 2;
    }
    std::memcpy(addr.sun_path, opt.socket_path.c_str(), opt.socket_path.size() + 1);
    ::signal(SIGPIPE, SIG_IGN);

    // Retry the connect inside the window: "start the daemon, fire clients"
    // scripts race the bind otherwise.
    const auto deadline =
        clock_type::now() + std::chrono::duration_cast<clock_type::duration>(
                                std::chrono::duration<double>(opt.connect_timeout_seconds));
    int fd = -1;
    for (;;) {
        fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd < 0) {
            response = std::string("socket(): ") + std::strerror(errno);
            return 2;
        }
        if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) break;
        ::close(fd);
        fd = -1;
        if (clock_type::now() >= deadline) {
            response = "cannot connect to '" + opt.socket_path + "': " + std::strerror(errno);
            return 2;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }

    std::string line = request_line;
    line += '\n';
    std::size_t off = 0;
    while (off < line.size()) {
        const ssize_t n = ::send(fd, line.data() + off, line.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) continue;
            response = std::string("send(): ") + std::strerror(errno);
            ::close(fd);
            return 2;
        }
        off += static_cast<std::size_t>(n);
    }

    response.clear();
    char buf[64 * 1024];
    const auto resp_deadline =
        clock_type::now() + std::chrono::duration_cast<clock_type::duration>(
                                std::chrono::duration<double>(opt.response_timeout_seconds));
    for (;;) {
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            resp_deadline - clock_type::now());
        if (left.count() <= 0) {
            response = "timed out waiting for a response";
            ::close(fd);
            return 2;
        }
        pollfd pfd{fd, POLLIN, 0};
        const int pr = ::poll(&pfd, 1, static_cast<int>(std::min<long long>(
                                           left.count(), 1000 * 60 * 60)));
        if (pr < 0 && errno == EINTR) continue;
        if (pr <= 0) continue;
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) {
            response = "connection closed before a response";
            ::close(fd);
            return 2;
        }
        response.append(buf, static_cast<std::size_t>(n));
        const auto nl = response.find('\n');
        if (nl != std::string::npos) {
            response.resize(nl);
            break;
        }
    }
    ::close(fd);

    auto parsed = json_parse(response);
    if (!parsed) return 2;
    return parsed->get_bool("ok", false) ? 0 : 1;
}

}  // namespace asynth::service
