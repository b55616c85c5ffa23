#include "dist/worker.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "dist/protocol.h"
#include "exp/option_set.h"
#include "runner/journal.h"
#include "runner/runner.h"
#include "runner/seed.h"
#include "sim/random.h"

namespace pert::dist {

using runner::JsonValue;

namespace {

/// Side thread that sends heartbeat frames on a shared fd at a fixed
/// cadence, so the coordinator sees liveness even while the main thread is
/// deep inside run_job on a long cell. Sends share `send_mu` with the main
/// thread; a send failure just stops the pump — the main thread observes
/// the broken socket itself on its next send/recv.
class HeartbeatPump {
 public:
  HeartbeatPump(int fd, std::mutex& send_mu, std::uint64_t interval_ms,
                std::atomic<std::uint64_t>& beats)
      : fd_(fd), send_mu_(send_mu), interval_ms_(interval_ms), beats_(beats) {
    if (interval_ms_ > 0) thread_ = std::thread([this] { loop(); });
  }
  ~HeartbeatPump() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  HeartbeatPump(const HeartbeatPump&) = delete;
  HeartbeatPump& operator=(const HeartbeatPump&) = delete;

 private:
  void loop() {
    std::unique_lock<std::mutex> lk(mu_);
    while (!stop_) {
      if (cv_.wait_for(lk, std::chrono::milliseconds(interval_ms_),
                       [this] { return stop_; }))
        return;
      lk.unlock();
      try {
        std::lock_guard<std::mutex> send_lk(send_mu_);
        send_message(fd_, make_heartbeat());
      } catch (const std::exception&) {
        return;  // dead socket; main thread will notice on its own
      }
      beats_.fetch_add(1, std::memory_order_relaxed);
      lk.lock();
    }
  }

  int fd_;
  std::mutex& send_mu_;
  std::uint64_t interval_ms_;
  std::atomic<std::uint64_t>& beats_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// Thrown when the coordinator explicitly refuses this worker (wrong grid,
/// wrong protocol version): retrying cannot help, so it must escape the
/// reconnect loop.
struct RejectedError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

}  // namespace

WorkerSummary run_worker(const std::string& address, const std::string& name,
                         const std::vector<runner::Job>& jobs,
                         const WorkerOptions& opts) {
  // The grid hash the coordinator pins/validates is the shard-independent
  // journal identity, computed from the same (key, seed) fold a local
  // `--journal` run would use.
  const runner::JournalHeader ident = runner::journal_header(name, jobs);
  const char* who = opts.label.empty() ? "worker" : opts.label.c_str();

  WorkerSummary out;
  obs::Counter& m_reconnects = out.metrics.counter("dist.reconnects");
  obs::Counter& m_reoffered = out.metrics.counter("dist.results_reoffered");
  obs::Counter& m_heartbeats = out.metrics.counter("dist.heartbeats");
  obs::Counter& m_backoff_ms = out.metrics.counter("dist.backoff_ms");
  obs::Counter& m_delivered = out.metrics.counter("dist.results_delivered");
  obs::Counter& m_conn_fail = out.metrics.counter("dist.connect_failures");

  // Jitter stream for backoff sleeps. Deterministic given the options (the
  // default seed derives from the grid identity and label) so chaos tests
  // replay the same schedule; it perturbs wall-clock only, never results.
  sim::Rng jitter(opts.backoff_seed != 0
                      ? opts.backoff_seed
                      : runner::derive_seed(ident.base,
                                            "dist/backoff/" + opts.label));

  std::deque<runner::JobResult> outbox;  // computed, not yet acked
  std::deque<std::uint64_t> lease;       // assigned, not yet computed
  std::atomic<std::uint64_t> beats{0};
  std::uint32_t failures = 0;
  std::uint64_t prev_sleep_ms = opts.backoff_base_ms;
  bool connected_before = false;

  // Exponential backoff with decorrelated jitter: sleep ~ uniform
  // [base, 3·previous], capped. The window grows exponentially in
  // expectation but desynchronizes across workers, so a coordinator coming
  // back from a restart is not hit by a thundering herd.
  auto backoff_or_give_up = [&]() -> bool {
    ++failures;
    m_conn_fail.add(1);
    if (failures > opts.max_reconnects) return false;
    const std::uint64_t lo = std::max<std::uint64_t>(1, opts.backoff_base_ms);
    const std::uint64_t hi =
        std::max(lo + 1, 3 * std::max(prev_sleep_ms, lo));
    const std::uint64_t ms =
        std::min(std::max<std::uint64_t>(1, opts.backoff_cap_ms),
                 jitter.uniform_int(lo, hi));
    prev_sleep_ms = ms;
    m_backoff_ms.add(ms);
    if (opts.progress)
      std::fprintf(stderr,
                   "  [%s] coordinator unreachable (attempt %u/%u); retrying "
                   "in %llu ms\n",
                   who, static_cast<unsigned>(failures),
                   static_cast<unsigned>(opts.max_reconnects),
                   static_cast<unsigned long long>(ms));
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    return true;
  };

  auto compute_cell = [&](std::uint64_t cell) {
    runner::JobResult r =
        runner::run_job(jobs[cell], opts.max_retries, opts.timeout_ms);
    r.cell = cell;
    if (opts.progress)
      std::fprintf(stderr, "  [%s] cell %llu %s (%s)\n", who,
                   static_cast<unsigned long long>(cell), r.key.c_str(),
                   std::string(runner::to_string(r.status)).c_str());
    outbox.push_back(std::move(r));
  };

  for (;;) {  // one iteration = one connection attempt / session
    int fd = -1;
    try {
      fd = dial(address);
    } catch (const std::exception&) {
      if (backoff_or_give_up()) continue;
      break;  // budget exhausted -> gave_up below
    }

    std::mutex send_mu;
    FrameReader reader;
    bool drained = false;

    try {
      if (opts.recv_timeout_ms > 0) {
        // A coordinator silent past this (it acks, assigns, and expects
        // heartbeats on second-scale cadences) is as good as dead; surface
        // it as a recv error so the reconnect path takes over.
        timeval tv{};
        tv.tv_sec = static_cast<time_t>(opts.recv_timeout_ms / 1000);
        tv.tv_usec =
            static_cast<suseconds_t>((opts.recv_timeout_ms % 1000) * 1000);
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
      }

      auto send_locked = [&](const JsonValue& msg) {
        std::lock_guard<std::mutex> lk(send_mu);
        send_message(fd, msg);
      };

      HelloMsg hello;
      hello.name = name;
      hello.cells = jobs.size();
      hello.grid = ident.base;
      hello.worker = opts.label;
      send_locked(make_hello(hello));

      {
        auto reply = recv_message(fd, reader);
        if (!reply)
          throw std::runtime_error("coordinator closed during handshake");
        const std::string_view type = message_type(*reply);
        if (type == "reject") {
          const JsonValue* err = reply->find("error");
          throw RejectedError(
              "coordinator rejected worker: " +
              (err != nullptr && err->is_string()
                   ? err->as_string()
                   : std::string("(no reason)")));
        }
        if (type != "welcome")
          throw std::runtime_error(
              "protocol error: expected welcome, got \"" + std::string(type) +
              "\"");
        const WelcomeMsg w = parse_welcome(*reply);
        if (w.version != kProtocolVersion)
          throw RejectedError("coordinator speaks protocol v" +
                              std::to_string(w.version) + ", this worker v" +
                              std::to_string(kProtocolVersion) +
                              " — upgrade the older side");

        if (connected_before) {
          ++out.reconnects;
          m_reconnects.add(1);
          if (opts.progress)
            std::fprintf(stderr, "  [%s] reconnected (%zu result(s) to "
                         "re-offer, %zu cell(s) still leased)\n",
                         who, outbox.size(), lease.size());
        }
        connected_before = true;
        failures = 0;
        prev_sleep_ms = opts.backoff_base_ms;

        HeartbeatPump pump(fd, send_mu, w.heartbeat_ms, beats);

        // Streams every buffered result and blocks for the per-result ack;
        // only an acked result leaves the buffer, so anything lost on a
        // dying connection is re-offered on the next one.
        auto flush_outbox = [&](bool reoffer) {
          while (!outbox.empty()) {
            send_locked(make_result(outbox.front()));
            auto resp = recv_message(fd, reader);
            if (!resp)
              throw std::runtime_error("connection closed awaiting ack");
            const std::string_view rtype = message_type(*resp);
            if (rtype == "reject") {
              const JsonValue* err = resp->find("error");
              throw RejectedError(
                  "coordinator rejected result: " +
                  (err != nullptr && err->is_string()
                       ? err->as_string()
                       : std::string("(no reason)")));
            }
            if (rtype != "ack" ||
                parse_ack(*resp) != outbox.front().cell)
              throw std::runtime_error(
                  "protocol error: expected ack for cell " +
                  std::to_string(outbox.front().cell));
            ++out.completed;
            m_delivered.add(1);
            if (reoffer) {
              ++out.reoffered;
              m_reoffered.add(1);
            }
            outbox.pop_front();
          }
        };

        flush_outbox(/*reoffer=*/true);

        for (;;) {
          while (!lease.empty()) {
            const std::uint64_t cell = lease.front();
            lease.pop_front();
            compute_cell(cell);
            flush_outbox(/*reoffer=*/false);
          }
          send_locked(make_request());
          auto reply2 = recv_message(fd, reader);
          if (!reply2)
            throw std::runtime_error("connection closed awaiting assignment");
          const std::string_view type2 = message_type(*reply2);
          if (type2 == "drain") {
            send_locked(make_bye());
            out.drained = true;
            drained = true;
            break;
          }
          if (type2 == "wait") {
            std::uint64_t ms = 250;
            if (const JsonValue* v = reply2->find("ms");
                v != nullptr && v->is_uint())
              ms = v->as_uint();
            std::this_thread::sleep_for(std::chrono::milliseconds(ms));
            continue;
          }
          if (type2 != "assign")
            throw std::runtime_error(
                "protocol error: expected assign/wait/drain, got \"" +
                std::string(type2) + "\"");
          for (std::uint64_t cell : parse_assign(*reply2)) {
            if (cell >= jobs.size())
              throw std::runtime_error("coordinator assigned cell " +
                                       std::to_string(cell) +
                                       " beyond the grid");
            lease.push_back(cell);
          }
        }
      }
    } catch (const RejectedError&) {
      ::close(fd);
      throw;  // explicit refusal: retrying cannot help
    } catch (const std::exception& e) {
      ::close(fd);
      if (opts.progress)
        std::fprintf(stderr, "  [%s] connection lost: %s\n", who, e.what());
      // The link is down but the lease is real work: keep computing into
      // the bounded outbox so a coordinator restart costs no progress, then
      // reconnect and re-offer. Cells beyond the bound are abandoned — the
      // coordinator will re-lease them (backpressure, not unbounded memory).
      while (!lease.empty() && outbox.size() < opts.outbox_max) {
        const std::uint64_t cell = lease.front();
        lease.pop_front();
        compute_cell(cell);
      }
      if (!lease.empty()) {
        if (opts.progress)
          std::fprintf(stderr,
                       "  [%s] outbox full; abandoning %zu leased cell(s)\n",
                       who, lease.size());
        lease.clear();
      }
      if (backoff_or_give_up()) continue;
      break;  // budget exhausted -> gave_up below
    }
    ::close(fd);
    if (drained) break;
  }

  m_heartbeats.add(beats.load(std::memory_order_relaxed));
  if (!out.drained) {
    out.gave_up = true;
    if (opts.progress)
      std::fprintf(stderr,
                   "  [%s] giving up on %s after %u failed attempt(s); %zu "
                   "computed-but-undelivered result(s) discarded\n",
                   who, address.c_str(),
                   static_cast<unsigned>(opts.max_reconnects), outbox.size());
  } else if (opts.progress) {
    std::fprintf(stderr,
                 "  [%s] worker done: %llu cell(s) delivered (%llu "
                 "re-offered, %llu reconnect(s))\n",
                 who, static_cast<unsigned long long>(out.completed),
                 static_cast<unsigned long long>(out.reoffered),
                 static_cast<unsigned long long>(out.reconnects));
  }
  return out;
}

void add_shard_flag(exp::cli::OptionSet& opts, ShardSpec& out,
                    const std::string& units) {
  opts.opt("--shard", &out, parse_shard,
           "run only the " + units + " with index % N == K (0-based)", "K/N");
}

void add_run_flags(exp::cli::OptionSet& opts, RunFlags& out) {
  opts.opt("--jobs", &out.runner.threads,
           "cells run in parallel (0 = all cores)")
      .opt("--json", &out.json, "write the RunReport here as JSON", "PATH")
      .opt("--journal", &out.runner.journal_path,
           "journal every completed cell here (crash-safe)", "PATH")
      .flag("--resume", &out.runner.resume,
            "recover completed cells from --journal, run only the rest");
  add_shard_flag(opts, out.runner.shard, "grid cells");
  opts.opt("--worker", &out.worker,
           "serve the cells to this sweep_coordinator instead", "HOST:PORT")
      .check([&out] {
        if (out.runner.resume && out.runner.journal_path.empty())
          throw std::invalid_argument("--resume requires --journal PATH");
        if (!out.worker.empty() &&
            (out.runner.shard.active() || out.runner.resume))
          throw std::invalid_argument(
              "--worker excludes --shard and --resume (the coordinator owns "
              "cell assignment and the journal)");
      });
}

std::optional<runner::RunReport> run_or_serve(
    const std::vector<runner::Job>& jobs, const runner::RunnerOptions& ropts,
    const std::string& worker) {
  if (!worker.empty()) {
    WorkerOptions wopts;
    wopts.label = ropts.name;
    const WorkerSummary ws = run_worker(worker, ropts.name, jobs, wopts);
    if (!ws.gave_up) {
      std::fprintf(stderr, "  worker served %llu cell(s) to %s\n",
                   static_cast<unsigned long long>(ws.completed),
                   worker.c_str());
      return std::nullopt;
    }
    std::fprintf(stderr,
                 "  worker gave up on %s; falling back to standalone run\n",
                 worker.c_str());
  }
  return runner::ExperimentRunner(ropts).run(jobs);
}

}  // namespace pert::dist
