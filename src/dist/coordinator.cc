#include "dist/coordinator.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <deque>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "dist/protocol.h"
#include "runner/journal.h"
#include "runner/report.h"

namespace pert::dist {

namespace {

using runner::JobResult;
using runner::JsonValue;
using Clock = std::chrono::steady_clock;

/// One worker connection and its outstanding lease.
struct Conn {
  int fd = -1;
  FrameReader reader;
  bool helloed = false;
  bool dead = false;
  std::string label;
  std::vector<std::uint64_t> lease;  ///< cells leased, not yet delivered
  /// Liveness deadline: refreshed on every message received (results,
  /// requests, heartbeats alike). Past it, a non-empty lease is revoked; an
  /// idle conn is closed once the sweep is complete or draining (a vanished
  /// peer must not block shutdown).
  Clock::time_point deadline{};
  /// Horizon the deadline is refreshed to: the pre-hello grace until the
  /// handshake, then the heartbeat budget (heartbeat_ms · misses).
  std::uint64_t grace_ms = 0;

  explicit Conn(int f) : fd(f) {}
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
};

std::string batch_status(const std::vector<JobResult>& results) {
  std::size_t ok = 0;
  for (const JobResult& r : results) ok += r.ok ? 1 : 0;
  if (ok == results.size()) return "ok";
  return ok == 0 ? "failed" : "partial";
}

/// Scheduling-state snapshot recovered from `<journal>.ckpt`. Cell indices
/// only — the journal stays the sole authority on completed results.
struct Checkpoint {
  std::string name;
  std::uint64_t cells = 0;
  std::uint64_t grid = 0;
  std::vector<std::uint64_t> pending;  ///< pool order at snapshot time
  std::vector<std::uint64_t> leased;   ///< cells in some worker's lease
};

/// Parses a checkpoint file; nullopt when absent or undecodable (a torn or
/// stale checkpoint only costs scheduling order, never correctness, so it
/// degrades to "ignore").
std::optional<Checkpoint> load_checkpoint(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  try {
    const JsonValue doc = JsonValue::parse(text);
    Checkpoint ck;
    ck.name = doc.at("name").as_string();
    ck.cells = doc.at("cells").as_uint();
    ck.grid = doc.at("grid").as_uint();
    for (const JsonValue& v : doc.at("pending").as_array())
      ck.pending.push_back(v.as_uint());
    for (const JsonValue& l : doc.at("leases").as_array())
      for (const JsonValue& v : l.at("cells").as_array())
        ck.leased.push_back(v.as_uint());
    return ck;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace

Coordinator::Coordinator(CoordinatorOptions opts) : opts_(std::move(opts)) {
  if (opts_.journal_path.empty())
    throw std::runtime_error(
        "coordinator requires a journal path: streamed results must be "
        "crash-safe");
  listen_fd_ = listen_on(opts_.host, opts_.port, &port_);
}

Coordinator::~Coordinator() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

CoordinatorResult Coordinator::serve() {
  CoordinatorResult out;
  obs::Counter& m_steals = out.metrics.counter("dist.steals");
  obs::Counter& m_dups = out.metrics.counter("dist.dup_results_discarded");
  obs::Counter& m_revoked = out.metrics.counter("dist.lease_revoked");
  obs::Counter& m_connects = out.metrics.counter("dist.worker_connects");
  obs::Counter& m_rejects = out.metrics.counter("dist.worker_rejects");
  obs::Counter& m_results = out.metrics.counter("dist.results");
  obs::Counter& m_heartbeats = out.metrics.counter("dist.heartbeats");
  obs::Counter& m_ckpts = out.metrics.counter("dist.checkpoints");
  obs::Counter& m_resumed = out.metrics.counter("dist.resumed_cells");

  // --- grid identity & completion state (pinned lazily) -----------------
  bool pinned = false;
  std::string name;
  std::uint64_t total = 0;
  std::uint64_t base = 0;
  std::vector<JobResult> cells;
  std::vector<char> done;
  std::vector<char> queued;          // cell is in `pending`
  std::deque<std::uint64_t> pending;  // unleased, undone cells
  std::uint64_t ndone = 0;
  std::optional<runner::Journal> journal;

  auto pin = [&](const std::string& n, std::uint64_t cell_count,
                 std::uint64_t grid_hash) {
    name = n;
    total = cell_count;
    base = grid_hash;
    cells.resize(total);
    done.assign(total, 0);
    queued.assign(total, 0);
    pinned = true;
  };

  const std::string ckpt_path = checkpoint_path(opts_.journal_path);

  if (opts_.resume) {
    runner::JournalRecovery rec = runner::recover_journal(opts_.journal_path);
    if (rec.usable) {
      if (rec.header.shard.active())
        throw std::runtime_error(
            "coordinator journal " + opts_.journal_path +
            " records shard " + rec.header.shard.to_string() +
            "; the coordinator serves whole grids only — merge shard "
            "journals with sweep_merge instead");
      pin(rec.header.name, rec.header.jobs, rec.header.base);
      for (JobResult& r : rec.records) {
        if (r.cell >= total || done[r.cell] != 0) continue;
        done[r.cell] = 1;
        cells[r.cell] = std::move(r);
        ++ndone;
        ++out.resumed;
      }
      m_resumed.add(out.resumed);
      journal.emplace(runner::Journal::append_to(opts_.journal_path));
      if (opts_.verbose)
        std::fprintf(stderr,
                     "[%s] coordinator resumed %llu/%llu cells from %s\n",
                     name.c_str(), static_cast<unsigned long long>(ndone),
                     static_cast<unsigned long long>(total),
                     opts_.journal_path.c_str());
    }
  }
  if (pinned) {
    // Rebuild the pending pool. The journal alone would suffice (every
    // undone cell is pending), but the checkpoint restores the scheduling
    // SHAPE the killed coordinator had: its pool order first, then cells
    // that were leased out — those are queued LAST because a surviving
    // worker is likely still computing them and will re-offer the results,
    // so re-assigning them first would only buy duplicate work.
    auto enqueue = [&](std::uint64_t i) {
      if (i >= total || done[i] != 0 || queued[i] != 0) return;
      pending.push_back(i);
      queued[i] = 1;
    };
    std::optional<Checkpoint> ck =
        opts_.resume ? load_checkpoint(ckpt_path) : std::nullopt;
    if (ck && (ck->name != name || ck->cells != total || ck->grid != base)) {
      if (opts_.verbose)
        std::fprintf(stderr,
                     "[%s] ignoring stale checkpoint %s (different grid)\n",
                     name.c_str(), ckpt_path.c_str());
      ck.reset();
    }
    if (ck) {
      for (std::uint64_t i : ck->pending) enqueue(i);
      for (std::uint64_t i : ck->leased) enqueue(i);
      if (opts_.verbose)
        std::fprintf(stderr,
                     "[%s] checkpoint restored: %zu pending, %zu in-flight "
                     "cell(s) deprioritized\n",
                     name.c_str(), ck->pending.size(), ck->leased.size());
    }
    for (std::uint64_t i = 0; i < total; ++i) enqueue(i);
  }

  // --- connection bookkeeping -------------------------------------------
  std::vector<std::unique_ptr<Conn>> conns;

  auto leased_elsewhere = [&](std::uint64_t cell, const Conn* except) {
    for (const auto& c : conns) {
      if (c.get() == except || c->dead) continue;
      if (std::find(c->lease.begin(), c->lease.end(), cell) != c->lease.end())
        return true;
    }
    return false;
  };

  // Returns a dropped/revoked connection's unfinished cells to the pool
  // (unless a steal left another live lease covering them).
  auto release_lease = [&](Conn* c) {
    for (std::uint64_t cell : c->lease) {
      if (done[cell] != 0 || queued[cell] != 0) continue;
      if (leased_elsewhere(cell, c)) continue;
      pending.push_back(cell);
      queued[cell] = 1;
    }
    c->lease.clear();
  };

  auto drop = [&](Conn* c) {
    if (c->dead) return;
    release_lease(c);
    c->dead = true;
  };

  auto send = [&](Conn* c, const JsonValue& msg) {
    try {
      send_message(c->fd, msg);
    } catch (const std::exception&) {
      drop(c);  // vanished peer: EOF on its fd will confirm
    }
  };

  auto live_workers = [&] {
    std::size_t n = 0;
    for (const auto& c : conns) n += (!c->dead && c->helloed) ? 1 : 0;
    return n;
  };

  bool draining = false;
  auto complete = [&] { return pinned && ndone == total; };

  // --- checkpointing ------------------------------------------------------
  std::uint64_t results_since_ckpt = 0;
  auto save_checkpoint = [&] {
    if (!pinned || opts_.checkpoint_every == 0) return;
    JsonValue doc{JsonValue::Object{}};
    doc.set("name", JsonValue(name));
    doc.set("cells", JsonValue(total));
    doc.set("grid", JsonValue(base));
    JsonValue::Array pend;
    pend.reserve(pending.size());
    for (std::uint64_t i : pending) pend.push_back(JsonValue(i));
    doc.set("pending", JsonValue(std::move(pend)));
    JsonValue::Array leases;
    for (const auto& c : conns) {
      if (c->dead || c->lease.empty()) continue;
      JsonValue l{JsonValue::Object{}};
      l.set("worker", JsonValue(c->label));
      JsonValue::Array lc;
      lc.reserve(c->lease.size());
      for (std::uint64_t i : c->lease) lc.push_back(JsonValue(i));
      l.set("cells", JsonValue(std::move(lc)));
      leases.push_back(std::move(l));
    }
    doc.set("leases", JsonValue(std::move(leases)));
    runner::atomic_write_file(ckpt_path, doc.dump() + "\n");
    m_ckpts.add(1);
    results_since_ckpt = 0;
  };

  // --- message handling --------------------------------------------------
  auto on_hello = [&](Conn* c, const JsonValue& msg) {
    const HelloMsg h = parse_hello(msg);
    if (h.version != kProtocolVersion) {
      m_rejects.add(1);
      send(c, make_reject("protocol version mismatch: coordinator speaks v" +
                          std::to_string(kProtocolVersion) +
                          ", worker offered v" + std::to_string(h.version) +
                          " — upgrade the older side"));
      drop(c);
      return;
    }
    if (!pinned) {
      pin(h.name, h.cells, h.grid);
      for (std::uint64_t i = 0; i < total; ++i) {
        pending.push_back(i);
        queued[i] = 1;
      }
      runner::JournalHeader hdr;
      hdr.name = name;
      hdr.jobs = total;
      hdr.base = base;
      hdr.grid = base;  // whole grid: identity == base hash
      journal.emplace(
          runner::Journal::start_fresh(opts_.journal_path, hdr));
      save_checkpoint();
    } else if (h.name != name || h.cells != total || h.grid != base) {
      m_rejects.add(1);
      send(c, make_reject("grid mismatch: coordinator serves \"" + name +
                          "\" (" + std::to_string(total) +
                          " cells); worker offered \"" + h.name + "\" (" +
                          std::to_string(h.cells) + ")"));
      drop(c);
      return;
    }
    c->helloed = true;
    c->label = h.worker.empty() ? "worker" : h.worker;
    // From here on liveness is heartbeat-based: the worker beats every
    // heartbeat_ms even while computing, so the deadline horizon shrinks
    // from the generous pre-hello grace to a few missed beats.
    if (opts_.heartbeat_ms > 0)
      c->grace_ms = opts_.heartbeat_ms * std::max<std::uint64_t>(
                                             1, opts_.heartbeat_misses);
    c->deadline = Clock::now() + std::chrono::milliseconds(c->grace_ms);
    m_connects.add(1);
    if (opts_.verbose)
      std::fprintf(stderr, "[%s] %s connected (%llu/%llu cells done)\n",
                   name.c_str(), c->label.c_str(),
                   static_cast<unsigned long long>(ndone),
                   static_cast<unsigned long long>(total));
    WelcomeMsg w;
    w.done = ndone;
    w.heartbeat_ms = opts_.heartbeat_ms;
    send(c, make_welcome(w));
  };

  auto on_request = [&](Conn* c) {
    if (complete() || draining) {
      send(c, make_drain());
      return;
    }
    if (!pending.empty()) {
      // 1/(2·workers) of the remaining pool, so late joiners and stealers
      // still find work; bounded to keep leases revocable in useful time.
      const std::size_t chunk = std::clamp<std::size_t>(
          pending.size() / (2 * std::max<std::size_t>(1, live_workers())), 1,
          64);
      std::vector<std::uint64_t> assign;
      assign.reserve(chunk);
      for (std::size_t i = 0; i < chunk && !pending.empty(); ++i) {
        const std::uint64_t cell = pending.front();
        pending.pop_front();
        queued[cell] = 0;
        assign.push_back(cell);
      }
      c->lease.insert(c->lease.end(), assign.begin(), assign.end());
      send(c, make_assign(assign));
      return;
    }
    // Pool empty: steal the back half of the largest outstanding lease.
    // The victim keeps its copy — duplicates are pure-function re-runs and
    // the first result wins — so a slow or dying worker cannot stall the
    // tail of the sweep.
    Conn* victim = nullptr;
    for (const auto& other : conns) {
      if (other.get() == c || other->dead || other->lease.empty()) continue;
      if (victim == nullptr || other->lease.size() > victim->lease.size())
        victim = other.get();
    }
    if (victim != nullptr) {
      const std::size_t take = (victim->lease.size() + 1) / 2;
      std::vector<std::uint64_t> stolen(victim->lease.end() - take,
                                        victim->lease.end());
      c->lease.insert(c->lease.end(), stolen.begin(), stolen.end());
      m_steals.add(1);
      if (opts_.verbose)
        std::fprintf(stderr, "[%s] %s steals %zu cell(s) from %s\n",
                     name.c_str(), c->label.c_str(), stolen.size(),
                     victim->label.c_str());
      send(c, make_assign(stolen));
      return;
    }
    send(c, make_wait(opts_.wait_ms));
  };

  auto on_result = [&](Conn* c, const JsonValue& msg) {
    JobResult r = parse_result(msg);
    if (!pinned || r.cell >= total) {
      send(c, make_reject("result for unknown cell"));
      drop(c);
      return;
    }
    const std::uint64_t cell = r.cell;
    if (done[cell] != 0) {
      // Lost a steal race, or a re-offer after a reconnect/coordinator
      // restart; byte-identical to the accepted copy either way. Still
      // acked so the worker can drop its buffered copy.
      ++out.superseded;
      m_dups.add(1);
      send(c, make_ack(cell));
      return;
    }
    done[cell] = 1;
    queued[cell] = 0;
    cells[cell] = std::move(r);
    ++ndone;
    ++out.completed;
    m_results.add(1);
    // Journal (one fsynced write) BEFORE acking: an acked result may be
    // dropped by the worker, so it must already be durable here.
    journal->append(cells[cell]);
    send(c, make_ack(cell));
    for (auto& other : conns)
      other->lease.erase(
          std::remove(other->lease.begin(), other->lease.end(), cell),
          other->lease.end());
    if (++results_since_ckpt >= opts_.checkpoint_every) save_checkpoint();
    if (opts_.verbose)
      std::fprintf(stderr, "[%s] %llu/%llu %s (%s)\n", name.c_str(),
                   static_cast<unsigned long long>(ndone),
                   static_cast<unsigned long long>(total),
                   cells[cell].key.c_str(), c->label.c_str());
  };

  auto handle = [&](Conn* c, const JsonValue& msg) {
    const std::string_view type = message_type(msg);
    if (type == "hello") {
      on_hello(c, msg);
    } else if (type == "request") {
      if (!c->helloed) {
        send(c, make_reject("request before hello"));
        drop(c);
      } else {
        on_request(c);
      }
    } else if (type == "result") {
      on_result(c, msg);
    } else if (type == "heartbeat") {
      m_heartbeats.add(1);  // deadline already refreshed by the recv path
    } else if (type == "bye") {
      drop(c);
    } else {
      send(c, make_reject("unknown message type"));
      drop(c);
    }
  };

  // --- serve loop ---------------------------------------------------------
  std::vector<pollfd> fds;
  for (;;) {
    const bool drain_seen =
        opts_.drain != nullptr && opts_.drain->load(std::memory_order_relaxed);
    if (drain_seen && !draining) {
      draining = true;
      save_checkpoint();  // snapshot the state the partial report reflects
    }
    if ((complete() || draining) && conns.empty()) break;

    // Revoke silent leases: no heartbeat, result, or other traffic inside
    // the liveness horizon means the worker is hung (a crashed one already
    // surfaced as EOF).
    const auto now = Clock::now();
    for (auto& c : conns) {
      if (c->dead || now < c->deadline) continue;
      if (!c->lease.empty()) {
        if (opts_.verbose)
          std::fprintf(stderr,
                       "[%s] lease of %zu cell(s) to %s timed out "
                       "(no heartbeat)\n",
                       name.c_str(), c->lease.size(), c->label.c_str());
        ++out.revoked;
        m_revoked.add(1);
        drop(c.get());
      } else if (complete() || draining) {
        drop(c.get());  // idle straggler; don't let it block shutdown
      }
    }
    conns.erase(std::remove_if(conns.begin(), conns.end(),
                               [](const auto& c) { return c->dead; }),
                conns.end());
    if ((complete() || draining) && conns.empty()) break;

    fds.clear();
    fds.push_back({listen_fd_, POLLIN, 0});
    for (auto& c : conns) fds.push_back({c->fd, POLLIN, 0});
    const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 100);
    if (rc < 0) {
      if (errno == EINTR) continue;  // e.g. SIGTERM setting the drain flag
      throw std::runtime_error("coordinator poll failed");
    }

    if ((fds[0].revents & POLLIN) != 0) {
      const int cfd = ::accept(listen_fd_, nullptr, nullptr);
      if (cfd >= 0) {
        auto c = std::make_unique<Conn>(cfd);
        c->grace_ms = opts_.lease_ms;
        c->deadline =
            Clock::now() + std::chrono::milliseconds(c->grace_ms);
        conns.push_back(std::move(c));
      }
    }
    // fds[1..] mirror the conns present at poll() time; a connection
    // accepted above polls on the next iteration.
    for (std::size_t i = 0; i + 1 < fds.size(); ++i) {
      Conn* c = conns[i].get();
      if (c->dead || (fds[i + 1].revents & (POLLIN | POLLHUP | POLLERR)) == 0)
        continue;
      char buf[65536];
      const ::ssize_t n = ::recv(c->fd, buf, sizeof buf, 0);
      if (n <= 0) {
        if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
        if (opts_.verbose && !c->lease.empty())
          std::fprintf(stderr,
                       "[%s] %s disconnected with %zu cell(s) leased\n",
                       name.c_str(), c->label.c_str(), c->lease.size());
        drop(c);
        continue;
      }
      try {
        c->reader.feed(std::string_view(buf, static_cast<std::size_t>(n)));
        c->deadline =
            Clock::now() + std::chrono::milliseconds(c->grace_ms);
        while (auto msg = c->reader.next()) {
          handle(c, *msg);
          if (c->dead) break;
        }
      } catch (const std::exception& e) {
        // Includes per-frame CRC mismatches: one corrupted byte anywhere in
        // the stream drops the connection; the worker reconnects and
        // re-offers whatever it had in flight.
        if (opts_.verbose)
          std::fprintf(stderr, "[%s] dropping %s: %s\n", name.c_str(),
                       c->label.c_str(), e.what());
        drop(c);
      }
    }
    conns.erase(std::remove_if(conns.begin(), conns.end(),
                               [](const auto& c) { return c->dead; }),
                conns.end());
  }

  // Stop listening BEFORE assembling the report: a worker that missed its
  // drain (severed link) and reconnects must see ECONNREFUSED — and give up
  // or fall back — not a kernel-accepted connection nobody will ever serve.
  ::close(listen_fd_);
  listen_fd_ = -1;

  // --- report -------------------------------------------------------------
  runner::RunReport& rep = out.report;
  rep.name = name;
  rep.threads = 1;
  rep.grid = base;
  rep.grid_cells = total;
  for (std::uint64_t i = 0; i < total; ++i)
    if (done[i] != 0) rep.results.push_back(std::move(cells[i]));
  for (const JobResult& r : rep.results) rep.cpu_ms += r.wall_ms;
  rep.status = ndone == total ? batch_status(rep.results)
               : rep.results.empty() ? "failed"
                                     : "partial";
  out.drained = draining && !complete();
  if (!opts_.json_path.empty() && pinned)
    runner::write_report(rep, opts_.json_path);
  if (complete())
    std::remove(ckpt_path.c_str());  // journal alone restores a done grid
  if (!opts_.dist_metrics_path.empty())
    runner::atomic_write_file(opts_.dist_metrics_path,
                              runner::to_json(out.metrics).dump(2) + "\n");
  if (opts_.verbose && pinned)
    std::fprintf(stderr, "[%s] coordinator done: %llu/%llu cells (%s)\n",
                 name.c_str(), static_cast<unsigned long long>(ndone),
                 static_cast<unsigned long long>(total), rep.status.c_str());
  return out;
}

}  // namespace pert::dist
