// sweep_coordinator — long-lived work-stealing coordinator for distributed
// sweeps (see src/dist/coordinator.h and docs/runner.md "Distributed
// sweeps").
//
//   sweep_coordinator --journal PATH [--json PATH] [--port N] [--resume] ...
//
// Prints `listening on HOST:PORT` once bound (with --port 0 this is the
// only way to learn the ephemeral port), then serves until the grid
// completes. SIGTERM/SIGINT drain gracefully: no new assignments, in-flight
// results still journal, a status:"partial" report is written.
//
// Crash recovery: results are journaled (fsync per record) and scheduling
// state is checkpointed to `<journal>.ckpt`; after a SIGKILL, re-running
// with `--resume` (same --journal, same --port so workers reconnect)
// continues the sweep with no lost or double-counted cells.
//
// Exit codes: 0 = grid complete, 3 = drained before completion, 1 = error.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>

#include "dist/coordinator.h"
#include "exp/option_set.h"

namespace {
std::atomic<bool> g_drain{false};
void on_term(int) { g_drain.store(true); }
}  // namespace

int main(int argc, char** argv) {
  pert::dist::CoordinatorOptions copts;
  std::string host = "127.0.0.1";
  bool quiet = false;

  pert::exp::cli::OptionSet opts("sweep_coordinator");
  opts.opt("--journal", &copts.journal_path,
           "crash-safe journal results stream into (required)", "PATH")
      .opt("--json", &copts.json_path, "write the final RunReport here",
           "PATH")
      .opt("--host", &host, "listen address", "ADDR")
      .opt("--port", &copts.port,
           "listen port (0 = ephemeral, printed on stdout)")
      .flag("--resume", &copts.resume,
            "recover completed cells from --journal (and scheduling state "
            "from its .ckpt) before serving")
      .opt("--lease-ms", &copts.lease_ms,
           "liveness budget before a worker's hello (heartbeats take over "
           "after)")
      .opt("--wait-ms", &copts.wait_ms,
           "worker backoff when nothing is assignable")
      .opt("--heartbeat-ms", &copts.heartbeat_ms,
           "heartbeat cadence advertised to workers (0 = activity timeout "
           "only)")
      .opt("--heartbeat-misses", &copts.heartbeat_misses,
           "silent heartbeats before a lease is revoked")
      .opt("--checkpoint-every", &copts.checkpoint_every,
           "snapshot scheduling state every N results (0 = never)")
      .opt("--dist-metrics", &copts.dist_metrics_path,
           "write the coordinator's dist.* metric registry here as JSON",
           "PATH")
      .flag("--quiet", &quiet, "suppress per-cell progress on stderr");
  opts.parse_or_exit(argc, argv, 1);
  copts.host = host;
  copts.verbose = !quiet;
  copts.drain = &g_drain;

  std::signal(SIGTERM, on_term);
  std::signal(SIGINT, on_term);
  // A worker dying mid-send must surface as an I/O error, not kill us.
  std::signal(SIGPIPE, SIG_IGN);

  try {
    pert::dist::Coordinator coord(copts);
    std::printf("listening on %s:%u\n", copts.host.c_str(),
                static_cast<unsigned>(coord.port()));
    std::fflush(stdout);  // workers script against this line; don't buffer
    const pert::dist::CoordinatorResult res = coord.serve();
    if (res.drained) {
      std::fprintf(stderr,
                   "sweep_coordinator: drained with %zu/%llu cells done\n",
                   res.report.results.size(),
                   static_cast<unsigned long long>(res.report.grid_cells));
      return 3;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep_coordinator: error: %s\n", e.what());
    return 1;
  }
}
