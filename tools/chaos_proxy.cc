// chaos_proxy — deterministic TCP fault injector for distributed sweeps
// (see src/dist/chaos.h and docs/runner.md "Chaos testing").
//
//   chaos_proxy --upstream HOST:PORT [--port N] [--seed N]
//               [--corrupt P] [--truncate P] [--duplicate P]
//               [--delay-max-ms N] [--partition-every-ms N]
//               [--partition-heal-ms N]
//
// Listens on --host/--port (0 = ephemeral), prints `listening on HOST:PORT`
// once bound, and relays every accepted connection to --upstream, rolling
// per-chunk fates (corrupt a byte, truncate mid-frame and kill the
// connection, duplicate, delay) from streams seeded by --seed — so a given
// seed replays the same abuse. --partition-every-ms severs ALL connections
// periodically and refuses new ones for --partition-heal-ms.
//
// SIGTERM/SIGINT stop the proxy; injection counters go to stderr. Exit 0.
#include <csignal>
#include <cstdio>
#include <exception>

#include <atomic>
#include <chrono>
#include <thread>

#include "dist/chaos.h"
#include "exp/option_set.h"

namespace {
std::atomic<bool> g_stop{false};
void on_term(int) { g_stop.store(true); }
}  // namespace

int main(int argc, char** argv) {
  std::string upstream;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::uint64_t seed = 1;
  pert::dist::ChaosConfig cfg;
  double delay_max_ms = 0;
  std::uint64_t partition_every_ms = 0;
  std::uint64_t partition_heal_ms = 500;
  bool quiet = false;

  pert::exp::cli::OptionSet opts("chaos_proxy");
  opts.opt("--upstream", &upstream, "coordinator address to relay to "
           "(required)", "HOST:PORT")
      .opt("--host", &host, "listen address", "ADDR")
      .opt("--port", &port, "listen port (0 = ephemeral, printed on stdout)")
      .opt("--seed", &seed, "master seed for the fate streams")
      .opt("--corrupt", &cfg.corrupt.p,
           "P(XOR-flip one byte) per relayed chunk", "P")
      .opt("--truncate", &cfg.truncate.p,
           "P(cut mid-frame and kill the connection) per chunk", "P")
      .opt("--duplicate", &cfg.duplicate.p, "P(forward a chunk twice)", "P")
      .opt("--delay-max-ms", &delay_max_ms,
           "hold each chunk uniform [0, MAX] milliseconds", "MAX")
      .opt("--partition-every-ms", &partition_every_ms,
           "sever every connection this often (0 = never)")
      .opt("--partition-heal-ms", &partition_heal_ms,
           "refuse new connections for this long after a partition")
      .flag("--quiet", &quiet, "suppress the exit stats line");
  opts.parse_or_exit(argc, argv, 1);
  if (upstream.empty()) {
    std::fprintf(stderr, "chaos_proxy: --upstream is required\n");
    return 1;
  }
  cfg.seed = seed;
  cfg.delay.max_delay = delay_max_ms / 1000.0;
  cfg.partition.period_ms = partition_every_ms;
  cfg.partition.heal_ms = partition_heal_ms;

  std::signal(SIGTERM, on_term);
  std::signal(SIGINT, on_term);
  std::signal(SIGPIPE, SIG_IGN);

  try {
    pert::dist::ChaosProxy proxy(upstream, cfg, host, port);
    std::printf("listening on %s:%u\n", host.c_str(),
                static_cast<unsigned>(proxy.port()));
    std::fflush(stdout);  // scripts parse this line; don't buffer
    proxy.start();
    while (!g_stop.load())
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    proxy.stop();
    if (!quiet) {
      const pert::dist::ChaosStats s = proxy.stats();
      std::fprintf(stderr,
                   "chaos_proxy: %llu conn(s) (%llu refused), %llu chunk(s): "
                   "%llu delayed, %llu corrupted, %llu truncated, "
                   "%llu duplicated; %llu partition(s)\n",
                   static_cast<unsigned long long>(s.connections),
                   static_cast<unsigned long long>(s.refused),
                   static_cast<unsigned long long>(s.chunks),
                   static_cast<unsigned long long>(s.delayed),
                   static_cast<unsigned long long>(s.corrupted),
                   static_cast<unsigned long long>(s.truncated),
                   static_cast<unsigned long long>(s.duplicated),
                   static_cast<unsigned long long>(s.partitions));
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "chaos_proxy: error: %s\n", e.what());
    return 1;
  }
}
