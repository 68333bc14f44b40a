// ookamid — kernel-serving daemon.
//
//   ookamid [--port P] [--queue-depth D] [--batch B] [--threads T]
//           [--metrics-out FILE] [--flight-dump FILE]
//
// Flags override the OOKAMI_SERVE_* environment; defaults are port
// 34127, depth 64, batch 16.  `--port 0` binds an ephemeral port; the
// daemon always prints "ookamid: listening on HOST:PORT" so scripts can
// discover it.  SIGTERM/SIGINT drain: stop accepting, finish the
// queue, answer in-flight clients, optionally flush the metrics
// registry to --metrics-out, then exit 0.  SIGQUIT takes a
// flight-recorder dump (to --flight-dump when set, else stdout)
// without shutting down; a request refused by a full admission queue
// dumps to the same file automatically.  An unknown flag exits 2.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>

#include "ookami/common/cli.hpp"
#include "ookami/serve/server.hpp"

int main(int argc, char** argv) {
  using namespace ookami;

  const Cli cli(argc, argv, {"help"});
  if (const auto bad =
          cli.unknown({"port", "queue-depth", "batch", "threads", "metrics-out", "flight-dump"});
      !bad.empty()) {
    std::fprintf(stderr, "ookamid: unknown option --%s (see --help)\n", bad.front().c_str());
    return 2;
  }
  if (cli.has("help")) {
    std::printf(
        "usage: ookamid [--port P] [--queue-depth D] [--batch B] [--threads T]\n"
        "               [--metrics-out FILE] [--flight-dump FILE]\n"
        "Kernel-serving daemon: POST /run, GET /metrics, GET /kernels,\n"
        "GET /healthz, GET /trace/<id>, GET /debug/flight, POST /config.\n"
        "SIGQUIT dumps the flight recorder without shutting down.\n"
        "Env: OOKAMI_SERVE_PORT, OOKAMI_SERVE_QUEUE_DEPTH, OOKAMI_SERVE_BATCH,\n"
        "OOKAMI_SERVE_THREADS, OOKAMI_SERVE_FLIGHT_DUMP.\n");
    return 0;
  }

  serve::ServerOptions opts = serve::ServerOptions::from_env();
  opts.port = static_cast<std::uint16_t>(cli.get_int("port", opts.port));
  opts.queue_depth =
      static_cast<std::size_t>(cli.get_int("queue-depth", static_cast<long>(opts.queue_depth)));
  opts.max_batch =
      static_cast<std::size_t>(cli.get_int("batch", static_cast<long>(opts.max_batch)));
  opts.threads = static_cast<unsigned>(cli.get_int("threads", opts.threads));
  opts.flight_dump_path = cli.get("flight-dump", opts.flight_dump_path);
  const std::string metrics_out = cli.get("metrics-out", "");

  serve::install_stop_signal_handlers();
  serve::install_dump_signal_handler();

  serve::Server server(opts);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ookamid: %s\n", e.what());
    return 1;
  }
  std::printf("ookamid: listening on %s:%u (queue-depth %zu, batch %zu)\n",
              opts.host.c_str(), static_cast<unsigned>(server.port()), opts.queue_depth,
              server.max_batch());
  std::fflush(stdout);

  while (!serve::stop_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (serve::dump_requested()) {
      serve::reset_dump_flag();
      const std::string dump = server.dump_flight("sigquit");
      if (opts.flight_dump_path.empty()) {
        std::fwrite(dump.data(), 1, dump.size(), stdout);
        std::printf("\n");
      } else {
        std::printf("ookamid: flight dump written to %s\n", opts.flight_dump_path.c_str());
      }
      std::fflush(stdout);
    }
  }
  std::printf("ookamid: stop requested, draining\n");
  std::fflush(stdout);
  server.drain();

  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out);
    out << server.registry().to_prometheus("ookami");
  }
  std::printf("ookamid: drained cleanly after %llu requests\n",
              static_cast<unsigned long long>(server.requests_served()));
  return 0;
}
