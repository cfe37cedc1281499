/**
 * @file
 * eipd — the simulation job server. Binds an eip-serve/v1 Unix-domain
 * socket, serves submit/status/fetch/stats until a client sends the
 * shutdown op, then drains queued work and exits. Pair with eipc.
 *
 *   eipd --socket /tmp/eipd.sock [--workers N] [--queue-depth N]
 *        [--cache-mb N] [--span-limit N] [--metrics-window SECS]
 *        [--log-level LEVEL]
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/log.hh"
#include "serve/daemon.hh"
#include "util/env.hh"
#include "util/panic.hh"

namespace {

void
usage(const char *argv0)
{
    std::printf("usage: %s --socket PATH [options]\n", argv0);
    std::printf("  --socket PATH      Unix-domain socket to listen on "
                "(required)\n");
    std::printf("  --workers N        dispatcher threads / concurrent "
                "forked simulations (default 2)\n");
    std::printf("  --queue-depth N    admission queue capacity; further "
                "submits are rejected (default 64)\n");
    std::printf("  --cache-mb N       result cache budget in MB "
                "(default 64)\n");
    std::printf("  --span-limit N     request-span ring capacity "
                "(default 4096)\n");
    std::printf("  --metrics-window S rolling metrics window in seconds "
                "(default 60)\n");
    std::printf("  --log-level LEVEL  structured-log threshold on stderr: "
                "debug|info|warn|error|off\n");
    std::printf("                     (default info; EIP_LOG overrides "
                "the default)\n");
    std::printf("Stop with: eipc --socket PATH shutdown\n");
}

uint64_t
parsePositive(const char *flag, const char *text)
{
    char *end = nullptr;
    unsigned long long value = std::strtoull(text, &end, 10);
    if (!end || *end != '\0' || value == 0) {
        std::fprintf(stderr, "eipd: %s needs a positive integer, got '%s'\n",
                     flag, text);
        std::exit(2);
    }
    return value;
}

} // namespace

int
main(int argc, char **argv)
{
    eip::serve::DaemonOptions options;
    bool log_level_set = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto operand = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "eipd: %s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (arg == "--socket") {
            options.socketPath = operand();
        } else if (arg == "--workers") {
            options.workers =
                static_cast<unsigned>(parsePositive("--workers", operand()));
        } else if (arg == "--queue-depth") {
            options.queueDepth = static_cast<size_t>(
                parsePositive("--queue-depth", operand()));
        } else if (arg == "--cache-mb") {
            options.cacheBytes =
                parsePositive("--cache-mb", operand()) * (1ull << 20);
        } else if (arg == "--span-limit") {
            options.spanLimit = static_cast<size_t>(
                parsePositive("--span-limit", operand()));
        } else if (arg == "--metrics-window") {
            options.metricsWindowSeconds =
                parsePositive("--metrics-window", operand());
        } else if (arg == "--log-level") {
            const char *text = operand();
            auto level = eip::obs::parseLogLevel(text);
            if (!level) {
                std::fprintf(stderr, "eipd: --log-level needs one of "
                                     "debug|info|warn|error|off, got '%s'\n",
                             text);
                return 2;
            }
            eip::obs::Logger::global().setLevel(*level);
            log_level_set = true;
        } else {
            std::fprintf(stderr, "eipd: unknown option '%s'\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }
    if (options.socketPath.empty()) {
        std::fprintf(stderr, "eipd: --socket is required\n");
        usage(argv[0]);
        return 2;
    }
    // The daemon defaults to info so service logs are useful out of the
    // box; an explicit --log-level or EIP_LOG wins.
    if (!log_level_set && std::getenv("EIP_LOG") == nullptr)
        eip::obs::Logger::global().setLevel(eip::obs::LogLevel::Info);

    eip::serve::Daemon daemon(options);
    std::string error;
    if (!daemon.start(&error)) {
        std::fprintf(stderr, "eipd: %s\n", error.c_str());
        return 1;
    }
    std::printf("eipd: listening on %s (workers=%u queue=%zu cache=%lluMB)\n",
                options.socketPath.c_str(), options.workers,
                options.queueDepth,
                static_cast<unsigned long long>(options.cacheBytes >> 20));
    std::fflush(stdout);

    daemon.waitStopRequested();
    daemon.stop();
    std::printf("eipd: shut down\n");
    return 0;
}
