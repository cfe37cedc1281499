/**
 * @file
 * eipc — client for the eipd job server.
 *
 *   eipc --socket PATH submit --workload W [--prefetcher ID]
 *        [--data-prefetcher ID] [--instructions N] [--warmup N]
 *        [--physical] [--sample-interval N] [--inject-crash]
 *        [--wait [--timeout SECONDS]] [--out FILE]
 *   eipc --socket PATH status --job N
 *   eipc --socket PATH fetch --job N [--out FILE]
 *   eipc --socket PATH stats [--json] [--out FILE]
 *   eipc --socket PATH metrics [--prom|--json] [--out FILE]
 *   eipc --socket PATH spans [--out FILE]
 *   eipc --socket PATH shutdown
 *
 * stats and metrics render a human-readable table on stdout; --json
 * dumps the raw response document instead, and --out always writes the
 * raw bytes (smoke scripts validate those files). metrics --prom
 * prints the Prometheus text exposition (the scrape format).
 *
 * Exit codes: 0 success, 1 transport/daemon error, 2 usage,
 * 3 request rejected (backpressure) or job failed.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "serve/client.hh"
#include "util/table_printer.hh"

namespace {

void
usage()
{
    std::printf(
        "usage: eipc --socket PATH <command> [options]\n"
        "commands:\n"
        "  submit    --workload W [--prefetcher ID] [--data-prefetcher ID]\n"
        "            [--instructions N] [--warmup N] [--physical]\n"
        "            [--sample-interval N] [--inject-crash]\n"
        "            [--wait [--timeout SECONDS]] [--out FILE]\n"
        "  status    --job N\n"
        "  fetch     --job N [--out FILE]\n"
        "  stats     [--json] [--out FILE]\n"
        "  metrics   [--prom|--json] [--out FILE]\n"
        "  spans     [--out FILE]\n"
        "  shutdown\n"
        "stats/metrics print a table; --json dumps the raw document,\n"
        "--out writes the raw bytes, metrics --prom the Prometheus page\n");
}

[[noreturn]] void
usageError(const std::string &message)
{
    std::fprintf(stderr, "eipc: %s\n", message.c_str());
    usage();
    std::exit(2);
}

uint64_t
parseU64(const std::string &flag, const char *text)
{
    char *end = nullptr;
    unsigned long long value = std::strtoull(text, &end, 10);
    if (!end || *end != '\0')
        usageError(flag + " needs an unsigned integer, got '" +
                   std::string(text) + "'");
    return value;
}

/** Human-readable stats table: every counter and gauge of the daemon's
 *  stats document, one row each. Request latency arrives as gauges
 *  (serve.request_wall_ms.p50/p95/p99 and .sum, beside the .count
 *  counter), so the table alone answers the usual "how is the daemon
 *  doing"; the histograms section is not tabulated. */
std::string
statsTable(const eip::obs::JsonValue &doc)
{
    eip::TablePrinter table;
    table.newRow();
    table.cell("kind");
    table.cell("name");
    table.cell("value");
    auto section = [&](const char *key, const char *kind, int precision) {
        const eip::obs::JsonValue *obj = doc.find(key);
        if (obj == nullptr ||
            obj->type != eip::obs::JsonValue::Type::Object)
            return;
        for (const auto &[name, value] : obj->object) {
            if (!value.isNumber())
                continue;
            table.newRow();
            table.cell(kind);
            table.cell(name);
            if (precision == 0)
                table.cell(value.asU64());
            else
                table.cell(value.number, precision);
        }
    };
    section("counters", "counter", 0);
    section("gauges", "gauge", 3);
    return table.toString();
}

/** Human-readable rolling-window table of a metrics response. */
std::string
metricsTable(const eip::obs::JsonValue &doc)
{
    eip::TablePrinter table;
    table.newRow();
    table.cell("metric");
    table.cell("value");
    const eip::obs::JsonValue *window = doc.find("window");
    if (window != nullptr &&
        window->type == eip::obs::JsonValue::Type::Object) {
        for (const auto &[name, value] : window->object) {
            if (!value.isNumber())
                continue;
            table.newRow();
            table.cell(name);
            table.cell(value.number, 3);
        }
    }
    return table.toString();
}

/** Write @p text to @p path, or to stdout when the path is empty. */
bool
deliver(const std::string &path, const std::string &text)
{
    if (path.empty()) {
        std::fwrite(text.data(), 1, text.size(), stdout);
        if (text.empty() || text.back() != '\n')
            std::fputc('\n', stdout);
        return true;
    }
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    out.close();
    if (!out) {
        std::fprintf(stderr, "eipc: cannot write '%s'\n", path.c_str());
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string socket_path;
    std::string command;
    eip::serve::RunRequest run;
    uint64_t job = 0;
    bool have_job = false;
    bool wait = false;
    double timeout_seconds = 300.0;
    std::string out_path;
    bool raw_json = false;
    bool prom = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto operand = [&]() -> const char * {
            if (i + 1 >= argc)
                usageError(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--socket") {
            socket_path = operand();
        } else if (arg == "--workload") {
            run.workload = operand();
        } else if (arg == "--prefetcher") {
            run.prefetcher = operand();
        } else if (arg == "--data-prefetcher") {
            run.dataPrefetcher = operand();
        } else if (arg == "--instructions") {
            run.instructions = parseU64(arg, operand());
        } else if (arg == "--warmup") {
            run.warmup = parseU64(arg, operand());
        } else if (arg == "--physical") {
            run.physical = true;
        } else if (arg == "--sample-interval") {
            run.sampleInterval = parseU64(arg, operand());
        } else if (arg == "--inject-crash") {
            run.injectCrash = true;
        } else if (arg == "--job") {
            job = parseU64(arg, operand());
            have_job = true;
        } else if (arg == "--wait") {
            wait = true;
        } else if (arg == "--timeout") {
            timeout_seconds = std::atof(operand());
        } else if (arg == "--out") {
            out_path = operand();
        } else if (arg == "--json") {
            raw_json = true;
        } else if (arg == "--prom") {
            prom = true;
        } else if (!arg.empty() && arg[0] == '-') {
            usageError("unknown option '" + arg + "'");
        } else if (command.empty()) {
            command = arg;
        } else {
            usageError("unexpected argument '" + arg + "'");
        }
    }

    if (socket_path.empty())
        usageError("--socket is required");
    if (command.empty())
        usageError("no command given");

    eip::serve::Client client;
    std::string error;
    if (!client.connect(socket_path, &error)) {
        std::fprintf(stderr, "eipc: %s\n", error.c_str());
        return 1;
    }

    if (command == "submit") {
        eip::serve::SubmitOutcome outcome;
        if (!client.submit(run, outcome, &error)) {
            std::fprintf(stderr, "eipc: %s\n", error.c_str());
            return 1;
        }
        if (outcome.rejected) {
            std::fprintf(stderr,
                         "eipc: submit rejected (queue full) — retry later\n");
            return 3;
        }
        if (!outcome.accepted) {
            std::fprintf(stderr, "eipc: submit invalid: %s\n",
                         outcome.error.c_str());
            return 1;
        }
        std::printf("job %llu key %s served %s state %s\n",
                    static_cast<unsigned long long>(outcome.job),
                    outcome.key.c_str(), outcome.served.c_str(),
                    outcome.state.c_str());
        if (!wait && out_path.empty())
            return 0;

        eip::serve::JobView view;
        if (!client.waitTerminal(outcome.job, view, timeout_seconds,
                                 &error)) {
            std::fprintf(stderr, "eipc: %s\n", error.c_str());
            return 1;
        }
        if (view.state == "failed") {
            std::fprintf(stderr, "eipc: job %llu failed: %s\n",
                         static_cast<unsigned long long>(outcome.job),
                         view.error.c_str());
            return 3;
        }
        if (!out_path.empty()) {
            if (!client.fetch(outcome.job, view, &error)) {
                std::fprintf(stderr, "eipc: %s\n", error.c_str());
                return 1;
            }
            if (!deliver(out_path, view.artifact))
                return 1;
        }
        std::printf("job %llu done%s\n",
                    static_cast<unsigned long long>(outcome.job),
                    view.servedFromCache ? " (served from cache)" : "");
        return 0;
    }

    if (command == "status" || command == "fetch") {
        if (!have_job)
            usageError(command + " requires --job");
        eip::serve::JobView view;
        bool ok = command == "status" ? client.status(job, view, &error)
                                      : client.fetch(job, view, &error);
        if (!ok) {
            std::fprintf(stderr, "eipc: %s\n", error.c_str());
            return 1;
        }
        if (command == "status") {
            std::printf("job %llu state %s%s%s%s\n",
                        static_cast<unsigned long long>(job),
                        view.state.c_str(),
                        view.servedFromCache ? " (served from cache)" : "",
                        view.error.empty() ? "" : " error: ",
                        view.error.c_str());
            return view.state == "failed" ? 3 : 0;
        }
        if (view.state == "failed") {
            std::fprintf(stderr, "eipc: job %llu failed: %s\n",
                         static_cast<unsigned long long>(job),
                         view.error.c_str());
            return 3;
        }
        if (view.state != "done") {
            std::fprintf(stderr, "eipc: job %llu not done yet (state %s)\n",
                         static_cast<unsigned long long>(job),
                         view.state.c_str());
            return 1;
        }
        return deliver(out_path, view.artifact) ? 0 : 1;
    }

    if (command == "stats") {
        std::string stats;
        if (!client.stats(stats, &error)) {
            std::fprintf(stderr, "eipc: %s\n", error.c_str());
            return 1;
        }
        if (!out_path.empty())
            return deliver(out_path, stats + "\n") ? 0 : 1;
        if (raw_json)
            return deliver("", stats + "\n") ? 0 : 1;
        auto doc = eip::obs::parseJson(stats, &error);
        if (!doc) {
            std::fprintf(stderr, "eipc: stats unparseable: %s\n",
                         error.c_str());
            return 1;
        }
        std::fputs(statsTable(*doc).c_str(), stdout);
        return 0;
    }

    if (command == "metrics") {
        std::string metrics;
        std::string exposition;
        if (!client.metrics(metrics, exposition, &error)) {
            std::fprintf(stderr, "eipc: %s\n", error.c_str());
            return 1;
        }
        if (!out_path.empty())
            return deliver(out_path, metrics + "\n") ? 0 : 1;
        if (prom)
            return deliver("", exposition) ? 0 : 1;
        if (raw_json)
            return deliver("", metrics + "\n") ? 0 : 1;
        auto doc = eip::obs::parseJson(metrics, &error);
        if (!doc) {
            std::fprintf(stderr, "eipc: metrics unparseable: %s\n",
                         error.c_str());
            return 1;
        }
        std::fputs(metricsTable(*doc).c_str(), stdout);
        return 0;
    }

    if (command == "spans") {
        std::string trace;
        if (!client.spans(trace, &error)) {
            std::fprintf(stderr, "eipc: %s\n", error.c_str());
            return 1;
        }
        // A serve trace is eiptrace/viewer input — always raw bytes.
        return deliver(out_path, trace + "\n") ? 0 : 1;
    }

    if (command == "shutdown") {
        if (!client.shutdown(&error)) {
            std::fprintf(stderr, "eipc: %s\n", error.c_str());
            return 1;
        }
        std::printf("shutdown requested\n");
        return 0;
    }

    usageError("unknown command '" + command + "'");
}
