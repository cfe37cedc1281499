#!/usr/bin/env python3
"""Validate eipsim machine-readable artifacts (stdlib only).

Checks the three schemas produced by the observability layer:

  eip-run/v1    one simulation run (eipsim --stats-json, per-job files);
                a --why run's embedded eip-why/v1 section is validated
                in place, including the blame-partition identity
                against the L1I demand-miss counters; a periodic-mode
                run's `sampling` section (estimate/std_error/ci95 per
                metric) and its manifest schedule echo are validated
                together
  eip-suite/v1  suite roll-up (eipsim --workload all --stats-json)
  eip-bench/v1  figures view table dump (BENCH_<view id>.json); every
                artifact must carry at least one table, every table at
                least one row
  eip-trace/v1  event trace (eipsim --trace-out, Perfetto-loadable)
  eip-serve/v1  eipd wire documents (requests, responses incl. the
                metrics window, stats dumps); artifacts embedded in
                fetch responses are themselves parsed and validated as
                timing-free eip-run/v1
  eip-log/v1    structured log lines (eipd stderr); a file that is not
                one JSON document is validated line by line as NDJSON

eip-trace/v1 documents dispatch on their kind: run traces (prefetch
lifecycle events) and serve traces (kind "serve", request spans from
`eipc spans`) have different required sections.

Usage: scripts/validate_stats_json.py FILE [FILE...]
Exits non-zero and prints every violation if any file is invalid.
"""

import json
import sys


class Checker:
    def __init__(self, path):
        self.path = path
        self.errors = []

    def error(self, where, message):
        self.errors.append(f"{self.path}: {where}: {message}")

    def require(self, obj, where, key, kinds):
        value = obj.get(key)
        if value is None and type(None) not in kinds:
            self.error(where, f"missing key '{key}'")
            return None
        if value is not None and not isinstance(value, kinds):
            names = "/".join(k.__name__ for k in kinds)
            self.error(where, f"'{key}' must be {names}, "
                              f"got {type(value).__name__}")
            return None
        return value

    # -- eip-run/v1 ----------------------------------------------------

    MANIFEST_STR = ("tool", "workload", "category", "config_id",
                    "config_name", "data_prefetcher", "git_describe")
    MANIFEST_INT = ("storage_bits", "program_seed", "exec_seed",
                    "instructions", "warmup", "sample_interval")

    def check_manifest(self, manifest, where, timing_allowed):
        for key in self.MANIFEST_STR:
            self.require(manifest, where, key, (str,))
        for key in self.MANIFEST_INT:
            self.require(manifest, where, key, (int,))
        self.require(manifest, where, "sim_scale", (int, float))
        timing_keys = ("wall_clock_seconds", "jobs", "host_wall_ms",
                       "host_mips", "phase_ms")
        if timing_allowed:
            # Host-speed fields are optional (older artifacts lack them)
            # but must be numeric when present.
            for key in ("host_wall_ms", "host_mips"):
                if key in manifest:
                    self.require(manifest, where, key, (int, float))
            # Per-phase wall time (obs::PhaseProfiler totals).
            if "phase_ms" in manifest:
                phases = self.require(manifest, where, "phase_ms", (dict,))
                for name, value in (phases or {}).items():
                    if not isinstance(value, (int, float)) or value < 0:
                        self.error(where, f"phase_ms['{name}'] is not a "
                                          "non-negative number")
        else:
            for key in timing_keys:
                if key in manifest:
                    self.error(where, f"timing key '{key}' breaks the "
                                      "jobs-independence byte contract")
        self.check_trace_provenance(manifest, where)
        self.check_sample_schedule(manifest, where)

    def check_sample_schedule(self, manifest, where):
        """Periodic-mode manifests echo the full sampling schedule —
        mode, window, period, seed and warm bound together (full-mode
        artifacts omit all five to keep their historic bytes)."""
        keys = ("sample_mode", "sample_window", "sample_period",
                "sample_seed", "sample_warm")
        present = [k for k in keys if k in manifest]
        if not present:
            return
        if len(present) != len(keys):
            self.error(where, f"partial sampling schedule {present}: "
                              f"{'/'.join(keys)} must appear together")
        mode = manifest.get("sample_mode")
        if "sample_mode" in manifest and mode != "periodic":
            self.error(where, f"sample_mode {mode!r} in an artifact "
                              "(full mode omits the schedule echo)")
        for key in keys[1:]:
            value = manifest.get(key)
            if key in manifest and \
                    (not isinstance(value, int) or value < 0):
                self.error(where, f"'{key}' is not a non-negative "
                                  "integer")
        window = manifest.get("sample_window")
        period = manifest.get("sample_period")
        if isinstance(window, int) and window <= 0:
            self.error(where, "sample_window must be positive")
        if isinstance(window, int) and isinstance(period, int) \
                and period < window:
            self.error(where, f"sample_period {period} < sample_window "
                              f"{window}")

    TRACE_KINDS = ("eip-trace", "champsim")

    def check_trace_provenance(self, manifest, where):
        """Trace-backed runs stamp kind + byte count + content digest —
        all three together (a path-only identity would alias traces)."""
        present = [k for k in ("trace_kind", "trace_bytes", "trace_digest")
                   if k in manifest]
        if not present:
            return
        if len(present) != 3:
            self.error(where, f"partial trace provenance {present}: "
                              "trace_kind/trace_bytes/trace_digest must "
                              "appear together")
        kind = manifest.get("trace_kind")
        if "trace_kind" in manifest and kind not in self.TRACE_KINDS:
            self.error(where, f"trace_kind {kind!r} not in "
                              f"{self.TRACE_KINDS}")
        size = manifest.get("trace_bytes")
        if "trace_bytes" in manifest and \
                (not isinstance(size, int) or size <= 0):
            self.error(where, "trace_bytes is not a positive integer")
        digest = manifest.get("trace_digest")
        if "trace_digest" in manifest and (
                not isinstance(digest, str) or len(digest) != 16
                or any(c not in "0123456789abcdef" for c in digest)):
            self.error(where, f"trace_digest {digest!r} is not 16 "
                              "lowercase hex digits")

    def check_histogram(self, hist, where):
        self.require(hist, where, "total", (int,))
        self.require(hist, where, "overflow", (int,))
        self.require(hist, where, "mean", (int, float))
        buckets = self.require(hist, where, "buckets", (list,))
        for pair in buckets or []:
            if (not isinstance(pair, list) or len(pair) != 2
                    or not all(isinstance(x, int) for x in pair)):
                self.error(where, f"bucket entry {pair!r} is not an "
                                  "[index, count] integer pair")

    def check_counter_sections(self, doc, where):
        """The counters/gauges/histograms triple shared by eip-run/v1
        documents and eip-serve/v1 stats dumps."""
        counters = self.require(doc, where, "counters", (dict,))
        for name, value in (counters or {}).items():
            if not isinstance(value, int) or value < 0:
                self.error(where, f"counter '{name}' is not a "
                                  "non-negative integer")
        gauges = self.require(doc, where, "gauges", (dict,))
        for name, value in (gauges or {}).items():
            if not isinstance(value, (int, float, type(None))):
                self.error(where, f"gauge '{name}' is not numeric/null")
        histograms = self.require(doc, where, "histograms", (dict,))
        for name, hist in (histograms or {}).items():
            if isinstance(hist, dict):
                self.check_histogram(hist, f"{where}.histograms.{name}")
            else:
                self.error(where, f"histogram '{name}' is not an object")

    def check_samples(self, samples, where):
        self.require(samples, where, "interval", (int,))
        columns = self.require(samples, where, "columns", (list,)) or []
        rows = self.require(samples, where, "rows", (list,)) or []
        previous = None
        for i, row in enumerate(rows):
            rw = f"{where}.rows[{i}]"
            if not isinstance(row, dict):
                self.error(rw, "row is not an object")
                continue
            self.require(row, rw, "instructions", (int,))
            self.require(row, rw, "cycles", (int,))
            values = self.require(row, rw, "values", (list,)) or []
            deltas = self.require(row, rw, "deltas", (list,)) or []
            if len(values) != len(columns):
                self.error(rw, f"{len(values)} values for "
                               f"{len(columns)} columns")
            if len(deltas) != len(values):
                self.error(rw, f"{len(deltas)} deltas for "
                               f"{len(values)} values")
            for c, (value, delta) in enumerate(zip(values, deltas)):
                prev = previous[c] if previous else 0
                if value - prev != delta:
                    self.error(rw, f"delta mismatch in column {c}: "
                                   f"{value} - {prev} != {delta}")
            previous = values
        return rows

    # -- the optional sampled-simulation estimates section -------------

    SAMPLING_COUNTS = ("windows", "window_instructions",
                       "warmed_instructions", "skipped_instructions",
                       "offset")
    SAMPLING_METRICS = ("ipc", "l1i_mpki", "l1i_coverage", "l1i_accuracy")

    def check_sampling(self, doc, sampling, where):
        """The `sampling` section of a periodic-mode run: schedule
        accounting plus the four estimate/std_error/ci95 triples
        (DESIGN.md §3.13)."""
        for key in self.SAMPLING_COUNTS:
            value = self.require(sampling, where, key, (int,))
            if value is not None and value < 0:
                self.error(where, f"'{key}' is negative")
        windows = sampling.get("windows")
        if isinstance(windows, int) and windows < 1:
            self.error(where, "a periodic run has at least one window")
        for key in self.SAMPLING_METRICS:
            metric = self.require(sampling, where, key, (dict,))
            if metric is None:
                continue
            mw = f"{where}.{key}"
            for field in ("estimate", "std_error", "ci95"):
                value = self.require(metric, mw, field, (int, float))
                if field != "estimate" and value is not None and value < 0:
                    self.error(mw, f"'{field}' is negative")
            # One window has no dispersion estimate: the triple must
            # honestly report a zero-width interval, never fabricate one.
            if windows == 1:
                for field in ("std_error", "ci95"):
                    if metric.get(field) not in (0, 0.0, None):
                        self.error(mw, f"'{field}' nonzero with a single "
                                       "window")
        manifest = doc.get("manifest")
        if isinstance(manifest, dict) and \
                manifest.get("sample_mode") != "periodic":
            self.error(where, "sampling section present but the manifest "
                              "does not echo a periodic schedule")

    # -- eip-why/v1 (the optional miss-attribution section) ------------

    BLAME_KEYS = ("never_predicted", "not_yet_learned",
                  "dropped_queue_full", "dropped_cross_page",
                  "late_partial", "evicted_before_use", "pair_evicted",
                  "wrong_path_pollution")

    def check_why(self, doc, why, where):
        """The eip-why/v1 section of a --why run: taxonomy shape, the
        mirror into the why.* counters, and the partition identity
        against the L1I demand-miss counters (DESIGN.md §3.11)."""
        schema = why.get("schema")
        if schema != "eip-why/v1":
            self.error(where, f"schema is {schema!r}, expected "
                              "eip-why/v1")
        top = self.require(why, where, "top", (int,))
        blame = self.require(why, where, "blame", (dict,)) or {}
        bw = where + ".blame"
        total = 0
        for key in self.BLAME_KEYS:
            value = self.require(blame, bw, key, (int,))
            if value is not None and value < 0:
                self.error(bw, f"'{key}' is negative")
            total += value or 0
        for key in blame:
            if key not in self.BLAME_KEYS:
                self.error(bw, f"unknown blame category {key!r}")

        counters = doc.get("counters")
        if isinstance(counters, dict):
            # The ledger is mirrored into registered counters; the two
            # views must agree exactly.
            for key in self.BLAME_KEYS:
                counter = counters.get("why." + key)
                if counter is None:
                    self.error(where, f"counter 'why.{key}' missing "
                                      "from a --why artifact")
                elif blame.get(key) is not None and counter != blame[key]:
                    self.error(where, f"counter why.{key} {counter} != "
                                      f"blame.{key} {blame[key]}")
            # Partition identity: the ledger partitions the demand
            # misses and its late_partial lane is exactly the cache's
            # late-prefetch count.
            misses = counters.get("l1i.demand_misses")
            if isinstance(misses, int) and total != misses:
                self.error(where, f"blame sums to {total}, must "
                                  f"partition l1i.demand_misses {misses}")
            late = counters.get("l1i.late_prefetches")
            if isinstance(late, int) and \
                    blame.get("late_partial") not in (None, late):
                self.error(where, f"blame.late_partial "
                                  f"{blame['late_partial']} != "
                                  f"l1i.late_prefetches {late}")

        pcs = self.require(why, where, "top_pcs", (list,)) or []
        if top is not None and len(pcs) > top:
            self.error(where, f"{len(pcs)} top_pcs entries exceed "
                              f"top {top}")
        previous = None
        for i, entry in enumerate(pcs):
            pw = f"{where}.top_pcs[{i}]"
            if not isinstance(entry, dict):
                self.error(pw, "entry is not an object")
                continue
            pc = self.require(entry, pw, "pc", (str,))
            if pc is not None and not pc.startswith("0x"):
                self.error(pw, f"pc {pc!r} is not a 0x-prefixed address")
            entry_total = self.require(entry, pw, "total", (int,))
            entry_blame = self.require(entry, pw, "blame", (dict,)) or {}
            entry_sum = 0
            for key, value in entry_blame.items():
                if key not in self.BLAME_KEYS:
                    self.error(pw, f"unknown blame category {key!r}")
                if not isinstance(value, int) or value <= 0:
                    self.error(pw, f"blame '{key}' is not a positive "
                                   "integer (zero lanes are omitted)")
                else:
                    entry_sum += value
            if entry_total is not None and entry_sum != entry_total:
                self.error(pw, f"blame sums to {entry_sum}, entry total "
                               f"says {entry_total}")
            if None not in (previous, entry_total) \
                    and entry_total > previous:
                self.error(pw, "top_pcs is not sorted by descending "
                               "total")
            previous = entry_total

    def check_run(self, doc, where="run", timing_allowed=True):
        schema = doc.get("schema")
        if schema != "eip-run/v1":
            self.error(where, f"schema is {schema!r}, expected eip-run/v1")
        manifest = self.require(doc, where, "manifest", (dict,))
        if manifest is not None:
            self.check_manifest(manifest, where + ".manifest",
                                timing_allowed)
        self.check_counter_sections(doc, where)
        sampling = doc.get("sampling")
        if sampling is not None:
            if isinstance(sampling, dict):
                self.check_sampling(doc, sampling, where + ".sampling")
            else:
                self.error(where, "'sampling' is not an object")
        why = doc.get("why")
        if why is not None:
            if isinstance(why, dict):
                self.check_why(doc, why, where + ".why")
            else:
                self.error(where, "'why' is not an object")
        samples = self.require(doc, where, "samples", (dict,))
        if samples is not None:
            self.check_samples(samples, where + ".samples")

    # -- eip-suite/v1 --------------------------------------------------

    def check_suite(self, doc):
        self.require(doc, "suite", "tool", (str,))
        self.require(doc, "suite", "git_describe", (str,))
        count = self.require(doc, "suite", "run_count", (int,))
        runs = self.require(doc, "suite", "runs", (list,)) or []
        if count is not None and count != len(runs):
            self.error("suite", f"run_count {count} != {len(runs)} runs")
        for i, run in enumerate(runs):
            if isinstance(run, dict):
                self.check_run(run, f"runs[{i}]", timing_allowed=False)
            else:
                self.error(f"runs[{i}]", "run is not an object")

    # -- eip-bench/v1 --------------------------------------------------

    def check_bench(self, doc):
        self.require(doc, "bench", "bench", (str,))
        self.require(doc, "bench", "git_describe", (str,))
        self.require(doc, "bench", "sim_scale", (int, float))
        self.require(doc, "bench", "wall_clock_seconds", (int, float))
        self.require(doc, "bench", "jobs", (int,))
        tables = self.require(doc, "bench", "tables", (list,))
        if tables == []:
            # A bench that printed tables but recorded none is a broken
            # artifact writer, not an empty result.
            self.error("bench", "tables list is empty")
        for i, table in enumerate(tables or []):
            tw = f"tables[{i}]"
            if not isinstance(table, dict):
                self.error(tw, "table is not an object")
                continue
            self.require(table, tw, "title", (str,))
            self.require(table, tw, "label", (str,))
            columns = self.require(table, tw, "columns", (list,)) or []
            digits = self.require(table, tw, "digits", (list,)) or []
            if len(digits) != len(columns) or not all(
                    isinstance(d, int) and d >= 0 for d in digits):
                self.error(tw, f"digits must be one non-negative int per "
                               f"column ({len(columns)})")
            rows = self.require(table, tw, "rows", (list,))
            if rows == []:
                self.error(tw, "table has no rows")
            for j, row in enumerate(rows or []):
                rw = f"{tw}.rows[{j}]"
                if not isinstance(row, dict):
                    self.error(rw, "row is not an object")
                    continue
                self.require(row, rw, "config", (str,))
                override = row.get("digits")
                if override is not None and not (
                        isinstance(override, int) and override >= 0):
                    self.error(rw, "digits override must be a "
                                   "non-negative int")
                values = self.require(row, rw, "values", (list,)) or []
                if len(values) != len(columns):
                    self.error(rw, f"{len(values)} values for "
                                   f"{len(columns)} columns")

    # -- eip-serve/v1 --------------------------------------------------

    SERVE_OPS = ("submit", "status", "fetch", "stats", "metrics",
                 "spans", "shutdown")
    SERVE_STATUSES = ("ok", "accepted", "rejected", "invalid")
    SERVE_STATES = ("queued", "running", "done", "failed")

    def check_serve_key(self, doc, where, required):
        key = doc.get("key")
        if key is None:
            if required:
                self.error(where, "missing content-address 'key'")
            return
        if (not isinstance(key, str) or len(key) != 16
                or any(c not in "0123456789abcdef" for c in key)):
            self.error(where, f"key {key!r} is not 16 lowercase hex "
                              "digits")

    def check_serve_request(self, doc, where):
        op = self.require(doc, where, "op", (str,))
        if op is not None and op not in self.SERVE_OPS:
            self.error(where, f"unknown op {op!r}")
        if op in ("status", "fetch"):
            self.require(doc, where, "job", (int,))
        if op == "submit":
            run = self.require(doc, where, "run", (dict,))
            if run is None:
                return
            rw = where + ".run"
            workload = self.require(run, rw, "workload", (str,))
            if workload == "":
                self.error(rw, "workload must be non-empty")
            for key in ("prefetcher", "data_prefetcher"):
                self.require(run, rw, key, (str,))
            for key in ("instructions", "warmup", "sample_interval"):
                self.require(run, rw, key, (int,))
            if isinstance(run.get("instructions"), int) \
                    and run["instructions"] <= 0:
                self.error(rw, "instructions must be positive")
            self.require(run, rw, "physical_l1i", (bool,))

    def check_serve_response(self, doc, where):
        op = self.require(doc, where, "op", (str,))
        if op is not None and op not in self.SERVE_OPS:
            self.error(where, f"unknown op {op!r}")
        status = self.require(doc, where, "status", (str,))
        if status is not None and status not in self.SERVE_STATUSES:
            self.error(where, f"unknown status {status!r}")
        if status in ("invalid", "rejected"):
            self.require(doc, where, "error", (str,))
            return
        if op == "submit" and status == "accepted":
            self.require(doc, where, "job", (int,))
            self.check_serve_key(doc, where, required=True)
            served = self.require(doc, where, "served", (str,))
            if served not in (None, "cache", "queue"):
                self.error(where, f"served must be cache/queue, "
                                  f"got {served!r}")
        if op in ("status", "fetch") and status == "ok":
            self.require(doc, where, "job", (int,))
            state = self.require(doc, where, "state", (str,))
            if state is not None and state not in self.SERVE_STATES:
                self.error(where, f"unknown state {state!r}")
            if state == "failed":
                self.require(doc, where, "error", (str,))
        if op == "fetch" and doc.get("state") == "done":
            self.check_serve_key(doc, where, required=True)
            artifact = self.require(doc, where, "artifact", (str,))
            if artifact is not None:
                self.check_embedded_artifact(artifact, where)
        if op == "metrics" and status == "ok":
            window = self.require(doc, where, "window", (dict,)) or {}
            ww = where + ".window"
            for key in ("seconds", "requests", "cache_hits", "simulated",
                        "failed", "rejected"):
                value = self.require(window, ww, key, (int,))
                if value is not None and value < 0:
                    self.error(ww, f"'{key}' is negative")
            for key in ("qps", "hit_ratio", "p50_ms", "p95_ms", "p99_ms"):
                self.require(window, ww, key, (int, float))
            exposition = self.require(doc, where, "exposition", (str,))
            if exposition is not None:
                if "# TYPE eip_" not in exposition:
                    self.error(where, "exposition has no '# TYPE eip_*' "
                                      "line (not a Prometheus page?)")
                if not exposition.endswith("\n"):
                    self.error(where, "exposition must end with a newline "
                                      "(scrapers require it)")

    def check_embedded_artifact(self, artifact, where):
        """A fetch response carries the exact artifact bytes as one JSON
        string: a complete eip-run/v1 document, timing-free (the serving
        environment must not leak into cached results)."""
        aw = where + ".artifact"
        if not artifact.endswith("}\n"):
            self.error(aw, "artifact bytes must end with '}' + newline "
                           "(the exact --stats-json file contents)")
        try:
            run = json.loads(artifact)
        except ValueError as err:
            self.error(aw, f"embedded artifact is not JSON: {err}")
            return
        if not isinstance(run, dict):
            self.error(aw, "embedded artifact is not an object")
            return
        self.check_run(run, aw, timing_allowed=False)

    def check_serve(self, doc):
        kind = self.require(doc, "serve", "kind", (str,))
        if kind == "request":
            self.check_serve_request(doc, "serve.request")
        elif kind == "response":
            self.check_serve_response(doc, "serve.response")
        elif kind == "stats":
            where = "serve.stats"
            tool = self.require(doc, where, "tool", (str,))
            if tool not in (None, "eipd"):
                self.error(where, f"tool is {tool!r}, expected 'eipd'")
            self.require(doc, where, "git_describe", (str,))
            workers = self.require(doc, where, "workers", (int,))
            if workers is not None and workers < 1:
                self.error(where, "workers must be >= 1")
            for key in ("queue_capacity", "cache_capacity_bytes"):
                value = self.require(doc, where, key, (int,))
                if value is not None and value < 1:
                    self.error(where, f"'{key}' must be >= 1")
            self.check_counter_sections(doc, where)
            counters = doc.get("counters")
            if isinstance(counters, dict):
                for key in ("serve.submits", "serve.served_cache",
                            "serve.simulated", "serve.cache.hits",
                            "serve.cache.misses"):
                    if key not in counters:
                        self.error(where, f"stats dump lacks counter "
                                          f"'{key}'")
        else:
            self.error("serve", f"unknown kind {kind!r}")

    # -- eip-trace/v1 --------------------------------------------------

    LIFECYCLE_KEYS = ("requested", "queued", "drop_queue_full",
                      "drop_dup_queued", "drop_dup_cached",
                      "drop_dup_inflight", "drop_cross_page",
                      "mshr_deferrals", "issued", "filled",
                      "filled_after_demand", "first_use", "late_use",
                      "evicted_unused")
    STALL_KEYS = ("line_miss", "ftq_empty_mispredict",
                  "ftq_empty_starved", "backend_full")

    SERVE_TERMINALS = ("done", "cache", "failed", "crashed", "rejected")

    def check_serve_trace(self, doc):
        """eip-trace/v1, kind "serve": request spans from the eipd span
        collector (`eipc spans`)."""
        where = "serve-trace"
        meta = self.require(doc, where, "meta", (dict,)) or {}
        mw = where + ".meta"
        limit = self.require(meta, mw, "limit", (int,))
        recorded = self.require(meta, mw, "recorded", (int,))
        retained = self.require(meta, mw, "retained", (int,))
        wrapped = self.require(meta, mw, "wrapped", (bool,))

        serve = self.require(doc, where, "serve", (dict,)) or {}
        sw = where + ".serve"
        traces = self.require(serve, sw, "traces", (int,))
        dropped = self.require(serve, sw, "span_dropped", (int,))
        terminals = self.require(serve, sw, "terminals", (dict,)) or {}
        closed = 0
        for state, count in terminals.items():
            if state not in self.SERVE_TERMINALS:
                self.error(sw, f"unknown terminal state {state!r}")
            if not isinstance(count, int) or count < 0:
                self.error(sw, f"terminal '{state}' count is not a "
                               "non-negative integer")
            else:
                closed += count
        # Every trace id gets exactly one root span once it terminates;
        # a scrape can catch requests mid-flight, never extra closures.
        if traces is not None and closed > traces:
            self.error(sw, f"{closed} closed root spans for {traces} "
                           "traces")

        events = self.require(doc, where, "traceEvents", (list,)) or []
        spans = 0
        for i, event in enumerate(events):
            ew = f"traceEvents[{i}]"
            if not isinstance(event, dict):
                self.error(ew, "event is not an object")
                continue
            ph = self.require(event, ew, "ph", (str,))
            if ph == "M":
                continue
            if ph != "X":
                self.error(ew, f"unexpected phase {ph!r} (serve traces "
                               "hold only complete spans)")
                continue
            spans += 1
            self.require(event, ew, "name", (str,))
            self.require(event, ew, "ts", (int,))
            self.require(event, ew, "dur", (int,))
            self.require(event, ew, "tid", (int,))
        if retained is not None and spans != retained:
            self.error(where, f"{spans} spans in the document but "
                              f"meta.retained says {retained}")
        if None not in (retained, limit) and retained > limit:
            self.error(mw, f"retained {retained} exceeds ring limit "
                           f"{limit}")
        if None not in (recorded, retained, dropped):
            if recorded - retained != dropped:
                self.error(sw, f"span_dropped {dropped} != recorded "
                               f"{recorded} - retained {retained}")
        if None not in (recorded, retained, wrapped):
            if wrapped != (recorded > retained):
                self.error(mw, f"wrapped={wrapped} inconsistent with "
                               f"recorded {recorded} / retained "
                               f"{retained}")

    def check_trace(self, doc):
        if doc.get("kind") == "serve":
            self.check_serve_trace(doc)
            return
        meta = self.require(doc, "trace", "meta", (dict,)) or {}
        limit = self.require(meta, "trace.meta", "limit", (int,))
        recorded = self.require(meta, "trace.meta", "recorded", (int,))
        retained = self.require(meta, "trace.meta", "retained", (int,))
        wrapped = self.require(meta, "trace.meta", "wrapped", (bool,))

        life = self.require(doc, "trace", "lifecycle", (dict,)) or {}
        for key in self.LIFECYCLE_KEYS:
            value = self.require(life, "trace.lifecycle", key, (int,))
            if value is not None and value < 0:
                self.error("trace.lifecycle", f"'{key}' is negative")
        # The only funnel equality that holds in ANY measurement window
        # (each enqueue resolves atomically; cross-stage inequalities
        # break when in-flight prefetches straddle the warm-up reset).
        if all(isinstance(life.get(k), int) for k in
               ("requested", "queued", "drop_queue_full",
                "drop_dup_queued")):
            expect = (life["queued"] + life["drop_queue_full"]
                      + life["drop_dup_queued"])
            if life["requested"] != expect:
                self.error("trace.lifecycle",
                           f"requested {life['requested']} != queued + "
                           f"queue-stage drops {expect}")

        stalls = self.require(doc, "trace", "stalls", (dict,)) or {}
        idle = self.require(stalls, "trace.stalls", "idle_cycles", (int,))
        total = 0
        for key in self.STALL_KEYS:
            value = self.require(stalls, "trace.stalls", key, (int,))
            total += value or 0
        if idle is not None and total != idle:
            self.error("trace.stalls", f"buckets sum to {total}, must "
                                       f"partition idle_cycles {idle}")

        events = self.require(doc, "trace", "traceEvents", (list,)) or []
        real_events = 0
        for i, event in enumerate(events):
            ew = f"traceEvents[{i}]"
            if not isinstance(event, dict):
                self.error(ew, "event is not an object")
                continue
            self.require(event, ew, "name", (str,))
            ph = self.require(event, ew, "ph", (str,))
            if ph not in ("i", "X", "M"):
                self.error(ew, f"unexpected phase {ph!r}")
            if ph == "M":
                continue
            real_events += 1
            self.require(event, ew, "ts", (int,))
            if ph == "X":
                self.require(event, ew, "dur", (int,))
        if retained is not None and real_events != retained:
            self.error("trace", f"{real_events} events in the document "
                                f"but meta.retained says {retained}")
        if None not in (retained, limit) and retained > limit:
            self.error("trace.meta", f"retained {retained} exceeds "
                                     f"ring limit {limit}")
        if None not in (recorded, retained, wrapped):
            if wrapped != (recorded > retained):
                self.error("trace.meta",
                           f"wrapped={wrapped} inconsistent with "
                           f"recorded {recorded} / retained {retained}")

    # -- eip-log/v1 ----------------------------------------------------

    LOG_LEVELS = ("debug", "info", "warn", "error")

    def check_log(self, doc, where="log"):
        ts = self.require(doc, where, "ts_us", (int,))
        if ts is not None and ts < 0:
            self.error(where, "ts_us is negative")
        level = self.require(doc, where, "level", (str,))
        if level is not None and level not in self.LOG_LEVELS:
            self.error(where, f"unknown level {level!r}")
        for key in ("component", "event"):
            value = self.require(doc, where, key, (str,))
            if value == "":
                self.error(where, f"'{key}' must be non-empty")

    def check(self, doc):
        schema = doc.get("schema")
        if schema == "eip-run/v1":
            self.check_run(doc)
        elif schema == "eip-suite/v1":
            self.check_suite(doc)
        elif schema == "eip-bench/v1":
            self.check_bench(doc)
        elif schema == "eip-trace/v1":
            self.check_trace(doc)
        elif schema == "eip-serve/v1":
            self.check_serve(doc)
        elif schema == "eip-log/v1":
            self.check_log(doc)
        else:
            self.error("document", f"unknown schema {schema!r}")


def check_ndjson(path, text):
    """Validate a file of one JSON document per line (structured logs,
    protocol transcripts). Returns a Checker with per-line errors, or
    None when some line is not JSON at all."""
    checker = Checker(path)
    docs = 0
    for n, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except ValueError:
            return None
        if not isinstance(doc, dict):
            return None
        checker.path = f"{path}:{n}"
        checker.check(doc)
        docs += 1
    checker.path = path
    if docs == 0:
        checker.error("document", "no JSON documents found")
    return checker


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed = False
    for path in argv[1:]:
        checker = Checker(path)
        schema = None
        try:
            with open(path, "rb") as f:
                text = f.read().decode("utf-8")
            doc = json.loads(text)
            checker.check(doc)
            schema = doc.get("schema")
        except OSError as err:
            print(f"{path}: unreadable: {err}", file=sys.stderr)
            failed = True
            continue
        except ValueError as err:
            # Not one document — maybe one document per line (NDJSON,
            # the shape of eipd's structured stderr log).
            checker = check_ndjson(path, text)
            if checker is None:
                print(f"{path}: unreadable: {err}", file=sys.stderr)
                failed = True
                continue
            schema = "ndjson"
        if checker.errors:
            failed = True
            for line in checker.errors:
                print(line, file=sys.stderr)
        else:
            print(f"{path}: OK ({schema})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
