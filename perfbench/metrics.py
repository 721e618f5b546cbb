"""Turns the raw samples scbench writes into the benchmark's metrics.

scbench times calls into the library and records raw samples (per-call
latencies, per-request schedule/send/queue/service times, per-stage replay
totals); everything statistical happens here, so the rules below are
unit-tested in test_metrics.py.
"""

import math
import re
import statistics

# Metric names: letters, digits, '_', '.', '-'; starting with a letter or
# digit, at most 64 characters.
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10

# Reference time of scbench's host-speed probe: end-to-end timings are
# scaled to a host that runs the probe in this long.
PROBE_REF_S = 0.010

# Percentile of the serving run's pooled, scaled request latencies that
# makes the serving tail.  On a shared 4-vCPU host, runs of the same code
# spread 6-13% at p80 but 13-19% at p90 and 30-60% at p99, and one set's
# p90 sat 35% above another's: the deeper tail is the requests queued
# behind a backlog, and how long the host stalls the workers' CPUs, and
# so how many backlogs a run meets, is luck.
SERVING_TAIL_PCT = 80.0

# A serving request is scaled by the idle probes of the workers' CPUs
# over the window of this many seconds it was due in.
SERVING_SCALE_WINDOW_S = 1.0

# The per-stage keys any workload can produce, in reporting order.
STAGE_KEYS = ("s0_conv", "s1_pool", "s2_conv", "s2_pool", "s3_dense",
              "s3_pool", "s4_dense", "s4_out", "s5_dense", "s6_out")
STAGE_FIELDS = (("ms_per_img", "ms"), ("ns_per_row_cycle", "ns"),
                ("share", "ratio"), ("rows", "count"), ("cycles", "cycles"),
                ("model_energy_j", "J"), ("time_ratio_vs_2n", "ratio"))

END_TO_END = (
    ("img_per_s", "img/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("sim_cycles_per_img", "cycles"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)

PER_LAYER = (
    (("sc.sng_ms_per_img", "ms"),)
    + tuple(("stages.%s.%s" % (key, field), unit)
            for key in STAGE_KEYS for field, unit in STAGE_FIELDS)
    + (
        ("core.engine.overhead_ms_per_img", "ms"),
        ("core.batch.overhead_ms_per_img", "ms"),
        ("core.plan.cold_compile_s", "s"),
        ("core.plan.warm_compile_s", "s"),
        ("core.plan.resident_mib", "MiB"),
        ("core.workspace.build_ms", "ms"),
        ("serving.queue_ms_p50", "ms"),
        ("serving.queue_ms_p99", "ms"),
        ("serving.service_ms_p50", "ms"),
        ("serving.service_ms_p99", "ms"),
        ("serving.early_exit_ratio", "ratio"),
        ("serving.queue_depth_high_water", "count"),
        ("serving.retried", "count"),
        ("serving.slo_miss_ratio", "ratio"),
        ("loadgen.lag_ms_p99", "ms"),
        ("trace.cohort_ms_per_img", "ms"),
        ("trace.overhead_ratio", "ratio"),
        ("quality.accuracy", "fraction"),
    ))


def valid_metric_name(name):
    """True when @p name may be used as a metric name."""
    return _NAME.fullmatch(name) is not None


def tail_percentile(samples, cap=99.0):
    """The highest nearest-rank percentile <= cap that still has at least
    TAIL_MIN_BEYOND samples above it.

    Returns (percentile, value, sample_count); (None, None, n) when there
    are too few samples for any tail.
    """
    xs = sorted(samples)
    n = len(xs)
    k = min(math.ceil(cap / 100.0 * n) - 1, n - TAIL_MIN_BEYOND - 1)
    if k < 0:
        return None, None, n
    return 100.0 * (k + 1) / n, xs[k], n


def percentile(samples, pct):
    """Nearest-rank percentile of a non-empty sample."""
    xs = sorted(samples)
    return xs[max(0, math.ceil(pct / 100.0 * len(xs)) - 1)]


def median(samples):
    return statistics.median(samples) if samples else 0.0


def open_loop_latencies(requests):
    """Per-request latency of an open-loop run, counted from the time
    the request was due to be sent, so a late generator or a stall
    charges every request it delayed.  Failed requests (done < 0) have
    no latency."""
    return [done - due for due, done in zip(requests["due"],
                                            requests["done"]) if done >= 0]


def measured(res):
    """The completed requests due inside the measured window (after the
    warm-up load), as a dict of per-request lists."""
    start = res.get("warmup_s", 0.0)
    keep = [i for i, (due, done) in enumerate(zip(res["due"], res["done"]))
            if due >= start and done >= 0]
    return {k: [res[k][i] for i in keep]
            for k in ("due", "sent", "done", "queue", "service", "early",
                      "deadline_missed")}


def _tail_value(samples):
    return tail_percentile(samples)[1] or 0.0


def _setup_metrics(setup):
    return {
        "core.plan.cold_compile_s": median(setup["cold_compile_s"]),
        "core.plan.warm_compile_s": setup["warm_compile_s"],
        "core.plan.resident_mib": setup["resident_bytes"] / 2**20,
        "core.workspace.build_ms": median(setup["workspace_build_ms"]),
    }


def host_factor(raw):
    """How much slower than the reference the host ran during this run:
    the median host-speed probe time over PROBE_REF_S."""
    return median(raw["probe_seconds"]) / PROBE_REF_S


def scaled(seconds, probes):
    """Each timing over the host factor of the probe taken just before
    it: what it would have taken on the reference host."""
    return [t * PROBE_REF_S / p for t, p in zip(seconds, probes)]


def serving_factors(res, fallback):
    """Host factor per SERVING_SCALE_WINDOW_S window of a serving run,
    from the idle-probe samples of the workers' CPUs, keyed by window
    index; and the factor of the whole run, for windows without samples
    (@p fallback when there are none at all)."""
    idle = res.get("idle_probe") or {"at": [], "seconds": []}
    by_window = {}
    for t, s in zip(idle["at"], idle["seconds"]):
        by_window.setdefault(int(t // SERVING_SCALE_WINDOW_S), []).append(s)
    whole = (median(idle["seconds"]) / PROBE_REF_S if idle["seconds"]
             else fallback)
    return {k: median(v) / PROBE_REF_S for k, v in by_window.items()}, whole


def end_to_end(raw):
    """The end-to-end metrics of an untraced run, timings scaled to the
    reference host speed, with notes on the unscaled figures and the
    latency tail."""
    res = raw["result"]
    setup = res["setup"]
    m = {"setup_s": median(scaled(setup["setup_s"], setup["probe_s"]))}
    unscaled = {"setup_s": median(setup["setup_s"])}
    notes = []
    if "due" in res:
        req = measured(res)
        lat = open_loop_latencies(req)
        # Open-loop throughput is the offered rate, whatever the host.
        m["img_per_s"] = len(lat) / (max(req["done"]) - res["warmup_s"])
        unscaled["latency_p50_ms"] = 1e3 * median(lat)
        unscaled["latency_tail_ms"] = 1e3 * percentile(lat, SERVING_TAIL_PCT)
        factors, whole = serving_factors(res, host_factor(raw))
        lat = [t / factors.get(int(due // SERVING_SCALE_WINDOW_S), whole)
               for due, t in zip(req["due"], lat)]
        m["latency_p50_ms"] = 1e3 * median(lat)
        m["latency_tail_ms"] = 1e3 * percentile(lat, SERVING_TAIL_PCT)
        pct, value, n = tail_percentile(lat)
        notes.append("latency over %d requests; tail = p%.0f, %d samples "
                     "beyond it (scaled p%.1f, the highest supported: %.6g "
                     "ms); workers' CPUs probed at %.2f ms median over %d "
                     "idle samples"
                     % (n, SERVING_TAIL_PCT,
                        n - math.ceil(SERVING_TAIL_PCT / 100.0 * n), pct,
                        1e3 * value, 1e3 * whole * PROBE_REF_S,
                        len(res.get("idle_probe", {}).get("seconds", []))))
    else:
        calls = [1e3 * t for t in scaled(res["call_seconds"],
                                         res["call_probe_seconds"])]
        m["img_per_s"] = sum(res["call_images"]) / (1e-3 * sum(calls))
        m["latency_p50_ms"] = median(calls)
        pct, value, n = tail_percentile(calls)
        m["latency_tail_ms"] = value if value is not None else max(calls)
        unscaled["img_per_s"] = (sum(res["call_images"]) /
                                 sum(res["call_seconds"]))
        unscaled["latency_p50_ms"] = 1e3 * median(res["call_seconds"])
        notes.append("latency per closed-loop call (one cohort) over %d "
                     "calls; tail = %s" % (n, "p%.1f" % pct if pct
                                           else "max (too few calls)"))
    notes.append("unscaled (reference probe %.2f ms): %s"
                 % (1e3 * PROBE_REF_S,
                    ", ".join("%s %.6g" % kv for kv in sorted(unscaled.items()))))
    m["sim_cycles_per_img"] = res["sim_cycles_per_img"]
    m["peak_rss_mib"] = raw["peak_rss_kib"] / 1024.0
    return m, notes


def _stage_metrics(traced):
    """Per-stage figures of the replay at N, guarded against 2N."""
    m = {}
    at_n = traced["at_n"]["replay"]
    at_2n = traced["at_2n"]["replay"]
    images = at_n["images"]
    slow = {s["key"]: s["seconds"] / at_2n["images"] for s in at_2n["stages"]}
    for s in at_n["stages"]:
        ms = 1e3 * s["seconds"] / images
        key = "stages." + s["key"]
        m[key + ".ms_per_img"] = ms
        m[key + ".ns_per_row_cycle"] = (1e6 * ms / (s["rows"] * s["cycles"])
                                        if s["rows"] and s["cycles"] else 0.0)
        m[key + ".share"] = s["seconds"] / at_n["cohort_seconds"]
        m[key + ".rows"] = s["rows"]
        m[key + ".cycles"] = s["cycles"]
        m[key + ".model_energy_j"] = s["model_energy_j"]
        twice = slow.get(s["key"], 0.0)
        m[key + ".time_ratio_vs_2n"] = ms / (1e3 * twice) if twice else 0.0
    stage_total = sum(s["seconds"] for s in at_n["stages"])
    m["sc.sng_ms_per_img"] = 1e3 * at_n["sng_seconds"] / images
    m["trace.cohort_ms_per_img"] = 1e3 * at_n["cohort_seconds"] / images
    m["core.engine.overhead_ms_per_img"] = 1e3 * (
        at_n["cohort_seconds"] - at_n["sng_seconds"] - stage_total) / images
    loop = traced["at_n"]
    m["trace.overhead_ratio"] = ((images / at_n["cohort_seconds"]) /
                                 (loop["loop_images"] / loop["loop_seconds"]))
    return m


def per_layer(raw):
    """The per-layer metrics of a traced run; figures a workload does not
    have (a stage it lacks, serving counters offline) read 0."""
    res = raw["result"]
    traced = res["traced"]
    m = {name: 0.0 for name, _ in PER_LAYER}
    m.update(_setup_metrics(res["setup"]))
    m.update(_stage_metrics(traced))
    m["quality.accuracy"] = res["accuracy"]
    if "batch_seconds" in traced:
        m["core.batch.overhead_ms_per_img"] = 1e3 * (
            traced["batch_seconds"] - traced["batch_loop_seconds"]
        ) / traced["batch_images"]
    if "due" in res:
        req = measured(res)
        queue = [1e3 * q for q in req["queue"]]
        service = [1e3 * s for s in req["service"]]
        lag = [1e3 * (s - u) for s, u in zip(req["sent"], req["due"])]
        m["serving.queue_ms_p50"] = median(queue)
        m["serving.queue_ms_p99"] = _tail_value(queue)
        m["serving.service_ms_p50"] = median(service)
        m["serving.service_ms_p99"] = _tail_value(service)
        offered = sum(1 for u in res["due"] if u >= res["warmup_s"])
        m["serving.early_exit_ratio"] = sum(req["early"]) / len(req["due"])
        m["serving.queue_depth_high_water"] = res["queue_depth_high_water"]
        m["serving.retried"] = res["retried"]
        missed = sum(req["deadline_missed"]) + offered - len(req["due"])
        m["serving.slo_miss_ratio"] = missed / offered
        m["loadgen.lag_ms_p99"] = _tail_value(lag)
    return m

