#!/usr/bin/env python3
"""Whole-stack benchmark of the Parcae reproduction.

Builds the program and the benchmark binary from source, runs one workload
for a fixed host-time window and prints every metric by name with its unit.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
measured on untraced passes. With --trace 1 they are the per-layer ones,
from interleaved untraced, traced (benchmark spans and interface wrappers)
and counters (program metrics registry) passes.

Usage, from the root of a checkout:

    python3 wsbench/run.py --workload lanes|pipes|nona|serve \\
        [--seed N] [--seconds S] [--trace 0|1] [--quick]
    python3 wsbench/run.py --list     # every metric with its unit
    python3 wsbench/run.py --smoke    # every workload at a tiny size

The build goes to $CARGO_TARGET_DIR/wsbench (default .bench_build/wsbench);
reports and span files of each run go to its runs/ subdirectory.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg, code=1):
    print("wsbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def benchmark():
    """BENCHMARK.json: the workloads and every metric's unit, direction and
    bound."""
    return load_json(os.path.join(ROOT, "BENCHMARK.json"))


def manifest():
    """wsbench/metrics.json: what BENCHMARK.json cannot hold (module,
    definition, what each metric moves, seeds, known defects), keyed by the
    same names."""
    return load_json(os.path.join(HERE, "metrics.json"))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "wsbench")


def build():
    """Configures (once) and builds the wsbench binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "Simulator.cpp")):
        fail("program sources not found under %s/src" % ROOT, 2)
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", bdir, "-j", "4"])
        for cmd in steps:
            r = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT)
            if r.returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (%s)" % " ".join(cmd))
    exe = os.path.join(bdir, "wsbench")
    if not os.path.isfile(exe):
        fail("build produced no binary at " + exe)
    return exe


def median(xs):
    return statistics.median(xs) if xs else 0.0


# About the host-speed probe's time on the development host (a 4-core Xeon
# VM); only the scale of the figures depends on it. See scaled().
REF_PROBE_S = 0.0006


def scaled(plain, key):
    """Per-pass host times under `key`, in seconds of the reference host.

    Co-tenants on the shared host slow passes by up to 2x, in swings of
    under a second and in spells of minutes. After every operation the
    wsbench binary times a fixed probe (map operations over a private pool:
    work of the simulator's kinds, not the program's code, and independent
    of the state the program leaves behind); a pass's time over its mean
    probe time cancels most of the host's speed, and REF_PROBE_S turns the
    ratio back into seconds."""
    return [x * REF_PROBE_S / p for x, p in zip(plain[key], plain["probe_s"])]


def tail(xs):
    """The highest percentile with at least ten samples beyond it."""
    s = sorted(xs)
    return s[-11] if len(s) >= 11 else (s[-1] if s else 0.0)


def ratio(a, b):
    return a / b if b else 0.0


def host_speed(plain):
    """How fast the host ran against the reference (above 1: faster)."""
    return ratio(REF_PROBE_S, median(plain["probe_s"]))


def end_to_end(rep):
    plain = rep["passes"]["plain"]
    sim = rep["sim"]
    att = rep["attempted"]
    return {
        "host_s": median(scaled(plain, "host_s")),
        "setup_s": median(scaled(plain, "setup_s")),
        "peak_rss_mb": rep["peak_rss_mb"],
        "ok_frac": ratio(att - rep["failed"], att),
        "sim_resp_mean_s": sim["sim_resp_mean_s"],
        "sim_goodput_rps": sim["sim_goodput_rps"],
        "sim_vs_oracle": sim["sim_vs_oracle"],
    }


def per_layer(rep, workload):
    """Returns {name: value or None}; None marks a metric this workload's
    passes do not measure (printed as absent, emitted as 0)."""
    sim = rep["sim"]
    passes = rep["passes"]
    plain, traced, counters = (passes.get(k, {}) for k in
                               ("plain", "traced", "counters"))
    ev = plain.get("events", {})
    probe = rep["probe"]
    reg = rep["registry"]
    spans = rep["spans"]
    tp = spans["traced_passes"]
    host_plain = median(scaled(plain, "host_s")) if plain else 0.0
    events = ev.get("events", 0)
    hits = ev.get("ring_hits", 0) + ev.get("wheel_hits", 0) + \
        ev.get("heap_hits", 0)
    wrapped_source = workload in ("pipes", "nona")
    wrapped_fn = workload in ("pipes", "nona", "serve")
    # serve's runners live inside ServeLoop; only its batch count is seen.
    runners = workload != "serve"
    time_split = sim["compute"] + sim["comm"] + sim["overhead"]

    def span_mean(name, scale):
        s = spans[name]
        return s["total_ns"] / s["count"] * scale if s["count"] else None

    def only(cond, v):
        return v if cond else None

    m = {
        "sim.events": events,
        "sim.events_per_s": ratio(events, host_plain),
        "sim.ns_per_event": ratio(spans["sim.run"]["self_ns"], tp * events),
        "sim.queue.ring_frac": ratio(ev.get("ring_hits", 0), hits),
        "sim.queue.wheel_frac": ratio(ev.get("wheel_hits", 0), hits),
        "sim.queue.heap_frac": ratio(ev.get("heap_hits", 0), hits),
        "machine.slices": reg.get("machine.slices"),
        "machine.ctx_switches": reg.get("machine.ctx_switches"),
        "machine.util": ratio(sim["busy_core_s"], sim["core_s"]),
        "core.claims": only(wrapped_source, probe.get("claims")),
        "core.items_per_claim": only(wrapped_source, ratio(
            probe.get("claimed_items", 0), probe.get("claims", 0))),
        "core.claim_waits": only(wrapped_source, probe.get("claim_waits")),
        "core.rewound_items": only(wrapped_source, probe.get("rewound")),
        "core.useful_frac": only(wrapped_source, ratio(
            sim["retired"], probe.get("claimed_items", 0))),
        "core.link_tokens": only(wrapped_fn, probe.get("link_tokens")),
        "core.link_pressure_max": only(wrapped_source,
                                       probe.get("link_pressure_max")),
        "exec.retired": only(runners, sim["retired"]),
        "exec.compute_frac": only(runners, ratio(sim["compute"], time_split)),
        "exec.comm_frac": only(runners, ratio(sim["comm"], time_split)),
        "exec.overhead_frac": only(runners, ratio(sim["overhead"], time_split)),
        "runner.regions": sim["regions"],
        "runner.reconfigurations": only(runners, sim["reconfigs"]),
        "runner.full_pauses": only(runners, sim["full_pauses"]),
        "runner.recoveries": only(runners, sim["recoveries"]),
        "runner.task_restarts": only(runners, sim["task_restarts"]),
        "ctrl.transitions": only(workload in ("nona", "pipes"),
                                 sim["ctrl_transitions"]),
        "ctrl.virtual_ms_to_monitor": only(
            sim["ctrl_monitored"] > 0,
            ratio(sim["ctrl_ms_to_monitor"], sim["ctrl_monitored"])),
        "mech.decisions": only(workload in ("lanes", "pipes"),
                               sim["mech_decisions"]),
        "mech.decide_ns": span_mean("mech.decide", 1.0),
        "platform.repartitions": only(workload in ("nona", "serve"),
                                      reg.get("platform.repartitions")),
        "platform.slo_transfers": only(workload in ("nona", "serve"),
                                       sim["slo_transfers"]),
        "watchdog.detections": only(workload == "pipes", sim["wd_detections"]),
        "watchdog.recoveries": only(workload == "pipes", sim["wd_recoveries"]),
        "watchdog.surgical_restarts": only(workload == "pipes",
                                           sim["wd_surgical"]),
        "watchdog.speculations": only(workload == "pipes",
                                      sim["wd_speculations"]),
        "watchdog.mttr_ms": only(workload == "pipes", sim["wd_mttr_ms"]),
        "nona.compile_s": only(workload == "nona",
                               median(plain.get("nona.compile_s", []))),
        "nona.fn_calls": only(workload == "nona", probe.get("fn_calls")),
        "nona.fn_ns_per_call": only(workload == "nona",
                                    span_mean("task.fn", 1.0)),
        "serve.admitted": only(workload == "serve", sim["serve_admitted"]),
        "serve.rejected": only(workload == "serve", sim["serve_rejected"]),
        "serve.shed": only(workload == "serve", sim["serve_shed"]),
        "serve.batches": only(workload == "serve", sim["serve_batches"]),
        "serve.requests_per_region": only(workload == "serve", ratio(
            sim["serve_batched"], sim["serve_batches"])),
        "serve.queue_wait_p99_ms": only(workload == "serve",
                                        sim["serve_queue_wait_p99_ms"]),
        "serve.service_p99_ms": only(workload == "serve",
                                     sim["serve_service_p99_ms"]),
        "serve.make_region_us": span_mean("serve.make_region", 1e-3),
        "telemetry.metrics_overhead": ratio(
            median(scaled(counters, "host_s")), host_plain),
        "bench.trace_overhead": ratio(median(scaled(traced, "host_s")),
                                      host_plain),
        "bench.host_runs": len(plain["host_s"]),
        "bench.host_speed": host_speed(plain),
        "bench.host_s_raw": median(plain["host_s"]),
        "bench.host_s_tail": tail(scaled(plain, "host_s")),
        "sim_resp_p50_s": sim["sim_resp_p50_s"],
        "sim_resp_p99_s": sim["sim_resp_p99_s"],
        "bench.resp_samples": sim["count.sim_resp_samples"],
        "error_frac": ratio(rep["failed"], rep["attempted"]),
        "sim_tput_gain": sim.get("sim_tput_gain"),
        "sim_fault_slowdown": sim.get("sim_fault_slowdown"),
        "sim_slo_miss_frac": sim.get("sim_slo_miss_frac"),
    }
    for name in ("workload", "setup", "sim.run", "check", "task.fn",
                 "core.claim", "mech.decide", "serve.make_region",
                 "serve.arrival"):
        s = spans[name]
        m["self_ms." + name] = (s["self_ns"] / tp * 1e-6
                                if s["count"] and tp else None)
    return m


def run_workload(exe, args):
    runs = os.path.join(build_dir(), "runs")
    os.makedirs(runs, exist_ok=True)
    stem = "%s-seed%d-trace%d%s" % (args.workload, args.seed, args.trace,
                                    "-quick" if args.quick else "")
    report = os.path.join(runs, stem + ".json")
    span_file = os.path.join(runs, stem + ".spans.json")
    for p in (report, span_file):
        if os.path.exists(p):
            os.remove(p)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--report", report]
    if args.trace:
        cmd += ["--trace", "--spans", span_file]
    if args.quick:
        cmd.append("--quick")
    r = subprocess.run(cmd)
    if r.returncode != 0 or not os.path.isfile(report):
        fail("wsbench exited with %d" % r.returncode)
    return load_json(report), (span_file if args.trace else None)


def emit(rep, workload, trace, bench):
    group = "per_layer" if trace else "end_to_end"
    specs = bench[group]
    values = per_layer(rep, workload) if trace else end_to_end(rep)
    correct = rep["wrong_outputs"] == 0 and not rep["gates"]

    print("== wsbench %s, seed %d, %s ==" % (
        workload, rep["seed"], "per-layer (trace 1)" if trace
        else "end-to-end (trace 0)"))
    for f in rep["failures"]:
        print("   failed: " + f)
    for g in rep["gates"]:
        print("   GATE: " + g)
    for fam, why in sorted(rep["bounds"].items()):
        print("   bound of %s: %s" % (fam, why))
    plain = rep["passes"]["plain"]["host_s"]
    pl = rep["passes"]["plain"]
    print("   untraced passes: %d; pass host time scaled to the reference"
          " host: median %.6g s, highest percentile with ten passes beyond"
          " %.6g s; unscaled: median %.6g s, same percentile %.6g s; host"
          " speed %.4g of the reference"
          % (len(plain), median(scaled(pl, "host_s")),
             tail(scaled(pl, "host_s")), median(plain), tail(plain),
             host_speed(pl)))
    metrics = {}
    for spec in specs:
        name = spec["name"]
        v = values.get(name)
        shown = "absent" if v is None else "%.6g" % v
        print("   %-28s %14s %s" % (name, shown, spec["unit"]))
        metrics[name] = {"value": 0.0 if v is None else float(v),
                         "unit": spec["unit"]}
    print(json.dumps({"correct": correct, "attempted": rep["attempted"],
                      "failed": rep["failed"], "metrics": metrics}))
    return correct, set(metrics)


def list_metrics(bench, man):
    for group in ("end_to_end", "per_layer"):
        print("# " + group)
        for spec in bench[group]:
            extra = (" bound %.2f" % spec["bound"]) if "bound" in spec else ""
            module = man[group].get(spec["name"], {}).get("module", "?")
            print("%-28s %-6s %-6s%s  [%s]" % (spec["name"], spec["unit"],
                                               spec["better"], extra, module))


def check_manifest(bench, man):
    """Every metric and workload of BENCHMARK.json has a metrics.json entry,
    and metrics.json describes nothing BENCHMARK.json does not name."""
    errors = []
    for group in ("end_to_end", "per_layer"):
        listed = {m["name"] for m in bench[group]}
        for name in sorted(listed ^ set(man[group])):
            errors.append("%s %s: in only one of BENCHMARK.json and "
                          "metrics.json" % (group, name))
    listed = {w["name"] for w in bench["workloads"]}
    for name in sorted(listed ^ set(man["workloads"])):
        errors.append("workload %s: in only one of BENCHMARK.json and "
                      "metrics.json" % name)
    return errors


def smoke(exe, bench, man):
    """Each workload completes at a tiny size, both trace modes, and the
    emitted metric names match BENCHMARK.json exactly."""
    errors = check_manifest(bench, man)
    for w in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            args = argparse.Namespace(workload=w, seed=man["default_seed"],
                                      seconds=0.05, trace=trace, quick=True)
            rep, _ = run_workload(exe, args)
            correct, names = emit(rep, w, trace, bench)
            group = "per_layer" if trace else "end_to_end"
            want = {m["name"] for m in bench[group]}
            if names != want:
                errors.append("%s trace %d: emitted names differ" % (w, trace))
            if not correct:
                errors.append("%s trace %d: not correct" % (w, trace))
            if rep["attempted"] < 1:
                errors.append("%s trace %d: nothing attempted" % (w, trace))
    for e in errors:
        print("SMOKE FAIL: " + e)
    print("SMOKE: %s" % ("FAIL" if errors else "OK"))
    return 1 if errors else 0


def main():
    bench = benchmark()
    man = manifest()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload",
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny sizes: a smoke run, not a measurement")
    ap.add_argument("--list", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if args.list:
        list_metrics(bench, man)
        return 0
    exe = build()
    if args.smoke:
        return smoke(exe, bench, man)
    if not args.workload:
        ap.error("--workload is required")
    if args.seed is None:
        args.seed = man["default_seed"]
    if not (args.seconds > 0 and math.isfinite(args.seconds)):
        ap.error("--seconds must be positive")
    rep, _ = run_workload(exe, args)
    emit(rep, args.workload, args.trace, bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
