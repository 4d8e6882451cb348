#!/usr/bin/env python3
"""Benchmark of the wap scanner at its entry points, with a traced
per-layer replay.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload tree-scan --seed 2016 --seconds 10 --trace 0

It builds bin/wap_cli.exe and perfbench/wapbench.exe with dune, makes the
workload's inputs from the seed under perfbench/_work/, and then

  --trace 0  drives the real `wap` binary in a closed loop (one client,
             one operation at a time) for --seconds, checks every output,
             and reports the end-to-end metrics;
  --trace 1  replays the workload in-process with spans around every
             call into a layer (wapbench.exe), once with spans off and
             once on, and reports the per-layer metrics of layers.json.

Workloads:
  tree-scan   `wap analyze --json` over the 54 generated web applications
              scanned as one project;
  file-burst  `wap analyze --json FILE`, one plugin file per process;
  edit-loop   a `wap serve` daemon with every file of the vfront app open,
              driven by didChange + codeAction;
  long-flow   `wap analyze --json` over generated straight-line programs
              at n, 2n and 4n, plus two declaration-order probes.

Stdout ends with a human-readable report (a JSON document) followed by
the one-line result: {"correct", "attempted", "failed", "metrics"}.
The Chrome trace of a traced run is written to perfbench/_work/.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import layers  # noqa: E402
import lsp  # noqa: E402
import verdict  # noqa: E402

WAP = os.path.join("_build", "default", "bin", "wap_cli.exe")
HELPER = os.path.join("_build", "default", "perfbench", "wapbench.exe")
WORK = os.path.join("perfbench", "_work")
WORKLOADS = ("tree-scan", "file-burst", "edit-loop", "long-flow")
SETUPS = 3  # set-ups per run; setup_s is their median
PROC_TIMEOUT = 150
E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_mean_ms": "ms",
    "peak_rss_mb": "MB",
}
BURST_VERDICT_FILES = 20  # file-burst verdicts cover the first 20 files drawn
# minimum operations per run, whatever --seconds says
MIN_OPS = {"tree-scan": 3, "file-burst": BURST_VERDICT_FILES, "edit-loop": 60,
           "long-flow": 2}
TRACED_FILES = 10  # file-burst files replayed in the traced run
TRACED_EDITS = 100  # edit-loop edits replayed in the traced run


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def now():
    return time.perf_counter()


# --------------------------------------------------------------------
# build and processes

def build():
    for f in ("dune-project", os.path.join("bin", "wap_cli.ml"),
              os.path.join("perfbench", "dune")):
        if not os.path.exists(f):
            die("not a wap source checkout (missing %s)" % f)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./bin/wap_cli.exe",
             "./perfbench/wapbench.exe"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=870)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace")[-4000:])
        die("build failed")


def run_proc(argv, out_path=None):
    """Run to completion with stdout to [out_path]; returns (wall
    seconds, peak RSS in MB from wait4, exit code)."""
    with open(out_path or os.devnull, "wb") as out:
        t0 = now()
        p = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL)
        timer = threading.Timer(PROC_TIMEOUT, p.kill)
        timer.start()
        _, status, usage = os.wait4(p.pid, 0)
        wall = now() - t0
        timer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, p.returncode


def helper(*args):
    _, _, rc = run_proc([HELPER] + [str(a) for a in args])
    if rc != 0:
        die("wapbench %s failed (exit %d)" % (args[0], rc))


def php_files(d):
    out = []
    for root, dirs, files in os.walk(d):
        dirs.sort()
        out += [os.path.join(root, f) for f in files if f.endswith(".php")]
    return sorted(out)


def gen_corpus(set_name, seed, d):
    """Generate a corpus set; returns (seconds, truth)."""
    t0 = now()
    helper("gen", "--set", set_name, "--seed", seed, "--out", d)
    wall = now() - t0
    with open(os.path.join(d, "truth.json")) as f:
        return wall, json.load(f)


# --------------------------------------------------------------------
# statistics

def tail(xs):
    """The highest percentile with at least 10 samples beyond it, as
    (percentile, value), or None below 11 samples."""
    n = len(xs)
    if n < 11:
        return None
    return (100 * (n - 10) // n, sorted(xs)[n - 11])


def timing(run, median_name, tail_name, xs, unit):
    """Report a timing as its median and, when there are enough samples,
    the highest percentile with at least 10 samples beyond it (the
    percentile it really is goes with it)."""
    run.report[median_name] = {"value": statistics.median(xs) if xs else None,
                               "unit": unit, "n": len(xs)}
    if tail_name:
        t = tail(xs)
        run.report[tail_name] = {"value": t and t[1], "unit": unit,
                                 "percentile": t and t[0], "n": len(xs)}


# --------------------------------------------------------------------
# one run's bookkeeping

class Run:
    def __init__(self, args):
        self.args = args
        self.attempted = 0
        self.failed = 0
        self.checks = {}
        self.report = {}
        self.samples = {}

    def op(self, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
        return ok

    def check(self, name, ok):
        self.checks[name] = self.checks.get(name, True) and ok

    def until_done(self, min_ops):
        """Closed loop: True while the run should start another op."""
        t_end = now() + self.args.seconds
        count = 0
        while count < min_ops or now() < t_end:
            yield count
            count += 1


def read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def verdicts(run, export_text, truth):
    """Count verdict errors of one export and run the drop-one self-test
    on it; returns the error breakdown."""
    export = json.loads(export_text)
    errs = verdict.seeded_errors(export, truth)
    st = verdict.drop_one_self_test(export, truth)
    if st is not None:
        run.check("verdict_self_test", st)
    return errs


# --------------------------------------------------------------------
# end-to-end workloads (--trace 0)

def analyze_loop(run, make_inputs, paths_of, name):
    """The closed loop of tree-scan, file-burst and long-flow.  A set-up
    makes the inputs (make_inputs returns their ground truth) and runs
    one cold `wap analyze` of the first input; it is repeated SETUPS
    times and setup_s is the median, so that work moved out of the
    measured operation into a first run shows in setup_s.  Returns
    (set-up times, latencies in ms, peak RSS, the first export of each
    input as (path, text), ground truth)."""
    a = run.args
    out = os.path.join(WORK, name + "-export.json")
    digests, firsts, setup, lat, peak = {}, [], [], [], 0.0

    def op(i):
        path = paths_of(i)
        wall, rss, rc = run_proc(
            [WAP, "analyze", "--json", "--jobs", str(a.jobs), path], out)
        text = read(out) if rc == 0 else ""
        first = path not in digests
        ok = rc == 0 and digests.setdefault(path, verdict.digest(text)) == verdict.digest(text)
        if run.op(ok) and first:
            firsts.append((path, text))
        return wall if ok else None, rss

    for _ in range(SETUPS):
        t0 = now()
        truth = make_inputs()
        _, rss = op(0)
        setup.append(now() - t0)
        peak = max(peak, rss)
    for i in run.until_done(MIN_OPS[a.workload]):
        wall, rss = op(i)
        if wall is not None:
            lat.append(wall * 1e3)
        peak = max(peak, rss)
    return setup, lat, peak, firsts, truth


def e2e_tree_scan(run):
    d = os.path.join(WORK, "tree")
    setup, lat, peak, firsts, truth = analyze_loop(
        run, lambda: gen_corpus("webapps", run.args.seed, d)[1],
        lambda i: d, "tree")
    errs = verdicts(run, firsts[0][1], truth) if firsts else None
    timing(run, "tree_scan_s", "tree_scan_tail_s", [x / 1e3 for x in lat], "s")
    return setup, lat, peak, errs


def e2e_file_burst(run):
    d = os.path.join(WORK, "plugins")
    order = []

    def make_inputs():
        truth = gen_corpus("plugins", run.args.seed, d)[1]
        order[:] = inputs.burst_order(php_files(d), run.args.seed)
        return truth

    setup, lat, peak, firsts, truth = analyze_loop(
        run, make_inputs, lambda i: order[i % len(order)], "file")
    errs = {"missed": 0, "false_positives": 0, "outside": 0, "total": 0}
    for path, text in firsts[:BURST_VERDICT_FILES]:
        e = verdicts(run, text, [s for s in truth if s["file"] == path])
        errs = {k: errs[k] + e[k] for k in errs}
    timing(run, "file_p50_ms", "file_p90_ms", lat, "ms")
    return setup, lat, peak, errs


def open_daemon(run, script):
    """Start a daemon and didOpen every file; returns (daemon, seconds
    from start to the answer of a codeAction sent after the opens)."""
    a = run.args
    t0 = now()
    dm = lsp.Daemon([WAP, "serve", "--jobs", str(a.jobs), "--log-level", "quiet"])
    ok = dm.request("initialize", {"capabilities": {}}) is not None
    dm.send("initialized", {})
    for p in script.paths:
        dm.send("textDocument/didOpen", {"textDocument": {
            "uri": lsp.uri_of(p), "languageId": "php", "version": 1,
            "text": script.base[p]}})
    last = script.paths[-1]
    ok = ok and dm.code_action(lsp.uri_of(last),
                               inputs.last_line(script.base[last]))
    return dm, now() - t0, ok


def e2e_edit_loop(run):
    a = run.args
    d = os.path.join(WORK, "vfront")
    setup, body, decl, peak = [], [], [], 0.0
    edits = None
    for k in range(SETUPS):
        t_gen, _ = gen_corpus("vfront", a.seed, d)
        script = inputs.EditScript(php_files(d), a.seed)
        script.load()
        if edits is None:
            edits = script.edits(5000)
        dm, t_open, ok = open_daemon(run, script)
        setup.append(t_gen + t_open)
        run.op(ok)
        initial = dict(dm.diagnostics)
        t_end = now() + a.seconds / SETUPS
        i = 0
        while ok and (i < MIN_OPS["edit-loop"] // SETUPS or now() < t_end):
            kind, path, text = edits[i]
            uri = lsp.uri_of(path)
            t0 = now()
            try:
                dm.send("textDocument/didChange", {
                    "textDocument": {"uri": uri, "version": i + 2},
                    "contentChanges": [{"text": text}]})
                ok = dm.code_action(uri, inputs.last_line(text))
            except (OSError, ValueError):
                ok = False
            if run.op(ok):
                (decl if kind == "decl" else body).append((now() - t0) * 1e3)
            i += 1
        run.check("edits_keep_findings", ok and dm.diagnostics == initial)
        rc, rss = dm.close()
        run.op(rc == 0)
        peak = max(peak, rss)
    timing(run, "edit_p50_ms", None, body, "ms")
    timing(run, "edit_all_p50_ms", "edit_p99_ms", body + decl, "ms")
    timing(run, "edit_decl_p50_ms", None, decl, "ms")
    return setup, body + decl, peak, None


def e2e_long_flow(run):
    d = os.path.join(WORK, "flow")
    setup, lat, peak, firsts, truth = analyze_loop(
        run, lambda: verdict.flow_truth(inputs.write_ladder(d, run.args.seed)[0]),
        lambda i: d, "flow")
    errs = verdicts(run, firsts[0][1], truth) if firsts else None
    timing(run, "flow_s", "flow_tail_s", [x / 1e3 for x in lat], "s")
    return setup, lat, peak, errs


E2E = {"tree-scan": e2e_tree_scan, "file-burst": e2e_file_burst,
       "edit-loop": e2e_edit_loop, "long-flow": e2e_long_flow}


# --------------------------------------------------------------------
# traced replays (--trace 1)

def replay(run, mode, paths, spans, extra=()):
    """One wapbench replay process; returns its span file."""
    a = run.args
    path = os.path.join(WORK, "spans-%s-%s.json" % (mode, spans))
    argv = [HELPER, "trace", "--mode", mode, "--wap", WAP, "--jobs",
            str(a.jobs), "--trace-out", path, "--spans", spans]
    argv += list(extra) + list(paths)
    _, _, rc = run_proc(argv)
    if not run.op(rc == 0):
        die("traced replay %s failed (exit %d)" % (mode, rc))
    tr = layers.load(path)
    for k, v in tr["otherData"]["checks"].items():
        run.check("%s.%s" % (mode, k), v)
    return tr


def traced(run):
    """Rounds of replays until --seconds are up (at least one).  A round
    replays the workload with spans on, and with spans off in a separate
    process for the overhead (alternating which goes first); each
    per-layer metric is the median over the rounds."""
    a = run.args
    w = a.workload
    rungs = None
    export = os.path.join(WORK, "tree-replay-export.json")
    if w == "tree-scan":
        d = os.path.join(WORK, "tree")
        _, truth = gen_corpus("webapps", a.seed, d)
        replays = [("tree", [d], ["--export-out", export], True)]
    elif w == "file-burst":
        d = os.path.join(WORK, "plugins")
        gen_corpus("plugins", a.seed, d)
        files = inputs.burst_order(php_files(d), a.seed)[:TRACED_FILES]
        replays = [("files", files, [], True)]
    elif w == "edit-loop":
        d = os.path.join(WORK, "vfront")
        gen_corpus("vfront", a.seed, d)
        script = inputs.EditScript(php_files(d), a.seed)
        script.load()
        sp = os.path.join(WORK, "edit-script.txt")
        inputs.write_script(sp, script.edits(TRACED_EDITS))
        # the daemon replay takes longer than a run; it is replayed once
        replays = [("serve", [d], ["--script", sp], False),
                   ("engine", [d], ["--script", sp], True)]
    else:
        d = os.path.join(WORK, "flow")
        _, rungs = inputs.write_ladder(d, a.seed)
        replays = [("flow", [d], [], True)]
    rounds, first = [], None
    t_end = now() + a.seconds
    serve = None
    while not rounds or now() < t_end:
        traces, untraced = [], []
        for mode, paths, extra, paired in replays:
            if not paired:
                serve = serve or replay(run, mode, paths, "on", extra)
                traces.append(dict(serve, baseline=False))
                continue
            order = ("off", "on") if len(rounds) % 2 == 0 else ("on", "off")
            for spans in order:
                tr = replay(run, mode, paths, spans, extra)
                if spans == "on":
                    traces.append(dict(tr, baseline=True))
                else:
                    untraced.append(tr)
        rounds.append(layers.metrics(traces, untraced, rungs))
        first = first or traces
    if w == "tree-scan":
        cli_out = os.path.join(WORK, "tree-export.json")
        _, _, rc = run_proc([WAP, "analyze", "--json", "--jobs", str(a.jobs), d], cli_out)
        run.op(rc == 0)
        cli_text = read(cli_out) if rc == 0 else ""
        run.check("replay_export_byte_identical",
                  rc == 0 and verdict.mask_timings(read(export))
                  == verdict.mask_timings(cli_text))
        run.report["verdict_errors"] = verdicts(run, cli_text, truth) if rc == 0 else None
    units = {m["name"]: m["unit"] for m in layers.METRICS}
    trace_file = os.path.join(WORK, "trace-%s.json" % w)
    layers.merge(first, trace_file)
    run.report["chrome_trace"] = trace_file
    run.samples = {k: len(rounds) for k in units}
    return {k: {"value": statistics.median(r[k] for r in rounds), "unit": units[k]}
            for k in units}


# --------------------------------------------------------------------
# main

def host(run):
    def out(argv):
        try:
            return subprocess.run(argv, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL,
                                  timeout=30).stdout.decode().strip() or None
        except (OSError, subprocess.TimeoutExpired):
            return None
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "ocaml": out(["ocamlfind", "ocamlopt", "-version"]) or out(["ocamlopt", "-version"]),
        "jobs": run.args.jobs,
        "seed": run.args.seed,
        "seconds": run.args.seconds,
        "commit": out(["git", "rev-parse", "HEAD"]) if os.path.isdir(".git") else None,
        "samples": run.samples,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=2016)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--jobs", type=int, default=1,
                    help="--jobs given to every wap process and replay")
    args = ap.parse_args()
    build()
    os.makedirs(WORK, exist_ok=True)
    run = Run(args)
    if args.trace:
        metrics = traced(run)
    else:
        setup, lat, peak, errs = E2E[args.workload](run)
        if not lat:
            die("no operation succeeded")
        metrics = {
            "setup_s": statistics.median(setup),
            "latency_p50_ms": statistics.median(lat),
            "latency_mean_ms": statistics.fmean(lat),
            "peak_rss_mb": peak,
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}
        timing(run, "setup_s", None, setup, "s")
        run.samples = {"setup_s": len(setup), "latency_p50_ms": len(lat),
                       "latency_mean_ms": len(lat), "peak_rss_mb": SETUPS + len(lat)}
        run.report["peak_rss_mb"] = {"value": peak, "unit": "MB"}
        run.report["verdict_errors"] = errs
    run.report["error_rate"] = {"value": run.failed / max(1, run.attempted),
                                "unit": "failed/attempted"}
    correct = run.failed == 0 and all(run.checks.values())
    print(json.dumps({"workload": args.workload, "host": host(run),
                      "report": run.report, "checks": run.checks}, indent=1))
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
