"""Per-layer metrics from the span files the traced replays write."""

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(HERE, "layers.json")) as f:
    METRICS = json.load(f)["metrics"]

# span name -> per-layer time metric (summed self time)
TIME_SPANS = {
    "php.lex": "php.lex_s",
    "php.parse": "php.parse_s",
    "taint.pass1": "taint.pass1_s",
    "taint.pass2": "taint.pass2_s",
    "taint.finalize": "taint.finalize_s",
    "ir.lower": "ir.lower_s",
    "ir.exec": "ir.exec_s",
    "mining.dataset": "mining.dataset_s",
    "mining.train": "mining.train_s",
    "mining.classify": "mining.classify_s",
    "cli.startup": "cli.startup_s",
    "cli.read": "cli.read_s",
    "engine.open": "engine.open_s",
    "engine.diagnostics": "engine.diagnostics_s",
    "engine.update": "engine.update_s",
    "engine.scan": "engine.scan_s",
    "serve.didopen": "serve.didopen_s",
    "serve.codeaction": "serve.codeaction_s",
    "core.export": "core.export_s",
}
ALLOC_LAYERS = ("php", "taint", "ir", "mining", "engine", "serve", "core")
GROWTH_SPANS = ("taint.pass1", "taint.pass2", "ir.lower", "ir.exec")


def load(path):
    with open(path) as f:
        return json.load(f)


def self_times(events):
    """Per span id: (event, self seconds, self words allocated)."""
    by_id = {e["args"]["id"]: e for e in events}
    child_t, child_a = {}, {}
    for e in events:
        p = e["args"]["parent"]
        if p in by_id:
            child_t[p] = child_t.get(p, 0.0) + e["dur"]
            child_a[p] = child_a.get(p, 0.0) + e["args"]["alloc_w"]
    return [
        (e, (e["dur"] - child_t.get(i, 0.0)) / 1e6,
         e["args"]["alloc_w"] - child_a.get(i, 0.0))
        for i, e in by_id.items()
    ]


def growth(events, rungs):
    """Worst ratio, over the long-flow shapes, of a file's taint+ir time
    at 4n to its time at 2n."""
    per_file = {}
    for e in events:
        f = e["args"].get("file")
        if f is not None and e["name"] in GROWTH_SPANS:
            per_file[f] = per_file.get(f, 0.0) + e["dur"]
    worst = 0.0
    shapes = {}
    for shape, n, path in rungs:
        shapes.setdefault(shape, []).append((n, per_file.get(path, 0.0)))
    for sizes in shapes.values():
        sizes.sort()
        (_, t2), (_, t4) = sizes[-2], sizes[-1]
        if t2 > 0:
            worst = max(worst, t4 / t2)
    return worst


def metrics(traces, untraced, rungs=None):
    """Every per-layer metric from the traced replays' span files and
    the untraced replays' files (same operations, spans off)."""
    values = {m["name"]: 0.0 for m in METRICS}
    attributed = 0.0
    wall = 0.0
    events_all = []
    didchange = 0.0
    for tr in traces:
        wall += tr["otherData"]["wall_s"]
        for k, v in tr["otherData"]["counters"].items():
            if k in values:
                values[k] += v
        events = tr["traceEvents"]
        events_all += events
        for e, self_s, self_w in self_times(events):
            name = e["name"]
            if name.startswith("op."):
                continue
            attributed += self_s
            if name in TIME_SPANS:
                values[TIME_SPANS[name]] += self_s
            elif name == "serve.didchange":
                didchange += self_s
            layer = name.split(".")[0]
            if layer in ALLOC_LAYERS:
                values[layer + ".alloc_mw"] += self_w / 1e6
    values["serve.didchange_self_s"] = max(0.0, didchange - values["engine.update_s"])
    values["unattributed_s"] = wall - attributed
    if rungs:
        values["taint.growth_per_doubling"] = growth(events_all, rungs)
    traced_replay = sum(t["otherData"]["replay_s"] for t in traces
                        if t["baseline"])
    untraced_replay = sum(u["otherData"]["replay_s"] for u in untraced)
    if untraced_replay > 0:
        values["trace.overhead"] = traced_replay / untraced_replay
    return values


def merge(traces, path):
    """One Chrome trace-event file, one pid per traced process."""
    events = []
    for pid, tr in enumerate(traces, 1):
        for e in tr["traceEvents"]:
            events.append(dict(e, pid=pid))
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
