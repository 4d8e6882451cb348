"""Checks of the program's outputs: export digests that ignore timings,
and verdict errors against the ground truth."""

import copy
import hashlib
import re

# the export fields that are wall/CPU timings, not verdicts
TIMING = re.compile(
    r'^(\s*"(?:analysis_seconds|analysis_cpu_seconds|parse|digest|analyze'
    r'|merge|predict)": )[-0-9.eE+]+',
    re.M,
)


def mask_timings(text):
    """The export text with every timing value replaced by 0."""
    return TIMING.sub(r"\g<1>0", text)


def digest(text):
    return hashlib.sha256(mask_timings(text).encode()).hexdigest()


def reported(export):
    """(file, line) of every finding the export reports as a
    vulnerability."""
    return [
        (f["sink_loc"]["file"], f["sink_loc"]["line"])
        for f in export["findings"]
        if f["kind"] == "vulnerability"
    ]


def seeded_errors(export, truth):
    """verdict errors of an export against seeded snippets (dicts with
    file, lo, hi, label): real snippets with no reported finding, plus
    reported findings inside a non-real snippet, plus reported findings
    outside every snippet."""
    by_file = {}
    for s in truth:
        by_file.setdefault(s["file"], []).append(s)
    found = set()
    fp = outside = 0
    for file, line in reported(export):
        hit = [s for s in by_file.get(file, ()) if s["lo"] <= line <= s["hi"]]
        if not hit:
            outside += 1
        for s in hit:
            if s["label"] == "real":
                found.add(id(s))
            else:
                fp += 1
    missed = sum(1 for s in truth if s["label"] == "real" and id(s) not in found)
    return {"missed": missed, "false_positives": fp, "outside": outside,
            "total": missed + fp + outside}


def flow_truth(flows):
    """Known flows of the long-flow files as seeded entries: one real
    snippet per file covering exactly its sink line."""
    return [{"file": f, "lo": line, "hi": line, "label": "real"}
            for f, line in flows]


def drop_one_self_test(export, truth):
    """Drop one reported finding that alone matches a real snippet and
    check that verdict errors rise by exactly one.  Returns True/False,
    or None when the export has no such finding."""
    base = seeded_errors(export, truth)["total"]
    real = [s for s in truth if s["label"] == "real"]
    hits = {}
    for i, f in enumerate(export["findings"]):
        if f["kind"] != "vulnerability":
            continue
        file, line = f["sink_loc"]["file"], f["sink_loc"]["line"]
        for s in real:
            if s["file"] == file and s["lo"] <= line <= s["hi"]:
                hits.setdefault(id(s), []).append(i)
    lone = [ix[0] for ix in hits.values() if len(ix) == 1]
    if not lone:
        return None
    dropped = copy.deepcopy(export)
    del dropped["findings"][lone[0]]
    return seeded_errors(dropped, truth)["total"] == base + 1
