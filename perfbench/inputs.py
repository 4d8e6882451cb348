"""Workload inputs made from the seed: the file-burst draw order, the
edit-loop edit script and the long-flow ladder with its known flows."""

import os
import random
import string

# --------------------------------------------------------------------
# file-burst

def burst_order(files, seed):
    """All plugin files in a seed-shuffled order; the workload cycles
    through it."""
    order = sorted(files)
    random.Random(seed).shuffle(order)
    return order


# --------------------------------------------------------------------
# edit-loop

DECL_EVERY = 20  # one declaration edit in every block of 20 edits


def unused_fn(index):
    return "function wapbench_unused_%d() { return %d; }\n" % (index, index)


class EditScript:
    """A deterministic edit script over the project's files.

    A body edit rewrites one top-level statement on the last line of a
    file, so only that file's top level is re-analyzed.  A declaration
    edit adds or removes an unused function just above that line, which
    changes the file's function fingerprint and forces a whole-project
    re-analysis.  Neither changes a data flow, so the findings after the
    script equal those after the opens."""

    def __init__(self, paths, seed):
        self.paths = list(paths)
        self.script_seed = random.Random(seed * 7919 + 1).random()
        self.base = {}

    def load(self):
        for p in self.paths:
            with open(p, encoding="utf-8", newline="") as f:
                self.base[p] = f.read()

    def edits(self, count):
        """The first [count] edits: (kind, path, text) triples."""
        rng = random.Random(self.script_seed)
        state = {p: [0, False] for p in self.paths}  # (counter, has_fn)
        out = []
        decl_at = 0
        for i in range(count):
            if i % DECL_EVERY == 0:
                decl_at = i + rng.randrange(DECL_EVERY)
            k = rng.randrange(len(self.paths))
            path = self.paths[k]
            st = state[path]
            if i == decl_at:
                kind = "decl"
                st[1] = not st[1]
            else:
                kind = "body"
                st[0] += 1
            text = self.base[path]
            if st[1]:
                text += unused_fn(k)
            if st[0]:
                text += "$wapbench_edit = %d;\n" % st[0]
            out.append((kind, path, text))
        return out


def last_line(text):
    """0-based index of the last line of a newline-terminated text."""
    return len(text.split("\n")) - 2


def write_script(path, edits):
    with open(path, "wb") as f:
        for kind, file, text in edits:
            data = text.encode("utf-8")
            f.write(b"%s\t%s\t%d\n" % (kind.encode(), file.encode(), len(data)))
            f.write(data)


# --------------------------------------------------------------------
# long-flow

LADDER = [
    ("append", (1000, 2000, 4000)),
    ("concat", (8000, 16000, 32000)),
    ("chain", (250, 500, 1000)),
]
PROBE_LINKS = 3


def _word(rng, n):
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(n))


def _append(n, src, var, lit):
    lines = ["<?php", "$%s = $%s;" % (var, src)]
    lines += ['$%s .= "%s";' % (var, lit)] * n
    lines.append("echo $%s;" % var)
    return "\n".join(lines) + "\n", len(lines)


def _concat(n, src, var, lit):
    expr = "$%s" % src + (' . "%s"' % lit) * (n - 1)
    return "<?php\necho %s;\n" % expr, 2


def _chain(n, src, var, prefix):
    """Return-value chain f1 -> ... -> fn, declared callee-first."""
    fns = []
    for i in range(n, 0, -1):
        if i == n:
            body = "  return $x;"
        else:
            body = "  $%s = $x;\n  return %s%d($%s);" % (var, prefix, i + 1, var)
        fns.append("function %s%d($x) {\n%s\n}\n" % (prefix, i, body))
    text = "<?php\n" + "".join(fns) + "echo %s1($%s);\n" % (prefix, src)
    return text, text.count("\n")


def _probe(forward, src, prefix):
    """f -> g -> h with h echoing its argument, the order-dependence
    probe: found when declared callee-first, missed caller-first."""
    fns = []
    for i in range(1, PROBE_LINKS + 1):
        body = "echo $x;" if i == PROBE_LINKS else "%s%d($x);" % (prefix, i + 1)
        fns.append(("function %s%d($x) {\n" % (prefix, i), "  %s\n" % body, "}\n"))
    if not forward:
        fns.reverse()
    text = "<?php\n"
    sink = None
    line = 1
    for head, body, tail in fns:
        line += 1
        text += head
        line += 1
        text += body
        if "echo" in body:
            sink = line
        line += 1
        text += tail
    text += "%s1($%s);\n" % (prefix, src)
    return text, sink


def write_ladder(out, seed):
    """Writes the ladder files into [out]; returns (truth, rungs): the
    single known flow of each file as (path, sink line), and the
    (shape, n, path) of every rung."""
    rng = random.Random(seed)
    os.makedirs(out, exist_ok=True)
    truth, rungs = [], []
    for shape, sizes in LADDER:
        for n in sizes:
            src = "_GET['%s']" % _word(rng, 4)
            var = "v" + _word(rng, 3)
            lit = _word(rng, 1)
            if shape == "append":
                text, sink = _append(n, src, var, lit)
            elif shape == "concat":
                text, sink = _concat(n, src, var, lit)
            else:
                text, sink = _chain(n, src, var, "%s_%d_" % (_word(rng, 3), n))
            path = os.path.join(out, "%s_%05d.php" % (shape, n))
            with open(path, "w") as f:
                f.write(text)
            truth.append((path, sink))
            rungs.append((shape, n, path))
    for name, forward in (("probe_forward", True), ("probe_reverse", False)):
        src = "_GET['%s']" % _word(rng, 4)
        text, sink = _probe(forward, src, "%s_%s_" % (_word(rng, 3), name[6]))
        path = os.path.join(out, name + ".php")
        with open(path, "w") as f:
            f.write(text)
        truth.append((path, sink))
    return truth, rungs
