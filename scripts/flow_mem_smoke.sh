#!/usr/bin/env bash
# Peak memory of `wap analyze --json` on long single-file flows.
#
# Two generated files, each carrying one tainted flow:
#   append_8000.php  reads a superglobal into $a, appends to it with 8000
#                    `$a .= "y";` statements and echoes it (8000 steps);
#   chain_2000.php   a return-value chain f1 -> ... -> f2000, declared
#                    callee-first, with `echo f1($_GET[...])` at the end
#                    (the shape of perfbench/inputs.py's `_chain`).
# Each run must exit 0 with a peak resident set below LIMIT_MB.  Peak RSS
# is the child's ru_maxrss, read with python3's os.wait4.
#
# Usage: scripts/flow_mem_smoke.sh  (WAP overrides the binary under test)
set -euo pipefail

WAP=${WAP:-_build/default/bin/wap_cli.exe}
APPENDS=8000
CHAIN=2000
LIMIT_MB=256
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

if [ ! -x "$WAP" ]; then
  echo "flow_mem_smoke: $WAP not found (run 'dune build bin/wap_cli.exe' first)" >&2
  exit 2
fi

{
  echo '<?php'
  echo '$a = $_GET["x"];'
  for ((i = 0; i < APPENDS; i++)); do echo '$a .= "y";'; done
  echo 'echo $a;'
} > "$WORK/append_$APPENDS.php"

{
  echo '<?php'
  echo "function f$CHAIN(\$x) {"
  echo '  return $x;'
  echo '}'
  for ((i = CHAIN - 1; i >= 1; i--)); do
    echo "function f$i(\$x) {"
    echo '  $v = $x;'
    echo "  return f$((i + 1))(\$v);"
    echo '}'
  done
  echo 'echo f1($_GET["q"]);'
} > "$WORK/chain_$CHAIN.php"

python3 - "$WAP" "$LIMIT_MB" "$WORK/append_$APPENDS.php" "$WORK/chain_$CHAIN.php" <<'PY'
import os, sys, time

wap, limit, paths = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
ok = True
for path in paths:
    t0 = time.monotonic()
    with open(os.devnull, "wb") as null:
        pid = os.fork()
        if pid == 0:
            os.dup2(null.fileno(), 1)
            os.execv(wap, [wap, "analyze", "--json", path])
        _, status, usage = os.wait4(pid, 0)
    wall = time.monotonic() - t0
    rc = os.waitstatus_to_exitcode(status)
    peak_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
    print("flow_mem_smoke: %s: exit %d, %.1f s wall, peak RSS %.1f MB (limit %.0f MB)"
          % (os.path.basename(path), rc, wall, peak_mb, limit))
    ok = ok and rc == 0 and peak_mb < limit
sys.exit(0 if ok else 1)
PY
