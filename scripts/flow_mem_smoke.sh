#!/usr/bin/env bash
# Peak memory of `wap analyze --json` on one long straight-line file.
#
# The file reads a superglobal into $a, appends to it with 8000
# `$a .= "y";` statements and echoes it, so one tainted flow carries
# 8000 steps.  The run must exit 0 with a peak resident set below
# LIMIT_MB.  Peak RSS is the child's ru_maxrss, read with python3's
# os.wait4.
#
# Usage: scripts/flow_mem_smoke.sh  (WAP overrides the binary under test)
set -euo pipefail

WAP=${WAP:-_build/default/bin/wap_cli.exe}
N=8000
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
  for ((i = 0; i < N; i++)); do echo '$a .= "y";'; done
  echo 'echo $a;'
} > "$WORK/append_$N.php"

python3 - "$WAP" "$WORK/append_$N.php" "$LIMIT_MB" <<'PY'
import os, sys, time

wap, path, limit = sys.argv[1], sys.argv[2], float(sys.argv[3])
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
print("flow_mem_smoke: exit %d, %.1f s wall, peak RSS %.1f MB (limit %.0f MB)"
      % (rc, wall, peak_mb, limit))
sys.exit(0 if rc == 0 and peak_mb < limit else 1)
PY
