#!/usr/bin/env bash
# Repeated `wap analyze --jobs 2` over long straight-line inputs.
#
# Each run is a fresh process, so every run re-creates the engine's
# metric handles and races its worker domains through the first pool
# fan-out again.  The inputs are the long-flow shapes: a `.=` append
# chain, one long `.` concatenation and a return-value call chain, each
# at n, 2n and 4n.  Every run must exit 0 and print the same report as
# the first successful one.
#
# Usage: scripts/jobs_smoke.sh  (WAP overrides the binary under test)
set -euo pipefail

WAP=${WAP:-_build/default/bin/wap_cli.exe}
RUNS=20
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

if [ ! -x "$WAP" ]; then
  echo "jobs_smoke: $WAP not found (run 'dune build bin/wap_cli.exe' first)" >&2
  exit 2
fi

append() { # n
  {
    echo '<?php'
    echo '$v = $_GET["a"];'
    for ((i = 0; i < $1; i++)); do echo '$v .= "y";'; done
    echo 'echo $v;'
  } > "$WORK/append_$1.php"
}

concat() { # n operands
  {
    echo '<?php'
    printf 'echo $_GET["c"]'
    for ((i = 1; i < $1; i++)); do printf ' . "y"'; done
    echo ';'
  } > "$WORK/concat_$1.php"
}

chain() { # n functions, declared callee-first
  {
    echo '<?php'
    for ((i = $1; i >= 1; i--)); do
      echo "function c$1_$i(\$x) {"
      if [ "$i" -eq "$1" ]; then
        echo '  return $x;'
      else
        echo '  $w = $x;'
        echo "  return c$1_$((i + 1))(\$w);"
      fi
      echo '}'
    done
    echo "echo c$1_1(\$_GET[\"h\"]);"
  } > "$WORK/chain_$1.php"
}

for n in 1000 2000 4000; do append "$n"; done
for n in 8000 16000 32000; do concat "$n"; done
for n in 250 500 1000; do chain "$n"; done

failures=0
ref=""
for ((run = 1; run <= RUNS; run++)); do
  if "$WAP" analyze --jobs 2 "$WORK"/*.php > "$WORK/out.$run" 2> "$WORK/err.$run"; then
    if [ -z "$ref" ]; then
      ref=$run
    elif ! cmp -s "$WORK/out.$ref" "$WORK/out.$run"; then
      echo "jobs_smoke: run $run: report differs from run $ref" >&2
      failures=$((failures + 1))
    fi
  else
    echo "jobs_smoke: run $run: exit $?" >&2
    sed 's/^/  /' "$WORK/err.$run" >&2
    failures=$((failures + 1))
  fi
done

echo "jobs_smoke: $failures failure(s) in $RUNS runs"
[ "$failures" -eq 0 ]
