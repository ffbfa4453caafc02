#!/usr/bin/env bash
# CLI and benchmark smoke checks shared by the CI jobs.  Run from the root
# of a checkout with qchanc installed: bash .github/smoke.sh
set -euo pipefail

# Term-list JSON: a rank-minimized 32-vertex hypercube through the bulk
# term-list reader and writer, byte-compared with the stdlib encoder
inst=$(qchanc bench hypercube --vertices 32 --out json-smoke)
qchanc rewrite "$inst" --minimize-rank --out json-smoke/min.json
python -c 'import json, sys; text = open(sys.argv[1]).read(); sys.exit(text != json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n")' json-smoke/min.json

# Trace replay: replay a rank minimization's trace rule by rule through
# rewrite --rule, each step reading the previous step's output; the Kraus
# count must end where --minimize-rank wrote it, and stay there when the
# last output is minimized again
inst=$(qchanc bench hypercube --vertices 32 --out replay-smoke)
qchanc rewrite "$inst" --minimize-rank --out replay-smoke/min.json
python -c 'import json, sys; [print(e["rule"], json.dumps(e["args"])) for e in json.load(open(sys.argv[1]))["trace"]]' replay-smoke/min.json > replay-smoke/steps.txt
cur=$inst
i=0
while read -r rule args; do
  qchanc rewrite "$cur" --rule "$rule" --rule-args "$args" --out replay-smoke/step$i.json
  cur=replay-smoke/step$i.json
  i=$((i + 1))
done < replay-smoke/steps.txt
qchanc rewrite "$cur" --minimize-rank --out replay-smoke/again.json
python -c 'import json, sys; want, got, again = (len(json.load(open(f))["channel"]["kraus"]) for f in sys.argv[1:4]); print("steps:", sys.argv[4], "kraus_count:", got, "again:", again, "written:", want); sys.exit(got != want or again != want or sys.argv[4] == "0")' replay-smoke/min.json "$cur" replay-smoke/again.json "$i"

# Benchmark: one short pass of each workload, and one traced compile pass
# (the tracer wraps functions by object identity, aliases included)
check='import json, sys; r = json.loads(sys.stdin.read()); print(sys.argv[1], "correct:", r["correct"], "failed:", r["failed"]); sys.exit(not (r["correct"] is True and r["failed"] == 0))'
for w in compile simulate; do
  python perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace 0 > "smoke-$w.out"
  tail -n 1 "smoke-$w.out" | python -c "$check" "$w"
done
python perfbench/run.py --workload compile --seed 1 --seconds 1 --trace 1 > smoke-compile-trace.out
tail -n 1 smoke-compile-trace.out | python -c "$check" "compile --trace 1"
