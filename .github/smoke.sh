#!/usr/bin/env bash
# CLI and benchmark smoke checks shared by the CI jobs.  Run from the root
# of a checkout with qchanc installed: bash .github/smoke.sh
set -euo pipefail

# each file's bytes must be json.dumps(its document, sort_keys=True, indent=2)
# plus a newline, as every JSON document qchanc writes is
stdlib_bytes() {
  python -c 'import json, sys; bad = [f for f in sys.argv[1:] if open(f).read() != json.dumps(json.load(open(f)), sort_keys=True, indent=2) + "\n"]; print("not stdlib bytes:", bad); sys.exit(bool(bad))' "$@"
}

# Scale: a 6-site reference, whose dense superoperator would be 4096 x 4096
spec=$(qchanc bench tfim --sites 6 --out scale-smoke)
timeout 120 qchanc error-sweep "$spec" --deltas 0.01 --out scale-smoke/sweep.csv
test "$(wc -l < scale-smoke/sweep.csv)" -eq 2

# SELECT scale: a 5-site order-2 compile, 111 Kraus operators through the
# monotone SELECT; the report's cost, priced from the encoding records,
# against a walk of the emitted circuit
spec=$(qchanc bench tfim --sites 5 --out select-smoke)
t0=$EPOCHREALTIME
timeout 120 qchanc compile "$spec" --frontend order:2,2,2 --delta 0.01 --flatten --order --out select-smoke/out
python -c 'import sys; print("tfim5 compile wall time: %.2f s" % (float(sys.argv[2]) - float(sys.argv[1])))' "$t0" "$EPOCHREALTIME"
python -c 'import json, sys; k = json.load(open(sys.argv[1]))["kraus_count"]; print("kraus_count:", k); sys.exit(k != 111)' select-smoke/out/report.json
qchanc cost select-smoke/out/circuit.json > select-smoke/cost.json
python -c 'import json, sys; walk = json.load(open(sys.argv[1])); report = json.load(open(sys.argv[2]))["cost"]; print("cost:", walk); sys.exit(walk != report)' select-smoke/cost.json select-smoke/out/report.json

# Simulation at the cap: verify a 14-qubit circuit (first-order tfim6,
# ordered), which the in-place simulator takes in seconds
spec=$(qchanc bench tfim --sites 6 --out cap-smoke)
qchanc compile "$spec" --frontend first --delta 0.01 --order --out cap-smoke/out
timeout 60 qchanc verify cap-smoke/out/circuit.json --reference "$spec" --delta 0.01 --samples 4 > cap-smoke/verify.json
python -c 'import json, sys; s = json.load(open(sys.argv[1])); print("max_trace_distance:", s["max_trace_distance"], "bound:", s["bound"]); sys.exit(not s["max_trace_distance"] <= s["bound"])' cap-smoke/verify.json

# Term-list JSON: a rank-minimized 32-vertex hypercube through the bulk
# term-list reader and writer, byte-compared with the stdlib encoder
inst=$(qchanc bench hypercube --vertices 32 --out json-smoke)
qchanc rewrite "$inst" --minimize-rank --out json-smoke/min.json
stdlib_bytes json-smoke/min.json

# Circuit and report JSON: an order-2, flattened, ordered, rank-minimized
# compile, an order-3 flattened, ordered compile of tfim2 (85 Kraus
# operators sharing 15 SelectTables, whose audit text is formed once per
# table), and a flattened compile of a channel holding an opaque block
# encoding with a matrix (0.8 Z as a blockenc, 0.6 X), through the
# per-kind circuit writer and the report writer, each file byte-compared
# with the stdlib encoder; the opaque circuit verifies
inst=$(qchanc bench tfim --sites 3 --out json-smoke)
qchanc compile "$inst" --frontend order:2,2,2 --delta 0.01 --flatten --order --minimize-rank --out json-smoke/tfim3
inst2=$(qchanc bench tfim --sites 2 --out json-smoke)
qchanc compile "$inst2" --frontend order:3,3,2 --delta 0.01 --flatten --order --out json-smoke/tfim2
echo '{"n": 1, "kraus": [[{"coeff": [0.8, 0], "blockenc": {"handle": "u", "n": 1, "alpha": 1.0, "anc": 1, "matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]}}], [{"coeff": [0.6, 0], "pauli": "X"}]]}' > json-smoke/opaque.json
qchanc compile json-smoke/opaque.json --frontend channel --flatten --out json-smoke/opaque
qchanc verify json-smoke/opaque/circuit.json --reference json-smoke/opaque.json > json-smoke/opaque-verify.json
python -c 'import json, sys; s = json.load(open(sys.argv[1])); print("opaque max_trace_distance:", s["max_trace_distance"]); sys.exit(not s["max_trace_distance"] <= 1e-9)' json-smoke/opaque-verify.json
stdlib_bytes json-smoke/tfim3/circuit.json json-smoke/tfim3/report.json json-smoke/tfim2/circuit.json json-smoke/tfim2/report.json json-smoke/opaque/circuit.json json-smoke/opaque/report.json

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

# Bad input: malformed JSON containers and records (a missing key, a list
# for a circuit, a control that is no pair), an unbounded Duhamel
# expansion and an unbounded drift Taylor order must each exit 2 within
# 30 s, with a message and no traceback
mkdir -p bad-smoke
echo '{"n": 1, "H": {}, "jumps": []}' > bad-smoke/h-dict.json
echo '{"n": 1, "kraus": [[5]]}' > bad-smoke/term-int.json
echo '{"n": 1, "kraus": [[{"pauli": "X"}]]}' > bad-smoke/no-coeff.json
echo '[]' > bad-smoke/circuit-list.json
inst=$(qchanc bench tfim --sites 2 --out bad-smoke)
qchanc compile "$inst" --delta 0.01 --flatten --order --out bad-smoke/tfim2
python -c 'import json, sys; d = json.load(open(sys.argv[1])); json.dump({**d, "gates": ""}, open(sys.argv[2], "w")); json.dump({**d, "gates": [{k: v for k, v in d["gates"][0].items() if k != "kind"}]}, open(sys.argv[3], "w")); g = next(g for g in d["gates"] if g["kind"] == "controlled"); g["controls"] = [5]; json.dump(d, open(sys.argv[4], "w")); g["controls"] = {}; json.dump(d, open(sys.argv[5], "w"))' bad-smoke/tfim2/circuit.json bad-smoke/gates-string.json bad-smoke/gate-no-kind.json bad-smoke/control-int.json bad-smoke/controls-dict.json
expect_exit_2() {
  local code=0
  timeout 30 "$@" > /dev/null 2> bad-smoke/err.txt || code=$?
  cat bad-smoke/err.txt
  if [ "$code" != 2 ] || grep -q Traceback bad-smoke/err.txt; then
    echo "expected exit 2 and no traceback, got exit $code: $*"
    exit 1
  fi
}
expect_exit_2 qchanc compile bad-smoke/h-dict.json --delta 0.01 --out bad-smoke/x
expect_exit_2 qchanc compile bad-smoke/term-int.json --frontend channel --out bad-smoke/x
expect_exit_2 qchanc compile bad-smoke/no-coeff.json --frontend channel --out bad-smoke/x
expect_exit_2 qchanc cost bad-smoke/gates-string.json
expect_exit_2 qchanc cost bad-smoke/gate-no-kind.json
expect_exit_2 qchanc cost bad-smoke/circuit-list.json
expect_exit_2 qchanc verify bad-smoke/control-int.json --reference "$inst" --delta 0.01
expect_exit_2 qchanc verify bad-smoke/controls-dict.json --reference "$inst" --delta 0.01
expect_exit_2 qchanc compile "$inst" --frontend order:30,1,1 --delta 0.01 --out bad-smoke/x
expect_exit_2 qchanc compile "$inst" --frontend order:1,100000000,1 --delta 0.01 --out bad-smoke/x

# Every other JSON document qchanc wrote above, byte-compared with the
# stdlib encoder: the bench instances, the tfim5 order-2 compile (25 MB),
# the unflattened ordered tfim6 compile, the cost and verify outputs, the
# replay steps and the bad-input section's compile
stdlib_bytes scale-smoke/*.json select-smoke/*.json select-smoke/out/*.json \
  cap-smoke/*.json cap-smoke/out/*.json json-smoke/hypcube*.json json-smoke/tfim*.json \
  json-smoke/opaque-verify.json replay-smoke/*.json bad-smoke/tfim*.json bad-smoke/tfim2/*.json

# Benchmark: one short pass of each workload, and one traced pass of each
# (the tracer wraps functions by object identity, aliases included; the
# simulate pass drives its hooks through verify and error-sweep)
check='import json, sys; r = json.loads(sys.stdin.read()); print(sys.argv[1], "correct:", r["correct"], "failed:", r["failed"]); sys.exit(not (r["correct"] is True and r["failed"] == 0))'
for w in compile simulate; do
  python perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace 0 > "smoke-$w.out"
  tail -n 1 "smoke-$w.out" | python -c "$check" "$w"
done
for w in compile simulate; do
  python perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace 1 > "smoke-$w-trace.out"
  tail -n 1 "smoke-$w-trace.out" | python -c "$check" "$w --trace 1"
done
