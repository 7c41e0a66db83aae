#!/usr/bin/env bash
# Runs N pairs of one workload in two checkouts that both hold this
# benchmark (the parent commit and the change), alternating which side
# runs first, then prints the comparison. Results are appended to
# parent.jsonl and change.jsonl in the current directory.
#
#   bash benchmark/pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD N [SECONDS]
set -euo pipefail
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
workload="$3"
n="$4"
secs="${5:-30}"
out="$(pwd)"
run() { # dir side seed
	(cd "$1" && bash benchmark/run.sh --workload "$workload" --seed "$3" \
		--seconds "$secs" --trace 0 --out "$out/$2.jsonl" >/dev/null)
}
for ((i = 1; i <= n; i++)); do
	if ((i % 2)); then
		run "$parent" parent "$i"
		run "$change" change "$i"
	else
		run "$change" change "$i"
		run "$parent" parent "$i"
	fi
done
cd "$change" && bash benchmark/run.sh --compare "$out/parent.jsonl" "$out/change.jsonl"
