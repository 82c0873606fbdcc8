#!/usr/bin/env bash
# Same-host A/B of the benchmark in BENCHMARK.json:
#
#   scripts/ab.sh [--pairs N] [--seconds S] [--scratch DIR] <rev>
#
# Exports <rev> (side A) and the current checkout (side B: the files
# `git add -A` would commit, so HEAD on a clean tree) into DIR, which must
# lie outside the repository, with `git archive` and tar; the repository
# itself is left untouched.  For every workload in BENCHMARK.json it then
# runs N pairs (default 10) of
#
#   python3 perfbench/run.py --workload W --seed S --seconds N --trace 0
#
# alternating which side goes first (pair i uses seed 100+i on both
# sides), so host drift hits both sides alike.  For every end-to-end
# metric it prints both medians, the relative change of B against A, and
# A's IQR/median (its noise floor), and flags a metric whose median is
# worse than its BENCHMARK.json bound.  Exits 1 when any metric is flagged
# or a run fails.  perfbench/ itself is not touched.
set -euo pipefail

pairs=10
seconds=""
scratch="${TMPDIR:-/tmp}/vapro_ab"
rev=""
while [ $# -gt 0 ]; do
  case "$1" in
    --pairs) pairs="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --scratch) scratch="$2"; shift 2 ;;
    -*) echo "unknown option $1" >&2; exit 2 ;;
    *) rev="$1"; shift ;;
  esac
done
if [ -z "$rev" ]; then
  echo "usage: scripts/ab.sh [--pairs N] [--seconds S] [--scratch DIR] <rev>" >&2
  exit 2
fi
scratch=$(realpath -m "$scratch")
cd "$(dirname "$0")/.."
git rev-parse --verify --quiet "$rev^{commit}" > /dev/null ||
  { echo "not a commit: $rev" >&2; exit 2; }
if [ -z "$seconds" ]; then
  seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
fi
case "$scratch/" in
  "$(pwd -P)/"*) echo "--scratch must lie outside the repository" >&2; exit 2 ;;
esac

rm -rf "$scratch/a" "$scratch/b" "$scratch/results"
mkdir -p "$scratch/a" "$scratch/b" "$scratch/results"
git archive "$rev" | tar -x -C "$scratch/a"
# --ignore-failed-read skips tracked files deleted from the working tree.
git ls-files -z --cached --others --exclude-standard |
  tar -c --null -T - --ignore-failed-read -f - | tar -x -C "$scratch/b"
cp BENCHMARK.json "$scratch/results/"

run_side() {  # side workload seed
  local out="$scratch/results/$2.$1.jsonl" line
  if ! line=$(cd "$scratch/$1" && python3 perfbench/run.py --workload "$2" \
        --seed "$3" --seconds "$seconds" --trace 0 2> "$scratch/results/last.err" |
        tail -n 1); then
    echo "run failed: side $1, $2, seed $3 (see $scratch/results/last.err)" >&2
    exit 1
  fi
  echo "$line" >> "$out"
}

read -r -a names <<< "$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
for w in "${names[@]}"; do
  for ((i = 0; i < pairs; ++i)); do
    seed=$((100 + i))
    if ((i % 2 == 0)); then first=a; second=b; else first=b; second=a; fi
    echo "== $w pair $((i + 1))/$pairs (seed $seed, $first first)" >&2
    run_side "$first" "$w" "$seed"
    run_side "$second" "$w" "$seed"
  done
done

python3 - "$scratch/results" "$rev" "${names[@]}" <<'EOF'
import json, os, statistics, sys

results, rev, names = sys.argv[1], sys.argv[2], sys.argv[3:]
bench = json.load(open(os.path.join(results, "BENCHMARK.json")))

def load(workload, side):
    with open(os.path.join(results, "%s.%s.jsonl" % (workload, side))) as f:
        return [json.loads(line) for line in f if line.strip()]

def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("nan")

flagged = 0
print("A = %s, B = current checkout; change is (B - A) / A" % rev)
print("%-15s %-24s %12s %12s %9s %9s %6s" %
      ("workload", "metric", "median A", "median B", "change", "A iqr/med",
       "bound"))
for workload in names:
    a, b = load(workload, "a"), load(workload, "b")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        va = [r["metrics"][name]["value"] for r in a if name in r["metrics"]]
        vb = [r["metrics"][name]["value"] for r in b if name in r["metrics"]]
        if not va or not vb:
            continue
        ma, mb = statistics.median(va), statistics.median(vb)
        change = (mb - ma) / abs(ma) if ma else (0.0 if mb == ma else float("inf"))
        worse = change if metric["better"] == "lower" else -change
        flag = worse > metric["bound"]
        flagged += flag
        print("%-15s %-24s %12.6g %12.6g %+8.1f%% %9.3f %6.2f%s" %
              (workload, name, ma, mb, 100 * change, spread(va),
               metric["bound"], "  WORSE THAN BOUND" if flag else ""))
    fails = sum(r["failed"] for r in a), sum(r["failed"] for r in b)
    print("%-15s failed operations: A %d, B %d (%d pairs)" %
          (workload, fails[0], fails[1], min(len(a), len(b))))
sys.exit(1 if flagged else 0)
EOF
