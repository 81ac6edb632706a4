#!/usr/bin/env bash
# Alternating parent/change pairs of one benchmark workload: the protocol a
# performance claim is judged by.
#
#   scripts/ab.sh <parent-rev> <workload> <pairs> [seeds]
#
# The parent revision is exported with `git archive` into a fresh
# `mktemp -d` outside the repository (no worktree is registered, so an
# interrupted run leaves nothing in .git). Cargo reads `.cargo/config.toml`
# from the directory it runs in and its ancestors, so each side's
# `ledger/` binary is built with that side's tree as the working
# directory, each into its own target dir: the parent with the parent's
# build settings, the change (the working tree as it stands) with its own.
# Each side's `-C target-cpu` on the `vision` compile (or its absence) is
# printed. Pair i runs at seeds[i mod n] (default "7 1009"), parent first
# in even pairs and change first in odd ones (ABBA), each as
# `ledger run --workload W --seed S --seconds 25 --trace 0` from its own
# tree's root. Prints, per end-to-end metric of BENCHMARK.json, the median
# [q1, q3] of each side, the change, pairs won and whether the median gap
# exceeds the parent's IQR, then every pair's values.
#
# Exits non-zero if a run exits non-zero or reports `correct: false`, or if
# `wire_kb_per_frame` or the reported `recognitions` differ between any two
# runs of one seed.
#
# AB_DIR (default target/ab) holds both target dirs, the build logs and
# every run's output; AB_SECONDS (default 25) shortens the runs for a smoke
# test. The parent export is removed on exit.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: $0 <parent-rev> <workload> <pairs> [seeds]" >&2
    exit 2
fi
rev=$1 workload=$2 pairs=$3
IFS=', ' read -r -a seeds <<< "${4:-7 1009}"
seconds=${AB_SECONDS:-25}
root=$(pwd)
mkdir -p "${AB_DIR:-target/ab}"
work=$(cd "${AB_DIR:-target/ab}" && pwd)

parent=$(mktemp -d)
trap 'rm -rf "$parent"' EXIT
echo "==> exporting $rev to $parent" >&2
git archive "$rev" | tar -x -C "$parent"

build() { # side tree
    local side=$1 tree=$2 log=$work/$1-build.log flags
    echo "==> building the $side ledger binary in $tree" >&2
    (cd "$tree" && cargo build -v --release --manifest-path ledger/Cargo.toml \
        --target-dir "$work/$side-target") > "$log" 2>&1 || { cat "$log" >&2; exit 1; }
    # A vision that is already fresh was built with these same flags
    # (cargo fingerprints RUSTFLAGS); keep the evidence of its last compile.
    if grep -q -- '--crate-name vision ' "$log"; then
        flags=$(grep -- '--crate-name vision ' "$log" | grep -o -- '-C target-cpu=[^ `]*' \
            | sort -u || true)
        echo "${flags:-no -C target-cpu}" > "$work/$side-target/vision-target-cpu"
    fi
    echo "$side: vision compiled with $(cat "$work/$side-target/vision-target-cpu" 2>/dev/null \
        || echo 'unknown flags (fresh, never logged)')" >&2
}
build parent "$parent"
build change "$root"

runs="$work/runs-$workload.tsv"
: > "$runs"
run() { # side pair seed
    local side=$1 pair=$2 seed=$3 dir bin out
    if [ "$side" = parent ]; then dir=$parent; else dir=$root; fi
    bin=$work/$side-target/release/ledger
    out=$work/$workload-$seed-$pair-$side
    local load status=0
    load=$(cut -d' ' -f1-3 /proc/loadavg)
    (cd "$dir" && "$bin" run --workload "$workload" --seed "$seed" --seconds "$seconds" \
        --trace 0 > "$out.out" 2> "$out.err") || status=$?
    local recog
    recog=$(grep -o 'recognitions {[^}]*}' "$out.err" | head -n1 || true)
    printf '%s\t%s\t%s\t%s\t%s\t%s\t%s\n' "$side" "$pair" "$seed" "$status" "$load" \
        "${recog:-recognitions ?}" "$(tail -n1 "$out.out")" >> "$runs"
    echo "pair $pair seed $seed $side: exit $status, load $load" >&2
}

for ((i = 0; i < pairs; i++)); do
    seed=${seeds[$((i % ${#seeds[@]}))]}
    if ((i % 2 == 0)); then
        run parent "$i" "$seed"
        run change "$i" "$seed"
    else
        run change "$i" "$seed"
        run parent "$i" "$seed"
    fi
done

python3 - "$runs" "$root/BENCHMARK.json" "$workload" <<'EOF'
import json, statistics, sys

runs_path, bench_path, workload = sys.argv[1:]
metrics = json.load(open(bench_path))["end_to_end"]
runs, ok = [], True
for line in open(runs_path):
    side, pair, seed, status, load, recog, last = line.rstrip("\n").split("\t")
    try:
        obj = json.loads(last)
    except ValueError:
        obj = {}
    correct = obj.get("correct") is True
    if status != "0" or not correct:
        ok = False
        print(f"FAILED: pair {pair} seed {seed} {side}: exit {status}, correct {obj.get('correct')}")
    values = {k: v["value"] for k, v in obj.get("metrics", {}).items()}
    runs.append(dict(side=side, pair=int(pair), seed=seed, values=values, recog=recog,
                     failed=obj.get("failed")))

def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return med, q1, q3

pairs = sorted({r["pair"] for r in runs})
by = {(r["pair"], r["side"]): r for r in runs}
print(f"{workload}: {len(pairs)} pairs, parent | change, median [q1, q3]")
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    both = [(by[p, "parent"]["values"].get(name), by[p, "change"]["values"].get(name))
            for p in pairs if (p, "parent") in by and (p, "change") in by]
    both = [(a, b) for a, b in both if a is not None and b is not None]
    if not both:
        continue
    pa, ch = [a for a, _ in both], [b for _, b in both]
    (pm, pq1, pq3), (cm, cq1, cq3) = quartiles(pa), quartiles(ch)
    won = sum((b < a) if lower else (b > a) for a, b in both)
    change = (cm - pm) / pm * 100 if pm else float("nan")
    resolved = "gap > parent IQR" if abs(cm - pm) > pq3 - pq1 else "gap <= parent IQR"
    print(f"  {name:<18} {pm:.6g} [{pq1:.6g}, {pq3:.6g}] | {cm:.6g} [{cq1:.6g}, {cq3:.6g}]"
          f"  {change:+.1f} %  won {won}/{len(both)}  {resolved}")
print("per pair (seed: parent -> change):")
for m in metrics:
    name = m["name"]
    cells = [f"{by[p, 'parent']['seed']}: {by[p, 'parent']['values'].get(name, float('nan')):.6g}"
             f" -> {by[p, 'change']['values'].get(name, float('nan')):.6g}"
             for p in pairs if (p, "parent") in by and (p, "change") in by]
    print(f"  {name}: " + ", ".join(cells))
for seed in sorted({r["seed"] for r in runs}):
    same = [r for r in runs if r["seed"] == seed]
    wire = {r["values"].get("wire_kb_per_frame") for r in same}
    recog = sorted({r["recog"] for r in same})
    failed = [r["failed"] for r in same]
    print(f"seed {seed}: wire_kb_per_frame {sorted(wire, key=str)}, {', '.join(recog)}, failed frames {failed}")
    if len(wire) != 1:
        ok = False
        print(f"FAILED: wire_kb_per_frame differs within seed {seed}")
    # A run none of whose segments completed every frame names none.
    if len([r for r in recog if r != "recognitions ?"]) > 1:
        ok = False
        print(f"FAILED: recognitions differ within seed {seed}")
sys.exit(0 if ok else 1)
EOF
