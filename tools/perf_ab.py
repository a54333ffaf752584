#!/usr/bin/env python3
"""Same-job perf A/B of a base revision and the working tree.

Builds bench_sweep and bench_rewrite (Release) twice, for the merge base
of REV and HEAD (in a git worktree) and for the working tree, runs PAIRS
alternating pairs of both benches, and prints one Markdown row per timed
bench row: both medians, the change's delta, the pairs the change won
and a verdict. The rows are every `benches.<row>.wall_ms` of
BENCH_sweep.json and every `designs.<d>.<flow>.wall_ms` of
BENCH_rewrite.json; a row present on one side only is listed, not gated.

Exits 1 when a row regresses (see verdict) or a bench binary fails. The
exact work counters are not gated here: the bench_sweep_structural and
bench_rewrite_structural ctests hold them to ci/bench_baseline/.

The worktree and both build trees live under build-perf-ab/ and are
reused, so a re-run rebuilds only what changed. `perf_ab.py HEAD` on a
clean tree is an A/A run: it shows what the host's noise looks like.

usage: perf_ab.py REV
"""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
SLOWER = 0.10  # a row regresses when its change median is over 10 % above the base's
LOST = 8  # ... and the change lost at least this many of the PAIRS pairs

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "build-perf-ab"
BENCHES = ("bench_sweep", "bench_rewrite")


def verdict(base, change):
    """The gate's rule for one row: base[i] and change[i] are the wall
    times of pair i. A row sampled on one side only is not gated."""
    if not base or not change:
        return "one side only"
    lost = sum(c > b for b, c in zip(base, change))
    if statistics.median(change) > (1 + SLOWER) * statistics.median(base) and lost >= LOST:
        return "REGRESSION"
    return "ok"


def table(base, change):
    """Markdown lines for every row of either side, and whether any row
    regressed. base and change map a row name to its per-pair samples."""
    lines = ["| row | base ms | change ms | Δ % | change won | verdict |",
             "|---|---:|---:|---:|---:|---|"]
    failed = False
    for name in list(base) + [r for r in change if r not in base]:
        b, c = base.get(name, []), change.get(name, [])
        v = verdict(b, c)
        failed |= v == "REGRESSION"
        mb = statistics.median(b) if b else None
        mc = statistics.median(c) if c else None
        delta = f"{(mc / mb - 1) * 100:+.1f}" if b and c else "–"
        won = f"{sum(y < x for x, y in zip(b, c))}/{min(len(b), len(c))}" if b and c else "–"
        cells = [name, "–" if mb is None else f"{mb:.1f}", "–" if mc is None else f"{mc:.1f}",
                 delta, won, v]
        lines.append("| " + " | ".join(cells) + " |")
    return lines, failed


def rows(doc):
    """Row name -> wall_ms of one BENCH_sweep or BENCH_rewrite document."""
    if "benches" in doc:
        return {name: row["wall_ms"] for name, row in doc["benches"].items()}
    return {f"{design}.{flow}": row["wall_ms"]
            for design, flows in doc["designs"].items()
            for flow, row in flows.items() if isinstance(row, dict) and "wall_ms" in row}


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def build(src, out):
    """Release build of both benches of the tree at src; returns the bench directory."""
    for cmd in (["cmake", "-S", str(src), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1),
                 "--target", *BENCHES]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit(f"perf A/B: {' '.join(cmd)} failed")
    return out / "bench"


def run(side, bench_dir, bench):
    """One run of `bench`; returns its rows. Both sides run in the same
    directory and environment."""
    out = WORK / "json"
    out.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run([str(bench_dir / bench)], cwd=out, text=True,
                          env={**os.environ, "OPISO_BENCH_JSON_DIR": str(out)},
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"perf A/B: {bench} ({side}) exited {proc.returncode}")
    name = bench.removeprefix("bench_")
    return rows(json.loads((out / f"BENCH_{name}.json").read_text()))


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base_sha = git("merge-base", argv[1], "HEAD")
    tree = WORK / "base"
    git("worktree", "prune")
    if (tree / ".git").exists():
        subprocess.run(["git", "-C", str(tree), "checkout", "--quiet", "--detach", base_sha],
                       check=True)
    else:
        git("worktree", "add", "--quiet", "--detach", str(tree), base_sha)
    bench_dirs = {"base": build(tree, WORK / "base-build"),
                  "change": build(ROOT, WORK / "change-build")}

    samples = {"base": {}, "change": {}}
    for i in range(PAIRS):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for bench in BENCHES:
            for side in order:
                for name, ms in run(side, bench_dirs[side], bench).items():
                    samples[side].setdefault(name, []).append(ms)

    lines, failed = table(samples["base"], samples["change"])
    print(f"perf A/B: base {base_sha[:12]} (merge base of {argv[1]} and HEAD) "
          f"against the working tree, {PAIRS} alternating pairs, wall ms medians\n")
    print("\n".join(lines))
    print(f"\nA row regresses when its change median is more than {SLOWER:.0%} above "
          f"the base's and the change lost at least {LOST} of {PAIRS} pairs.")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
