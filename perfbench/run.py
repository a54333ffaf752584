#!/usr/bin/env python3
"""opiso benchmark: end-to-end flow timings plus a traced per-layer ledger.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the tier-1 `opiso` CLI (and, for --trace 1, the layer runner in
perfbench/layers) under .bench_build/, generates the workload's designs
from --seed under .bench_work/, and prints one JSON object as the last
line of stdout: {"correct", "attempted", "failed", "metrics"}. Progress
and diagnostics go to stderr. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep the benchmark's directory as committed

import gen  # noqa: E402
import ledger  # noqa: E402

BUILD = os.path.join(ROOT, ".bench_build")
OPISO = os.path.join(BUILD, "opiso", "tools", "opiso")
LAYERS = os.path.join(BUILD, "layers", "opiso_layers")
BUILD_JOBS = "4"

# Cells of the builtin sweep designs. The traced run checks these
# against the library (opiso_layers) and fails loudly when they drift.
BUILTIN_CELLS = {"design1": 23, "design2": 40}

SETUP_REPEATS = 10
SETUP_PER_REPETITION = 2
TRACE_PAIRS = 3


def log(*args):
    print("perfbench:", *args, file=sys.stderr, flush=True)


def check_call(cmd, **kwargs):
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, **kwargs)
    if r.returncode != 0:
        raise SystemExit(f"perfbench: {' '.join(cmd)} failed with exit code {r.returncode}")


def build(trace):
    """Configure once, then let the build tools decide what is stale."""
    # Compilers put their temporary files under TMPDIR; keep them in the
    # checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = [(ROOT, os.path.join(BUILD, "opiso"), [], "opiso_cli")]
    if trace:
        steps.append((os.path.join(HERE, "layers"), os.path.join(BUILD, "layers"),
                      [f"-DOPISO_ROOT={ROOT}", f"-DOPISO_BUILD={os.path.join(BUILD, 'opiso')}"],
                      "opiso_layers"))
    for src, bdir, extra, target in steps:
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            check_call(["cmake", "-S", src, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"] + extra,
                       env=env)
        check_call(["cmake", "--build", bdir, "--target", target, "-j", BUILD_JOBS], env=env)


def spawn(cmd, cwd, err_path):
    """Runs `cmd` to completion; returns (wall seconds, exit code, peak RSS MiB)."""
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def capture(cmd, cwd):
    r = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    return r.returncode, r.stdout, r.stderr


def load_json(path):
    with open(path) as f:
        return json.load(f)


def median(values):
    return statistics.median(values) if values else 0.0


class Gate:
    """Counts operations attempted and failed, with a reason per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log("FAILED:", what)
        return ok


class Workload:
    """One workload: generated inputs, the flow invocations of one
    repetition, their deterministic outputs and the correctness checks."""

    name = ""

    def __init__(self, seed, work):
        self.seed = seed
        self.work = work
        self.files = []  # generated design files, in input order
        self.cells = {}  # design -> cell count

    def write(self, name, text):
        with open(os.path.join(self.work, name), "w") as f:
            f.write(text)
        self.files.append(name)

    def prepare(self, gate):
        """Untimed set-up after generation (lint gate, baselines)."""
        for f in self.files:
            rc, out, err = capture([OPISO, "lint", f, "--fail-on", "error"], self.work)
            gate.check(rc == 0, f"{f}: opiso lint --fail-on error exited {rc}: {err.strip()[-300:]}")
            rc, out, _ = capture([OPISO, "stats", f], self.work)
            if gate.check(rc == 0 and "cells:" in out, f"{f}: opiso stats exited {rc}"):
                self.cells[f] = int(out.split("cells:")[1].split(",")[0])

    def invocations(self):
        raise NotImplementedError

    def outputs(self, key):
        raise NotImplementedError

    def verify(self, gate, outs):
        """Once-per-run checks of the emitted artefacts, outside timing."""

    def cell_cycles(self, outs):
        raise NotImplementedError

    def power_saved_pct(self, outs):
        raise NotImplementedError

    def layer_runs(self, outs):
        """(key, opiso_layers argv) pairs for the traced run."""
        raise NotImplementedError


def isolate_outputs(report):
    """Deterministic results of one isolate run, plus its measurement
    rounds (one per iteration and the final one) and cycles per round."""
    s, o = report["summary"], report["options"]
    return {"power_before_mw": s["power_before_mw"], "power_after_mw": s["power_after_mw"],
            "modules_isolated": s["modules_isolated"], "iterations": s["iterations"],
            "rounds": s["iterations"] + 1, "round_cycles": o["sim_cycles"] + o["warmup_cycles"]}


def verify_netlist(gate, work, original, emitted):
    rc, out, err = capture([OPISO, "verify", original, emitted], work)
    gate.check(rc == 0 and out.startswith("EQUIVALENT"),
               f"opiso verify {original} {emitted}: exit {rc}: {(out + err).strip()[-300:]}")


class SweepSim(Workload):
    """`opiso sweep --threads 1` over a wide-input ladder rung, its
    isolated netlist, a deep narrow-input FIR/MAC and the bundled
    design1/design2."""

    name = "sweep-sim"
    SEEDS = 4
    CYCLES = 1 << 18

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.write("wide.rtl", gen.ladder_rung(seed, "wide", slices=32, lanes=4, stages=1,
                                               width=8, enables=8, selects=8))
        self.write("deep.rtl", gen.fir(seed, "deep", 8, [range(1, 256)] * 16, accumulate=True))
        self.designs = ["wide.rtl", "wide_iso.rtn", "deep.rtl", "design1", "design2"]

    def prepare(self, gate):
        super().prepare(gate)
        # The isolated rung measures isolation's savings on the sweep's
        # own stimulus seeds, which Algorithm 1 never saw.
        rc, _, err = capture([OPISO, "isolate", "wide.rtl", "--cycles", "2048",
                              "-o", "wide_iso.rtn"], self.work)
        gate.check(rc == 0, f"isolate wide.rtl: exit {rc}: {err.strip()[-300:]}")
        verify_netlist(gate, self.work, "wide.rtl", "wide_iso.rtn")
        rc, out, _ = capture([OPISO, "stats", "wide_iso.rtn"], self.work)
        if gate.check(rc == 0, "stats wide_iso.rtn"):
            self.cells["wide_iso.rtn"] = int(out.split("cells:")[1].split(",")[0])
        self.cells.update(BUILTIN_CELLS)

    def argv(self, threads, metrics):
        return [OPISO, "sweep", *self.designs, "--threads", str(threads), "--seeds",
                str(self.SEEDS), "--cycles", str(self.CYCLES), "--metrics", metrics]

    def invocations(self):
        return [("sweep", self.argv(1, "sweep.json"))]

    def outputs(self, key):
        rep = load_json(os.path.join(self.work, "sweep.json"))
        if rep["task_failures"]["failures"]:
            raise ValueError(f"sweep task failures: {rep['task_failures']['failures']}")
        return {"tasks": [[t["design"], t["seed"], t["lane_cycles"], t["toggles"], t["power_mw"]]
                          for t in rep["tasks"]]}

    def verify(self, gate, outs):
        # Determinism contract: the report is identical across --threads.
        rc, _, err = capture(self.argv(2, "sweep_t2.json"), self.work)
        if gate.check(rc == 0, f"sweep --threads 2: exit {rc}: {err.strip()[-300:]}"):
            gate.check(load_json(os.path.join(self.work, "sweep_t2.json")) ==
                       load_json(os.path.join(self.work, "sweep.json")),
                       "sweep report differs between --threads 1 and --threads 2")

    def cell_cycles(self, outs):
        return sum(self.cells[d] * lc for d, _, lc, _, _ in outs["sweep"]["tasks"])

    def power_saved_pct(self, outs):
        power = {}
        for d, _, _, _, p in outs["sweep"]["tasks"]:
            power[d] = power.get(d, 0.0) + p
        return 100.0 * (power["wide.rtl"] - power["wide_iso.rtn"]) / power["wide.rtl"]

    def layer_runs(self, outs):
        return [(d, [LAYERS, "sweep", d, "--seeds", str(self.SEEDS), "--cycles", str(self.CYCLES)])
                for d in self.designs]


class IsolateLadder(Workload):
    """`opiso isolate` with default options on a seeded ~2.2k-cell rung."""

    name = "isolate-ladder"
    CYCLES = 2048

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.write("rung.rtl", gen.ladder_rung(seed, "rung", slices=56, lanes=4, stages=3,
                                               width=8, enables=8, selects=8))

    def invocations(self):
        return [("rung.rtl", [OPISO, "isolate", "rung.rtl", "--cycles", str(self.CYCLES),
                              "--metrics", "rung.json", "-o", "rung_iso.rtn"])]

    def outputs(self, key):
        rep = load_json(os.path.join(self.work, "rung.json"))
        with open(os.path.join(self.work, "rung_iso.rtn"), "rb") as f:
            emitted = hashlib.sha256(f.read()).hexdigest()
        return {**isolate_outputs(rep), "netlist": emitted}

    def verify(self, gate, outs):
        verify_netlist(gate, self.work, "rung.rtl", "rung_iso.rtn")

    def cell_cycles(self, outs):
        o = outs["rung.rtl"]
        return self.cells["rung.rtl"] * o["rounds"] * o["round_cycles"]

    def power_saved_pct(self, outs):
        o = outs["rung.rtl"]
        return 100.0 * (o["power_before_mw"] - o["power_after_mw"]) / o["power_before_mw"]

    def layer_runs(self, outs):
        return [("rung.rtl", [LAYERS, "isolate", "rung.rtl", "--cycles", str(self.CYCLES)])]


class RewriteFir(Workload):
    """`opiso isolate --rewrite` on seeded FIRs, one class per rewrite
    outcome: small-coefficient 4-taps (rewritten and verified), 8-taps
    (e-graph budget) and full-width-coefficient 4-taps (BDD budget)."""

    name = "rewrite-fir"
    # The coefficient pools fix each class's rewrite outcome for every
    # seed. Multiplying by 3, 5 or 6 becomes two shifted terms and by 1,
    # 2 or 4 one term: seven terms saturate at about 2k e-nodes, sixteen
    # exceed the 20k budget. In the BDD class the coefficient 80 = 64 + 16
    # makes the extraction cheaper, and 83, 117 and 99 at width 7 make its
    # proof exceed the 2^20-node BDD budget. That proof's time and memory
    # jump with the coefficients and even their order (154 or 176 MB peak
    # RSS, ±10 % time), so the BDD-class design is the same for every seed.
    TWO_TERM, ONE_TERM = [3, 5, 6], [1, 2, 4]
    CLASSES = [("rw_a", "rewritten", 8, [TWO_TERM] * 3 + [ONE_TERM], True),
               ("rw_b", "rewritten", 8, [TWO_TERM] * 3 + [ONE_TERM], True),
               ("rw_c", "rewritten", 8, [TWO_TERM] * 3 + [ONE_TERM], True),
               ("eg", "e-graph budget", 8, [TWO_TERM] * 8, True),
               ("bdd", "BDD budget", 7, [[83], [117], [80], [99]], False)]

    def __init__(self, seed, work):
        super().__init__(seed, work)
        for tag, _, width, pools, shuffle in self.CLASSES:
            self.write(f"{tag}.rtl", gen.fir(seed, tag, width, pools, shuffle=shuffle))
        self.baseline_mw = {}

    def prepare(self, gate):
        super().prepare(gate)
        # Baseline: the original design's power from a plain isolate run
        # (`isolate --rewrite` reports power_before on the rewritten
        # netlist, which hides the rewrite's own saving).
        for f in self.files:
            tag = f[:-4]
            rc, _, err = capture([OPISO, "isolate", f, "--metrics", f"{tag}_plain.json"], self.work)
            if gate.check(rc == 0, f"plain isolate {f}: exit {rc}: {err.strip()[-300:]}"):
                rep = load_json(os.path.join(self.work, f"{tag}_plain.json"))
                self.baseline_mw[f] = rep["summary"]["power_before_mw"]

    def invocations(self):
        return [(f, [OPISO, "isolate", f, "--rewrite", "--metrics", f"{f[:-4]}.json",
                     "-o", f"{f[:-4]}_out.rtn"]) for f in self.files]

    def outputs(self, key):
        tag = key[:-4]
        rep = load_json(os.path.join(self.work, f"{tag}.json"))
        rw = rep["rewrite"]
        with open(os.path.join(self.work, f"{tag}_out.rtn"), "rb") as f:
            emitted = hashlib.sha256(f.read()).hexdigest()
        if rw["rewritten"]:
            outcome = "rewritten"
        elif rw.get("budget_exhausted"):
            outcome = "e-graph budget"
        elif "BDD node budget" in rw.get("fallback_reason", ""):
            outcome = "BDD budget"
        else:
            outcome = "other: " + rw.get("fallback_reason", "")
        return {**isolate_outputs(rep), "cycles": rep["options"]["sim_cycles"], "outcome": outcome,
                "verified": rw["verified"], "rewrite_digest": ledger.digest(rw), "netlist": emitted}

    def verify(self, gate, outs):
        mix = {}
        for f in self.files:
            verify_netlist(gate, self.work, f, f"{f[:-4]}_out.rtn")
            mix[outs[f]["outcome"]] = mix.get(outs[f]["outcome"], 0) + 1
        designed = {}
        for c in self.CLASSES:
            designed[c[1]] = designed.get(c[1], 0) + 1
        log("rewrite-fir outcome mix:", ", ".join(f"{k} {v}" for k, v in sorted(mix.items())),
            "" if mix == designed else f"-- differs from the designed mix {designed}")

    def cell_cycles(self, outs):
        return sum(self.cells[f] * outs[f]["rounds"] * outs[f]["round_cycles"] for f in self.files)

    def power_saved_pct(self, outs):
        before = sum(self.baseline_mw[f] for f in self.files)
        after = sum(outs[f]["power_after_mw"] for f in self.files)
        return 100.0 * (before - after) / before

    def layer_runs(self, outs):
        return [(f, [LAYERS, "isolate", f, "--cycles", str(outs[f]["cycles"]), "--rewrite"])
                for f in self.files]


WORKLOADS = {w.name: w for w in (SweepSim, IsolateLadder, RewriteFir)}


def setup_pass(wl, gate):
    """One set-up sample: CLI start-up plus load and validation (`opiso
    stats`) of every generated design, summed."""
    total = 0.0
    for f in wl.files:
        wall, rc, _ = spawn([OPISO, "stats", f], wl.work, os.path.join(wl.work, "stats.err"))
        if rc != 0:
            gate.check(False, f"opiso stats {f}: exit {rc}")
        total += wall
    return total


def run_repetition(wl, gate, first_outs, tag):
    """One pass over the workload's flow invocations; returns
    ({key: wall}, {key: rss}, {key: outputs})."""
    walls, rss, outs = {}, {}, {}
    for key, argv in wl.invocations():
        wall, rc, peak = spawn(argv, wl.work, os.path.join(wl.work, "flow.err"))
        ok = rc == 0
        if ok:
            try:
                outs[key] = wl.outputs(key)
            except (OSError, ValueError, KeyError) as e:
                ok = False
                log(f"{key}: unreadable outputs: {e}")
        if ok and key in first_outs and outs[key] != first_outs[key]:
            ok = False
            log(f"{key}: deterministic outputs differ between repetitions ({tag})")
        if not ok:
            with open(os.path.join(wl.work, "flow.err"), errors="replace") as f:
                log(f"{key}: exit {rc}: {f.read().strip()[-400:]}")
        gate.check(ok, f"{tag} invocation {key}")
        walls[key], rss[key] = wall, peak
    return walls, rss, outs


def tail_note(samples):
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"n={n} (no tail percentile: fewer than 11 samples)"
    ordered = sorted(samples)
    return f"n={n} p{100.0 * (n - 10) / n:.0f}={ordered[n - 11]:.4f}"


def run_timed(wl, gate, seconds):
    # Set-up samples are taken up front and again after every repetition,
    # so they see the same host phases as the flow timings.
    setup = [setup_pass(wl, gate) for _ in range(SETUP_REPEATS)]
    first_outs, rep_walls, rep_rss = {}, [], []
    deadline = time.perf_counter() + seconds
    while not rep_walls or time.perf_counter() < deadline:
        walls, rss, outs = run_repetition(wl, gate, first_outs, f"repetition {len(rep_walls) + 1}")
        for k, v in outs.items():
            first_outs.setdefault(k, v)
        rep_walls.append(sum(walls.values()))
        rep_rss.append(max(rss.values()))
        setup += [setup_pass(wl, gate) for _ in range(SETUP_PER_REPETITION)]
    setup_s = median(setup)
    complete = len(first_outs) == len(wl.invocations())
    if complete:
        wl.verify(gate, first_outs)
    wall_s = median(rep_walls)
    log(f"{wl.name}: wall_s median {wall_s:.4f} s, {tail_note(rep_walls)}; "
        f"repetitions {[round(w, 3) for w in rep_walls]}")
    metrics = {
        "wall_s": (wall_s, "s"),
        "peak_rss_mb": (median(rep_rss), "MB"),
        "setup_s": (setup_s, "s"),
    }
    # Without every invocation's outputs the run has failed ops already;
    # the derived metrics then read 0 so the result keeps its shape.
    metrics["sim_cell_cycles_per_s"] = (
        wl.cell_cycles(first_outs) / wall_s if complete else 0.0, "1/s")
    metrics["power_saved_pct"] = (wl.power_saved_pct(first_outs) if complete else 0.0, "%")
    return metrics


def run_traced(wl, gate):
    """Traced run: each flow invocation TRACE_PAIRS times untraced and
    with --profile, interleaved, then the layer runner; returns the
    per-layer metrics."""
    untraced, traced, profiles, reports, first_outs = {}, {}, {}, {}, {}
    for pair in range(TRACE_PAIRS):
        walls, _, outs = run_repetition(wl, gate, first_outs, f"untraced pass {pair + 1}")
        for k, v in outs.items():
            first_outs.setdefault(k, v)
            untraced.setdefault(k, []).append(walls[k])
        for key, argv in wl.invocations():
            folded = os.path.join(wl.work, f"{key}.folded")
            wall, rc, _ = spawn(argv + ["--profile", folded], wl.work,
                                os.path.join(wl.work, "flow.err"))
            if not gate.check(rc == 0, f"traced invocation {key}: exit {rc}"):
                continue
            traced.setdefault(key, []).append(wall)
            profiles.setdefault(key, []).append(ledger.read_folded(folded))
            if key != "sweep":
                reports[key] = load_json(os.path.join(wl.work, f"{key[:-4]}.json"))
    if len(first_outs) != len(wl.invocations()) or len(traced) != len(first_outs):
        raise SystemExit("perfbench: traced run incomplete; no ledger")
    layer_docs = {}
    for key, argv in wl.layer_runs(first_outs):
        rc, out, err = capture(argv, wl.work)
        if gate.check(rc == 0, f"opiso_layers {' '.join(argv[1:])}: exit {rc}: {err.strip()[-300:]}"):
            layer_docs[key] = json.loads(out)
    if len(layer_docs) != len(wl.layer_runs(first_outs)):
        raise SystemExit("perfbench: layer runner failed; no ledger")
    check_runner_outputs(wl, gate, first_outs, layer_docs)
    return ledger.build(wl.name, untraced, traced, profiles, reports, layer_docs, first_outs)


def check_runner_outputs(wl, gate, outs, docs):
    """The runner must reproduce the untraced run's deterministic outputs."""
    if wl.name == "sweep-sim":
        for d, doc in docs.items():
            want = [[t["seed"], t["lane_cycles"], t["toggles"], t["power_mw"]]
                    for t in doc["outputs"]["tasks"]]
            got = [[s, lc, tg, p] for dd, s, lc, tg, p in outs["sweep"]["tasks"] if dd == d]
            gate.check(want == got, f"runner sweep outputs differ from the CLI's for {d}")
            if d in BUILTIN_CELLS:
                gate.check(doc["counters"]["cells"] == BUILTIN_CELLS[d],
                           f"builtin {d} has {doc['counters']['cells']} cells, "
                           f"BUILTIN_CELLS says {BUILTIN_CELLS[d]}")
        return
    for key, doc in docs.items():
        o = doc["outputs"]
        same = all(o[k] == outs[key][k] for k in
                   ("power_before_mw", "power_after_mw", "modules_isolated", "iterations"))
        if "rewritten" in o:
            same = same and o["rewritten"] == (outs[key]["outcome"] == "rewritten")
        gate.check(same, f"runner isolate outputs differ from the CLI's for {key}: {o}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build(args.trace == 1)
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-s{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        gate = Gate()
        wl.prepare(gate)
        if args.trace:
            metrics = run_traced(wl, gate)
        else:
            metrics = run_timed(wl, gate, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
