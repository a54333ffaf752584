"""Per-layer ledger of a traced run.

Sources, per flow invocation:
  * the program's own spans, from `--profile` (collapsed stacks: one
    "a;b;c <self microseconds>" line per call path);
  * the run report's metrics (counts) when the flow writes one;
  * the layer runner's spans (perfbench/layers), which time the public
    calls that run inside a program span without a span of their own.

Every program span maps to a layer (a src/ module) or is a container
whose self time is "dark". A span name this file does not know counts as
part of its nearest known ancestor, so spans added to the program later
refine the ledger instead of breaking it. Dark time is handed to the
runner-measured calls known to run there (each capped at what is left);
the rest is flow.unattributed.
"""

import hashlib
import json
import statistics

LAYERS = ["frontend", "lint", "sim", "isolation", "timing", "power", "opt", "verify", "obs"]

# Program span -> (layer, detail metric). Prefix matches end in ".".
SPAN_LAYER = {
    "sim.": ("sim", None),
    "activation.derive": ("isolation", "isolation.activation_s"),
    "candidates.identify": ("isolation", "isolation.candidates_s"),
    "isolate.evaluate": ("isolation", "isolation.evaluate_s"),
    "isolate.commit": ("isolation", "isolation.transform_s"),
    "sta.run": ("timing", "timing.sta_s"),
    "power.": ("power", "power.estimate_s"),
}
CONTAINERS = {"(root)", "isolate.run", "isolate.iteration", "isolate.final_measure",
              "sweep.run", "sweep.run_isolated", "sweep.task"}

TIME_METRICS = [
    "frontend.parse_s", "lint.run_s", "isolation.savings_setup_s", "isolation.evaluate_s",
    "isolation.activation_s", "isolation.candidates_s", "isolation.transform_s",
    "timing.sta_s", "power.estimate_s", "opt.saturate_s", "verify.equiv_s", "verify.wasted_s",
    "obs.report_s", "flow.unattributed_s",
]
COUNT_METRICS = [
    "sim.cycles", "sim.toggles", "isolate.iterations", "isolate.candidates_evaluated",
    "isolate.candidates_isolated", "sta.runs", "power.estimates", "bdd.nodes_allocated",
    "opt.egraph_nodes", "opt.saturation_iterations", "opt.rewrites_emitted",
    "verify.obligations", "verify.bdd_nodes",
]


def read_folded(path):
    """{call path tuple: self seconds} from a collapsed-stack file."""
    out = {}
    with open(path) as f:
        for line in f:
            stack, _, us = line.rstrip("\n").rpartition(" ")
            if stack:
                key = tuple(stack.split(";"))
                out[key] = out.get(key, 0.0) + int(us) * 1e-6
    return out


def classify(name):
    if name in CONTAINERS:
        return ("container", name)
    for span, target in SPAN_LAYER.items():
        if name == span or (span.endswith(".") and name.startswith(span)):
            return target
    return None


def owner(path):
    """Layer target or container of a call path: its leaf if known,
    else the nearest known ancestor, else the root."""
    for name in reversed(path):
        target = classify(name)
        if target is not None:
            return target
    return ("container", "(root)")


def median_profile(profiles):
    paths = set()
    for p in profiles:
        paths.update(p)
    return {path: statistics.median(p.get(path, 0.0) for p in profiles) for path in paths}


def span_totals(doc):
    """Seconds per runner span name, and per (parent, name)."""
    by_name, by_parent = {}, {}
    for s in doc["spans"]:
        secs = (s["end_ns"] - s["start_ns"]) * 1e-9
        by_name[s["name"]] = by_name.get(s["name"], 0.0) + secs
        key = (s["parent"], s["name"])
        by_parent[key] = by_parent.get(key, 0.0) + secs
    return by_name, by_parent


def median_span(doc, name, parent=None):
    """Median seconds of the runner's spans called `name` (under `parent`)."""
    secs = [(s["end_ns"] - s["start_ns"]) * 1e-9 for s in doc["spans"]
            if s["name"] == name and parent in (None, s["parent"])]
    return statistics.median(secs) if secs else 0.0


def span_total(profile, name):
    """Total (self + descendants) seconds of every span called `name`."""
    return sum(v for path, v in profile.items() if name in path)


def dark_estimates(workload, doc, outs):
    """(container, layer, detail metric, seconds) for the calls the
    runner timed, in the container whose self time holds them."""
    by_name, by_parent = span_totals(doc)
    est = []
    if workload == "sweep-sim":
        seeds = len(doc["outputs"]["tasks"])
        parse, lint = by_name.get("frontend.parse", 0.0), by_name.get("lint.run", 0.0)
        # Each task loads and lints its design; the CLI also loads every
        # design once up front to fail fast on bad names.
        est.append(("sweep.task", "frontend", "frontend.parse_s", parse * seeds))
        est.append(("sweep.task", "lint", "lint.run_s", lint * seeds))
        est.append(("(root)", "frontend", "frontend.parse_s", parse))
        return est
    iterations = outs["iterations"]
    first_setup = by_parent.get(("round.first", "isolation.savings_setup"), 0.0)
    final_setup = by_parent.get(("round.final", "isolation.savings_setup"), 0.0)
    first_blocks = by_parent.get(("round.first", "isolation.blocks"), 0.0)
    final_blocks = by_parent.get(("round.final", "isolation.blocks"), 0.0)
    est.append(("(root)", "frontend", "frontend.parse_s", by_name.get("frontend.parse", 0.0)))
    est.append(("(root)", "obs", "obs.report_s", by_name.get("obs.report", 0.0)))
    est.append(("isolate.run", "opt", "opt.saturate_s", by_name.get("opt.saturate", 0.0)))
    equiv = by_name.get("verify.equiv", 0.0)
    wasted = doc["counters"].get("wasted_s", 0.0)
    est.append(("isolate.run", "verify", "verify.equiv_s", equiv - wasted))
    est.append(("isolate.run", "verify", "verify.wasted_s", wasted))
    # The flow builds a SavingsEstimator (and the block partition) once
    # per iteration on the current netlist and once on the final one;
    # iterations are costed at the first netlist's price.
    est.append(("isolate.iteration", "isolation", "isolation.savings_setup_s",
                first_setup * iterations))
    est.append(("isolate.iteration", "isolation", "isolation.candidates_s",
                first_blocks * iterations))
    est.append(("isolate.final_measure", "isolation", "isolation.savings_setup_s", final_setup))
    est.append(("isolate.final_measure", "isolation", "isolation.candidates_s", final_blocks))
    return est


def report_count(report, group, name):
    return report.get("metrics", {}).get(group, {}).get(name, 0)


def build(workload, untraced, traced, profiles, reports, layer_docs, outs):
    """Per-layer metrics {name: (value, unit)} summed over the workload's
    flow invocations."""
    layer_s = {layer: 0.0 for layer in LAYERS}
    detail = {m: 0.0 for m in TIME_METRICS}
    counts = {m: 0 for m in COUNT_METRICS}
    traced_wall = untraced_wall = 0.0
    full_s = replay_s = 0.0
    full_runs = replays = 0
    tape_mb = 0.0

    for key in traced:
        wall = statistics.median(traced[key])
        traced_wall += wall
        untraced_wall += statistics.median(untraced[key])
        profile = median_profile(profiles[key])
        pools = {}
        for path, secs in profile.items():
            kind, name = owner(path)
            if kind == "container":
                pools[name] = pools.get(name, 0.0) + secs
            else:
                layer_s[kind] += secs
                if name:
                    detail[name] += secs
        # A sweep's main thread waits in sweep.run* while its workers run
        # the tasks; worker spans are roots of their own in the profile,
        # so that wait overlaps them and is not dark time.
        workers = sum(v for path, v in profile.items() if path[0] == "sweep.task")
        overlap = 0.0
        for name in ("sweep.run", "sweep.run_isolated"):
            take = min(pools.get(name, 0.0), workers - overlap)
            if take > 0:
                pools[name] -= take
                overlap += take
        pools["(root)"] = pools.get("(root)", 0.0) + max(
            0.0, wall - (sum(profile.values()) - overlap))

        report = reports.get(key, {})
        # A sweep invocation covers every design; an isolate invocation
        # has the runner document of its own input.
        docs = list(layer_docs.values()) if workload == "sweep-sim" else [layer_docs[key]]
        for d in docs:
            for container, layer, metric, secs in dark_estimates(workload, d, outs[key]):
                take = min(max(secs, 0.0), pools.get(container, 0.0))
                pools[container] = pools.get(container, 0.0) - take
                layer_s[layer] += take
                detail[metric] += take
        detail["flow.unattributed_s"] += sum(pools.values())

        if profile:
            full_s += span_total(profile, "sim.incremental.full")
            replay_s += span_total(profile, "sim.incremental.replay")
        if report:
            full_runs += report_count(report, "sim", "incremental.full_runs")
            replays += report_count(report, "sim", "incremental.replays")
            tape_mb += report_count(report, "sim", "incremental.tape_bytes") / 2**20
            counts["sim.cycles"] += report_count(report, "sim", "cycles")
            counts["sim.toggles"] += report_count(report, "sim", "toggles")
            for m, (g, n) in {"isolate.iterations": ("isolate", "iterations"),
                              "isolate.candidates_evaluated": ("isolate", "candidates_evaluated"),
                              "isolate.candidates_isolated": ("isolate", "candidates_isolated"),
                              "sta.runs": ("sta", "runs"),
                              "power.estimates": ("power", "estimates"),
                              "bdd.nodes_allocated": ("bdd", "nodes_allocated")}.items():
                counts[m] += report_count(report, g, n)
        if workload != "sweep-sim":
            c = docs[0]["counters"]
            counts["opt.egraph_nodes"] += c.get("egraph_nodes", 0)
            counts["opt.saturation_iterations"] += c.get("saturation_iterations", 0)
            counts["opt.rewrites_emitted"] += c.get("rewrites_emitted", 0)
            counts["verify.obligations"] += c.get("obligations", 0)
            counts["verify.bdd_nodes"] += c.get("bdd_nodes", 0)

    if workload == "sweep-sim":
        for t in outs["sweep"]["tasks"]:
            counts["sim.cycles"] += t[2]
            counts["sim.toggles"] += t[3]

    metrics = {}
    for layer in LAYERS:
        metrics[f"ledger.{layer}_s"] = (layer_s[layer], "s")
        metrics[f"ledger.{layer}_share"] = (layer_s[layer] / traced_wall, "ratio")
    attributed = sum(layer_s.values())
    metrics["ledger.attributed_share"] = (attributed / traced_wall, "ratio")
    metrics["ledger.traced_wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    for m in TIME_METRICS:
        metrics[m] = (detail[m], "s")
    for m in COUNT_METRICS:
        metrics[m] = (counts[m], "count")
    metrics["sim.stats_digest"] = (digest(outs), "hash")
    metrics["sim.tape_mb"] = (tape_mb, "MB")
    metrics["sim.replay_speedup"] = (
        (full_s / full_runs) / (replay_s / replays) if full_runs and replays and replay_s else 0.0,
        "x")

    # Runner-side simulation measurements (medians of its repeats).
    round_probes = round_plain = 0.0
    cc = {"wide": 0.0, "deep": 0.0}
    for key, d in layer_docs.items():
        round_probes += median_span(d, "sim.round_probes", "round.first")
        round_plain += median_span(d, "sim.round_plain", "round.first")
        shape = key[:-4]
        if shape in cc:
            task_cycles = d["counters"]["lane_cycles"] / len(d["outputs"]["tasks"])
            cc[shape] = d["counters"]["cells"] * task_cycles / median_span(d, "sim.sweep_task")
    metrics["sim.round_s"] = (round_probes, "s")
    metrics["sim.probe_share"] = (1.0 - round_plain / round_probes if round_probes else 0.0,
                                  "ratio")
    metrics["sim.cell_cycles_per_s.wide"] = (cc["wide"], "1/s")
    metrics["sim.cell_cycles_per_s.deep"] = (cc["deep"], "1/s")
    return metrics


def digest(obj):
    """Stable 48-bit hash of a JSON-able value (exact as a JSON number)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return int(hashlib.sha256(text.encode()).hexdigest()[:12], 16)
