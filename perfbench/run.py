"""torusham benchmark: one command, three seeded workloads, checked outputs.

    python3 perfbench/run.py --workload cli_large --seed 0 --seconds 20 --trace 0

Run from the repository root (the library is imported from src/).  The last
stdout line is one JSON object {correct, attempted, failed, metrics}; with
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones from spans recorded around library calls.  The line before it carries
provenance and details (sample counts, tail percentile, errors).  Full
results, and spans for traced runs, go to .perfbench_out/.  The exit code is
1 when any output check failed, 2 when the library is missing.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import checks
import spans as spanlib
import stats
import workloads

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 0
SETUP_ROUNDS = 9
# Every op is timed in at least this many passes and its fastest pass is
# used: on a shared host a core runs 1.6 times slower for stretches of a
# second to minutes, and two passes of the same op rarely both fall in one.
# Traced runs, whose numbers have no bound, make one traced pass or more.
MIN_PASSES = 2

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "vertices_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = (
    ("arcs_per_s", "1/s"),
    ("_ratio", "ratio"),
    ("bytes", "B"),
    ("_s", "s"),
)


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


PER_LAYER = (
    "paths.path_from_inner_cycle.self_s",
    "paths.path_for_even_m.self_s",
    "paths.hamiltonian_path.self_s",
    "cycles.product_embed.self_s",
    "cycles.product_embed.calls",
    "words.expect_cycle.self_s",
    "words.expect_cycle.calls",
    "words.expect_path.self_s",
    "words.expect_path.calls_per_construct",
    "cycles.even_distance_cycle_power.self_s",
    "cycles.even_distance_cycle_power.calls",
    "cycles.conjugate_cycle.self_s",
    "words.cycle_distance.self_s",
    "words.cycle_distance.calls",
    "cycles.any_cycle_power.hit_ratio",
    "cycles.any_cycle_power.calls",
    "cycles.staircase.hit_ratio",
    "cycles.staircase.calls",
    "words.word_to_text.self_s",
    "words.word_to_text.bytes",
    "words.word_from_text.self_s",
    "words.word_from_text.bytes",
    "words.word_from_flat.self_s",
    "words.word_from_flat.arcs",
    "words.verify_ham_path.self_s",
    "words.verify_ham_path.arcs_per_s",
    "words.cert_top_parts",
    "cli.main.self_s",
    "cli.process_overhead_s",
    "cli.stdout_bytes",
    "cli.construct_s",
    "cli.verify_s",
    "oracle.endpoint_set.self_s",
    "oracle.ham_path_exists.calls",
    "oracle.ham_path_exists.found",
    "oracle.ham_path_exists.disproved",
    "oracle.ham_path_exists.found_s",
    "oracle.ham_path_exists.disproof_s",
    "oracle.spec_max_s",
    "trace.overhead_ratio",
)


class Context:
    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.work = root / ".perfbench_out" / "work"
        self.work.mkdir(parents=True, exist_ok=True)
        self.golden = checks.load_golden()
        # certificate bytes are pinned for the default seed only
        self.golden_cli = self.golden["cli_large"] if seed == self.golden["seed"] else {}


def provenance(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "torusham").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
        "commit": git_commit(ROOT),
        "src_sha256": src.hexdigest(),
        "seed": seed,
        "command": list(sys.orig_argv),
    }


def git_commit(root: Path) -> str | None:
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(workload, seed: int, seconds: float, trace: bool) -> tuple[list, list, object]:
    """Paced setup times, measured passes, and the untraced base pass of a traced run."""
    def setup():
        gc.collect()  # the previous library's modules and caches are cyclic garbage
        before = stats.reference_loop()
        t0 = time.perf_counter()
        lib = spanlib.load_library()
        inputs = workload.inputs(seed, lib)
        took = time.perf_counter() - t0
        setups.append(took * stats.REFERENCE_S * 2 / (before + stats.reference_loop()))
        return lib, inputs

    setups = []
    for _ in range(SETUP_ROUNDS):
        lib, inputs = setup()
    base = None
    if trace:
        base = workload.run_pass(lib, inputs, None)
    passes = []
    measured = 0.0
    while True:
        if passes or base is not None:
            del lib, inputs
            lib, inputs = setup()
        tracer = None
        if trace:
            tracer = spanlib.Tracer()
            tracer.install(lib)
        p = workload.run_pass(lib, inputs, tracer)
        passes.append(p)
        measured += p.wall
        if measured >= seconds and len(passes) >= (1 if trace else MIN_PASSES):
            return setups, passes, base


def paced_walls(p) -> list[float]:
    """Op walls rescaled to the reference machine speed.

    Each op's wall is multiplied by REFERENCE_S over the mean of the
    reference-loop times taken just before and just after it.
    """
    times = [t for t, _ in p.calibrations]
    out = []
    for op in p.ops:
        before = p.calibrations[max(bisect.bisect_right(times, op.start) - 1, 0)][1]
        after = p.calibrations[min(bisect.bisect_left(times, op.start + op.wall), len(times) - 1)][1]
        out.append(op.wall * stats.REFERENCE_S * 2 / (before + after))
    return out


def end_to_end(setups: list, passes: list) -> tuple[dict, dict]:
    unpaced = end_to_end_from(setups, passes, [[op.wall for op in p.ops] for p in passes])[0]
    values, details = end_to_end_from(setups, passes, [paced_walls(p) for p in passes])
    details["unpaced"] = unpaced
    return values, details


def end_to_end_from(setups: list, passes: list, walls: list) -> tuple[dict, dict]:
    first = passes[0].ops
    best = [min(col) for col in zip(*walls)]  # one op, fastest pass
    wall = sum(best)
    # an op of several units (targets of one endpoint_set call) gives each
    # unit an equal share of its wall as its latency
    latencies = [t / op.units for op, t in zip(first, best) for _ in range(op.units)]
    tail, tail_pct = stats.tail(latencies)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": sum(op.units for op in first) / wall,
        "vertices_per_s": sum(op.vertices for op in first) / wall,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail * 1e3,
        "peak_rss_mb": max(p.peak_rss_mb for p in passes),
    }
    by_kind: dict = {}
    for op, t in zip(first, best):
        by_kind[op.kind] = by_kind.get(op.kind, 0.0) + t
    details = {
        "latency_samples": len(latencies),
        "tail_pct": round(tail_pct, 2),
        "passes": len(passes),
        "pass_wall_s": [round(p.wall, 4) for p in passes],
        "best_wall_s_by_kind": {k: round(v, 4) for k, v in by_kind.items()},
        "setup_samples": len(setups),
    }
    return values, details


def per_layer(passes: list, base) -> tuple[dict, dict]:
    rows = [workloads.layer_metrics(p, base) for p in passes]
    values = {}
    missing = []
    for name in PER_LAYER:
        got = [row[name] for row in rows if name in row]
        if not got:
            missing.append(name)
        values[name] = statistics.median(got) if got else 0
    seen = {s["name"] for p in passes for s in p.spans}
    details = {
        # layers this workload never calls report 0
        "layers_without_spans": [name for name, *_ in spanlib.LAYERS if name not in seen],
        "metrics_without_source": missing,
        "caches": passes[0].caches,
        "base_pass_wall_s": round(base.wall, 4),
        "traced_pass_wall_s": [round(p.wall, 4) for p in passes],
        "rung_self_s": passes[0].extras.get("rung_self_s", {}),
    }
    return values, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "torusham" / "__init__.py").is_file():
        print(f"perfbench: no torusham library under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    ctx = Context(ROOT, args.seed)
    workload = workloads.WORKLOADS[args.workload](ctx)
    setups, passes, base = measure(workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        values, details = per_layer(passes, base)
        units = {name: layer_unit(name) for name in PER_LAYER}
    else:
        values, details = end_to_end(setups, passes)
        units = END_TO_END
    runs = passes + ([base] if base is not None else [])
    attempted = sum(p.attempted for p in runs)
    failed = sum(p.failed for p in runs)
    errors = [e for p in runs for e in p.errors]
    details["errors"] = errors[:20]
    details["fail_ratio"] = failed / attempted

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    out = ROOT / ".perfbench_out"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"provenance": provenance(args.seed), "details": details, "result": result}
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        # parent indices count within one pass
        spans = [dict(s, **{"pass": i}) for i, p in enumerate(passes) for s in p.spans]
        (out / f"spans-{stem}.json").write_text(json.dumps(spans))
    for name in os.listdir(ctx.work):
        os.unlink(ctx.work / name)
    for error in errors[:20]:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    print(json.dumps({"provenance": record["provenance"], "details": details}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
