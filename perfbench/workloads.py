"""The three workloads: seeded inputs, one timed pass each, and its checks.

Every workload is a closed loop with one client: an op starts only after
the previous one has completed and been checked.  Checks run between ops,
outside the timed region.  A pass runs the whole input list once against a
freshly imported library, so lru caches start cold in every pass, as they
do in every new process.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import resource
import select
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import spans as spanlib
import stats

HERE = Path(__file__).resolve().parent

# cli_large: 10^5..10^6 vertices; odd m with 2..11 inner levels, even m with
# the any_cycle_power branch, and a k = 3 spec with a large fiber.
LADDER = ((3, 12), (31, 4), (101, 3), (2, 18), (4, 9), (10, 6))
OP_TIMEOUT_S = 60.0
CALIBRATE_EVERY_S = 0.5

# construct_sweep: k in 3..8, 500 <= m^k <= 20000; about 10% refused targets.
SWEEP_K = range(3, 9)
SWEEP_MIN, SWEEP_MAX = 500, 20000
SWEEP_PER_PAIR = 16

# oracle_scan: every spec of at most 32 vertices with k = 3 or 4.
ORACLE_SPECS = ((3, 32), (4, 32))


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def sweep_pairs() -> list[tuple[int, int]]:
    return [
        (m, k)
        for k in SWEEP_K
        for m in range(2, math.isqrt(SWEEP_MAX) + 30)
        if SWEEP_MIN <= m**k <= SWEEP_MAX
    ]


def pick_target(rng: random.Random, m: int, k: int, u: tuple, admissible: bool) -> tuple:
    """Random v with sum(v - u) = -1 (mod m), or != -1 when not admissible."""
    v = [rng.randrange(m) for _ in range(k)]
    j = rng.randrange(k)
    v[j] = 0
    residue = (sum(v) - sum(u)) % m
    want = m - 1 if admissible else rng.randrange(m - 1)
    v[j] = (want - residue) % m
    return tuple(v)


def random_vertex(rng: random.Random, moduli) -> tuple:
    return tuple(rng.randrange(m) for m in moduli)


@dataclass
class Op:
    kind: str
    start: float  # perf_counter at the call
    wall: float  # seconds, the op's blocking call only
    units: int  # what ops_per_s counts
    vertices: int  # torus vertices summed over the units


@dataclass
class Pass:
    """One run over the input list, ops in input order."""

    ops: list = field(default_factory=list)
    calibrations: list = field(default_factory=list)  # (perf_counter, loop seconds)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    extras: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    caches: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(op.wall for op in self.ops)

    def calibrate(self, force: bool = False) -> None:
        """Time the reference loop if the last sample is CALIBRATE_EVERY_S old."""
        if force or not self.calibrations or (
            time.perf_counter() - self.calibrations[-1][0] >= CALIBRATE_EVERY_S
        ):
            took = stats.reference_loop()
            self.calibrations.append((time.perf_counter(), took))

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.errors.append(message)


def own_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- cli_large ---------------------------------------------------------------


@dataclass
class Child:
    code: int
    start: float
    wall: float
    rss_mb: float
    stdout: bytes
    stderr: str
    timed_out: bool
    trace: dict | None


class CliRunner:
    """Runs one `torusham` process at a time and reaps it with wait4."""

    def __init__(self, root: Path, work: Path, traced: bool) -> None:
        self.root = root
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.spans_path = work / "child-spans.json" if traced else None
        if traced:
            self.prefix = [sys.executable, str(HERE / "traced_cli.py")]
            self.env["PERFBENCH_SPANS"] = str(self.spans_path)
        else:
            self.prefix = [sys.executable, "-m", "torusham"]

    def run(self, args: list, stdin: bytes) -> Child:
        paths = {name: self.work / f"child.{name}" for name in ("in", "out", "err")}
        paths["in"].write_bytes(stdin)
        with open(paths["in"], "rb") as fin, open(paths["out"], "wb") as fout, open(
            paths["err"], "wb"
        ) as ferr:
            start = time.perf_counter()
            proc = subprocess.Popen(
                self.prefix + args, stdin=fin, stdout=fout, stderr=ferr,
                cwd=self.root, env=self.env,
            )
            pidfd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([pidfd], [], [], OP_TIMEOUT_S)
                if not ready:
                    proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                os.close(pidfd)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        trace = None
        if self.spans_path is not None and self.spans_path.exists():
            trace = json.loads(self.spans_path.read_text(encoding="utf-8"))
            self.spans_path.unlink()
        return Child(
            code=proc.returncode,
            start=start,
            wall=wall,
            rss_mb=usage.ru_maxrss / 1024.0,
            stdout=paths["out"].read_bytes(),
            stderr=paths["err"].read_text(encoding="utf-8", errors="replace"),
            timed_out=not ready,
            trace=trace,
        )


def vertex_arg(v) -> str:
    return ",".join(map(str, v))


class CliLarge:
    name = "cli_large"

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.checked: dict[str, tuple] = {}

    def inputs(self, seed: int, lib: dict) -> list[dict]:
        rng = rng_for(self.name, seed)
        out = []
        for m, k in LADDER:
            u = random_vertex(rng, (m,) * k)
            while not any(u):
                u = random_vertex(rng, (m,) * k)
            v = pick_target(rng, m, k, u, True)
            out.append({"m": m, "k": k, "u": u, "v": v, "swap_at": rng.randrange(m**k - 2)})
        return out

    def run_pass(self, lib: dict, inputs: list[dict], tracer) -> Pass:
        runner = CliRunner(self.ctx.root, self.ctx.work, tracer is not None)
        res = Pass()
        res.extras = {"process_overhead_s": 0.0, "stdout_bytes": 0, "rung_self_s": {}}

        def op(kind: str, args: list, stdin: bytes, rung: str, vertices: int) -> Child:
            res.calibrate(force=True)
            child = runner.run(args, stdin)
            res.calibrate(force=True)
            res.attempted += 1
            res.ops.append(Op(kind, child.start, child.wall, 1, vertices))
            res.peak_rss_mb = max(res.peak_rss_mb, child.rss_mb)
            res.extras["stdout_bytes"] += len(child.stdout)
            if child.trace is not None:
                op_spans = child.trace["spans"]
                if kind == "construct":
                    own = spanlib.summarize(op_spans)
                    res.extras["rung_self_s"][rung] = {
                        n: round(a["self_s"], 4) for n, a in own.items()
                    }
                base = len(res.spans)
                for s in op_spans:
                    s["op"] = f"{rung}:{kind}:{len(res.ops)}"
                    if s["parent"] >= 0:
                        s["parent"] += base
                res.spans.extend(op_spans)
                inside = sum(s["end"] - s["start"] for s in op_spans if s["name"] == "cli.main")
                res.extras["process_overhead_s"] += child.wall - inside
                for name, (hits, calls) in child.trace["caches"].items():
                    got = res.caches.setdefault(name, [0, 0])
                    got[0] += hits
                    got[1] += calls
            if child.timed_out:
                res.fail(f"{rung} {kind}: timed out after {OP_TIMEOUT_S} s")
            elif "Traceback (most recent call last)" in child.stderr:
                res.fail(f"{rung} {kind}: traceback on stderr")
            return child

        for inp in inputs:
            m, k, u, v = inp["m"], inp["k"], inp["u"], inp["v"]
            rung = f"{m},{k}"
            args = ["construct", "--m", str(m), "--k", str(k),
                    "--from", vertex_arg(u), "--to", vertex_arg(v)]
            before = res.failed
            built = op("construct", args, b"", rung, m**k)
            corrupted = None
            if res.failed == before:
                corrupted = self.corrupted_copy(res, lib, inp, built)
            if corrupted is None:
                res.fail(f"{rung}: verify ops skipped after a failed construct", 2)
                res.attempted += 2
                continue
            checked = op("verify", ["verify"], built.stdout, rung, m**k)
            if checked.code != 0 or json.loads(checked.stdout or b"null") != json.loads(built.stdout):
                res.fail(f"{rung} verify: exit {checked.code} or output differs from the certificate")
            record, step, at = corrupted
            rejected = op("verify", ["verify"], record, rung, m**k)
            found = re.search(r"at step (\d+)", rejected.stderr)
            if rejected.code != 2 or not found or int(found.group(1)) != step:
                res.fail(f"{rung} verify of a word swapped at {at}: exit {rejected.code}, "
                         f"stderr {rejected.stderr.strip()[:120]!r}, expected step {step}")
        return res

    def corrupted_copy(self, res: Pass, lib: dict, inp: dict, child: Child) -> tuple | None:
        """Check a construct's output; return (swapped record, its first bad step, swap position).

        Returns None after recording the failure.  A certificate already
        checked in an earlier pass (same bytes) is not walked again.
        """
        m, k, u, v = inp["m"], inp["k"], inp["u"], inp["v"]
        rung = f"{m},{k}"
        if child.code != 0:
            res.fail(f"{rung} construct: exit {child.code}: {child.stderr.strip()[:200]}")
            return None
        digest = checks.sha256(child.stdout)
        cached = self.checked.get(rung)
        if cached is not None and cached[0] == digest:
            return cached[1:]
        arcs = self.check_construct(res, lib, inp, child)
        if arcs is None:
            return None
        bad, at = checks.swap_adjacent(arcs, inp["swap_at"])
        ok, step, reason = checks.walk_path((m,) * k, u, v, bad)
        if ok or reason != "repeated vertex":
            res.fail(f"{rung}: independent checker accepted a corrupted word")
            return None
        record = {"moduli": [m] * k, "from": list(u), "to": list(v), "word": {"flat": bad}}
        self.checked[rung] = (digest, json.dumps(record).encode(), step, at)
        return self.checked[rung][1:]

    def check_construct(self, res: Pass, lib: dict, inp: dict, child: Child) -> list | None:
        """Arcs of a correct certificate, or None after recording the failure."""
        m, k, u, v = inp["m"], inp["k"], inp["u"], inp["v"]
        rung = f"{m},{k}"
        pinned = self.ctx.golden_cli.get(rung)
        if pinned is not None and checks.sha256(child.stdout) != pinned:
            res.fail(f"{rung} construct: output differs from the pinned sha256")
            return None
        record = json.loads(child.stdout)
        if (record.get("moduli") != [m] * k or record.get("from") != list(u)
                or record.get("to") != list(v) or record.get("verified") is not True
                or record.get("length") != m**k - 1):
            res.fail(f"{rung} construct: record fields are wrong")
            return None
        arcs = checks.expand(lib["words"].word_from_text(record["word"]["nested"]))
        ok, step, reason = checks.walk_path((m,) * k, u, v, arcs)
        if not ok:
            res.fail(f"{rung} construct: not a hamiltonian path: {reason} at step {step}")
            return None
        return arcs


# --- construct_sweep ---------------------------------------------------------


class ConstructSweep:
    name = "construct_sweep"

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.digests: dict[int, str] = {}

    def inputs(self, seed: int, lib: dict) -> list[tuple]:
        rng = rng_for(self.name, seed)
        ops = []
        for idx, (m, k) in enumerate(sweep_pairs()):
            refused = set(rng.sample(range(SWEEP_PER_PAIR), 2 if idx % 2 == 0 else 1))
            for t in range(SWEEP_PER_PAIR):
                u = random_vertex(rng, (m,) * k)
                ops.append((m, k, u, pick_target(rng, m, k, u, t not in refused)))
        return ops

    def run_pass(self, lib: dict, inputs: list[tuple], tracer) -> Pass:
        res = Pass()
        construct = lib["torusham"].hamiltonian_path
        clock = time.perf_counter
        for i, (m, k, u, v) in enumerate(inputs):
            if tracer is not None:
                tracer.op = i
            res.calibrate()
            start = clock()
            got = construct(m, k, u, v)
            wall = clock() - start
            res.ops.append(Op("hamiltonian_path", start, wall, 1, m**k))
            res.attempted += 1
            self.check(res, i, m, k, u, v, got)
        res.calibrate(force=True)
        res.peak_rss_mb = own_rss_mb()
        if tracer is not None:
            res.spans = tracer.export()
            res.caches = spanlib.cache_stats(lib)
        return res

    def check(self, res: Pass, i: int, m: int, k: int, u, v, got) -> None:
        residue = (sum(v) - sum(u)) % m
        if residue != m - 1:
            if (type(got).__name__ != "Refusal" or got.residue != residue
                    or got.required != m - 1):
                res.fail(f"({m},{k}) {u}->{v}: expected a Refusal, got {type(got).__name__}")
            return
        if getattr(got, "verified", None) is not True or got.start != u or got.target != v:
            res.fail(f"({m},{k}) {u}->{v}: expected a verified certificate")
            return
        arcs = checks.expand(got.word)
        digest = checks.sha256(bytes(arcs))
        if self.digests.get(i) == digest:
            return  # the same word an earlier pass walked
        ok, step, reason = checks.walk_path((m,) * k, u, v, arcs)
        if not ok:
            res.fail(f"({m},{k}) {u}->{v}: {reason} at step {step}")
            return
        self.digests[i] = digest


# --- oracle_scan -------------------------------------------------------------


class OracleScan:
    name = "oracle_scan"

    def __init__(self, ctx) -> None:
        self.ctx = ctx

    def inputs(self, seed: int, lib: dict) -> list[tuple]:
        rng = rng_for(self.name, seed)
        specs = [s for k, n in ORACLE_SPECS for s in lib["oracle"].enumerate_torus_specs(k, n)]
        return [(spec, random_vertex(rng, spec.moduli)) for spec in specs]

    def run_pass(self, lib: dict, inputs: list[tuple], tracer) -> Pass:
        res = Pass()
        pinned = self.ctx.golden["oracle_zero_start"]
        got_specs = [vertex_arg(spec.moduli) for spec, _ in inputs]
        if got_specs != list(pinned):
            res.fail(f"spec list {got_specs} differs from the pinned one")
        endpoint_set = lib["torusham"].endpoint_set
        clock = time.perf_counter
        for i, (spec, start) in enumerate(inputs):
            targets = len(checks.congruence_targets(spec.moduli, start))
            if tracer is not None:
                tracer.op = i
            res.calibrate(force=True)
            t0 = clock()
            report = endpoint_set(spec, start)
            res.ops.append(Op("endpoint_set", t0, clock() - t0, targets, targets * spec.vertex_count))
            res.calibrate(force=True)
            res.attempted += targets
            key = vertex_arg(spec.moduli)
            problems = checks.check_endpoint_report(report, start, pinned.get(key, {
                "reachable": [], "counterexamples": []}))
            if problems:
                res.fail(f"{key} from {start}: {'; '.join(problems)}", targets)
        res.peak_rss_mb = own_rss_mb()
        if tracer is not None:
            res.spans = tracer.export()
            res.caches = spanlib.cache_stats(lib)
        return res


WORKLOADS = {w.name: w for w in (CliLarge, ConstructSweep, OracleScan)}


def _span_sums(spans: list[dict], name: str, pick) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name and pick(s))


def layer_metrics(p: Pass, base: Pass) -> dict:
    """Per-layer values for one traced pass (base: the untraced pass)."""
    agg = spanlib.summarize(p.spans)

    def get(name: str, key: str):
        return agg.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    certs = sum(1 for s in p.spans if s["name"] == "paths.hamiltonian_path"
                and s["attr"] is not None)
    endpoint_spans = [s["end"] - s["start"] for s in p.spans if s["name"] == "oracle.endpoint_set"]
    out = {
        "paths.path_from_inner_cycle.self_s": get("paths.path_from_inner_cycle", "self_s"),
        "paths.path_for_even_m.self_s": get("paths.path_for_even_m", "self_s"),
        "paths.hamiltonian_path.self_s": get("paths.hamiltonian_path", "self_s"),
        "cycles.product_embed.self_s": get("cycles.product_embed", "self_s"),
        "cycles.product_embed.calls": get("cycles.product_embed", "calls"),
        "words.expect_cycle.self_s": get("words.expect_cycle", "self_s"),
        "words.expect_cycle.calls": get("words.expect_cycle", "calls"),
        "words.expect_path.self_s": get("words.expect_path", "self_s"),
        "words.expect_path.calls_per_construct": ratio(get("words.expect_path", "calls"), certs),
        "cycles.even_distance_cycle_power.self_s": get("cycles.even_distance_cycle_power", "self_s"),
        "cycles.even_distance_cycle_power.calls": get("cycles.even_distance_cycle_power", "calls"),
        "cycles.conjugate_cycle.self_s": get("cycles.conjugate_cycle", "self_s"),
        "words.cycle_distance.self_s": get("words.cycle_distance", "self_s"),
        "words.cycle_distance.calls": get("words.cycle_distance", "calls"),
        "words.word_to_text.self_s": get("words.word_to_text", "self_s"),
        "words.word_to_text.bytes": get("words.word_to_text", "attr"),
        "words.word_from_text.self_s": get("words.word_from_text", "self_s"),
        "words.word_from_text.bytes": get("words.word_from_text", "attr"),
        "words.word_from_flat.self_s": get("words.word_from_flat", "self_s"),
        "words.word_from_flat.arcs": get("words.word_from_flat", "attr"),
        "words.verify_ham_path.self_s": get("words.verify_ham_path", "self_s"),
        "words.verify_ham_path.arcs_per_s": ratio(get("words.verify_ham_path", "attr"),
                                                  get("words.verify_ham_path", "self_s")),
        "words.cert_top_parts": ratio(get("paths.hamiltonian_path", "attr"), certs),
        "cli.main.self_s": get("cli.main", "self_s"),
        "cli.process_overhead_s": p.extras.get("process_overhead_s", 0.0),
        "cli.stdout_bytes": p.extras.get("stdout_bytes", 0),
        "cli.construct_s": sum(op.wall for op in base.ops if op.kind == "construct"),
        "cli.verify_s": sum(op.wall for op in base.ops if op.kind == "verify"),
        "oracle.endpoint_set.self_s": get("oracle.endpoint_set", "self_s"),
        "oracle.ham_path_exists.calls": get("oracle.ham_path_exists", "calls"),
        "oracle.ham_path_exists.found": get("oracle.ham_path_exists", "attr"),
        "oracle.ham_path_exists.disproved": get("oracle.ham_path_exists", "calls")
        - get("oracle.ham_path_exists", "attr"),
        "oracle.ham_path_exists.found_s": _span_sums(
            p.spans, "oracle.ham_path_exists", lambda s: s["attr"] == 1),
        "oracle.ham_path_exists.disproof_s": _span_sums(
            p.spans, "oracle.ham_path_exists", lambda s: s["attr"] == 0),
        "oracle.spec_max_s": max(endpoint_spans, default=0.0),
        "trace.overhead_ratio": p.wall / base.wall,
    }
    for name, (hits, calls) in p.caches.items():
        out[f"{name}.hit_ratio"] = ratio(hits, calls)
        out[f"{name}.calls"] = calls
    return out

