"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return spans.load_library()


@pytest.mark.parametrize(
    "n, pct", [(1, 0.0), (11, 0.0), (12, 100 / 11), (18, 700 / 17), (238, 22700 / 237)]
)
def test_tail_is_the_highest_sample_with_ten_beyond(n, pct):
    xs = [float(x) for x in range(n, 0, -1)]
    value, got_pct = stats.tail(xs)
    assert got_pct == pytest.approx(pct)
    assert sum(1 for x in xs if x > value) == min(10, n - 1)


def span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent, "op": 0, "attr": None}


def test_self_time_on_a_synthetic_tree():
    tree = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 3.0, 0),
        span("a.child", 1.5, 2.0, 1),
        span("b", 2.5, 4.0, 0),  # overlaps a: the union covers 1.0..4.0
        span("c", 5.0, 6.0, 0),
        span("c", 6.5, 7.0, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([5.5, 1.5, 0.5, 1.5, 1.0, 0.5])
    agg = spans.summarize(tree)
    assert agg["c"]["calls"] == 2
    assert agg["c"]["self_s"] == pytest.approx(1.5)
    assert agg["root"]["total_s"] == pytest.approx(10.0)


def test_tracer_wraps_callers_but_keeps_the_final_check_in_expect_path(lib):
    tracer = spans.Tracer()
    assert tracer.install(lib) == []
    assert lib["paths"].expect_path is lib["words"].expect_path
    assert hasattr(lib["paths"].expect_path, "__wrapped__")
    assert hasattr(lib["cli"].verify_ham_path, "__wrapped__")
    assert not hasattr(lib["words"].verify_ham_path, "__wrapped__")
    tracer.op = 7
    cert = lib["torusham"].hamiltonian_path(3, 3, (1, 0, 0), (0, 0, 0))
    assert cert.verified
    got = tracer.export()
    names = [s["name"] for s in got]
    assert names[0] == "paths.hamiltonian_path" and got[0]["parent"] == -1
    assert names.count("words.expect_path") == 2  # non-zero start re-verifies
    assert all(s["op"] == 7 and s["end"] >= s["start"] for s in got)
    assert all(got[s["parent"]]["start"] <= s["start"] for s in got if s["parent"] >= 0)
    spans.load_library()  # leave a clean library for later tests


@pytest.mark.parametrize("cls", [workloads.CliLarge, workloads.ConstructSweep, workloads.OracleScan])
def test_same_seed_gives_identical_inputs(cls, lib):
    w = cls(None)
    first = w.inputs(11, lib)
    assert w.inputs(11, lib) == first
    assert w.inputs(12, lib) != first


def test_cli_inputs_are_admissible_with_nonzero_starts(lib):
    for inp in workloads.CliLarge(None).inputs(5, lib):
        m, u, v = inp["m"], inp["u"], inp["v"]
        assert any(u)
        assert (sum(v) - sum(u)) % m == m - 1


def test_sweep_refuses_about_a_tenth(lib):
    ops = workloads.ConstructSweep(None).inputs(5, lib)
    pairs = workloads.sweep_pairs()
    assert {(m, k) for m, k, _, _ in ops} == set(pairs)
    assert {k for _, k in pairs} == set(range(3, 9))
    refused = sum((sum(v) - sum(u)) % m != m - 1 for m, _, u, v in ops)
    assert len(ops) == 16 * len(pairs)
    assert 0.08 < refused / len(ops) < 0.12


def test_oracle_inputs_cover_the_pinned_specs(lib):
    inputs = workloads.OracleScan(None).inputs(5, lib)
    golden = checks.load_golden()["oracle_zero_start"]
    assert [workloads.vertex_arg(s.moduli) for s, _ in inputs] == list(golden)
    assert sum(len(checks.congruence_targets(s.moduli, u)) for s, u in inputs) == 238


def test_pinned_counterexamples():
    golden = checks.load_golden()["oracle_zero_start"]
    assert golden["2,2,3"]["counterexamples"] == [[0, 0, 1], [1, 1, 1], [1, 1, 2]]
    assert len(golden["2,2,7"]["counterexamples"]) == 7
    assert all(not e["counterexamples"] for key, e in golden.items() if len(set(key.split(","))) == 1)


@pytest.mark.parametrize("m, k", [(2, 3), (3, 3), (4, 3), (2, 4)])
def test_checker_accepts_paths_and_rejects_every_adjacent_swap(lib, m, k):
    u = (1,) + (0,) * (k - 1)
    v = (0,) * k
    cert = lib["torusham"].hamiltonian_path(m, k, u, v)
    arcs = checks.expand(cert.word)
    assert checks.walk_path((m,) * k, u, v, arcs) == (True, None, "ok")
    for at in range(len(arcs) - 1):
        if arcs[at] == arcs[at + 1]:
            continue
        bad, p = checks.swap_adjacent(arcs, at)
        assert p == at
        ok, step, reason = checks.walk_path((m,) * k, u, v, bad)
        assert not ok and reason == "repeated vertex" and step is not None
        got = lib["words"].verify_ham_path(lib["torus"].TorusSpec((m,) * k), u, v,
                                           lib["words"].word_from_flat(bad))
        assert got.failure_position == step


def test_checker_rejects_wrong_length_and_endpoint():
    assert checks.walk_path((2, 2), (0, 0), (1, 0), [0, 1])[0] is False
    assert checks.walk_path((2, 2), (0, 0), (0, 1), [0, 1, 0]) == (True, None, "ok")
    assert checks.walk_path((2, 2), (0, 0), (1, 0), [0, 1, 0])[2].startswith("ends at")
    assert checks.walk_path((2, 2), (0, 0), (0, 1), [0, 2, 0])[0] is False


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert all(run.layer_unit(m["name"]) == m["unit"] for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
