import ast
import gc
import importlib
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import torusham
from torusham import (
    Concat,
    Cycle,
    CycleRejection,
    PathCertificate,
    Power,
    Refusal,
    Symbol,
    TorusSpec,
    hamiltonian_path,
)
from torusham.oracle import EndpointReport
from torusham.paths import Term

# children import the package this suite imported, with or without PYTHONPATH
PACKAGE_ROOT = os.path.dirname(os.path.dirname(torusham.__file__))


def test_star_import_exports_every_name_in_all():
    namespace = {}
    exec("from torusham import *", namespace)
    assert len(set(torusham.__all__)) == len(torusham.__all__)
    for name in torusham.__all__:
        assert namespace[name] is getattr(torusham, name)


def test_public_names_are_pinned():
    # any change to the public surface shows up as an edit of this list
    assert sorted(torusham.__all__) == [
        "Concat",
        "ConstructionError",
        "Cycle",
        "CycleRejection",
        "DEFAULT_CAP",
        "EndpointReport",
        "HARD_CAP",
        "PathCertificate",
        "Power",
        "Refusal",
        "SizeCapError",
        "Symbol",
        "TorusSpec",
        "Vertex",
        "Word",
        "endpoint_set",
        "enumerate_torus_specs",
        "ham_cycle_exists_2d",
        "ham_cycle_witness",
        "ham_path_exists",
        "ham_path_witness",
        "hamiltonian_path",
        "trace",
        "transposition",
        "verify_ham_cycle",
        "verify_ham_path",
        "word_from_text",
    ]


def test_private_names_imported_across_modules_are_pinned():
    # (importer, module, name) of each _-prefixed name one module imports from another:
    # a new private cross-module import shows up as an edit of this set
    found = set()
    for path in Path(torusham.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                found.update((path.stem, node.module, a.name) for a in node.names if a.name[0] == "_")
    assert found == {
        ("paths", "cycles", "_SHIFT"),
        ("paths", "cycles", "_any_cycle_distance"),
        ("paths", "cycles", "_arc_table"),
        ("paths", "cycles", "_even_distance_levels"),
        ("paths", "cycles", "_lift_chain"),
        ("cli", "oracle", "_check_hard_cap"),
    }


def test_a_library_imported_again_frees_the_old_one():
    # nothing outside the package may keep its classes alive once its modules are dropped
    ours = [n for n in sys.modules if n == "torusham" or n.startswith("torusham.")]
    saved = {n: sys.modules.pop(n) for n in ours}
    try:
        fresh = importlib.import_module("torusham")
        refs = [weakref.ref(cls) for cls in (fresh.Symbol, fresh.PathCertificate, fresh.TorusSpec)]
        del fresh
        for n in [n for n in sys.modules if n == "torusham" or n.startswith("torusham.")]:
            del sys.modules[n]
        gc.collect()
        assert [r() for r in refs] == [None, None, None]
    finally:
        for n in [n for n in sys.modules if n == "torusham" or n.startswith("torusham.")]:
            del sys.modules[n]
        sys.modules.update(saved)


def _child(code, *argv, stdin=None):
    # -S: a site hook may import typing itself, and the check is of this package's imports
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-S", "-c", code, *argv], input=stdin, capture_output=True, text=True,
        env=env, check=True,
    )


# modules a CLI command may leave out of sys.modules: the stdlib's slow ones, the oracle
# and the construction
RUN_CLI = (
    "import sys\n"
    "from torusham.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "left_out = {'typing', 'dataclasses', 'inspect', 'torusham.oracle', 'torusham.paths', 'torusham.cycles'}\n"
    "print(code, sorted(left_out & set(sys.modules)), file=sys.stderr)\n"
)


def test_construct_and_verify_start_without_the_oracle_or_typing():
    built = _child(RUN_CLI, "construct", "--m", "3", "--k", "3", "--to", "2,0,0")
    assert built.stderr == "0 ['torusham.cycles', 'torusham.paths']\n"
    # verify imports no construction code
    checked = _child(RUN_CLI, "verify", stdin=built.stdout)
    assert checked.stderr == "0 []\n" and checked.stdout == built.stdout
    # endpoints imports the oracle when it runs
    assert _child(RUN_CLI, "endpoints", "--moduli", "2,3").stderr == "0 ['torusham.oracle']\n"


def test_construction_names_load_paths_on_first_use():
    got = _child(
        "import sys\n"
        "import torusham\n"
        "before = 'torusham.paths' in sys.modules\n"
        "from torusham import hamiltonian_path, Refusal\n"
        "from torusham import paths\n"
        "print(before, hamiltonian_path is paths.hamiltonian_path, Refusal is paths.Refusal)\n"
    )
    assert got.stdout == "False True True\n"


def test_no_module_imports_dataclasses():
    # the records are torus.Record classes: importing dataclasses and making frozen
    # dataclasses were a large share of every CLI process's start-up
    for path in sorted(Path(torusham.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        absolute = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
        absolute += [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and not n.level]
        assert "dataclasses" not in [name.split(".")[0] for name in absolute], path.name


def test_oracle_names_load_the_oracle_on_first_use():
    got = _child(
        "import sys\n"
        "import torusham\n"
        "before = 'torusham.oracle' in sys.modules\n"
        "from torusham import endpoint_set, HARD_CAP\n"
        "from torusham import oracle\n"
        "print(before, endpoint_set is oracle.endpoint_set, HARD_CAP == oracle.HARD_CAP == 64)\n"
    )
    assert got.stdout == "False True True\n"
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        torusham.no_such_name


SPEC = TorusSpec((2, 2))
# (class, fields in order, how many are required, the repr a frozen dataclass gave)
RECORDS = [
    (TorusSpec, {"moduli": (3, 3, 3)}, 1, "TorusSpec(moduli=(3, 3, 3))"),
    (Symbol, {"label": 1}, 1, "Symbol(label=1)"),
    (
        Concat,
        {"parts": (Symbol(0), Power(Symbol(1), 2))},
        1,
        "Concat(parts=(Symbol(label=0), Power(base=Symbol(label=1), exponent=2)))",
    ),
    (Power, {"base": Symbol(2), "exponent": 3}, 2, "Power(base=Symbol(label=2), exponent=3)"),
    (
        PathCertificate,
        {
            "spec": SPEC, "start": (0, 0), "target": (1, 1), "arcs": b"\0\1\0", "claim": None,
            "verified": False, "failure": "endpoint (0, 1) != target (1, 1)",
            "failure_position": 3, "failure_vertex": (0, 1), "runs": None,
        },
        6,
        r"PathCertificate(spec=TorusSpec(moduli=(2, 2)), start=(0, 0), target=(1, 1), "
        r"arcs=b'\x00\x01\x00', claim=None, verified=False, failure='endpoint (0, 1) != target "
        r"(1, 1)', failure_position=3, failure_vertex=(0, 1), runs=None)",
    ),
    (Cycle, {"spec": SPEC, "arcs": b"\0\1\0\1"}, 2, r"Cycle(spec=TorusSpec(moduli=(2, 2)), arcs=b'\x00\x01\x00\x01')"),
    (
        CycleRejection,
        {"spec": SPEC, "word": "x1 x2", "reason": "too short", "position": 2, "vertex": (1, 1)},
        3,
        "CycleRejection(spec=TorusSpec(moduli=(2, 2)), word='x1 x2', reason='too short', "
        "position=2, vertex=(1, 1))",
    ),
    (
        Refusal,
        {"spec": TorusSpec((3, 3, 3)), "start": (0, 0, 0), "target": (1, 0, 0), "residue": 1, "required": 2},
        5,
        "Refusal(spec=TorusSpec(moduli=(3, 3, 3)), start=(0, 0, 0), target=(1, 0, 0), residue=1, "
        "required=2)",
    ),
    (
        Term,
        {"m": 3, "k": 3, "levels": (2,), "n": 0, "tau": (0, 1, 2), "w": (2, 0, 0)},
        6,
        "Term(m=3, k=3, levels=(2,), n=0, tau=(0, 1, 2), w=(2, 0, 0))",
    ),
    (
        EndpointReport,
        {
            "spec": TorusSpec((2, 3)), "start": (0, 0), "reachable": ((1, 1), (1, 2)),
            "predicted": ((0, 1), (0, 2), (1, 0), (1, 1), (1, 2)), "agreement": False,
            "counterexamples": ((0, 1), (0, 2), (1, 0)),
        },
        6,
        "EndpointReport(spec=TorusSpec(moduli=(2, 3)), start=(0, 0), reachable=((1, 1), (1, 2)), "
        "predicted=((0, 1), (0, 2), (1, 0), (1, 1), (1, 2)), agreement=False, "
        "counterexamples=((0, 1), (0, 2), (1, 0)))",
    ),
]


@pytest.mark.parametrize("cls, fields, required, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_keep_what_the_frozen_dataclasses_gave(cls, fields, required, text):
    values = list(fields.values())
    record = cls(*values)
    assert repr(record) == text
    # by position or keyword, the optional fields by default, and all required
    same = [cls(**fields), cls(*values[:required], **dict(list(fields.items())[required:]))]
    if required < len(values) and all(v is None for v in values[required:]):
        same.append(cls(*values[:required]))
    for other in same:
        assert other == record and hash(other) == hash(record) and other is not record
    with pytest.raises(TypeError):
        cls(*values[: required - 1])
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, no_such_field=1)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, fields[name])
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert list(map(record.__getattribute__, fields)) == values


def test_records_compare_by_fields_within_one_class():
    assert Symbol(1) == Symbol(1) and Symbol(1) != Symbol(2)
    assert Power(Symbol(1), 2) != Power(Symbol(1), 3)
    # one field equal to 1 each, but different classes
    assert Symbol(1) != Concat(1) and Concat(1) != Symbol(1)
    assert len({Symbol(1), Symbol(1), Concat(1)}) == 2
    assert TorusSpec((3, 3)) != TorusSpec((3, 4))
    assert TorusSpec((3, 3)) != (3, 3)


def test_certificate_word_is_built_once():
    cert = hamiltonian_path(3, 3, (0, 0, 0), (2, 0, 0))
    assert cert.word is cert.word
