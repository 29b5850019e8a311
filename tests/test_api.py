import gc
import importlib
import os
import subprocess
import sys
import weakref

import pytest

import torusham

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
        "flat_length",
        "ham_cycle_exists_2d",
        "ham_cycle_witness",
        "ham_path_exists",
        "ham_path_witness",
        "hamiltonian_path",
        "trace",
        "transposition",
        "verify_ham_cycle",
        "verify_ham_path",
        "word_from_flat",
        "word_from_text",
        "word_to_text",
    ]


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


RUN_CLI = (
    "import sys\n"
    "from torusham.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(code, sorted({'typing', 'torusham.oracle'} & set(sys.modules)), file=sys.stderr)\n"
)


def test_construct_and_verify_start_without_the_oracle_or_typing():
    built = _child(RUN_CLI, "construct", "--m", "3", "--k", "3", "--to", "2,0,0")
    assert built.stderr == "0 []\n"
    checked = _child(RUN_CLI, "verify", stdin=built.stdout)
    assert checked.stderr == "0 []\n" and checked.stdout == built.stdout
    # endpoints imports the oracle when it runs
    assert _child(RUN_CLI, "endpoints", "--moduli", "2,3").stderr == "0 ['torusham.oracle']\n"


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
