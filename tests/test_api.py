import gc
import importlib
import sys
import weakref

import torusham


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
