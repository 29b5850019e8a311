"""Certified hamiltonian paths in cartesian powers of directed cycles.

The headline entry point is `hamiltonian_path(m, k, u, v)`, which returns a
trace-verified `PathCertificate` whenever the endpoint congruence
sum(v - u) = -1 (mod m) holds with k >= 3, and a `Refusal` explaining the
obstruction otherwise.  The `oracle` module provides independent brute-force
ground truth on small (possibly mixed-moduli) tori.  It and the construction
(`paths`) are imported on first use of one of their names.
"""

from .torus import DEFAULT_CAP, HARD_CAP, TorusSpec, Vertex, transposition
from .words import (
    Concat,
    ConstructionError,
    Cycle,
    CycleRejection,
    PathCertificate,
    Power,
    Symbol,
    Word,
    trace,
    verify_ham_cycle,
    verify_ham_path,
    word_from_text,
)


def __getattr__(name: str):
    # the construction's and the oracle's names are imported on first use of one of
    # them, so `verify` starts without the construction and `construct` without the oracle
    if name in ("Refusal", "hamiltonian_path"):
        from . import paths as home
    elif name in __all__:
        from . import oracle as home
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(home, name)


__all__ = [
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
