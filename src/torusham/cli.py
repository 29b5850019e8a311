"""Command-line surface: construct, verify, endpoints, scan.

Exit codes form a trichotomy so shell pipelines can tell outcomes apart:
0 means success, 2 means a principled negative answer (the endpoint
congruence refuses a construction, or a word fails verification), and 1
means an actual error (bad arguments, unsupported sizes, parse failures).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .torus import DEFAULT_CAP, HARD_CAP, TorusSpec, Vertex
from .words import PathCertificate, trace, verify_ham_path

DOT_VERTEX_LIMIT = 512


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; keep 2 reserved for refusals
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_ints(text: str, what: str, signed: bool) -> tuple[int, ...]:
    """Comma-separated decimal integers; "-" may lead one if signed, and int() must read it.

    The CLI's one integer syntax: its callers parse_vertex, parse_moduli and integer read every
    vertex, --moduli, integer flag and TORUS_HAM_CAP.
    """
    values = []
    for pos, part in enumerate(text.split(","), start=1):
        token = part.strip()
        digits = token[1:] if signed and token[:1] == "-" else token
        try:
            if not digits.isdecimal():
                raise ValueError
            values.append(int(token))
        except ValueError:
            raise ValueError(f"bad {what} {token!r} at position {pos}") from None
    return tuple(values)


def integer(text: str, what: str = "integer") -> int:
    """One signed integer: TORUS_HAM_CAP, and each integer flag's type (argparse: "invalid integer value")."""
    value, *rest = _read_ints(text, what, signed=True)
    if rest:
        raise ValueError(f"bad {what} {text!r}: one integer expected")
    return value


def parse_vertex(text: str) -> Vertex:
    return _read_ints(text, "vertex component", signed=True)


def parse_moduli(text: str) -> tuple[int, ...]:
    return _read_ints(text, "modulus", signed=False)


def _vertex(value: str | list[int], k: int) -> Vertex:
    """A start or target of k coordinates: a flag's text, or a record's ints."""
    coords = parse_vertex(value) if isinstance(value, str) else tuple(value)
    if len(coords) != k:
        raise ValueError(f"expected {k} coordinates, got {len(coords)}")
    return coords


def certificate_record(cert: PathCertificate) -> dict:
    return {
        "moduli": list(cert.spec.moduli),
        "from": list(cert.start),
        "to": list(cert.target),
        "word": {"nested": cert.text},
        "verified": cert.verified,
        "length": cert.length,
    }


def _write_text(cert: PathCertificate, head: str = "", tail: str = "") -> None:
    """Write head, cert's nested text and tail, then a newline, to stdout, the text slice by slice.

    No copy of the whole text is made.  It holds only generator names,
    digits, ^, spaces and brackets, so it is also valid inside a JSON string.
    """
    write = sys.stdout.write
    write(head)
    for piece in cert.text_slices():
        write(piece)
    write(tail + "\n")


def _write_record(cert: PathCertificate) -> None:
    """Write json.dumps(certificate_record(cert)) and a newline to stdout, streaming the text."""
    # the record of the same certificate with an empty text claim, split where the text goes
    blank = PathCertificate(cert.spec, cert.start, cert.target, cert.arcs, "", cert.verified)
    head, _, tail = json.dumps(certificate_record(blank)).partition('"nested": ""')
    _write_text(cert, head + '"nested": "', '"' + tail)


def endpoint_record(report) -> dict:
    """The JSON record of an oracle EndpointReport."""
    return {
        "moduli": list(report.spec.moduli),
        "start": list(report.start),
        "predicted": [list(v) for v in report.predicted],
        "reachable": [list(v) for v in report.reachable],
        "agreement": report.agreement,
        "counterexamples": [list(v) for v in report.counterexamples],
    }


def word_from_record(value) -> str | list:
    """The word of a record: its nested text or its flat array, as is.

    verify_ham_path checks either, once the spec gives it a length budget.
    """
    if isinstance(value, dict):
        for key, kind in (("nested", str), ("flat", list)):
            if key in value:
                if not isinstance(value[key], kind):
                    raise ValueError(f"word entry {key!r} must be a {kind.__name__}")
                value = value[key]
                break
        else:
            raise ValueError("word object needs a 'nested' or 'flat' entry")
    if isinstance(value, (str, list)):
        return value
    raise ValueError(f"cannot read a word from {type(value).__name__}")


def _record_ints(payload: dict, key: str) -> list[int]:
    value = payload[key]
    if not isinstance(value, list) or not all(type(x) is int for x in value):
        raise ValueError(f"record entry {key!r} must be a list of integers")
    return value


def _error(exc: Exception) -> int:
    # a MemoryError usually carries no message
    print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
    return 1


def _emit_dot(cert: PathCertificate, stream) -> None:
    spec = cert.spec
    path_arcs = set()
    vs = list(trace(spec, cert.start, cert.arcs))
    for a, b in zip(vs, vs[1:]):
        path_arcs.add((a, b))
    name = ",".join
    print("digraph torus {", file=stream)
    print('  node [shape=plaintext];', file=stream)
    for v in spec.vertices():
        for g in range(spec.k):
            w = spec.add_step(v, g)
            attr = " [color=red, penwidth=2.0]" if (v, w) in path_arcs else ""
            print(f'  "{name(map(str, v))}" -> "{name(map(str, w))}"{attr};', file=stream)
    print("}", file=stream)


def cmd_construct(args) -> int:
    from .paths import Refusal, hamiltonian_path

    try:
        # --to first: a --k it does not match fails before anything of size --k is built
        target = _vertex(args.to, args.k)
        start = (0,) * len(target) if args.from_ is None else _vertex(args.from_, args.k)
        # the cap is checked before anything is built, so it also beats a refusal
        if args.format == "dot" and args.m**args.k > DOT_VERTEX_LIMIT:
            raise ValueError(
                f"dot export is capped at {DOT_VERTEX_LIMIT} vertices, got {args.m**args.k}"
            )
        outcome = hamiltonian_path(args.m, args.k, start, target)
    except (ValueError, MemoryError) as exc:
        return _error(exc)
    if isinstance(outcome, Refusal):
        print(f"refused: {outcome.message}", file=sys.stderr)
        return 2
    if args.format == "json":
        _write_record(outcome)
    elif args.format == "word":
        _write_text(outcome)
    elif args.format == "vertices":
        for v in trace(outcome.spec, outcome.start, outcome.arcs):
            print(",".join(map(str, v)))
    elif args.format == "dot":
        _emit_dot(outcome, sys.stdout)
    return 0


def _read_claim(args) -> tuple[TorusSpec, Vertex, Vertex, str | list]:
    """verify's (spec, start, target, word): from the flags, then a record, text or flat array.

    The input text and the decoded record are dropped on return, before the word is checked.
    """
    if (args.m is None) != (args.k is None):
        raise ValueError("--m and --k must be given together")
    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            raw = fh.read()
    else:
        raw = sys.stdin.read()
    raw = raw.strip()
    if not raw:
        raise ValueError("no word supplied on stdin or via --file")
    moduli = None
    start, target = args.from_, args.to
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError:
        word = raw
    else:
        if isinstance(payload, dict):
            word = word_from_record(payload.get("word", payload))
            if "moduli" in payload:
                moduli = tuple(_record_ints(payload, "moduli"))
            if start is None and "from" in payload:
                start = _record_ints(payload, "from")
            if target is None and "to" in payload:
                target = _record_ints(payload, "to")
        else:
            word = word_from_record(payload)
    if args.m is None and moduli is None:
        raise ValueError("need --m and --k (or a JSON record with moduli)")
    spec = TorusSpec(moduli) if args.m is None else TorusSpec.power(args.m, args.k)
    if target is None:
        raise ValueError("need --to (or a JSON record with a 'to' entry)")
    start = spec.zero() if start is None else _vertex(start, spec.k)
    return spec, start, _vertex(target, spec.k), word


def cmd_verify(args) -> int:
    try:
        cert = verify_ham_path(*_read_claim(args))
    except (OSError, ValueError, RecursionError, MemoryError) as exc:
        # OSError: an unreadable --file; RecursionError: JSON nesting too deep
        return _error(exc)
    if cert.verified:
        _write_record(cert)
        return 0
    where = "" if cert.failure_position is None else f" at step {cert.failure_position}"
    print(f"not a hamiltonian path: {cert.failure}{where}", file=sys.stderr)
    return 2


def cmd_endpoints(args) -> int:
    from .oracle import endpoint_set

    try:
        spec = TorusSpec(parse_moduli(args.moduli))
        env = os.environ.get("TORUS_HAM_CAP")
        cap = integer(env, "TORUS_HAM_CAP") if args.cap is None and env is not None else args.cap
        report = endpoint_set(spec, spec.zero(), cap=cap)
    except ValueError as exc:
        return _error(exc)
    print(json.dumps(endpoint_record(report)))
    return 0


def cmd_scan(args) -> int:
    from .oracle import _check_hard_cap, endpoint_set, enumerate_torus_specs, ham_cycle_exists_2d

    try:
        # before enumerating: when no spec fits, no endpoint_set call would check it
        _check_hard_cap(args.max_vertices)
        for spec in enumerate_torus_specs(args.k, args.max_vertices):
            report = endpoint_set(spec, spec.zero(), cap=args.max_vertices)
            record = endpoint_record(report)
            if args.k == 2:
                record["cycle_exists"] = ham_cycle_exists_2d(*spec.moduli)
            if not report.agreement:
                print(
                    f"counterexample: {spec.moduli} has unreachable predicted endpoints "
                    f"{list(report.counterexamples)}",
                    file=sys.stderr,
                )
            print(json.dumps(record))
            sys.stdout.flush()
    except ValueError as exc:
        return _error(exc)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="torusham", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", parents=[], help="build a certified hamiltonian path")
    p.add_argument("--m", type=integer, required=True, help="cycle length")
    p.add_argument("--k", type=integer, required=True, help="number of factors (k >= 3)")
    p.add_argument("--from", dest="from_", default=None, metavar="V", help="start vertex, default 0")
    p.add_argument("--to", required=True, metavar="V", help="target vertex, e.g. 2,0,0")
    p.add_argument(
        "--format", choices=("json", "word", "vertices", "dot"), default="json"
    )
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="check a word against a path claim")
    p.add_argument("--m", type=integer, default=None)
    p.add_argument("--k", type=integer, default=None)
    p.add_argument("--from", dest="from_", default=None, metavar="V")
    p.add_argument("--to", default=None, metavar="V")
    p.add_argument("--file", default=None, help="read the word from a file instead of stdin")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("endpoints", help="brute-force endpoint set from 0")
    p.add_argument("--moduli", required=True, help="comma-separated cycle lengths")
    p.add_argument("--cap", type=integer, default=None, help=f"search cap (default {DEFAULT_CAP}, max {HARD_CAP})")
    p.set_defaults(func=cmd_endpoints)

    p = sub.add_parser("scan", help="endpoint reports over all small specs")
    p.add_argument("--max-vertices", type=integer, required=True)
    p.add_argument("--k", type=integer, default=3)
    p.set_defaults(func=cmd_scan)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader closed stdout: send the exit-time flush to devnull, not the dead pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
