"""Rewrite perfbench/golden.json from the library as it stands.

    python3 perfbench/pin_golden.py

Pins, for the default seed, the sha256 of every cli_large `construct` JSON,
and the zero-start endpoint report of every oracle_scan spec.  Re-pin only
for a change that means to alter certificate bytes or oracle answers, and
say so where the change is recorded.
"""

import json
import os
import subprocess
import sys

import checks
import run
import spans
import workloads


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    lib = spans.load_library()
    golden = {"seed": run.DEFAULT_SEED, "cli_large": {}, "oracle_zero_start": {}}
    env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"))
    for inp in workloads.CliLarge(None).inputs(run.DEFAULT_SEED, lib):
        m, k = inp["m"], inp["k"]
        out = subprocess.run(
            [sys.executable, "-m", "torusham", "construct", "--m", str(m), "--k", str(k),
             "--from", workloads.vertex_arg(inp["u"]), "--to", workloads.vertex_arg(inp["v"])],
            capture_output=True, check=True, cwd=run.ROOT, env=env,
        ).stdout
        golden["cli_large"][f"{m},{k}"] = checks.sha256(out)
    for spec, _ in workloads.OracleScan(None).inputs(run.DEFAULT_SEED, lib):
        report = lib["oracle"].endpoint_set(spec, spec.zero())
        golden["oracle_zero_start"][workloads.vertex_arg(spec.moduli)] = {
            "reachable": [list(v) for v in report.reachable],
            "counterexamples": [list(v) for v in report.counterexamples],
        }
    with open(checks.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        fh.write(dump(golden))
    return 0


def dump(obj: dict) -> str:
    """JSON with one line per entry of each nested object."""
    parts = []
    for key, value in obj.items():
        if isinstance(value, dict):
            inner = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in value.items())
            value = "{\n" + inner + "\n }"
        else:
            value = json.dumps(value)
        parts.append(f" {json.dumps(key)}: {value}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
