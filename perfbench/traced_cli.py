"""`torusham` CLI entry with layer spans, for the benchmark's traced runs.

Usage: PERFBENCH_SPANS=out.json python3 perfbench/traced_cli.py construct ...

Runs `torusham.cli.main` with the argument list, as `python -m torusham`
does, and writes the spans and lru-cache counters to $PERFBENCH_SPANS when
main returns.
"""

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402


def main() -> int:
    mods = spans.load_library()
    tracer = spans.Tracer()
    tracer.install(mods)
    code = 1
    try:
        code = mods["cli"].main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.export(), "caches": spans.cache_stats(mods)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
