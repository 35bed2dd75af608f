"""Traced stand-in for ``python -m modforms.cli`` in the cli workload.

    python3 perfbench/cli_child.py <modforms cli arguments>

Imports the CLI (timed; ``cli.import_s`` is the median over children),
wraps the library layers in spans, runs ``modforms.cli.main`` with the
given arguments, and writes the span summary as one JSON line at the end
of stderr.  ``src`` must be on PYTHONPATH.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import modforms.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

import spans  # noqa: E402


def main() -> int:
    tracer = spans.Tracer()
    spans.install(tracer)
    code = 1
    try:
        code = modforms.cli.main(sys.argv[1:])
    finally:
        summary = spans.summarize(tracer)
        summary["import_s"] = [IMPORT_S]
        sys.stdout.flush()
        sys.stderr.write(json.dumps(summary) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
