"""Run one tracefluct CLI invocation in this fresh interpreter and record it.

Usage: python3 bench/child.py RESULT_JSON TRACE -- <tracefluct argv...>

The package is imported from the ``src`` directory next to this
benchmark.  The moment the import completes is written as a
``time.monotonic`` reading, so the parent, which noted the same clock
before starting this interpreter, can compute set-up time.  ``wall_s``
covers ``tracefluct.cli.main(argv)`` alone, artifact writing included.
With TRACE=1 the public functions are wrapped (see ``tracer.py``) after
the import and the span summary is added to the result; the raw spans
go to RESULT_JSON with the suffix ``.spans.json``.
"""

import time
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import tracefluct.cli  # noqa: E402

T_IMPORTED = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402


def main() -> int:
    result_path = Path(sys.argv[1])
    traced = sys.argv[2] == "1"
    if sys.argv[3] != "--":
        raise SystemExit("usage: child.py RESULT_JSON TRACE -- <tracefluct argv...>")
    argv = sys.argv[4:]
    if not Path(tracefluct.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"tracefluct was imported from {tracefluct.__file__}, not {SRC}")
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cli_main = tracefluct.cli.main  # the traced wrapper when tracing
    rc, error = None, None
    t0 = time.perf_counter()
    try:
        rc = cli_main(argv)
    except Exception:
        error = traceback.format_exc()
    wall_s = time.perf_counter() - t0
    result = {
        "t_imported": T_IMPORTED,
        "wall_s": wall_s,
        "rc": rc,
        "error": error,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["span_count"] = len(tracer.spans)
        Path(str(result_path) + ".spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "errors"], "spans": tracer.spans}))
    result_path.write_text(json.dumps(result))
    return 0 if rc == 0 and error is None else 1


if __name__ == "__main__":
    sys.exit(main())
