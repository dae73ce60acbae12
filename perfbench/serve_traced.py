"""``repro serve`` with the benchmark's layer wrappers installed.

Usage (from a checkout's root)::

    python3 perfbench/serve_traced.py --totals OUT.json -- serve --port 0 ...

Everything after ``--`` goes to the ``repro`` CLI unchanged.  When the
server exits (after its graceful drain and final checkpoint) the layer
totals and the lanes' SLO series count are written to ``OUT.json``.
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from repro import cli  # noqa: E402

from tracing import LayerTracer, slo_series  # noqa: E402


def main(argv: "list[str]") -> int:
    if len(argv) < 3 or argv[0] != "--totals" or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out = pathlib.Path(argv[1])
    tracer = LayerTracer().install()
    try:
        code = cli.main(argv[3:])
    finally:
        tracer.restore()
    series = slo_series(tracer.services[-1]) if tracer.services else 0
    out.write_text(json.dumps({"totals": tracer.totals(), "slo_series": series}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
