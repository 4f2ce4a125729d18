"""Run ``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python3 serve_launcher.py SPANS_OUT serve JOURNAL [serve options]``.

Only traced serve-mixed runs use this launcher; untraced runs start the real
``python3 -m repro serve``.  It installs ``spans.install_serve`` in this
process, calls the CLI's ``main`` and writes the spans to ``SPANS_OUT`` once
the server has drained (SIGTERM).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    from repro.cli import main as cli_main

    tracer = spans.Tracer()
    spans.install_serve(tracer)
    code = cli_main(argv)
    tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
