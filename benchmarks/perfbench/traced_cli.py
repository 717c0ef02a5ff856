"""Run the overlap-ecc CLI with layer spans recorded, then write the spans out.

    python3 benchmarks/perfbench/traced_cli.py SPANS.json sweep --all

Behaves like ``python -m overlap_ecc.cli`` (same stdout, stderr and exit
code) and additionally writes the spans of the run to SPANS.json when the
command returns.  The import of ``overlap_ecc.cli`` is its own span, so the
time left uncovered is interpreter start-up and exit.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from tracing import Tracer, install  # noqa: E402


def main() -> int:
    spans_path, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        from overlap_ecc import cli
    install(tracer)
    with tracer.span("cli.main"):
        code = cli.main(args)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
