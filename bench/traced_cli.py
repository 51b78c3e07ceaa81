"""Run one xduce CLI call with spans, for the traced cold-CLI workload.

Usage: python bench/traced_cli.py SPANS.json SUBCOMMAND [ARGS...]

Does what ``python -c "from xduce.cli import main; main()"`` does, but
times the package import as a span, wraps the public functions with
``tracer.Tracer`` before calling ``run_cli``, and writes the spans to
SPANS.json when the call ends. Exits with ``run_cli``'s code.
"""

import sys

from tracer import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.begin_op("cli.main")
    try:
        with tracer.span("import.xduce_cli"):
            import xduce.cli
        tracer.install()
        return xduce.cli.run_cli(argv)
    finally:
        tracer.uninstall()
        tracer.end_op()
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
