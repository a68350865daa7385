"""Run one ``bayesmlp`` CLI command with the layer spans of tracer.py.

Usage: python perfbench/traced_cli.py TRACE_DIR CLI_ARGS...

The source tree's ``src/`` must be importable (the benchmark puts it on
PYTHONPATH). Spans go to TRACE_DIR/spans-<pid>.jsonl.
"""

import sys

from tracer import Tracer


def main() -> int:
    trace_dir, argv = sys.argv[1], sys.argv[2:]
    Tracer(trace_dir).install()
    import bayesmlp.cli

    return bayesmlp.cli.main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
