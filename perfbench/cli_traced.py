"""Run one nfmimo CLI command with layer spans recorded around its calls.

  python perfbench/cli_traced.py --spans FILE --run-id ID --parent SPAN -- <nfmimo args>

The CLI runs unchanged through ``nfmimo.cli.main``; the names it and the
solver look up are swapped for timing wrappers while it runs. After
``simulate``, whose process holds a built plan, the operator thread probe
runs too. Spans go to FILE as JSON lines; the exit code is the command's.
"""

from __future__ import annotations

import argparse
import sys


def main(argv: list[str]) -> int:
    split = argv.index("--")
    parser = argparse.ArgumentParser(prog="cli_traced.py")
    parser.add_argument("--spans", required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--parent", default="")
    args = parser.parse_args(argv[:split])
    cli_args = argv[split + 1:]

    import nfmimo.cli
    import nfmimo.io as nio

    import harness
    import tracing

    tracer = tracing.Tracer(args.run_id, args.parent or None)
    try:
        with tracing.instrument(tracer, tracing.CLI_TARGETS):
            code = nfmimo.cli.main(cli_args)
        if cli_args[0] == "simulate" and code == 0:
            scenario = nio.read_scenario(cli_args[cli_args.index("--scenario") + 1])
            harness.thread_probes(tracer, scenario)
    finally:
        tracer.write(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
