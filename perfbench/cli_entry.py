"""Child process entry of the cold-cli workload.

    python3 perfbench/cli_entry.py [--trace-out PATH] <toricpos arguments>

Imports toricpos from the checkout's ``src`` directory and runs
``toricpos.cli.main`` exactly as the ``toricpos`` console script would.
With ``--trace-out`` it first installs the outside-in tracer, records the
whole ``cli.main`` call as one span and writes the spans to PATH on exit.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv: list[str]) -> None:
    if argv[:1] != ["--trace-out"]:
        from toricpos.cli import main as cli_main

        cli_main(argv, prog_name="toricpos")
        return
    trace_out, argv = argv[1], argv[2:]
    from tracer import Tracer

    tracer = Tracer()
    tracer.op_id = 0
    tracer.install()  # before toricpos.cli binds names from the other modules
    from toricpos.cli import main as cli_main

    try:
        with tracer.span("cli.main"):
            cli_main(argv, prog_name="toricpos")
    finally:
        tracer.dump(trace_out)


if __name__ == "__main__":
    main(sys.argv[1:])
