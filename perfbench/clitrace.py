"""Run one CLI command with the layer tracer installed.

Usage: python3 perfbench/clitrace.py SPANS_OUT.json <cli arguments...>

Times the import of ``cantor_toolkit.cli``, wraps the layers exactly as an
in-process traced run does, runs ``cli.main`` on the arguments, and writes
the spans (plus the import time, the exit code and the threshold audit) to
SPANS_OUT.json.  The command's own stdout and stderr pass through.
"""

import json
import sys
import time


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    from cantor_toolkit import cli

    import_s = time.perf_counter() - t0
    import layertrace

    tracer = layertrace.Tracer()
    tracer.install(layertrace.package_modules())
    try:
        code = cli.main(cli_args)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    with open(out_path, "w", encoding="ascii") as fh:
        json.dump(
            {
                "import_s": import_s,
                "exit": code,
                "threshold_uncertified": layertrace.threshold_uncertified(tracer.interleave_calls),
                "spans": [list(row[:5]) + [row[5]] for row in tracer.rows()],
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
