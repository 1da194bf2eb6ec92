"""Run one nls-lab command with its layers traced (see tracing.py).

    python3 perfbench/traced_cli.py SPANS_PATH RUN_ID SUBCOMMAND [nls-lab options]

The spans are written to SPANS_PATH when the command ends; the exit code
is the command's.
"""

import sys

from tracing import Tracer, install


def main():
    spans_path, run_id, *argv = sys.argv[1:]
    from nls_lab import cli

    tracer = Tracer(run_id)
    install(tracer)
    idx = tracer.open("cli.main")
    try:
        return cli.main(argv)
    finally:
        tracer.close(idx)
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
