"""Run one ``hccm`` CLI command under the tracer and dump its spans.

    python3 bench/cli_child.py SPANS_JSON simulate --preset paper-quick --out DIR

Used only by the traced run of the cli-records workload; the untraced run
starts ``python3 -m hccm.cli`` directly.  Exits with the command's exit code.
"""

import sys

from tracer import Tracer


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from hccm import cli

    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
