"""Run ``repro`` with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/launch.py SPANS_JSON <repro cli arguments...>``.
The wrappers go in before :func:`repro.cli.main` runs; the spans are
written to ``SPANS_JSON`` when it returns (for ``serve``: after SIGTERM's
final drain and state save).
"""

import os
import sys


def main(argv):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [os.path.join(root, "src"), root]
    from perfbench.trace import Tracer, install
    from repro.cli import main as repro_main

    tracer = Tracer()
    install(tracer)
    try:
        return repro_main(argv[1:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
