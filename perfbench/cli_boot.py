"""Start the sigchain CLI with the benchmark's span wrappers installed.

Usage: python perfbench/cli_boot.py SPANS_FILE CLI_ARGS...

Imports ``sigchain.cli``, wraps the package's public functions (see
tracer.py), runs ``sigchain.cli.main(CLI_ARGS)``, writes the spans to
SPANS_FILE with a last line holding the import and ``main`` times, and
exits with the CLI's code.
"""
from __future__ import annotations

import json
import sys
import time

t_start = time.perf_counter()
import sigchain.cli  # noqa: E402

from tracer import Tracer  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    import_s = time.perf_counter() - t_start
    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    t0 = time.perf_counter()
    code = sigchain.cli.main(argv)
    compute_s = time.perf_counter() - t0
    tracer.dump(spans_file)
    with open(spans_file, "a") as f:
        f.write(json.dumps({"import_s": import_s,
                            "compute_s": compute_s}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
