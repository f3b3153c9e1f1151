"""Run one ``maximin`` command with spans recorded.

Usage: python3 perfbench/cli_driver.py SPANS_JSON <maximin arguments...>

Times ``import maximin`` in this fresh interpreter, installs the span
wrappers, calls ``maximin.cli.main`` with the remaining arguments, writes the
import time and the spans to SPANS_JSON and exits with the command's code.
"""

import json
import sys
import time


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import maximin  # noqa: F401  (the timed import)
    import_s = time.perf_counter() - start

    import maximin.cli
    import spans

    tracer = spans.Tracer()
    tracer.install()
    code = maximin.cli.main(argv)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
