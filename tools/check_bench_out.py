"""Check the result line of one `bench/run.py` run.

    python3 tools/check_bench_out.py FILE [--per-layer] [--positive NAME]...

FILE holds a run's stdout; its last line is the run's JSON result.  The
run checks out when:

- `correct` is true and `failed` is 0;
- with --per-layer, every `per_layer` metric that BENCHMARK.json names
  is in the result (a traced run, `--trace 1`);
- each metric named by --positive is in the result and above 0.

Prints one summary line and exits 0 when the run checks out, else 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="check the result of one bench run")
    p.add_argument("file")
    p.add_argument("--per-layer", action="store_true",
                   help="every per_layer metric of BENCHMARK.json must be reported")
    p.add_argument("--positive", action="append", default=[], metavar="NAME",
                   help="a metric that must be above 0 (repeatable)")
    args = p.parse_args(argv)

    with open(args.file) as fh:
        lines = fh.read().splitlines()
    last = json.loads(lines[-1]) if lines else {}
    metrics = last.get("metrics", {})
    ok = last.get("correct") is True and last.get("failed") == 0
    summary = [f"{args.file}: correct={last.get('correct')} failed={last.get('failed')}"]
    for name in args.positive:
        value = metrics.get(name, {}).get("value", 0)
        summary.append(f"{name}={value}")
        ok = ok and value > 0
    if args.per_layer:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            names = [m["name"] for m in json.load(fh)["per_layer"]]
        missing = [n for n in names if n not in metrics]
        summary.append(f"missing={missing}")
        ok = ok and not missing
    print(" ".join(summary))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
