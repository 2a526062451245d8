"""Check that a pytest run failed exactly the expected tests.

    python3 tools/expect_failures.py REPORT [--expect CLASSNAME::NAME]...

REPORT is the JUnit XML file of `pytest --junitxml=REPORT`.  A test is
named as that file names it, its classname and its name joined by `::`,
e.g. `tests.test_acceptance::test_criterion_2b_dr_final_error_below_1e2`.
The run checks out when REPORT holds at least one test and the set of
tests with a failure or an error is exactly the set given by --expect.

Prints one summary line and exits 0 when the run checks out, else 1.
"""

from __future__ import annotations

import argparse
import sys
import xml.etree.ElementTree as ET


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="check the failures of one pytest run")
    p.add_argument("report")
    p.add_argument("--expect", action="append", default=[], metavar="TEST",
                   help="a test that must fail, as CLASSNAME::NAME (repeatable)")
    args = p.parse_args(argv)

    cases = list(ET.parse(args.report).getroot().iter("testcase"))
    failed = {f"{c.get('classname')}::{c.get('name')}" for c in cases
              if c.find("failure") is not None or c.find("error") is not None}
    print(f"{len(cases)} tests, failed: {sorted(failed)}")
    if not cases or failed != set(args.expect):
        print(f"expected exactly {sorted(args.expect)} to fail")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
