"""Record what the acceptance suite computes, one JSON entry per CV run.

Run from the root of a source checkout:

    python tests/record_acceptance.py [OUT]

It runs tests/test_acceptance.py under pytest with ``gfee.classify._run_cv``
wrapped, and writes one line per call to OUT (default
tests/data/acceptance_record.json): the test id, the ErrorReport's
``to_dict()`` and the sha256 of its ``per_fold`` bytes. Two records of the
same host compare with ``diff``. kNN predictions depend on the BLAS's
rounding, so a record holds for the host that made it; this script is not a
test, and pytest does not collect it.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
DEFAULT_OUT = TESTS / "data" / "acceptance_record.json"


class Recorder:
    """pytest plugin that wraps _run_cv once gfee is importable."""

    def __init__(self):
        self.entries = []
        self.test = None

    def pytest_sessionstart(self, session):
        import gfee.classify as classify

        run_cv = classify._run_cv

        def recorded(*args, **kwargs):
            report = run_cv(*args, **kwargs)
            self.entries.append({
                "test": self.test,
                "report": report.to_dict(),
                "per_fold_sha256": hashlib.sha256(report.per_fold.tobytes()).hexdigest(),
            })
            return report

        classify._run_cv = recorded

    def pytest_runtest_setup(self, item):
        self.test = item.nodeid


def main(argv) -> int:
    out = Path(argv[0]) if argv else DEFAULT_OUT
    recorder = Recorder()
    status = pytest.main([str(TESTS / "test_acceptance.py"), "-q", "-p", "no:cacheprovider"],
                         plugins=[recorder])
    out.write_text("[\n" + ",\n".join(json.dumps(e) for e in recorder.entries) + "\n]\n")
    print(f"{len(recorder.entries)} _run_cv calls recorded in {out}")
    # a failing criterion still leaves a complete record; only a run that
    # could not execute the suite fails here
    return 0 if status in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED) else int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
