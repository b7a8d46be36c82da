"""Repository-wide pytest set-up, shared by tests/ and perfbench/tests/.

A failing hypothesis test imports ``hypothesis.extra._patching`` to report
its failure, and that import raises a third-party DeprecationWarning, which
``filterwarnings = ["error"]`` turns into an INTERNALERROR that aborts the
whole session. Importing the module once here, with that warning ignored,
makes the later import a cache hit, so the failure is reported as a failure.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # hypothesis or libcst absent: nothing to prime
        pass
