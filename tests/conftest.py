"""Test-session settings shared by every test of the run."""

import pytest

# Hypothesis's report hook imports libcst to print a failing example's
# code, and that import raises mypy_extensions' TypedDict deprecation:
# under -W error pytest then stops in an internal error instead of
# printing the falsifying example.  Only that third-party text is ignored.
LIBCST_IMPORT_WARNING = (
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")


def pytest_collection_modifyitems(items):
    for item in items:
        item.add_marker(pytest.mark.filterwarnings(LIBCST_IMPORT_WARNING))
