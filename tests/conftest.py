import numpy as np
import pytest
from hypothesis import is_hypothesis_test


def _turns_warnings_into_errors(item) -> bool:
    """Whether a ``filterwarnings`` mark on ``item`` has the action ``error``."""
    return any(
        str(arg).split(":", 1)[0].strip() == "error"
        for mark in item.iter_markers("filterwarnings")
        for arg in mark.args
    )


def pytest_collection_modifyitems(items):
    # Hypothesis' pytest plugin warns while it reports a failing example;
    # such a mark turns that warning into an error, and the whole run ends in
    # an INTERNALERROR.
    bad = [
        item.nodeid
        for item in items
        if is_hypothesis_test(getattr(item, "obj", None)) and _turns_warnings_into_errors(item)
    ]
    if bad:
        raise pytest.UsageError(
            'Hypothesis tests may not carry filterwarnings("error"): ' + ", ".join(bad)
        )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
