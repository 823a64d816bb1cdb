import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from crraport import MarketParams

FIXTURES = Path(__file__).parent / "fixtures"

# ``--hypothesis-profile=ci``: a fixed example sequence, ten times the
# default count, for properties that set no count of their own.
settings.register_profile("ci", derandomize=True, max_examples=1000)


@pytest.fixture(scope="session")
def worked_values() -> dict:
    """50-digit reference evaluations on the worked two-asset market."""
    return json.loads((FIXTURES / "worked_values.json").read_text())


@pytest.fixture(scope="session")
def shapiro_reference() -> dict:
    """Pre-recorded (W, p) from a reference implementation."""
    return json.loads((FIXTURES / "shapiro_reference.json").read_text())


@pytest.fixture
def worked_market() -> MarketParams:
    return MarketParams([1.05, 1.15], np.diag([0.01, 0.04]))
