"""Shared fixtures."""

import pytest

from repro.figures.report_md import TRACKED_CLAIMS, collect_measurements
from repro.hw.device import A100Device, Gaudi2Device


@pytest.fixture(scope="session")
def gaudi():
    return Gaudi2Device()


@pytest.fixture(scope="session")
def a100():
    return A100Device()


@pytest.fixture(scope="session")
def claim_results():
    """Full-grid results of every figure the paper-claims registry reads."""
    return collect_measurements()


@pytest.fixture(scope="session")
def assert_in_band(claim_results):
    """Assert named registry claims of one figure sit inside their bands."""
    claims = {(claim.figure_id, claim.summary_key): claim for claim in TRACKED_CLAIMS}

    def check(figure_id, *summary_keys):
        for key in summary_keys:
            claim = claims[(figure_id, key)]
            value = claim.measured(claim_results)
            assert claim.check(value), f"{figure_id}.{key} = {value!r} outside {claim.band}"

    return check
