"""Shared fixtures."""

import types

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


@pytest.fixture
def parking(monkeypatch):
    """Spy on decode-burst parking (``LlmServingEngine._decode_burst``):
    ``parking.resumed`` collects the clock of every burst that resumes
    a parked one, and with ``parking.off`` set every park a burst
    leaves is dropped, so each ``advance()`` runs a scheduler iteration
    first."""
    from repro.serving import LlmServingEngine

    spy = types.SimpleNamespace(resumed=[], off=False)
    burst = LlmServingEngine._decode_burst

    def wrapped(self, now, horizon, slowdown, activity, lost=False, park=False,
                piece=None, *parked):
        if piece is not None:
            spy.resumed.append(now)
        now = burst(self, now, horizon, slowdown, activity, lost, park, piece, *parked)
        if spy.off:
            self._park_piece = None
        return now

    monkeypatch.setattr(LlmServingEngine, "_decode_burst", wrapped)
    return spy
