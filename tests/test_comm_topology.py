"""Interconnect topologies (P2P mesh vs NVSwitch)."""

import pytest

from repro.comm.topology import P2PMeshTopology, SwitchTopology
from repro.hw.spec import A100_SPEC, GAUDI2_SPEC

_MESH = P2PMeshTopology.from_spec(GAUDI2_SPEC, 8)
_SWITCH = SwitchTopology.from_spec(A100_SPEC, 8)


class TestP2PMesh:
    def test_pair_bandwidth_is_three_links(self):
        mesh = _MESH
        assert mesh.pair_bandwidth(8) == pytest.approx(3 * 12.5e9)

    def test_injection_scales_with_participants(self):
        """The root cause of Figure 10's linear decline."""
        mesh = _MESH
        assert mesh.injection_bandwidth(2) == pytest.approx(1 * 37.5e9)
        assert mesh.injection_bandwidth(8) == pytest.approx(7 * 37.5e9)

    def test_full_mesh_uses_21_ports_worth(self):
        mesh = _MESH
        # 7 peers x 3 links = 21 of the 24 RoCE ports.
        assert mesh.injection_bandwidth(8) == pytest.approx(21 * 12.5e9)

    def test_participant_validation(self):
        mesh = _MESH
        with pytest.raises(ValueError):
            mesh.injection_bandwidth(1)
        with pytest.raises(ValueError):
            mesh.injection_bandwidth(9)

    def test_from_spec(self):
        mesh = P2PMeshTopology.from_spec(GAUDI2_SPEC, 4)
        assert mesh.links_per_pair == 3
        assert mesh.num_devices == 4


class TestSwitch:
    def test_injection_independent_of_participants(self):
        switch = _SWITCH
        assert switch.injection_bandwidth(2) == switch.injection_bandwidth(8) == 300e9

    def test_pair_can_burst_full_bandwidth(self):
        switch = _SWITCH
        assert switch.pair_bandwidth(2) == 300e9

    def test_participant_validation(self):
        with pytest.raises(ValueError):
            _SWITCH.injection_bandwidth(1)

    def test_switch_beats_mesh_at_two_devices(self):
        assert (
            _SWITCH.injection_bandwidth(2)
            > _MESH.injection_bandwidth(2)
        )
