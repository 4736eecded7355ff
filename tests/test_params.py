import dataclasses
import json
import math
import pickle
from pathlib import Path

import pytest

from helpers import count_validations
from sharedspace.engine import Scenario, SimulationConfig
from sharedspace.params import (
    GameParams,
    ParameterFileError,
    ParameterSet,
    SfmParams,
    load_parameter_set,
    parameter_set_from_dict,
    parameter_set_to_dict,
    recording_view,
    save_parameter_set,
)
from sharedspace.scene import Scene

DATA = Path(__file__).resolve().parents[1] / "data"


class TestDefaults:
    def test_sfm_defaults(self):
        p = SfmParams()
        assert p.v0_pp == 1.4
        assert p.v0_pc == 10.0
        assert p.u0 == 10.0
        assert p.sigma_pp == 0.4
        assert p.sigma_pc == 0.2
        assert p.r_obstacle == 0.2
        assert p.anisotropy == 0.2
        assert p.d_min_pc == 8.0
        assert p.d_min_cc == 8.0
        assert p.s_a == 7.0
        assert p.v_r == 18.4
        assert p.s_c == 9.0
        assert p.tau == 0.5
        assert p.fov_half_angle_deg == 113.0

    def test_game_defaults(self):
        g = GameParams()
        assert g.g_own_speed == 11.0
        assert g.g_competitor_speed == 11.0
        assert g.g_angle == 1.0
        assert g.g_noai == 3.0
        assert g.g_stopped == 2.0
        assert g.g_distance == 1.0
        assert g.s_high == 1.7
        assert g.s_normal == 5.5
        assert g.regime == "hbs"

    def test_dut_regime_overrides(self):
        ps = ParameterSet.defaults("dut")
        assert ps.game.regime == "dut"
        assert ps.sfm.v_r == 12.0
        assert ps.sfm.d_min_pc == 5.0
        assert ps.sfm.d_min_cc == 5.0

    def test_defaults_dispatch(self):
        assert ParameterSet.defaults("hbs").game.regime == "hbs"
        assert ParameterSet.defaults("dut").game.regime == "dut"
        with pytest.raises(ParameterFileError):
            ParameterSet.defaults("other")


# The rules of SfmParams.validate and GameParams.validate that
# TestValidation does not break, each broken once, with its message.
INVALID_SFM = {
    "non-finite": (dict(u0=math.inf), "u0 must be finite"),
    "negative anisotropy": (dict(anisotropy=-0.1), r"anisotropy must lie in \[0, 1\]"),
    "zero field of view": (dict(fov_half_angle_deg=0.0), r"fov_half_angle_deg must lie in \(0, 180\]"),
    "field of view past 180": (dict(fov_half_angle_deg=181.0), r"fov_half_angle_deg must lie in \(0, 180\]"),
}
INVALID_GAME = {
    "non-finite": (dict(g_angle=math.nan), "g_angle must be finite"),
    "negative weight": (dict(g_noai=-1.0), "g_noai must be nonnegative"),
    "positive collision penalty": (dict(collision_penalty=1.0), "collision_penalty must not be positive"),
}


class TestValidation:
    """Each group checks itself when built: an invalid one cannot exist."""

    def test_negative_strength_rejected(self):
        with pytest.raises(ParameterFileError, match="v0_pp must be positive"):
            SfmParams(v0_pp=-1.0)

    def test_zero_tau_rejected(self):
        with pytest.raises(ParameterFileError, match="tau must be positive"):
            SfmParams(tau=0.0)

    def test_anisotropy_range(self):
        with pytest.raises(ParameterFileError, match="anisotropy"):
            SfmParams(anisotropy=1.5)
        assert SfmParams(anisotropy=0.0).anisotropy == 0.0
        assert SfmParams(anisotropy=1.0).anisotropy == 1.0

    def test_bad_regime_rejected(self):
        with pytest.raises(ParameterFileError, match="unknown regime 'xyz'"):
            GameParams(regime="xyz")

    @pytest.mark.parametrize("fields, rule", INVALID_SFM.values(), ids=list(INVALID_SFM))
    def test_an_invalid_sfm_group_cannot_be_built(self, fields, rule):
        with pytest.raises(ParameterFileError, match=rule):
            SfmParams(**fields)

    @pytest.mark.parametrize("fields, rule", INVALID_GAME.values(), ids=list(INVALID_GAME))
    def test_an_invalid_game_group_cannot_be_built(self, fields, rule):
        with pytest.raises(ParameterFileError, match=rule):
            GameParams(**fields)

    def test_replace_checks_the_new_group(self):
        with pytest.raises(ParameterFileError, match="tau must be positive"):
            dataclasses.replace(SfmParams(), tau=0.0)

    def test_d_min_lookup(self):
        p = SfmParams(d_min_pc=5.0, d_min_cc=7.0)
        assert p.d_min_for(partner_is_car=False) == 5.0
        assert p.d_min_for(partner_is_car=True) == 7.0


class TestParametersAreFrozen:
    @pytest.mark.parametrize("obj, name", [
        (SfmParams(), "v_r"), (GameParams(), "regime"), (ParameterSet(), "sfm"), (ParameterSet(), "game"),
    ])
    def test_assigning_a_field_raises(self, obj, name):
        before = getattr(obj, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, before)
        assert getattr(obj, name) is before

    def test_a_pickled_copy_is_equal_and_not_checked_again(self, monkeypatch):
        ps = ParameterSet.defaults("dut")
        blob = pickle.dumps(ps)
        calls = count_validations(monkeypatch, SfmParams, GameParams)
        assert pickle.loads(blob) == ps and calls == []

    def test_a_parameter_set_checks_its_groups_once_when_loaded(self, monkeypatch):
        calls = count_validations(monkeypatch, SfmParams, GameParams)
        ps = load_parameter_set(DATA / "params_dut.json")
        assert calls == ["GameParams", "SfmParams"]
        ParameterSet(ps.sfm, ps.game)
        assert calls == ["GameParams", "SfmParams"]


class TestSerialization:
    def test_round_trip(self, tmp_path):
        ps = ParameterSet.defaults("dut")
        path = tmp_path / "params.json"
        save_parameter_set(ps, path)
        assert load_parameter_set(path) == ps

    def test_scalar_spreads_to_pair(self):
        ps = parameter_set_from_dict({"v0": 2.0, "sigma": 0.3, "d_min": 6.0})
        assert ps.sfm.v0_pp == 2.0 and ps.sfm.v0_pc == 2.0
        assert ps.sfm.sigma_pp == 0.3 and ps.sfm.sigma_pc == 0.3
        assert ps.sfm.d_min_pc == 6.0 and ps.sfm.d_min_cc == 6.0

    def test_pair_mapping_accepted(self):
        ps = parameter_set_from_dict({"v0": {"pp": 1.0, "pc": 9.0}})
        assert ps.sfm.v0_pp == 1.0
        assert ps.sfm.v0_pc == 9.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ParameterFileError, match="warp"):
            parameter_set_from_dict({"warp": 9})

    def test_unknown_pair_member_rejected(self):
        with pytest.raises(ParameterFileError):
            parameter_set_from_dict({"v0": {"pp": 1.0, "zz": 2.0}})

    @pytest.mark.parametrize(
        "raw, key",
        [({"u0": [1]}, "u0"), ({"v0": {"pp": None}}, "v0.pp"), ({"v0": "x"}, "v0"),
         ({"g_angle": {}}, "g_angle")],
    )
    def test_wrong_typed_value_names_its_key(self, raw, key):
        with pytest.raises(ParameterFileError, match=rf"^{key}: expected a number"):
            parameter_set_from_dict(raw)

    def test_to_dict_round_trips_through_from_dict(self):
        ps = ParameterSet.defaults("hbs")
        assert parameter_set_from_dict(parameter_set_to_dict(ps)) == ps

    def test_invalid_values_rejected_at_load(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"tau": -1.0}))
        with pytest.raises(ParameterFileError):
            load_parameter_set(path)


class TestRecordingView:
    @pytest.mark.parametrize("group", [SfmParams(v_r=12.0), GameParams(regime="dut")])
    def test_notes_the_fields_read_in_order(self, group):
        view = recording_view(group)
        assert vars(view) == {}
        fields = [f for f in vars(group) if f != "tau"][::-1][:3]
        assert [getattr(view, f) for f in fields] == [getattr(group, f) for f in fields]
        assert getattr(view, fields[0]) == getattr(group, fields[0])
        assert vars(view) == {f: getattr(group, f) for f in fields}
        assert list(vars(view)) == fields

    def test_methods_read_through_the_view(self):
        view = recording_view(SfmParams(d_min_cc=3.0))
        assert view.d_min_for(True) == 3.0
        assert vars(view) == {"d_min_cc": 3.0}

    def test_a_parameter_set_holding_a_view_records_nothing(self):
        # neither the set nor a config built on it checks the group again
        view = recording_view(ParameterSet().game)
        params = ParameterSet(sfm=SfmParams(), game=view)
        SimulationConfig(Scene(), Scenario("s", []), params)
        assert vars(view) == {}
