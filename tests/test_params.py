import json

import pytest

from sharedspace.params import (
    GameParams,
    ParameterFileError,
    ParameterSet,
    SfmParams,
    load_parameter_set,
    parameter_set_from_dict,
    parameter_set_to_dict,
    save_parameter_set,
)


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
        ps = ParameterSet.dut_defaults()
        assert ps.game.regime == "dut"
        assert ps.sfm.v_r == 12.0
        assert ps.sfm.d_min_pc == 5.0
        assert ps.sfm.d_min_cc == 5.0

    def test_defaults_dispatch(self):
        assert ParameterSet.defaults("hbs").game.regime == "hbs"
        assert ParameterSet.defaults("dut").game.regime == "dut"
        with pytest.raises(ParameterFileError):
            ParameterSet.defaults("other")


class TestValidation:
    def test_negative_strength_rejected(self):
        with pytest.raises(ParameterFileError):
            SfmParams(v0_pp=-1.0).validate()

    def test_zero_tau_rejected(self):
        with pytest.raises(ParameterFileError):
            SfmParams(tau=0.0).validate()

    def test_anisotropy_range(self):
        with pytest.raises(ParameterFileError):
            SfmParams(anisotropy=1.5).validate()
        SfmParams(anisotropy=0.0).validate()
        SfmParams(anisotropy=1.0).validate()

    def test_bad_regime_rejected(self):
        with pytest.raises(ParameterFileError):
            GameParams(regime="xyz").validate()

    def test_d_min_lookup(self):
        p = SfmParams(d_min_pc=5.0, d_min_cc=7.0)
        assert p.d_min_for(partner_is_car=False) == 5.0
        assert p.d_min_for(partner_is_car=True) == 7.0


class TestSerialization:
    def test_round_trip(self, tmp_path):
        ps = ParameterSet.dut_defaults()
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
