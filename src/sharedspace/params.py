"""Calibratable parameters for movement and decision models.

Two named regimes ship with the package: "hbs" (calibrated against a
European shared-space street) and "dut" (adapted to a Chinese campus
intersection: shorter view range and safety distance, split distance
features, flipped car-stopped influence, reactive stopping disabled).
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path


class ParameterFileError(ValueError):
    """Raised for malformed or unknown parameter file content."""


def _require_finite(params: object) -> None:
    """Reject NaN and infinity in every numeric field of `params`."""
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        if isinstance(value, (int, float)) and not math.isfinite(value):
            raise ParameterFileError(f"{f.name} must be finite")


@dataclass
class SfmParams:
    """Movement-layer constants: interaction strengths, ranges and the
    safety distances used by conflict detection."""

    v0_pp: float = 1.4        # pedestrian-pedestrian repulsion strength
    v0_pc: float = 10.0       # pedestrian-car repulsion strength
    u0: float = 10.0          # obstacle repulsion strength
    sigma_pp: float = 0.4     # pedestrian-pedestrian repulsion range
    sigma_pc: float = 0.2     # pedestrian-car repulsion range
    r_obstacle: float = 0.2   # obstacle repulsion range
    anisotropy: float = 0.2   # weight of events behind the agent
    tau: float = 0.5          # relaxation time, seconds
    d_min_pc: float = 8.0     # min car distance to pedestrians, meters
    d_min_cc: float = 8.0     # min car distance to cars, meters
    s_a: float = 7.0          # action scaling distance, meters
    v_r: float = 18.4         # view range, meters
    s_c: float = 9.0          # conflict prediction horizon, seconds
    fov_half_angle_deg: float = 113.0

    def validate(self) -> None:
        _require_finite(self)
        for name in (
            "v0_pp", "v0_pc", "u0", "sigma_pp", "sigma_pc", "r_obstacle",
            "tau", "d_min_pc", "d_min_cc", "s_a", "v_r", "s_c",
        ):
            if not getattr(self, name) > 0.0:
                raise ParameterFileError(f"{name} must be positive")
        if not 0.0 <= self.anisotropy <= 1.0:
            raise ParameterFileError("anisotropy must lie in [0, 1]")
        if not 0.0 < self.fov_half_angle_deg <= 180.0:
            raise ParameterFileError("fov_half_angle_deg must lie in (0, 180]")

    def d_min_for(self, partner_is_car: bool) -> float:
        return self.d_min_cc if partner_is_car else self.d_min_pc


@dataclass
class GameParams:
    """Decision-layer weights and thresholds."""

    g_own_speed: float = 11.0
    g_competitor_speed: float = 11.0
    g_angle: float = 1.0
    g_noai: float = 3.0
    g_stopped: float = 2.0
    g_distance: float = 1.0
    # Features with no calibrated default weight keep a configurable slot.
    g_giveway: float = 0.0
    g_following: float = 0.0
    g_followed: float = 0.0
    m: float = 2.0            # detour slack for pedestrian_min_dist, meters
    n: float = 10.0           # reach of car_min_dist, meters
    regime: str = "hbs"
    s_high: float = 1.7       # fast-walking threshold, m/s
    s_normal: float = 5.5     # normal cruise threshold, m/s
    base_continue: float = 4.0
    base_decelerate: float = 2.0
    base_deviate: float = 3.0
    collision_penalty: float = -100.0

    def validate(self) -> None:
        _require_finite(self)
        for name in (
            "g_own_speed", "g_competitor_speed", "g_angle", "g_noai",
            "g_stopped", "g_distance", "g_giveway", "g_following", "g_followed",
        ):
            if getattr(self, name) < 0.0:
                raise ParameterFileError(f"{name} must be nonnegative")
        if self.regime not in ("hbs", "dut"):
            raise ParameterFileError(f"unknown regime {self.regime!r}")
        if self.collision_penalty > 0.0:
            raise ParameterFileError("collision_penalty must not be positive")


@dataclass
class ParameterSet:
    sfm: SfmParams = dataclasses.field(default_factory=SfmParams)
    game: GameParams = dataclasses.field(default_factory=GameParams)

    def validate(self) -> None:
        self.sfm.validate()
        self.game.validate()

    @classmethod
    def defaults(cls, regime: str = "hbs") -> "ParameterSet":
        ps = cls()
        if regime == "dut":
            ps.sfm.v_r = 12.0
            ps.sfm.d_min_pc = 5.0
            ps.sfm.d_min_cc = 5.0
            ps.game.regime = "dut"
        elif regime != "hbs":
            raise ParameterFileError(f"unknown regime {regime!r}")
        return ps


# File schema. Paired symbols accept either a scalar (applied to both
# slots) or an explicit mapping.
_PAIR_KEYS = {
    "v0": (("pp", "v0_pp"), ("pc", "v0_pc")),
    "sigma": (("pp", "sigma_pp"), ("pc", "sigma_pc")),
    "d_min": (("pc", "d_min_pc"), ("cc", "d_min_cc")),
}
_SFM_SCALARS = {
    "u0": "u0",
    "r": "r_obstacle",
    "lambda": "anisotropy",
    "tau": "tau",
    "s_a": "s_a",
    "v_r": "v_r",
    "s_c": "s_c",
    "fov_half_angle_deg": "fov_half_angle_deg",
}
# Every GameParams field but the regime, under its own name.
_GAME_SCALARS = tuple(f.name for f in dataclasses.fields(GameParams) if f.name != "regime")


def _number(key: str, value: object) -> float:
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ParameterFileError(f"{key}: expected a number, got {value!r}") from exc


def parameter_set_from_dict(raw: dict) -> ParameterSet:
    known = set(_PAIR_KEYS) | set(_SFM_SCALARS) | set(_GAME_SCALARS) | {"regime"}
    unknown = set(raw) - known
    if unknown:
        raise ParameterFileError(f"unknown parameter keys {sorted(unknown)}")
    regime = raw.get("regime", "hbs")
    ps = ParameterSet.defaults(regime)
    for key, slots in _PAIR_KEYS.items():
        if key not in raw:
            continue
        value = raw[key]
        if isinstance(value, dict):
            bad = set(value) - {s for s, _ in slots}
            if bad:
                raise ParameterFileError(f"{key}: unknown sub-keys {sorted(bad)}")
            for sub, attr in slots:
                if sub in value:
                    setattr(ps.sfm, attr, _number(f"{key}.{sub}", value[sub]))
        else:
            for _, attr in slots:
                setattr(ps.sfm, attr, _number(key, value))
    for key, attr in _SFM_SCALARS.items():
        if key in raw:
            setattr(ps.sfm, attr, _number(key, raw[key]))
    for key in _GAME_SCALARS:
        if key in raw:
            setattr(ps.game, key, _number(key, raw[key]))
    ps.validate()
    return ps


def parameter_set_to_dict(ps: ParameterSet) -> dict:
    out: dict = {
        "v0": {"pp": ps.sfm.v0_pp, "pc": ps.sfm.v0_pc},
        "sigma": {"pp": ps.sfm.sigma_pp, "pc": ps.sfm.sigma_pc},
        "d_min": {"pc": ps.sfm.d_min_pc, "cc": ps.sfm.d_min_cc},
        "regime": ps.game.regime,
    }
    for key, attr in _SFM_SCALARS.items():
        out[key] = getattr(ps.sfm, attr)
    for key in _GAME_SCALARS:
        out[key] = getattr(ps.game, key)
    return out


def load_parameter_set(path: str | Path) -> ParameterSet:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParameterFileError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ParameterFileError(f"{path}: expected a JSON object")
    try:
        return parameter_set_from_dict(raw)
    except ParameterFileError as exc:
        raise ParameterFileError(f"{path}: {exc}") from exc


def save_parameter_set(ps: ParameterSet, path: str | Path) -> None:
    Path(path).write_text(json.dumps(parameter_set_to_dict(ps), indent=2) + "\n")
