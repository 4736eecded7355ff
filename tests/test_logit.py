"""Multinomial-logit tests: likelihood/gradient correctness against
finite differences, coefficient recovery on synthetic data, an
independent score-equation oracle for the binary case, and backward
elimination behaviour."""

from __future__ import annotations

import math

import numpy as np
import pytest

from helpers import multinomial_labels
from sharedspace import logit
from sharedspace.logit import (
    ConvergenceError,
    RankDeficiencyError,
    backward_eliminate,
    fit_multinomial_logit,
    log_likelihood_and_gradient,
)


def binary_data(rng: np.random.Generator, n: int, coef: float) -> tuple[np.ndarray, list[str]]:
    X = rng.normal(size=(n, 1))
    y = multinomial_labels(rng, X, {"yes": [coef]}, baseline="no")
    return X, y


def binary_mle_oracle(x: np.ndarray, hits: np.ndarray) -> float:
    """Root of the score equation sum(x * (y - sigmoid(b x))) = 0 by
    bisection; the score is strictly decreasing in b for non-degenerate
    data, so the root is unique."""

    def score(b: float) -> float:
        p = 1.0 / (1.0 + np.exp(-b * x))
        return float(np.dot(x, hits - p))

    lo, hi = -50.0, 50.0
    assert score(lo) > 0.0 > score(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if score(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Likelihood and gradient
# ---------------------------------------------------------------------------


class TestLikelihood:
    def test_zero_coefficients_give_uniform_likelihood(self) -> None:
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 2))
        y = ["a", "b", "c"] * 10
        ll, _ = log_likelihood_and_gradient(X, y, "a", np.zeros((2, 2)))
        assert ll == pytest.approx(-30.0 * math.log(3.0), rel=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_gradient_matches_central_differences(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        n, p = 25, 3
        X = rng.normal(size=(n, p))
        classes = ["a", "b", "c"]
        y = [classes[i] for i in rng.integers(0, 3, size=n)]
        beta = rng.normal(scale=0.5, size=(2, p))
        _, grad = log_likelihood_and_gradient(X, y, "a", beta)
        eps = 1e-6
        flat = beta.reshape(-1)
        for j in range(flat.size):
            bump = np.zeros_like(flat)
            bump[j] = eps
            up, _ = log_likelihood_and_gradient(X, y, "a", (flat + bump).reshape(2, p))
            down, _ = log_likelihood_and_gradient(X, y, "a", (flat - bump).reshape(2, p))
            numeric = (up - down) / (2.0 * eps)
            assert grad.reshape(-1)[j] == pytest.approx(numeric, rel=1e-5, abs=1e-7)


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


class TestFit:
    def test_binary_fit_matches_score_equation_root(self) -> None:
        rng = np.random.default_rng(7)
        X, y = binary_data(rng, 400, 1.3)
        model = fit_multinomial_logit(X, y, baseline="no")
        hits = np.array([1.0 if label == "yes" else 0.0 for label in y])
        oracle = binary_mle_oracle(X[:, 0], hits)
        assert model.coef[0, 0] == pytest.approx(oracle, abs=1e-6)
        assert model.outcomes == ("yes",)
        assert model.baseline == "no"

    def test_binary_coefficient_recovery(self) -> None:
        rng = np.random.default_rng(42)
        X, y = binary_data(rng, 5000, 2.0)
        model = fit_multinomial_logit(X, y, baseline="no")
        assert abs(model.coef[0, 0] - 2.0) < 0.2

    def test_multinomial_coefficient_recovery(self) -> None:
        rng = np.random.default_rng(3)
        X = rng.normal(size=(5000, 2))
        true = {"b": [2.0, -1.0], "c": [0.5, 1.5]}
        y = multinomial_labels(rng, X, true, baseline="a")
        model = fit_multinomial_logit(X, y, baseline="a")
        assert model.outcomes == ("b", "c")
        for k, cls in enumerate(model.outcomes):
            for j in range(2):
                assert abs(model.coef[k, j] - true[cls][j]) < 0.2

    def test_wald_statistics_flag_the_informative_feature(self) -> None:
        rng = np.random.default_rng(11)
        X = np.column_stack([rng.normal(size=2000), rng.normal(size=2000)])
        y = multinomial_labels(rng, X[:, :1], {"yes": [1.5]}, baseline="no")
        model = fit_multinomial_logit(X, y, baseline="no", feature_names=("signal", "noise"))
        assert np.all(np.isfinite(model.std_errors)) and np.all(model.std_errors > 0.0)
        assert model.feature_p_value("signal") < 1e-6
        assert model.feature_p_value("noise") > model.feature_p_value("signal")
        assert model.p_value("yes", "signal") == model.feature_p_value("signal")
        assert 0.0 <= model.p_value("yes", "noise") <= 1.0

    def test_deterministic_refits(self) -> None:
        rng = np.random.default_rng(9)
        X, y = binary_data(rng, 500, 1.0)
        a = fit_multinomial_logit(X, y, baseline="no")
        b = fit_multinomial_logit(X, y, baseline="no")
        assert np.array_equal(a.coef, b.coef)
        assert np.array_equal(a.p_values, b.p_values)
        assert a.log_likelihood == b.log_likelihood

    def test_duplicate_columns_raise_rank_deficiency(self) -> None:
        rng = np.random.default_rng(2)
        x = rng.normal(size=(100, 1))
        X = np.column_stack([x, x])
        y = multinomial_labels(rng, x, {"yes": [1.0]}, baseline="no")
        with pytest.raises(RankDeficiencyError):
            fit_multinomial_logit(X, y, baseline="no")

    def test_perfect_separation_raises_convergence_error(self) -> None:
        # A small feature scale keeps the saturated gradient above the
        # stopping tolerance until the coefficient blows through the
        # divergence bound.
        x = np.concatenate([np.linspace(-0.02, -0.005, 30), np.linspace(0.005, 0.02, 30)])
        X = x.reshape(-1, 1)
        y = ["no"] * 30 + ["yes"] * 30
        with pytest.raises(ConvergenceError):
            fit_multinomial_logit(X, y, baseline="no")

    @pytest.mark.parametrize(
        "make_bad",
        [
            lambda X, y: (X.reshape(-1), y),  # 1-D design
            lambda X, y: (X, y[:-1]),  # label count mismatch
            lambda X, y: (X * np.nan, y),  # non-finite values
            lambda X, y: (X[:, :0], y),  # zero columns
        ],
    )
    def test_input_validation(self, make_bad) -> None:
        rng = np.random.default_rng(0)
        X, y = binary_data(rng, 50, 1.0)
        bad_X, bad_y = make_bad(X, y)
        with pytest.raises(ValueError):
            fit_multinomial_logit(bad_X, bad_y, baseline="no")

    def test_feature_name_length_checked(self) -> None:
        rng = np.random.default_rng(0)
        X, y = binary_data(rng, 50, 1.0)
        with pytest.raises(ValueError, match="feature_names"):
            fit_multinomial_logit(X, y, baseline="no", feature_names=("a", "b"))


# ---------------------------------------------------------------------------
# Backward elimination
# ---------------------------------------------------------------------------


def elimination_data(seed: int, n: int = 1500) -> tuple[np.ndarray, list[str]]:
    """Three informative columns, one pure-noise column."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4))
    y = multinomial_labels(
        rng,
        X[:, :3],
        {"decelerate": [1.2, -0.9, 0.7], "deviate": [-0.6, 0.8, 1.0]},
        baseline="continue",
    )
    return X, y


class TestBackwardElimination:
    def test_noise_feature_is_dropped(self) -> None:
        X, y = elimination_data(seed=14)
        result = backward_eliminate(
            X, y, baseline="continue", feature_names=("f0", "f1", "f2", "noise")
        )
        assert result.retained == ("f0", "f1", "f2")
        assert [step.feature for step in result.eliminated] == ["noise"]
        assert result.eliminated[0].p_value > 0.09
        assert result.model.feature_names == result.retained

    def test_every_recorded_drop_exceeded_alpha(self) -> None:
        rng = np.random.default_rng(21)
        X = rng.normal(size=(800, 4))
        y = multinomial_labels(rng, X[:, :1], {"yes": [1.5]}, baseline="no")
        result = backward_eliminate(
            X, y, baseline="no", feature_names=("signal", "n1", "n2", "n3")
        )
        assert "signal" in result.retained
        for step in result.eliminated:
            assert step.p_value > 0.09
        for name in result.retained:
            if name != "signal" and len(result.retained) > 1:
                assert result.model.feature_p_value(name) <= 0.09

    def test_keep_list_protects_a_feature(self) -> None:
        X, y = elimination_data(seed=14)
        result = backward_eliminate(
            X,
            y,
            baseline="continue",
            feature_names=("f0", "f1", "f2", "noise"),
            keep=("noise",),
        )
        assert result.retained == ("f0", "f1", "f2", "noise")
        assert result.eliminated == []

    def test_retained_set_is_a_fixed_point(self) -> None:
        X, y = elimination_data(seed=14)
        first = backward_eliminate(
            X, y, baseline="continue", feature_names=("f0", "f1", "f2", "noise")
        )
        kept_idx = [("f0", "f1", "f2", "noise").index(name) for name in first.retained]
        again = backward_eliminate(
            X[:, kept_idx], y, baseline="continue", feature_names=first.retained
        )
        assert again.retained == first.retained
        assert again.eliminated == []

    def test_at_least_one_feature_survives(self) -> None:
        rng = np.random.default_rng(8)
        X = rng.normal(size=(300, 2))
        y = ["yes" if v > 0 else "no" for v in rng.normal(size=300)]
        result = backward_eliminate(X, y, baseline="no", feature_names=("n1", "n2"))
        assert len(result.retained) == 1

    def test_unknown_keep_name_rejected(self) -> None:
        X, y = elimination_data(seed=14)
        with pytest.raises(ValueError, match="keep"):
            backward_eliminate(
                X, y, baseline="continue", feature_names=("f0", "f1", "f2", "noise"), keep=("zz",)
            )

    def test_custom_alpha_changes_strictness(self) -> None:
        X, y = elimination_data(seed=14)
        all_kept = backward_eliminate(
            X, y, baseline="continue", feature_names=("f0", "f1", "f2", "noise"), alpha=1.0
        )
        assert all_kept.retained == ("f0", "f1", "f2", "noise")

    def test_the_rank_is_tested_once_and_every_refit_is_a_full_fit(self, monkeypatch) -> None:
        rng = np.random.default_rng(21)
        X = rng.normal(size=(800, 4))
        y = multinomial_labels(rng, X[:, :1], {"yes": [1.5]}, baseline="no")
        names = ("signal", "n1", "n2", "n3")
        ranks = []
        rank = np.linalg.matrix_rank

        def counting(A, *args, **kwargs):
            ranks.append(A.shape)
            return rank(A, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "matrix_rank", counting)
        result = backward_eliminate(X, y, baseline="no", feature_names=names)
        assert len(result.eliminated) >= 2
        assert ranks == [X.shape]
        kept = [names.index(name) for name in result.retained]
        full = fit_multinomial_logit(X[:, kept], y, baseline="no", feature_names=result.retained)
        for field in ("coef", "std_errors", "p_values"):
            assert getattr(result.model, field).tobytes() == getattr(full, field).tobytes()
        assert result.model.log_likelihood == full.log_likelihood

    def test_the_labels_are_encoded_once(self, monkeypatch) -> None:
        rng = np.random.default_rng(21)
        X = rng.normal(size=(800, 4))
        y = multinomial_labels(rng, X[:, :1], {"yes": [1.5]}, baseline="no")
        encoded = []
        encode = logit._encode_labels

        def counting(labels, baseline):
            encoded.append(baseline)
            return encode(labels, baseline)

        monkeypatch.setattr(logit, "_encode_labels", counting)
        result = backward_eliminate(X, y, baseline="no", feature_names=("signal", "n1", "n2", "n3"))
        assert len(result.eliminated) >= 2
        assert encoded == ["no"]

    def test_a_rank_deficient_design_is_rejected_before_any_fit(self) -> None:
        X, y = elimination_data(seed=14)
        X = np.column_stack([X, X[:, 0] + X[:, 1]])
        with pytest.raises(RankDeficiencyError):
            backward_eliminate(
                X, y, baseline="continue", feature_names=("f0", "f1", "f2", "noise", "sum")
            )
