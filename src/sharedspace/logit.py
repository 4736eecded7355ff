"""Multinomial logistic regression with Wald tests and backward elimination.

Fits P(y=k | x) = exp(b_k.x) / (1 + sum_j exp(b_j.x)) against a chosen
baseline outcome, without an intercept: every regressor is an observed
feature, so a zero feature vector means indifference between outcomes.
Estimation is damped Newton on the exact gradient and Hessian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

MAX_ITER = 200
GRADIENT_TOL = 1e-6
LOGLIK_TOL = 1e-8
MAX_HALVINGS = 40
SEPARATION_BOUND = 1e3


class ConvergenceError(RuntimeError):
    """Raised when Newton iteration fails to converge."""


class RankDeficiencyError(ValueError):
    """Raised when the design matrix has linearly dependent columns."""


@dataclass
class LogitModel:
    baseline: str
    outcomes: tuple[str, ...]
    feature_names: tuple[str, ...]
    coef: np.ndarray          # (n_outcomes, n_features)
    std_errors: np.ndarray    # (n_outcomes, n_features)
    p_values: np.ndarray      # (n_outcomes, n_features), two-sided Wald
    log_likelihood: float
    n_obs: int
    n_iter: int

    def coefficient(self, outcome: str, feature: str) -> float:
        return float(self.coef[self.outcomes.index(outcome), self.feature_names.index(feature)])

    def p_value(self, outcome: str, feature: str) -> float:
        return float(self.p_values[self.outcomes.index(outcome), self.feature_names.index(feature)])

    def feature_p_value(self, feature: str) -> float:
        """Smallest p-value the feature attains across outcome equations."""
        return float(self.p_values[:, self.feature_names.index(feature)].min())

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """(n, n_outcomes + 1) probabilities, baseline column first."""
        X = np.asarray(X, dtype=float)
        eta = X @ self.coef.T
        eta = np.concatenate([np.zeros((X.shape[0], 1)), eta], axis=1)
        eta -= eta.max(axis=1, keepdims=True)
        expd = np.exp(eta)
        return expd / expd.sum(axis=1, keepdims=True)

    def summary(self) -> str:
        lines = [
            f"n={self.n_obs} ll={self.log_likelihood:.4f} baseline={self.baseline}"
        ]
        for k, outcome in enumerate(self.outcomes):
            lines.append(f"[{outcome} vs {self.baseline}]")
            for j, name in enumerate(self.feature_names):
                lines.append(
                    f"  {name:<22} coef={self.coef[k, j]: .4f} "
                    f"se={self.std_errors[k, j]:.4f} p={self.p_values[k, j]:.4g}"
                )
        return "\n".join(lines)


def _encode_labels(y: Sequence[str], baseline: str) -> tuple[np.ndarray, tuple[str, ...]]:
    labels = [str(v) for v in y]
    classes = sorted(set(labels))
    if baseline not in classes:
        raise ValueError(f"baseline {baseline!r} not present in outcomes {classes}")
    outcomes = tuple(c for c in classes if c != baseline)
    if not outcomes:
        raise ValueError("need at least two distinct outcomes")
    index = {c: k for k, c in enumerate(outcomes)}
    # Baseline encodes as -1; outcome k as its row in the coefficient matrix.
    codes = np.array([index.get(v, -1) for v in labels], dtype=int)
    return codes, outcomes


def _log_likelihood(X: np.ndarray, codes: np.ndarray, beta: np.ndarray) -> tuple[float, np.ndarray]:
    """Returns (ll, probs) with probs of shape (n, K) for non-baseline classes."""
    eta = X @ beta.T                              # (n, K)
    m = np.maximum(eta.max(axis=1), 0.0)          # log-sum-exp guard incl. baseline 0
    z = np.exp(-m) + np.exp(eta - m[:, None]).sum(axis=1)
    log_z = m + np.log(z)
    picked = np.where(codes >= 0, eta[np.arange(len(codes)), np.maximum(codes, 0)], 0.0)
    ll = float((picked - log_z).sum())
    probs = np.exp(eta - log_z[:, None])
    return ll, probs


def _gradient(X: np.ndarray, codes: np.ndarray, probs: np.ndarray) -> np.ndarray:
    n, K = probs.shape
    indicator = np.zeros((n, K))
    rows = codes >= 0
    indicator[np.nonzero(rows)[0], codes[rows]] = 1.0
    return (indicator - probs).T @ X              # (K, p)


def _hessian(X: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Observed information blocks stacked into (K*p, K*p); negative definite."""
    n, K = probs.shape
    p = X.shape[1]
    H = np.empty((K * p, K * p))
    for k in range(K):
        for l in range(k, K):
            w = probs[:, k] * ((1.0 if k == l else 0.0) - probs[:, l])
            block = -(X * w[:, None]).T @ X
            H[k * p:(k + 1) * p, l * p:(l + 1) * p] = block
            if l != k:
                H[l * p:(l + 1) * p, k * p:(k + 1) * p] = block
    return H


def fit_multinomial_logit(
    X: np.ndarray,
    y: Sequence[str],
    baseline: str,
    feature_names: Sequence[str] | None = None,
) -> LogitModel:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be 2-dimensional")
    n, p = X.shape
    if len(y) != n:
        raise ValueError(f"X has {n} rows but y has {len(y)} labels")
    if p == 0:
        raise ValueError("X has no columns")
    if not np.all(np.isfinite(X)):
        raise ValueError("X contains non-finite values")
    if feature_names is None:
        feature_names = tuple(f"x{j}" for j in range(p))
    else:
        feature_names = tuple(feature_names)
        if len(feature_names) != p:
            raise ValueError("feature_names length does not match X columns")
    if np.linalg.matrix_rank(X) < p:
        raise RankDeficiencyError("design matrix columns are linearly dependent")

    codes, outcomes = _encode_labels(y, baseline)
    K = len(outcomes)
    beta = np.zeros((K, p))
    ll, probs = _log_likelihood(X, codes, beta)

    n_iter = 0
    for n_iter in range(1, MAX_ITER + 1):
        grad = _gradient(X, codes, probs)
        if np.abs(grad).max() < GRADIENT_TOL:
            break
        H = _hessian(X, probs)
        try:
            step = np.linalg.solve(H, -grad.reshape(-1)).reshape(K, p)
        except np.linalg.LinAlgError:
            raise ConvergenceError(
                "singular information matrix; outcomes may be separable"
            ) from None
        scale = 1.0
        for _ in range(MAX_HALVINGS):
            candidate = beta + scale * step
            new_ll, new_probs = _log_likelihood(X, codes, candidate)
            if new_ll >= ll - 1e-12:
                break
            scale *= 0.5
        else:
            raise ConvergenceError("step halving failed to improve the likelihood")
        improved = new_ll - ll
        beta, ll, probs = candidate, new_ll, new_probs
        if np.abs(beta).max() > SEPARATION_BOUND:
            raise ConvergenceError(
                "coefficients diverging; outcomes may be perfectly separable"
            )
        if abs(improved) < LOGLIK_TOL and np.abs(_gradient(X, codes, probs)).max() < GRADIENT_TOL:
            break
    else:
        raise ConvergenceError(f"no convergence after {MAX_ITER} iterations")

    H = _hessian(X, probs)
    try:
        cov = np.linalg.inv(-H)
    except np.linalg.LinAlgError:
        raise ConvergenceError("information matrix not invertible at optimum") from None
    variances = np.clip(np.diag(cov), 0.0, None).reshape(K, p)
    se = np.sqrt(variances)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0, beta / se, np.inf)
    p_values = np.vectorize(lambda v: math.erfc(abs(v) / math.sqrt(2.0)))(z)

    return LogitModel(
        baseline=baseline,
        outcomes=outcomes,
        feature_names=feature_names,
        coef=beta,
        std_errors=se,
        p_values=p_values,
        log_likelihood=ll,
        n_obs=n,
        n_iter=n_iter,
    )


def log_likelihood_and_gradient(
    X: np.ndarray, y: Sequence[str], baseline: str, beta: np.ndarray
) -> tuple[float, np.ndarray]:
    """Exact log-likelihood and its gradient at beta, for verification."""
    X = np.asarray(X, dtype=float)
    codes, outcomes = _encode_labels(y, baseline)
    beta = np.asarray(beta, dtype=float).reshape(len(outcomes), X.shape[1])
    ll, probs = _log_likelihood(X, codes, beta)
    return ll, _gradient(X, codes, probs)


@dataclass
class EliminationStep:
    feature: str
    p_value: float


@dataclass
class EliminationResult:
    model: LogitModel
    eliminated: list[EliminationStep] = field(default_factory=list)

    @property
    def retained(self) -> tuple[str, ...]:
        return self.model.feature_names


def backward_eliminate(
    X: np.ndarray,
    y: Sequence[str],
    baseline: str,
    feature_names: Sequence[str],
    alpha: float = 0.09,
    keep: Sequence[str] = (),
) -> EliminationResult:
    """Drop the least significant feature until all survivors pass alpha.

    Significance per feature is its smallest Wald p-value across outcome
    equations. Features in `keep` are never dropped. At least one
    feature always remains.
    """
    X = np.asarray(X, dtype=float)
    names = list(feature_names)
    if X.shape[1] != len(names):
        raise ValueError("feature_names length does not match X columns")
    unknown_keep = set(keep) - set(names)
    if unknown_keep:
        raise ValueError(f"keep-list names unknown features: {sorted(unknown_keep)}")
    eliminated: list[EliminationStep] = []
    while True:
        model = fit_multinomial_logit(X, y, baseline, feature_names=names)
        droppable = [
            (model.feature_p_value(name), name)
            for name in names
            if name not in keep
        ]
        if not droppable or len(names) == 1:
            return EliminationResult(model, eliminated)
        worst_p, worst_name = max(droppable, key=lambda t: (t[0], t[1]))
        if worst_p <= alpha:
            return EliminationResult(model, eliminated)
        idx = names.index(worst_name)
        eliminated.append(EliminationStep(worst_name, worst_p))
        names.pop(idx)
        X = np.delete(X, idx, axis=1)
