"""Diagnostics: rank-1 approximation error of covariance matrices and
executable checks for the method's stability and descent claims.

Error metric for rank-1 approximation is Frobenius-relative,
||C - alpha v v^T||_F / ||C||_F, with alpha chosen by least squares; the
mean-vector and optimal rank-1 candidates use the same scaling so the
comparison is fair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import (
    NumericalError,
    blend_identity,
    direct_inverse,
    frobenius_norm,
    identity,
    matmul,
    scale,
)
from .optim import sm_update, sm_update_exact, sm_update_quantized, stabilize

FP16_EPS = 2.0**-11


@dataclass
class Rank1ErrorRecord:
    layer: int
    iteration: int
    rel_error_mean_vec: float
    rel_error_best_rank1: float
    matrix_kind: str  # "activation" | "gradient"


def rank1_error(c: np.ndarray, v: np.ndarray) -> float:
    """Relative error of approximating C by alpha * v v^T with the
    least-squares alpha = (v^T C v) / ||v||^4.  Zero C is defined as 0."""
    c = linalg.as_matrix(c)
    v = linalg.as_vector(v)
    nc = frobenius_norm(c)
    if nc == 0.0:
        return 0.0
    v4 = float(np.dot(v, v)) ** 2
    alpha = 0.0 if v4 == 0.0 else float(v @ (c @ v)) / v4
    return frobenius_norm(c - alpha * np.outer(v, v)) / nc


def covariance_records(captures, iteration: int) -> list[Rank1ErrorRecord]:
    """Rank-1 error records for every layer's activation and gradient
    covariance on one batch (mean-vector vs optimal rank-1)."""
    records = []
    for layer, cap in enumerate(captures):
        for kind, mat in (("activation", cap.a_prev), ("gradient", cap.g)):
            cov = scale(linalg.gram(mat), 1.0 / mat.shape[1])
            err_mean = rank1_error(cov, linalg.mean_columns(mat))
            _, top = linalg.power_iteration(cov)
            err_best = rank1_error(cov, top)
            records.append(
                Rank1ErrorRecord(
                    layer=layer,
                    iteration=iteration,
                    rel_error_mean_vec=err_mean,
                    rel_error_best_rank1=err_best,
                    matrix_kind=kind,
                )
            )
    return records


def make_spd(rng: np.random.Generator, d: int, jitter: float = 0.5) -> np.ndarray:
    """Random symmetric positive-definite test matrix X X^T / d + jitter*I."""
    x = rng.standard_normal((d, d))
    return x @ x.T / d + jitter * np.eye(d)


def quantization_error_report(d: int, gamma: float, trials: int, seed: int = 0) -> dict:
    """Measure the fp16-emulation error of one rank-1 inverse update against
    the additive bound (gamma + 4 (1-gamma)/gamma^2 * m^3 d^2) * FP16_EPS and
    report the fitted constant C = max(error / bound)."""
    rng = linalg.make_rng(seed)
    worst = 0.0
    max_err = 0.0
    for _ in range(trials):
        f_inv = make_spd(rng, d, jitter=0.25)
        f_inv /= max(1.0, float(np.max(np.abs(f_inv))))  # keep m <= 1
        v = rng.uniform(-1.0, 1.0, size=d)
        exact = sm_update(f_inv, v, gamma)
        approx = sm_update_quantized(f_inv, v, gamma)
        err = float(np.max(np.abs(exact - approx)))
        m = max(float(np.max(np.abs(f_inv))), float(np.max(np.abs(v))))
        bound = (gamma + 4.0 * (1.0 - gamma) / gamma**2 * m**3 * d**2) * FP16_EPS
        max_err = max(max_err, err)
        worst = max(worst, err / bound)
    return {
        "d": d,
        "gamma": gamma,
        "trials": trials,
        "epsilon": FP16_EPS,
        "max_error": max_err,
        "fitted_constant": worst,
    }


def kron_dense(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Explicit Kronecker product: K[i*dR+k, j*dR+l] = L[i,j] * R[k,l]."""
    dl = left.shape[0]
    dr = right.shape[0]
    out = np.multiply.outer(left, right)  # (dl, dl, dr, dr), pure products
    return out.transpose(0, 2, 1, 3).reshape(dl * dr, dl * dr)


def lemma3_check(dl: int, dr: int, zeta: float, trials: int, seed: int = 0) -> dict:
    """Descent check for Kronecker quadratics: with PD factors L, R and
    P = (zeta L^-1 + (1-zeta) I) kron (zeta R^-1 + (1-zeta) I), the step
    Delta w = P grad satisfies grad^T Delta w > 0.  Also verifies that the
    blended preconditioner expands into the four-term sum

        zeta^2 L^-1 G R^-1 + zeta(1-zeta) L^-1 G + zeta(1-zeta) G R^-1
        + (1-zeta)^2 G

    termwise.  Raises NumericalError on any violation."""
    if dl * dr > 64:
        raise ValueError("dense Kronecker check limited to dl*dr <= 64")
    rng = linalg.make_rng(seed)
    min_descent = np.inf
    max_expand_err = 0.0
    for _ in range(trials):
        left = make_spd(rng, dl)
        right = make_spd(rng, dr)
        l_inv = direct_inverse(left)
        r_inv = direct_inverse(right)
        w0 = rng.standard_normal(dl * dr)
        c = rng.standard_normal(dl * dr)
        grad = kron_dense(left, right) @ w0 + c
        bl = blend_identity(l_inv, zeta)
        br = blend_identity(r_inv, zeta)
        step = kron_dense(bl, br) @ grad
        descent = float(grad @ step)
        if not descent > 0.0:
            raise NumericalError(f"descent violated: {descent}")
        min_descent = min(min_descent, descent)

        g_mat = rng.standard_normal((dl, dr))
        blended = matmul(matmul(bl, g_mat), br)
        four = (
            zeta**2 * matmul(matmul(l_inv, g_mat), r_inv)
            + zeta * (1.0 - zeta) * matmul(l_inv, g_mat)
            + zeta * (1.0 - zeta) * matmul(g_mat, r_inv)
            + (1.0 - zeta) ** 2 * g_mat
        )
        err = float(np.max(np.abs(blended - four)))
        if not err < 1e-10:
            raise NumericalError(f"four-term expansion mismatch: {err}")
        max_expand_err = max(max_expand_err, err)
    return {
        "trials": trials,
        "zeta": zeta,
        "min_descent": float(min_descent),
        "max_expansion_error": max_expand_err,
        "all_descent": True,
    }


def sm_discrepancy_report(
    d: int, gamma: float, steps: int, seed: int = 0
) -> dict:
    """Run the printed update and the exact Sherman-Morrison inverse side by
    side on a shared random vector stream and report how far they drift.

    No assertion: the divergence is a documented property of the printed
    formula, not a defect to hide.
    """
    rng = linalg.make_rng(seed)
    paper = identity(d)
    exact_inv = identity(d)
    exact_cov = identity(d)
    max_diff = 0.0
    diffs = []
    for _ in range(steps):
        v = rng.standard_normal(d)
        paper = sm_update(paper, v, gamma)
        exact_inv = sm_update_exact(exact_inv, v, gamma)
        exact_cov = gamma * exact_cov + (1.0 - gamma) * np.outer(v, v)
        diff = float(np.max(np.abs(paper - exact_inv)))
        diffs.append(diff)
        max_diff = max(max_diff, diff)
    residual = float(
        np.max(np.abs(matmul(exact_cov, exact_inv) - identity(d)))
    )
    return {
        "d": d,
        "gamma": gamma,
        "steps": steps,
        "max_abs_difference": max_diff,
        "final_abs_difference": diffs[-1] if diffs else 0.0,
        "exact_route_residual": residual,
    }


def lemma1_chain(
    d: int,
    steps: int,
    gamma: float = 0.9,
    zeta: float = 0.95,
    epsilon_norm: float = 100.0,
    seed: int = 0,
) -> dict:
    """Drive a stabilize/sm_update chain from the identity and Cholesky-check
    positive-definiteness along the way.  Returns chain statistics; raises
    NumericalError if any check fails."""
    rng = linalg.make_rng(seed)
    f = identity(d)
    min_diag = np.inf
    for t in range(1, steps + 1):
        f = stabilize(f, epsilon_norm, zeta)
        f = sm_update(f, rng.standard_normal(d), gamma)
        try:
            chol = linalg.cholesky(f)
        except linalg.SingularMatrix as exc:
            raise NumericalError(f"PD lost at step {t} (d={d})") from exc
        min_diag = min(min_diag, float(np.min(np.diag(chol))))
    return {"d": d, "steps": steps, "min_cholesky_diag": float(min_diag)}
