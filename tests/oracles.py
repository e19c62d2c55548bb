"""Independent oracles for the test suite: scalar reference implementations
and classic algorithms that never share code with the package paths they
check."""

from __future__ import annotations

import math

import numpy as np

from kronopt.net import NetworkState, forward, loss_value


def matmul_loops(a, b):
    """Scalar triple loop, inner loop over the contracted index in ascending
    order; the reference for bit-exact matmul comparisons."""
    m, k = len(a), len(a[0])
    n = len(b[0])
    out = [[0.0] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for kk in range(k):
                acc += float(a[i][kk]) * float(b[kk][j])
            out[i][j] = acc
    return np.array(out)


def matmul_columns(a, b):
    """Column loop with the triple loop's order: one broadcast multiply and one
    add per contracted index, ascending.  Fast enough for workload shapes,
    where ``matmul_loops`` is not."""
    m, k = a.shape
    n = b.shape[1]
    out = np.zeros((m, n), dtype=np.float64)
    tmp = np.empty((m, n), dtype=np.float64)
    for j in range(k):
        np.multiply(a[:, j : j + 1], b[j : j + 1, :], out=tmp)
        np.add(out, tmp, out=out)
    return out


def mean_columns_loops(m):
    rows, cols = m.shape
    out = []
    for i in range(rows):
        acc = 0.0
        for j in range(cols):
            acc += float(m[i, j])
        out.append(acc / cols)
    return np.array(out)


def cholesky_loops(m):
    """Lower-triangular C with C C^T = M, one scalar at a time: entry (i, j) is
    (m[i,j] - sum_{p<j} c[i,p] c[j,p]) / c[j,j] and pivot j is
    m[j,j] - sum_{p<j} c[j,p] c[j,p], each sum from 0.0 with p ascending, and
    c[j,j] is the pivot's square root.  A pivot that is not positive and
    finite raises ``ArithmeticError(column, pivot)``."""
    n = len(m)
    c = [[0.0] * n for _ in range(n)]
    for j in range(n):
        acc = 0.0
        for p in range(j):
            acc += c[j][p] * c[j][p]
        pivot = float(m[j][j]) - acc
        if not 0.0 < pivot < math.inf:
            raise ArithmeticError(j, pivot)
        c[j][j] = math.sqrt(pivot)
        for i in range(j + 1, n):
            acc = 0.0
            for p in range(j):
                acc += c[i][p] * c[j][p]
            c[i][j] = (float(m[i][j]) - acc) / c[j][j]
    return np.array(c)


def tril_inverse_loops(c):
    """X = C^-1 for lower-triangular C, one scalar at a time: x[i,i] = 1/c[i,i]
    and x[i,j] = -(sum_{p=j}^{i-1} c[i,p] x[p,j]) / c[i,i] for j < i, the sum
    from 0.0 with p ascending; +0.0 above the diagonal."""
    n = len(c)
    x = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            acc = 0.0
            for p in range(j, i):
                acc += float(c[i][p]) * x[p][j]
            x[i][j] = -acc / float(c[i][i])
        x[i][i] = 1.0 / float(c[i][i])
    return np.array(x)


def jacobi_eigenvalues(m, sweeps: int = 50, tol: float = 1e-13) -> np.ndarray:
    """Eigenvalues, ascending, of a symmetric matrix by cyclic Jacobi rotations.

    The input is symmetrized first, as ``(m + m.T) / 2``. Sweeps stop once the
    Frobenius norm of the off-diagonal entries is at most
    ``tol * max(1, max|a|)``; if that is not reached after ``sweeps`` sweeps,
    ``ArithmeticError`` is raised with the last off-diagonal norm."""
    a = np.array(m, dtype=float)
    a = 0.5 * (a + a.T)
    n = a.shape[0]
    off_diagonal = ~np.eye(n, dtype=bool)
    for sweep in range(sweeps + 1):
        # Summed from the off-diagonal entries themselves: the difference
        # ||A||_F^2 - ||diag A||^2 is rounding noise near convergence.
        off = math.hypot(*a[off_diagonal].tolist())
        limit = tol * max(1.0, float(np.max(np.abs(a))))
        if off <= limit:
            return np.sort(np.diag(a))
        if sweep == sweeps:
            raise ArithmeticError(
                f"jacobi_eigenvalues: off-diagonal norm {off:.3e} > {limit:.3e} "
                f"after {sweeps} sweeps"
            )
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = float(a[p, q])
                if abs(apq) < 1e-300:
                    continue
                tau = float(a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot


def rank_via_minors(m, tol: float = 1e-12) -> bool:
    """True iff every 2x2 minor vanishes, i.e. the matrix has rank <= 1."""
    rows, cols = m.shape
    scale = max(1.0, float(np.max(np.abs(m))))
    for i in range(rows):
        for k in range(i + 1, rows):
            for j in range(cols):
                for l in range(j + 1, cols):
                    if abs(m[i, j] * m[k, l] - m[i, l] * m[k, j]) > tol * scale * scale:
                        return False
    return True


def scalar_two_layer_tanh(w1, b1, w2, b2, x):
    """Straight-line scalar forward pass for a 2-layer tanh/identity net."""
    h, batch = len(w1), len(x[0])
    outs = []
    for s in range(batch):
        hidden = []
        for i in range(h):
            acc = b1[i]
            for j in range(len(x)):
                acc += w1[i][j] * x[j][s]
            hidden.append(math.tanh(acc))
        row = []
        for i in range(len(w2)):
            acc = b2[i]
            for j in range(h):
                acc += w2[i][j] * hidden[j]
            row.append(acc)
        outs.append(row)
    return np.array(outs).T


def finite_difference_grad(
    net: NetworkState, x, targets, loss: str, h: float = 1e-5
) -> list[np.ndarray]:
    """Central-difference gradient of the scalar loss w.r.t. each weight matrix.

    Verification oracle: O(h^2) truncation, independent of backward().
    """
    if not (1e-8 < h < 1e-2):
        raise ValueError("h out of supported range (1e-8, 1e-2)")
    grads = []
    for li, w in enumerate(net.weights):
        gw = np.zeros_like(w)
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                orig = w[i, j]
                w[i, j] = orig + h
                out, _ = forward(net, x)
                lp = loss_value(out, targets, loss)
                w[i, j] = orig - h
                out, _ = forward(net, x)
                lm = loss_value(out, targets, loss)
                w[i, j] = orig
                gw[i, j] = (lp - lm) / (2.0 * h)
        grads.append(gw)
    return grads


def random_spd(rng: np.random.Generator, d: int, jitter: float = 1.0) -> np.ndarray:
    x = rng.standard_normal((d, d))
    return x @ x.T + jitter * np.eye(d)


def dense_kron_quadratic(delta_w, grad, left, right) -> float:
    """Brute-force evaluation of sum(dW.grad) + sum_{ijkl} dW[i,j] L[i,k]
    dW[k,l] R[l,j]; the dense oracle for the pruning surrogate."""
    first = float(np.sum(delta_w * grad))
    rows, cols = delta_w.shape
    quad = 0.0
    for i in range(rows):
        for j in range(cols):
            for k in range(rows):
                for l in range(cols):
                    quad += delta_w[i, j] * left[i, k] * delta_w[k, l] * right[l, j]
    return first + quad


def sngd_dense_update(a, g, grad, mu) -> np.ndarray:
    """Explicit d^2 x d^2 construction of (U U^T + mu I)^{-1} applied to
    vec(grad), where U's columns are the per-sample weight gradients."""
    d_out, b = g.shape
    d_in = a.shape[0]
    u = np.zeros((d_out * d_in, b))
    for i in range(b):
        u[:, i] = np.outer(g[:, i], a[:, i]).reshape(-1)
    fim = u @ u.T + mu * np.eye(d_out * d_in)
    return np.linalg.solve(fim, grad.reshape(-1)).reshape(d_out, d_in)


def sm_update_printed(f_inv, v, gamma: float) -> np.ndarray:
    """The rank-1 factor-inverse update as the paper prints it, in plain numpy:
    g*F^-1 + (1-g) / (g^2 (1 + g(1-g) v^T F^-1 v)) * F^-1 v v^T F^-1."""
    u = f_inv @ v
    coeff = (1.0 - gamma) / (gamma**2 * (1.0 + gamma * (1.0 - gamma) * (v @ u)))
    return gamma * f_inv + coeff * np.outer(u, u)


def _matvec_and_quad(f_inv, v):
    """F made C-contiguous, u = F v and v . u, through numpy's BLAS as the
    package's ``matvec`` and ``dot`` take them."""
    f = np.ascontiguousarray(f_inv, dtype=np.float64)
    v = np.ascontiguousarray(v, dtype=np.float64)
    u = f @ v
    return f, u, float(np.dot(v, u))


def sm_update_chain(f_inv, v, gamma: float) -> np.ndarray:
    """The printed rank-1 update as a chain of whole-array numpy passes, one
    rounded operation each: F*g, (u u^T)*coeff and their sum, with
    coeff = (1-g) / ((g*g) * (1 + (g*(1-g)) * quad)).  The bitwise oracle for
    ``optim.sm_update``; a denominator below 1 raises ArithmeticError."""
    f, u, quad = _matvec_and_quad(f_inv, v)
    t3 = 1.0 + gamma * (1.0 - gamma) * quad
    if not t3 >= 1.0:
        raise ArithmeticError(t3)
    coeff = (1.0 - gamma) / (gamma * gamma * t3)
    return f * gamma + np.outer(u, u) * coeff


def sm_update_exact_chain(f_inv, v, gamma: float) -> np.ndarray:
    """Sherman-Morrison's inverse of g F + (1-g) v v^T as the same chain:
    F*(1/g) + (u u^T)*coeff with coeff = (-(1-g) / (g*g)) / (1 + ((1-g)/g) quad).
    The bitwise oracle for ``optim.sm_update_exact``."""
    f, u, quad = _matvec_and_quad(f_inv, v)
    coeff = -(1.0 - gamma) / (gamma * gamma) / (1.0 + (1.0 - gamma) / gamma * quad)
    return f * (1.0 / gamma) + np.outer(u, u) * coeff


def stabilize_chain(f_inv, epsilon_norm: float, zeta: float) -> np.ndarray:
    """F itself while its largest absolute row sum (numpy's pairwise sum) is
    at most epsilon_norm, else F*zeta + I*(1-zeta) as two numpy passes and a
    sum.  The bitwise oracle for ``optim.stabilize``."""
    f = np.asarray(f_inv, dtype=np.float64)
    if np.max(np.sum(np.abs(f), axis=1)) <= epsilon_norm:
        return f_inv
    return f * zeta + np.eye(f.shape[0]) * (1.0 - zeta)
