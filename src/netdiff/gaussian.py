"""Closed-form analytics for linear-drift, constant-diffusion network systems.

The model is dX(t) = L X(t) dt + sigma dW(t) started from X(0) = 0 (or a
supplied initial covariance), where L couples each vertex to its graph
neighbors; `linear_system` compiles L and sigma^2 from a configured model.
Everything here is exact linear algebra: covariance and precision matrices
at a fixed time, Gaussian conditioning, and the discretized path vector.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Sequence

import numpy as np

from .coefficients import ConstantDiffusion, DriftTable, EvalContext, evaluate_vectorized, zero_drift
from .engine import _check_grid
from .graphs import Graph, adjacency_matrix

__all__ = [
    "GaussianSystem",
    "CovarianceResult",
    "PrecisionResult",
    "StackedCovariance",
    "BlockNorm",
    "build_linear_system",
    "linear_system",
    "covariance_at",
    "precision_at",
    "conditional_covariance",
    "path_covariance",
    "path_precision_blocks",
    "matrix_csv",
    "precision_edges_json",
]


@dataclass(frozen=True)
class GaussianSystem:
    """Linear drift matrix, the vertex labels it indexes and the noise variance sigma^2."""

    L: np.ndarray
    labels: tuple
    noise: float = 1.0

    def __post_init__(self):
        L = np.asarray(self.L, dtype=float)
        if L.ndim != 2 or L.shape[0] != L.shape[1]:
            raise ValueError("drift matrix must be square")
        if L.shape[0] != len(self.labels):
            raise ValueError("label count does not match matrix size")
        if not 0 < self.noise < np.inf:
            raise ValueError("noise variance must be positive and finite")
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def n(self) -> int:
        return self.L.shape[0]

    @property
    def is_symmetric(self) -> bool:
        return bool(np.allclose(self.L, self.L.T, atol=1e-12, rtol=0.0))


@dataclass(frozen=True)
class CovarianceResult:
    sigma: np.ndarray
    t: float
    method: str
    labels: tuple


@dataclass(frozen=True)
class PrecisionResult:
    q: np.ndarray
    t: float
    ci_edges: frozenset
    labels: tuple


def build_linear_system(g: Graph, diag_shift: float) -> GaussianSystem:
    """Drift matrix L = adjacency(g) + diag_shift*I in vertex order."""
    return GaussianSystem(adjacency_matrix(g) + diag_shift * np.eye(len(g.vertices)), g.vertices)


def linear_system(g: Graph, drift: DriftTable, diffusion) -> GaussianSystem:
    """Compile an affine drift table and a constant 1x1 diffusion into L and sigma^2.

    Row i of L is vertex i's drift at each unit state e_j minus its drift at
    0, from one evaluation on n + 1 probe states; a constant offset moves
    only the mean, so it drops out.
    """
    if not isinstance(diffusion, ConstantDiffusion) or diffusion.d != 1:
        raise ValueError("the exact route needs a constant 1x1 diffusion")
    n = len(g.vertices)
    probes = np.vstack([np.zeros(n), np.eye(n)])[:, :, None]  # replica 0 is the zero state, replica j+1 is e_j
    L = np.zeros((n, n))
    for i, v in enumerate(g.vertices):
        spec = drift.for_vertex(v) or zero_drift()
        if not spec.ast.affine():
            raise ValueError(f"drift of vertex {v!r} is not affine in x and y: {spec.text}")
        nbrs = [probes[:, g.index(u)] for u in g.neighbors(v)]
        b = evaluate_vectorized(spec, EvalContext(0.0, probes[:, i], nbrs), 1)[:, 0]
        L[i] = b[1:] - b[0]
    return GaussianSystem(L, g.vertices, float(diffusion.matrix[0, 0] ** 2))


def _phi(lam: np.ndarray, t: float) -> np.ndarray:
    """Eigenvalue map for int_0^t e^{2*lam*s} ds, continuous through lam=0."""
    lam = np.asarray(lam, dtype=float)
    out = np.full(lam.shape, float(t))
    nz = np.abs(lam) > 1e-13
    out[nz] = np.expm1(2.0 * lam[nz] * t) / (2.0 * lam[nz])
    return out


def covariance_at(sys: GaussianSystem, t: float, method: str = "closed_form") -> CovarianceResult:
    """Covariance of X(t) from X(0)=0: "closed_form" is the noise covariance of
    one exact step of length t, the step law of `path_covariance`;
    "quadrature" integrates e^{Ls} e^{L^T s} numerically."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    if method not in ("closed_form", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    n = sys.n
    if t == 0:
        return CovarianceResult(np.zeros((n, n)), 0.0, method, sys.labels)
    if method == "quadrature":
        from scipy.integrate import quad_vec
        from scipy.linalg import expm
        def integrand(s):
            e = expm(sys.L * s)
            return e @ e.T
        sigma, _ = quad_vec(integrand, 0.0, t, epsabs=1e-13, epsrel=1e-13)
        sigma = sys.noise * 0.5 * (sigma + sigma.T)
    else:
        sigma = _step_matrices(sys, t, "exact")[1]
    return CovarianceResult(sigma, float(t), method, sys.labels)


def precision_at(sys: GaussianSystem, t: float, tol: float = 1e-6) -> PrecisionResult:
    """Precision matrix Q(t) = Sigma(t)^{-1} and its conditional-independence edges."""
    if t <= 0:
        raise ValueError("precision requires t > 0")
    if sys.is_symmetric:
        # invert on the eigenbasis: much better conditioned than inv(Sigma)
        lam, u = np.linalg.eigh(sys.L)
        phi = sys.noise * _phi(lam, t)
        if np.min(phi) <= 0:
            raise np.linalg.LinAlgError("covariance is singular")
        q = (u / phi) @ u.T
        q = 0.5 * (q + q.T)
    else:
        sigma = covariance_at(sys, t).sigma
        ev = np.linalg.eigvalsh(0.5 * (sigma + sigma.T))
        if ev[0] <= ev[-1] * 1e-14:
            raise np.linalg.LinAlgError("covariance is singular")
        q = np.linalg.inv(sigma)
    edges = {(sys.labels[i], sys.labels[j]) for i, j in combinations(range(sys.n), 2) if abs(q[i, j]) > tol}
    return PrecisionResult(q, float(t), frozenset(edges), sys.labels)


def conditional_covariance(cov: CovarianceResult, target: Sequence, given: Sequence) -> np.ndarray:
    """Schur complement Cov(X_T | X_G) for label sets T and G."""
    pos = {lab: i for i, lab in enumerate(cov.labels)}
    try:
        ti = [pos[v] for v in target]
        gi = [pos[v] for v in given]
    except KeyError as bad:
        raise ValueError(f"unknown label {bad.args[0]!r}") from None
    if not ti:
        raise ValueError("target set is empty")
    for name, idx in (("target", ti), ("given", gi)):
        if len(set(idx)) < len(idx):
            raise ValueError(f"duplicate vertex in {name}")
    if set(ti) & set(gi):
        raise ValueError("target and given sets overlap")
    return _schur_complement(cov.sigma, ti, gi)


def _schur_complement(s: np.ndarray, ti, gi) -> np.ndarray:
    """Symmetrised s_tt - s_tg s_gg^{-1} s_gt for index lists ti and gi of a covariance s."""
    s_tt = s[np.ix_(ti, ti)]
    if len(gi) == 0:
        return s_tt.copy()
    s_tg = s[np.ix_(ti, gi)]
    out = s_tt - s_tg @ np.linalg.solve(s[np.ix_(gi, gi)], s_tg.T)
    return 0.5 * (out + out.T)


@dataclass(frozen=True)
class StackedCovariance:
    """Covariance of the path vector (X_v(t_k))_{v,k}, vertex-major.

    Row ``i * n_times + k`` is vertex ``labels[i]`` at ``times[k]``;
    `path_covariance` assembles the matrix in this layout directly.  The
    initial grid point carries no randomness when started from a point mass,
    so `times` holds the grid without its first entry and the matrix indexes
    only those stored times.

    `matrix` is a read-only float copy of the array passed in.  Its
    precision is computed once, on first use, and every full-vertex-set
    reader (`path_precision_blocks`, the exact CI tests of
    `mrf_order_scan`, `condition`) shares that one factorization.
    """

    matrix: np.ndarray
    labels: tuple
    times: tuple
    scheme: str

    def __post_init__(self):
        matrix = np.array(self.matrix, dtype=float)
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)

    @cached_property
    def _block_maxima(self):
        return _precision_block_maxima(self.matrix, self.n_times)

    @property
    def condition(self) -> float:
        """Spectral condition number of `matrix`: largest over smallest eigenvalue."""
        return self._block_maxima[2]

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    @property
    def n_times(self) -> int:
        return len(self.times)

    def vertex_slice(self, label) -> slice:
        i = self.labels.index(label)
        m = self.n_times
        return slice(i * m, (i + 1) * m)


def _step_matrices(sys: GaussianSystem, dt: float, scheme: str):
    """One-step transition matrix and noise covariance for the chain; the
    exact noise covariance is sigma^2 int_0^dt e^{Ls} e^{L^T s} ds."""
    L, n = sys.L, sys.n
    if scheme == "euler":
        return np.eye(n) + L * dt, (sys.noise * dt) * np.eye(n)
    if sys.is_symmetric:
        lam, u = np.linalg.eigh(L)
        f = (u * np.exp(lam * dt)) @ u.T
        q = (u * _phi(lam, dt)) @ u.T
    else:
        from scipy.linalg import expm
        # Van Loan's block-exponential identity for the noise integral
        blk = np.zeros((2 * n, 2 * n))
        blk[:n, :n] = L
        blk[:n, n:] = np.eye(n)
        blk[n:, n:] = -L.T
        e = expm(blk * dt)
        f = expm(L * dt)
        q = e[:n, n:] @ e[:n, :n].T
    return f, sys.noise * 0.5 * (q + q.T)


def path_covariance(
    sys: GaussianSystem,
    grid: Sequence[float],
    scheme: str = "euler",
    initial_cov: np.ndarray | None = None,
) -> StackedCovariance:
    """Exact covariance of the discretized path under the chosen stepping scheme.

    The chain is X_{k+1} = F_k X_k + xi_k with F_k = I + L*dt (euler) or
    e^{L*dt} (exact) and Cov(xi_k) = sigma^2*dt*I (euler) or the integrated
    noise covariance (exact).  Under euler stepping the path density factorizes
    over two-slice neighborhoods, so stacked-precision blocks vanish for
    vertex pairs at graph distance three or more; the exact scheme has a
    dense transition matrix and no such sparsity.  The second moments go
    straight into the vertex-major layout of `StackedCovariance`.
    """
    grid = _check_grid(grid)
    if scheme not in ("euler", "exact"):
        raise ValueError(f"unknown scheme {scheme!r}")
    n = sys.n
    m = grid.size - 1
    if initial_cov is None:
        v0 = np.zeros((n, n))
    else:
        v0 = np.asarray(initial_cov, dtype=float)
        if v0.shape != (n, n):
            raise ValueError("initial covariance has wrong shape")

    # big[v, k, u, l] = Cov(X_v(t_{k+1}), X_u(t_{l+1})): the vertex-major layout; one build per step length
    dts = np.diff(grid).tolist()
    built = {dt: _step_matrices(sys, dt, scheme) for dt in set(dts)}
    steps = [built[dt] for dt in dts]
    c = np.empty((m, n, n))
    v = v0
    for k, (f, q) in enumerate(steps):
        v = f @ v @ f.T + q
        c[k] = 0.5 * (v + v.T)
    # lag by lag: C_j[k] = Cov(X(t_{k+1}), X(t_{k+j+1})) = C_{j-1}[k] F_{k+j}^T, for every k in one matmul
    ft = np.stack([f.T for f, _ in steps])
    big = np.zeros((n, m, n, m))
    ks = np.arange(m)
    big[:, ks, :, ks] = c
    for j in range(1, m):
        c = np.matmul(c[:-1], ft[j:])
        big[:, ks[:-j], :, ks[j:]] = c
        big[:, ks[j:], :, ks[:-j]] = c.transpose(0, 2, 1)
    big = big.reshape(n * m, n * m)
    return StackedCovariance(big, sys.labels, tuple(grid[1:]), scheme)


@dataclass(frozen=True)
class BlockNorm:
    u: object
    v: object
    max_abs: float
    relative: float


def _precision_block_maxima(cov: np.ndarray, m: int):
    """Invert a vertex-major path covariance with m times per vertex.

    Returns ``(top, relative, condition)``.  ``top`` and ``relative`` are
    read-only (n, n) arrays for n vertices: ``top[i, j]`` is the largest
    |entry| of the (i, j) vertex block of the symmetrised precision, and
    ``relative`` rescales it by the geometric mean of the two diagonal-block
    scales ``top[i, i]`` and ``top[j, j]``.  ``condition`` is the ratio of
    the largest to the smallest eigenvalue of ``cov``.
    """
    ev = np.linalg.eigvalsh(cov)
    if ev[0] <= max(ev[-1], 0.0) * 1e-13:
        raise np.linalg.LinAlgError("path covariance is numerically singular")
    p = np.linalg.inv(cov)
    p = 0.5 * (p + p.T)
    n = cov.shape[0] // m
    top = np.abs(p).reshape(n, m, n, m).max(axis=(1, 3))
    scale = np.diag(top)
    rel = top / np.sqrt(np.outer(scale, scale))
    top.flags.writeable = False
    rel.flags.writeable = False
    return top, rel, float(ev[-1] / ev[0])


def path_precision_blocks(stacked: StackedCovariance) -> list[BlockNorm]:
    """Max-abs entry of every off-diagonal vertex block of the stacked precision.

    `relative` rescales by the geometric mean of the two diagonal-block
    scales so thresholds are meaningful across systems.
    """
    top, rel, _ = stacked._block_maxima
    pairs = combinations(enumerate(stacked.labels), 2)
    return [BlockNorm(u, v, float(top[i, j]), float(rel[i, j])) for (i, u), (j, v) in pairs]


def matrix_csv(matrix: np.ndarray, labels: Sequence) -> str:
    """CSV text with a header row of labels."""
    matrix = np.asarray(matrix)
    lines = [",".join(str(lab) for lab in labels)]
    for row in matrix:
        lines.append(",".join(format(x, ".17g") for x in row))
    return "\n".join(lines) + "\n"


def precision_edges_json(result: PrecisionResult) -> str:
    """Conditional-independence edge set as a JSON array of pairs."""
    order = {lab: i for i, lab in enumerate(result.labels)}
    pairs = sorted(result.ci_edges, key=lambda e: (order[e[0]], order[e[1]]))
    return json.dumps([[u, v] for u, v in pairs])
