"""Euler-Maruyama simulation of interacting diffusions on finite graphs.

Each vertex carries its own counter-based noise stream keyed by
(seed, step, vertex label), so ensembles are bit-reproducible and two
graphs sharing a vertex see identical noise on it: truncation levels can
be compared with common random numbers.  A run builds each vertex's
stream once and re-keys it to every step; the truncation ladder draws each
(label, step) block once per ladder (with substeps=1) and drops each level's
paths once its window is read.  Vertices that share a drift text, a
diffusion object and a degree form a group, and each step evaluates the
drift once per group, bitwise as a vertex-by-vertex loop would.

Paths live in a C-contiguous (T, V, R, d) store, one block per step, viewed
as ``PathEnsemble.values`` by ``transpose(2, 1, 0, 3)``; ``runavg`` sums in
time order, so no bit depends on the layout.

Girsanov reweighting turns driftless reference ensembles into samples of
the interacting law; the per-vertex log factors depend only on the vertex
and its neighbors, and that locality is preserved exactly (bitwise) under
restriction of the ensemble.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .coefficients import (
    ConstantDiffusion,
    DiffusionTable,
    DriftSpec,
    DriftTable,
    EvalContext,
    TanhDiagonalDiffusion,
    evaluate_vectorized,
    truncated_drift_family,
)
from .graphs import Graph, _truncate, augmented_truncation
from .graphs import _graph_from_json, _graph_to_json, _label_from_json, _label_to_json

__all__ = [
    "PathEnsemble",
    "GirsanovWeights",
    "SimulationError",
    "TruncationRow",
    "TruncationTable",
    "simulate",
    "simulate_driftless",
    "simulate_truncated",
    "girsanov_weights",
    "truncation_convergence",
    "entropy_bound_estimate",
    "energy_distance",
    "save_ensemble",
    "load_ensemble",
    "ensemble_summary_csv",
]

# stream kinds (highest counter word): dynamics noise, per-vertex initials,
# joint initial draws
_KIND_NOISE = 0
_KIND_INITIAL = 1
_KIND_JOINT = 2

_ENERGY_POINTS = 4000  # points of each sample that energy_distance keeps
_ENERGY_BLOCK = 256  # rows of x per distance block in _distance_sum
_STORE = (2, 1, 0, 3)  # values (R, V, T, d) <-> store (T, V, R, d); its own inverse


class SimulationError(RuntimeError):
    """Non-finite state encountered; carries the first offending location."""

    def __init__(self, replica, vertex, time):
        self.replica = replica
        self.vertex = vertex
        self.time = time
        super().__init__(
            f"non-finite state at replica {replica}, vertex {vertex!r}, t={time:g}"
        )


def _vertex_tag(label) -> int:
    # keyed by the canonical label, so np.int64(1) and 1 share a stream
    canonical = _label_from_json(_label_to_json(label))
    h = hashlib.blake2b(repr(canonical).encode(), digest_size=8)
    return int.from_bytes(h.digest(), "little")


def _stream(seed: int, step: int, tag: int, kind: int) -> np.random.Generator:
    bg = np.random.Philox(key=seed, counter=[0, step, tag, kind])
    return np.random.Generator(bg)


def noise_stream(seed, step, vertex) -> np.random.Generator:
    return _stream(seed, step, _vertex_tag(vertex), _KIND_NOISE)


def vertex_stream(seed, vertex) -> np.random.Generator:
    return _stream(seed, 0, _vertex_tag(vertex), _KIND_INITIAL)


def joint_stream(seed) -> np.random.Generator:
    return _stream(seed, 0, 0, _KIND_JOINT)


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Simulated trajectories indexed (replica, vertex, time index, component):
    ``values`` is the ``transpose(2, 1, 0, 3)`` view of a C-contiguous (T, V,
    R, d) store, one block per grid time, and ``runavg`` sums in time order."""

    graph: Graph
    grid: np.ndarray
    values: np.ndarray
    seed: int
    scheme: dict
    measure: str

    @property
    def labels(self) -> tuple:
        return self.graph.vertices

    @property
    def n_replicas(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[3]

    def time_index(self, t: float) -> int:
        hits = np.flatnonzero(np.abs(self.grid - t) <= 1e-9)
        if hits.size == 0:
            raise ValueError(f"time {t!r} is not on the grid")
        return int(hits[0])

    def at_time(self, t: float) -> np.ndarray:
        """States at a grid time, shape (replica, vertex, component)."""
        return self.values[:, :, self.time_index(t), :]

    def path(self, replica: int, vertex) -> np.ndarray:
        return self.values[replica, self.graph.index(vertex), :, :]

    def restrict(self, vertices) -> "PathEnsemble":
        """Ensemble of the induced subgraph; trajectories copied verbatim."""
        sub = self.graph.subgraph(vertices)
        idx = [self.graph.index(v) for v in sub.vertices]
        store = np.take(self.values.transpose(_STORE), idx, axis=1)
        return PathEnsemble(sub, self.grid, store.transpose(_STORE), self.seed, self.scheme, self.measure)


@dataclass(frozen=True, eq=False)
class GirsanovWeights:
    """Per-replica change-of-measure weights with per-vertex diagnostics."""

    weights: np.ndarray
    m: dict
    quadratic_variation: dict
    t: float


def _check_grid(grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid needs at least two points")
    if grid[0] != 0.0:
        raise ValueError("grid must start at 0")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    return grid


class _Group(NamedTuple):
    """Vertices that share a drift text, a diffusion object and a degree."""

    spec: DriftSpec | None  # None for driftless vertices
    sigma: object
    rows: np.ndarray  # vertex indices, in graph order
    nbrs: np.ndarray  # (n, degree) neighbour indices, in graph order
    labels: tuple


def _plan(g, drift, diffusion, vertices) -> list:
    if drift is None:
        drift = DriftTable()
    elif isinstance(drift, DriftSpec):
        drift = DriftTable.uniform(drift)
    elif not isinstance(drift, DriftTable):
        raise TypeError("drift must be a DriftSpec, DriftTable, or None")
    if isinstance(diffusion, (ConstantDiffusion, TanhDiagonalDiffusion)):
        diffusion = DiffusionTable.uniform(diffusion)
    elif not isinstance(diffusion, DiffusionTable):
        raise TypeError("diffusion must be a ConstantDiffusion, TanhDiagonalDiffusion, or DiffusionTable")
    groups = {}
    for v in vertices:
        spec = drift.for_vertex(v)
        if spec is not None and spec.is_zero:
            spec = None
        sigma = diffusion.for_vertex(v)
        nbrs = [g.index(u) for u in g.neighbors(v)]
        key = (None if spec is None else spec.text, id(sigma), len(nbrs))
        groups.setdefault(key, (spec, sigma, []))[2].append((g.index(v), nbrs, v))
    return [
        _Group(spec, sigma, np.array([m[0] for m in ms]), np.array([m[1] for m in ms], dtype=np.intp), tuple(m[2] for m in ms))
        for spec, sigma, ms in groups.values()
    ]


def _drift_at(grp: _Group, t, own, nbrs, times, hist, d) -> np.ndarray:
    """Drift of a group for all replicas at time t: ``own`` holds the group's
    states (n, R, d), ``nbrs`` its neighbours' (degree, n, R, d), and ``hist``
    the paths (V, R, m, d) over the grid points ``times`` <= t, in graph order."""
    ctx = EvalContext(t, own, nbrs, times=times, own_hist=hist, rows=grp.rows)
    return evaluate_vectorized(grp.spec, ctx, d)


def _drift_along(ens: PathEnsemble, drift, diffusion, vertices, n_steps):
    """Yield (group, k, x, after, b) along the recorded paths, one record per
    (step, group) with drift, for k < n_steps: x (n, R, d) holds the group's
    states at grid index k, after (V, R, d) every state at k + 1, b the drift.
    Each step's states are copied once, which beat gathering from the store."""
    grid = ens.grid
    hist = ens.values.swapaxes(0, 1)
    plan = [grp for grp in _plan(ens.graph, drift, diffusion, dict.fromkeys(vertices)) if grp.spec is not None]
    after = hist[:, :, 0, :].copy()
    for k in range(n_steps):
        state, after = after, hist[:, :, k + 1, :].copy()
        for grp in plan:
            x = state[grp.rows]
            yield grp, k, x, after, _drift_at(grp, grid[k], x, state[grp.nbrs.T], grid[: k + 1], hist[:, :, : k + 1, :], ens.dim)


def _first_bad(block, labels, t):  # block (V, R, d), searched in (replica, vertex) order
    r, vi = np.argwhere(~np.isfinite(block.swapaxes(0, 1)))[0][:2]
    return SimulationError(int(r), labels[int(vi)], float(t))


def _run(g, drift, diffusion, mu0, grid, n_replicas, seed, substeps, measure, tape=None):
    grid = _check_grid(grid)
    if n_replicas < 1:
        raise ValueError("need at least one replica")
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    plan = _plan(g, drift, diffusion, g.vertices)
    if substeps > 1 and any(grp.spec is not None and grp.spec.uses_history for grp in plan):
        raise ValueError("history-dependent drifts require substeps=1")
    d = plan[0].sigma.d
    if any(grp.sigma.d != d for grp in plan):
        raise ValueError("all vertices must share one state dimension")

    store = np.empty((grid.size, len(g), n_replicas, d))
    store[0] = mu0.sample(n_replicas, g, seed, d).swapaxes(0, 1)
    if not np.all(np.isfinite(store[0])):
        raise _first_bad(store[0], g.vertices, 0.0)

    # overflow during stepping is handled by the non-finite check below,
    # reported as a SimulationError rather than a warning
    with np.errstate(over="ignore", invalid="ignore"):
        _step_all(g, grid, store, plan, substeps, seed, tape)
    scheme = {"kind": "euler_maruyama", "substeps": int(substeps)}
    return PathEnsemble(g, grid, store.transpose(_STORE), int(seed), scheme, measure)


@dataclass
class _Tape:
    """Unscaled normals of some labels at every Euler step (substeps=1): the
    first run given the tape draws and records them, later runs copy them."""

    rows: dict  # label -> row of noise
    noise: np.ndarray | None = None  # (labels, steps, R, d)


def _step_all(g, grid, store, plan, substeps, seed, tape=None):
    """Fill store[1:] of a (T, V, R, d) store by Euler steps on a (V, R, d) state
    with each group one block of rows: own state, noise and new state are slices."""
    order = np.concatenate([grp.rows for grp in plan])
    block = np.argsort(order)
    bounds = np.cumsum([0] + [grp.rows.size for grp in plan])
    hist = store.transpose(1, 2, 0, 3)
    cur = store[0, order]
    z, new = np.empty_like(cur), np.empty_like(cur)
    # the buffers are reused, because fresh multi-MB arrays cost page faults:
    # noise, the next state, and each group's gathered neighbours
    buffers = [np.empty((grp.nbrs.shape[1],) + cur[lo:hi].shape) for grp, lo, hi in zip(plan, bounds, bounds[1:])]
    blocks = [(grp, slice(lo, hi), block[grp.nbrs.T], buf) for grp, lo, hi, buf in zip(plan, bounds, bounds[1:], buffers)]
    labels = [v for grp in plan for v in grp.labels]
    taped = {} if tape is None else tape.rows
    record = tape is not None and tape.noise is None
    if record:
        tape.noise = np.empty((len(taped), grid.size - 1) + cur.shape[1:])
    copies = [(i, taped[v]) for i, v in enumerate(labels) if v in taped]  # (row of z, row of the tape)
    drawn = [i for i, v in enumerate(labels) if record or v not in taped]
    streams = [noise_stream(seed, 0, labels[i]) for i in drawn]
    states = [gen.bit_generator.state for gen in streams]
    for k in range(grid.size - 1):
        h = (grid[k + 1] - grid[k]) / substeps
        sqrt_h = np.sqrt(h)
        for j in range(substeps):
            t_sub = grid[k] + j * h
            step = k * substeps + j
            for i, gen, state in zip(drawn, streams, states):
                state["state"]["counter"][1] = step
                gen.bit_generator.state = state
                gen.standard_normal(out=z[i])
            for i, row in copies:  # before the in-place scaling below
                if record:
                    tape.noise[row, step] = z[i]
                else:
                    z[i] = tape.noise[row, step]
            for grp, rows, nbrs, buf in blocks:
                x = cur[rows]
                dx = grp.sigma.noise_increment(x, np.multiply(z[rows], sqrt_h, out=z[rows]))
                if grp.spec is not None:
                    np.take(cur, nbrs, axis=0, out=buf, mode="clip")
                    dx += _drift_at(grp, t_sub, x, buf, grid[: k + 1], hist[:, :, : k + 1, :], x.shape[-1]) * h
                np.add(x, dx, out=new[rows])
            cur, new = new, cur
        store[k + 1, order] = cur
        if not np.all(np.isfinite(store[k + 1])):
            raise _first_bad(store[k + 1], g.vertices, grid[k + 1])


def simulate(g, drift, diffusion, mu0, grid, n_replicas, seed, substeps=1) -> PathEnsemble:
    """Simulate the interacting system dX_v = b_v dt + sigma_v dW_v.

    `substeps` integrates each grid interval with that many internal Euler
    steps while storing only the grid points; allowed only for drifts with
    no path-history terms.
    """
    return _run(g, drift, diffusion, mu0, grid, n_replicas, seed, substeps, "P")


def simulate_driftless(g, diffusion, mu0, grid, n_replicas, seed, substeps=1) -> PathEnsemble:
    """Reference dynamics dX_v = sigma_v dW_v; with a product initial law the
    vertices are independent."""
    return _run(g, None, diffusion, mu0, grid, n_replicas, seed, substeps, "P_star")


def simulate_truncated(g_infinite, root, n, drift, diffusion, mu0, grid, n_replicas, seed, substeps=1) -> PathEnsemble:
    """Simulate the level-n augmented truncation around the root.

    Vertices within distance n-2 of the root keep their drift; the outer
    shell evolves driftless.  Noise streams are keyed by vertex label, so
    levels sharing a vertex share its noise.
    """
    base = g_infinite if root is None else g_infinite.with_root(root)
    family = truncated_drift_family(drift, base, n)
    return _run(augmented_truncation(base, n), family, diffusion, mu0, grid, n_replicas, seed, substeps, f"P_n({n})")


def girsanov_weights(ens: PathEnsemble, drift, diffusion) -> GirsanovWeights:
    """Change-of-measure weights dP/dP_star at the grid horizon.

    Per vertex v, M_v = sum_k (sigma sigma^T)^{-1} b_v(t_k) . dX_v(k) and
    [M_v] = sum_k |sigma^{-1} b_v(t_k)|^2 dt_k, with the drift evaluated at
    left endpoints; the weight is exp(sum_v (M_v - [M_v]/2)).  Each vertex
    factor reads only the trajectories of v and its neighbors.
    """
    if ens.measure != "P_star":
        raise ValueError(f"expected a P_star ensemble, got measure {ens.measure!r}")
    m, qv, log_w = _log_density(ens, drift, diffusion)
    weights = np.exp(log_w)
    if not np.all(np.isfinite(weights)):
        bad = int(np.flatnonzero(~np.isfinite(weights))[0])
        raise SimulationError(bad, None, float(ens.grid[-1]))
    return GirsanovWeights(weights, dict(zip(ens.labels, m)), dict(zip(ens.labels, qv)), float(ens.grid[-1]))


def _log_density(ens: PathEnsemble, drift, diffusion):
    """Per-vertex M_v and [M_v] (V, R) of the Girsanov density along the recorded
    paths of any ensemble, and the log-weights sum_v (M_v - [M_v]/2) (R,)."""
    if ens.scheme.get("substeps", 1) != 1:
        raise ValueError("weights need the full path: simulate with substeps=1")
    grid = ens.grid
    m = np.zeros((len(ens.graph), ens.n_replicas))
    qv = np.zeros_like(m)
    for grp, k, x, after, b in _drift_along(ens, drift, diffusion, ens.labels, grid.size - 1):
        dx = after[grp.rows] - x
        m[grp.rows] += np.sum(grp.sigma.sigma_sigmaT_inv_vec(x, b) * dx, axis=-1)
        s = grp.sigma.sigma_inv_vec(x, b)
        qv[grp.rows] += np.sum(s * s, axis=-1) * (grid[k + 1] - grid[k])
    log_w = np.zeros(ens.n_replicas)
    for i in range(len(m)):
        log_w = log_w + (m[i] - 0.5 * qv[i])
    return m, qv, log_w


def _distance_sum(x: np.ndarray, y: np.ndarray | None = None) -> float:
    """Sum of |x_i - y_j| over all pairs (or of |x_i - x_j| over i < j without y), ``_ENERGY_BLOCK`` rows at a time."""
    from scipy.spatial.distance import cdist, pdist
    total = 0.0
    for lo in range(0, len(x), _ENERGY_BLOCK):
        rows, later = x[lo : lo + _ENERGY_BLOCK], x[lo + _ENERGY_BLOCK :]
        total += cdist(rows, y).sum() if y is not None else pdist(rows).sum() + cdist(rows, later).sum()
    return total


def energy_distance(x: np.ndarray, y: np.ndarray, *, y_sum: float | None = None) -> float:
    """Sample energy distance on the first ``_ENERGY_POINTS`` points of two clouds (n, p); (n,) is n points in 1-D.

    Self means run over i != j, the cross mean over all n·m pairs: unbiased for independent samples, not for the
    ladder's paired ones (see TruncationRow).  ``energy_distance(x, x)`` is -(2/n)·(mean pairwise distance).
    ``y_sum``, if given, is ``_distance_sum`` of those points of y, and is not computed again."""
    same = x is y
    x, y = (np.asarray(a, dtype=float).reshape(len(a), -1)[:_ENERGY_POINTS] for a in (x, y))
    n, m = x.shape[0], y.shape[0]
    if n < 2 or m < 2:
        raise ValueError("need at least two points per sample")
    sy = _distance_sum(y) if y_sum is None else y_sum
    sx, sxy = (sy, 2.0 * sy) if same else (_distance_sum(x), _distance_sum(x, y))
    return float(2 * (sxy / (n * m)) - 2.0 * sx / (n * (n - 1)) - 2.0 * sy / (m * (m - 1)))


def _ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: the largest gap of the two ECDFs over the pooled sample."""
    a, b = np.sort(a), np.sort(b)
    pooled = np.concatenate([a, b])
    gap = np.searchsorted(a, pooled, side="right") / a.size - np.searchsorted(b, pooled, side="right") / b.size
    return float(np.abs(gap).max())


@dataclass(frozen=True)
class TruncationRow:
    """One ladder level.  Levels share noise per replica, so ``energy_distance`` is the off-diagonal U-statistic
    minus (2/n)(mean off-diagonal cross - mean paired distance); at the last level, -(2/n)·(mean pairwise distance)."""
    n: int
    energy_distance: float
    ks_max: float
    replicas: int
    points: int  # replicas per level that the energy distance used


@dataclass(frozen=True)
class TruncationTable:
    rows: tuple

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)

    @property
    def monotone_decreasing(self) -> bool:
        d = [row.energy_distance for row in self.rows]
        return all(a >= b for a, b in zip(d, d[1:]))

    def to_csv(self) -> str:
        lines = ["n,energy_distance,ks_max,replicas,points"]
        for row in self.rows:
            lines.append(f"{row.n},{row.energy_distance:.10g},{row.ks_max:.10g},{row.replicas},{row.points}")
        return "\n".join(lines) + "\n"


def truncation_convergence(
    g_infinite,
    drift,
    diffusion,
    mu0,
    window,
    t,
    ns,
    n_replicas,
    seed,
    steps=64,
    substeps=1,
) -> TruncationTable:
    """Distance of window marginals at each truncation level to the largest level.

    All levels run on common random numbers (label-keyed streams, same seed),
    so the distances isolate the truncation effect.  The monotone trend is
    reported, not enforced.  The largest level runs first and, with
    substeps=1, records the normals of the second-largest level's labels,
    so each (label, step) block is drawn once per ladder; with substeps > 1
    each level draws its own.  A level's paths are dropped once its window
    is read, and the reference's self-distance sum is computed once.
    """
    ns = sorted(set(int(n) for n in ns))
    window = list(window)
    smallest, shell = _truncate(g_infinite, ns[0])
    outside = [v for v in window if v not in smallest or v in shell]
    if outside:
        raise ValueError(f"window vertices {outside!r} lie outside the smallest truncation's interior")

    grid = np.linspace(0.0, t, steps + 1)
    tape = None
    if substeps == 1 and len(ns) > 1:  # recorded by the largest level, whose ball holds the smaller ones
        tape = _Tape({v: i for i, v in enumerate(augmented_truncation(g_infinite, ns[-2]).vertices)})
    rows = []
    for n in reversed(ns):
        g = augmented_truncation(g_infinite, n)
        family = truncated_drift_family(drift, g_infinite, n)
        ens = _run(g, family, diffusion, mu0, grid, n_replicas, seed, substeps, f"P_n({n})", tape)
        cur = ens.values[:, [g.index(v) for v in window], -1, :].reshape(n_replicas, -1)
        del ens  # the next level runs without these paths
        if not rows:
            ref, ref_sum = cur, _distance_sum(cur[:_ENERGY_POINTS])
        ed = energy_distance(cur, ref, y_sum=ref_sum)
        ks = max(_ks_statistic(cur[:, i], ref[:, i]) for i in range(cur.shape[1]))
        rows.append(TruncationRow(n, ed, ks, n_replicas, min(n_replicas, _ENERGY_POINTS)))
    return TruncationTable(tuple(reversed(rows)))


def entropy_bound_estimate(ens: PathEnsemble, drift, diffusion, vertices, t) -> float:
    """Monte Carlo value of 1/2 sum_v E int_0^t |sigma_v^{-1} b_v(s)|^2 ds.

    An upper-bound diagnostic for the relative entropy of the window marginal
    with respect to the driftless reference.  For truncated ensembles the sum
    runs over the window's vertices present in the truncation; for full
    ensembles an unknown vertex is an error.
    """
    if not (ens.measure == "P" or ens.measure.startswith("P_n(")):
        raise ValueError(f"expected a P or P_n ensemble, got {ens.measure!r}")
    kt = ens.time_index(t)
    have = set(ens.graph.vertices)
    if ens.measure.startswith("P_n("):
        vs = [v for v in vertices if v in have]
    else:
        missing = [v for v in vertices if v not in have]
        if missing:
            raise ValueError(f"vertices {missing!r} not in the ensemble")
        vs = list(vertices)
    grid = ens.grid
    means = {}  # vertex index -> E|sigma^-1 b|^2 at each step
    for grp, k, x, _, b in _drift_along(ens, drift, diffusion, vs, kt):
        s = grp.sigma.sigma_inv_vec(x, b)
        for i, mean in zip(grp.rows, np.mean(np.sum(s * s, axis=-1), axis=-1)):
            means.setdefault(i, []).append(mean)
    total = 0.0
    for v in vs:  # the (vertex, step) order of a vertex loop, repeats included
        for k, mean in enumerate(means.get(ens.graph.index(v), ())):
            total += float(mean) * (grid[k + 1] - grid[k])
    return 0.5 * total


# ------------------------------------------------------------ persistence

_MAGIC = b"NDPE\x01"


def _ensemble_bytes(ens: PathEnsemble) -> bytearray:
    """The container of `save_ensemble`, built with one copy of the values."""
    header = {
        "grid": [float(x) for x in ens.grid],
        **_graph_to_json(ens.graph),
        "seed": ens.seed,
        "scheme": ens.scheme,
        "measure": ens.measure,
        "shape": list(ens.values.shape),
    }
    blob = json.dumps(header).encode("utf-8")
    head = _MAGIC + struct.pack("<I", len(blob)) + blob
    out = bytearray(len(head) + 8 * ens.values.size)
    out[: len(head)] = head
    np.frombuffer(out, dtype="<f8", offset=len(head)).reshape(ens.values.shape)[...] = ens.values
    return out


def save_ensemble(path, ens: PathEnsemble) -> None:
    """Binary container: magic, u32 header length, JSON header, f64 data.

    Data is little-endian float64 in (replica, vertex, time, component)
    order, the index order of ``values``, whatever its memory layout.
    """
    with open(path, "wb") as fh:
        fh.write(_ensemble_bytes(ens))


def load_ensemble(path) -> PathEnsemble:
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError("not an ensemble container")
        (hlen,) = struct.unpack("<I", fh.read(4))
        header = json.loads(fh.read(hlen).decode("utf-8"))
        data = fh.read()
    store = np.frombuffer(data, dtype="<f8").reshape(header["shape"]).transpose(_STORE).astype(float, order="C")
    g = _graph_from_json(header)
    return PathEnsemble(g, np.asarray(header["grid"], dtype=float), store.transpose(_STORE), header["seed"], header["scheme"], header["measure"])


def ensemble_summary_csv(ens: PathEnsemble) -> str:
    """Per (vertex, time, component) mean and standard deviation across replicas."""
    lines = ["vertex,time,component,mean,std"]
    for vi, v in enumerate(ens.labels):
        for k, t in enumerate(ens.grid):
            for c in range(ens.dim):
                col = ens.values[:, vi, k, c]
                lines.append(f"{v},{t:.10g},{c},{col.mean():.10g},{col.std(ddof=1):.10g}")
    return "\n".join(lines) + "\n"
