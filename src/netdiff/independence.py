"""Conditional-independence tests on path laws.

Two routes to the same question "is X_A independent of X_B given X_S?":

* exact: invert a marginal of a stacked Gaussian path covariance and
  inspect the A x B precision block, and
* statistical: partial correlations of path snapshots from a simulated
  ensemble, with Fisher-z p-values and a Bonferroni correction.  A scan
  builds one centred Gram matrix of all its features, and each test reads
  a Schur complement of it.

``mrf_order_scan`` drives either route over a family of vertex sets and
their first or second boundaries.  It checks each set once and builds each
(A, S, B) once, from closed-neighbourhood bitmasks of G and G²; each route
supplies only the test of one canonical triple, which returns the finished
report.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .engine import PathEnsemble
from .gaussian import StackedCovariance, _precision_block_maxima, _schur_complement
from .graphs import Graph, _closed_masks, _split

__all__ = [
    "CITestReport",
    "exact_gaussian_ci",
    "partial_correlation_ci_test",
    "mrf_order_scan",
    "order_summary",
    "reports_to_json",
    "reports_to_csv",
]

_HEURISTIC_NOTE = "fisher-z p-values; heuristic unless features are jointly gaussian"


@dataclass(frozen=True)
class CITestReport:
    """Outcome of one conditional-independence test of A vs B given S.

    ``verdict`` is "independent" when ``statistic`` falls below
    ``threshold``, "dependent" when it does not, and "inconclusive" when
    the statistic could not be formed (rank-deficient features).
    """

    a: tuple
    s: tuple
    b: tuple
    mode: str
    statistic: float
    threshold: float
    verdict: str
    n_features: int | None = None
    n_replicas: int | None = None
    p_value: float | None = None
    order: int | None = None
    note: str = ""


def _check_triple(labels, a, s, b):
    """Canonicalize a disjoint (A, S, B) triple to label-ordered tuples."""
    pos = {lab: i for i, lab in enumerate(labels)}

    def canon(part, name):
        part = list(part)
        for lab in part:
            if lab not in pos:
                raise ValueError(f"vertex {lab!r} not in {name} source")
        if len(set(part)) != len(part):
            raise ValueError(f"duplicate vertex in {name}")
        return tuple(sorted(part, key=pos.__getitem__))

    a = canon(a, "A")
    s = canon(s, "S")
    b = canon(b, "B")
    if not a or not b:
        raise ValueError("A and B must be nonempty")
    for x, y, names in ((a, s, "A and S"), (a, b, "A and B"), (s, b, "S and B")):
        if set(x) & set(y):
            raise ValueError(f"{names} overlap")
    return a, s, b


def exact_gaussian_ci(stacked: StackedCovariance, a, s, b, tol: float = 1e-8) -> CITestReport:
    """Exact Gaussian test: A and B are conditionally independent given S
    iff the A x B block of the precision of the (A, S, B)-marginal vanishes.

    The statistic is the largest per-vertex-pair block entry, rescaled by
    the geometric mean of the two diagonal-block scales, as in
    :func:`netdiff.gaussian.path_precision_blocks`.
    """
    a, s, b = _check_triple(stacked.labels, a, s, b)
    # label order, not (a, s, b) order, so the result is exactly A-B symmetric
    pos = {lab: i for i, lab in enumerate(stacked.labels)}
    keep = tuple(sorted(a + s + b, key=pos.__getitem__))
    at = {lab: i for i, lab in enumerate(keep)}
    return _exact_report(_marginal_maxima(stacked, keep), at, len(keep) * stacked.n_times, tol, a, s, b)


def _marginal_maxima(stacked: StackedCovariance, keep):
    """Relative precision block maxima of the marginal on the label-ordered vertices ``keep``."""
    if len(keep) == stacked.n_vertices:
        # the marginal is the whole matrix: share its one cached factorization
        return stacked._block_maxima[1]
    m = stacked.n_times
    pos = {lab: i for i, lab in enumerate(stacked.labels)}
    cols = np.concatenate([np.arange(pos[lab] * m, (pos[lab] + 1) * m) for lab in keep])
    return _precision_block_maxima(stacked.matrix[np.ix_(cols, cols)], m)[1]


def _exact_report(rel, at, n_features, tol, a, s, b, order=None) -> CITestReport:
    """The exact test's report, read off rows A and columns B of ``rel``, whose vertex ``v`` is ``at[v]``."""
    worst = float(rel[np.ix_([at[u] for u in a], [at[v] for v in b])].max())
    verdict = "independent" if worst < tol else "dependent"
    return CITestReport(
        a=a, s=s, b=b, mode="exact_gaussian",
        statistic=worst, threshold=tol, verdict=verdict,
        n_features=n_features, order=order,
    )


# a share of variance at or below this is numerically zero: of any eigenvalue of
# the S features' correlation matrix, and of an A or B feature's residual given S
_RANK_TOL = 1e-10


def _features(ens: PathEnsemble, labels, feature_grid):
    """Correlation matrix of the path values of ``labels`` at ``feature_grid``,
    vertex-major like `StackedCovariance`, from one centred Gram matrix, and
    each label's feature columns.  A constant feature gets a zero row and
    column, so every test that reads it is inconclusive."""
    ks = [ens.time_index(t) for t in feature_grid]
    if not ks:
        raise ValueError("feature grid is empty")
    x = ens.values[:, [ens.labels.index(lab) for lab in labels]][:, :, ks, :].reshape(ens.n_replicas, -1)
    xc = x - x.mean(axis=0)
    sd = np.linalg.norm(xc, axis=0)
    # a constant feature centres to rounding noise
    flat = sd <= 1e-8 * np.linalg.norm(x, axis=0) + 1e-300
    xc *= np.divide(1.0, sd, out=np.zeros_like(sd), where=~flat)
    return xc.T @ xc, dict(zip(labels, np.arange(x.shape[1]).reshape(len(labels), -1)))


def _partial_correlation(features, n, alpha, a, s, b, order=None) -> CITestReport:
    """The Fisher-z test of A vs B given S on a Schur complement of the correlation matrix."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    corr, cols = features
    ia, i_s, ib = (np.concatenate([cols[lab] for lab in part] or [np.arange(0)]) for part in (a, s, b))
    n_features = ia.size + i_s.size + ib.size
    if n < 50 * n_features:
        raise ValueError(f"{n} replicas for {n_features} features; need at least {50 * n_features}")
    from scipy.special import ndtr, ndtri  # the normal tails that scipy.stats.norm.sf and .isf call
    n_pairs = ia.size * ib.size
    df = n - i_s.size - 3
    r_crit = float(np.tanh(-ndtri(alpha / (2.0 * n_pairs)) / np.sqrt(df)))
    common = dict(
        a=a, s=s, b=b, mode="partial_correlation", threshold=r_crit,
        n_features=n_features, n_replicas=n, order=order, note=_HEURISTIC_NOTE,
    )
    c = None
    if i_s.size == 0 or np.linalg.eigvalsh(corr[np.ix_(i_s, i_s)])[0] > _RANK_TOL:
        c = _schur_complement(corr, np.concatenate([ia, ib]), i_s)
    # rank-deficient S features, or an A or B feature that is constant or linear in them
    if c is None or np.diag(c).min() <= _RANK_TOL:
        return CITestReport(statistic=float("nan"), verdict="inconclusive", **common)
    sd = np.sqrt(np.diag(c))
    r = c[: ia.size, ia.size:] / np.outer(sd[: ia.size], sd[ia.size:])
    r = np.clip(r, -1.0 + 1e-15, 1.0 - 1e-15)
    z_stat = np.abs(np.arctanh(r)) * np.sqrt(df)
    p = float(min(1.0, 2.0 * ndtr(-z_stat).min() * n_pairs))
    verdict = "independent" if p > alpha else "dependent"
    return CITestReport(statistic=float(np.abs(r).max()), verdict=verdict, p_value=p, **common)


def partial_correlation_ci_test(ens: PathEnsemble, a, s, b, feature_grid, alpha: float = 0.01) -> CITestReport:
    """Statistical surrogate for the exact test on simulated paths.

    Features are the path values at ``feature_grid`` (per vertex and
    component).  The statistic is the largest absolute partial
    correlation between an A-feature and a B-feature given all
    S-features; the verdict compares the smallest Bonferroni-adjusted
    Fisher-z p-value with ``alpha``.  The partial correlations come from a
    Schur complement of the features' correlation matrix, which one centred
    Gram matrix gives (``mrf_order_scan`` builds it once per scan).
    Requires at least 50 replicas per feature.  Constant features, S
    features whose correlation matrix has an eigenvalue of at most 1e-10,
    or an A or B feature whose residual given S keeps at most 1e-10 of its
    variance yield an inconclusive report instead of a verdict.
    """
    a, s, b = _check_triple(ens.labels, a, s, b)
    return _partial_correlation(_features(ens, a + s + b, feature_grid), ens.n_replicas, alpha, a, s, b)


def mrf_order_scan(
    g: Graph,
    source,
    orders=(1, 2),
    sets=None,
    tol: float = 1e-8,
    feature_grid=None,
    alpha: float = 0.01,
) -> list[CITestReport]:
    """Test A vs V \\ (A ∪ ∂ᵏA) given ∂ᵏA for each set A and order k.

    ``sets`` defaults to all singletons and all edges of ``g``; sets whose
    complement beyond the boundary is empty are skipped.  ``orders`` must not
    repeat.  ``source`` is either a stacked path covariance (exact route) or
    a path ensemble (partial-correlation route) holding every vertex of
    ``g``.  Each set is checked once, and each (A, ∂ᵏA, rest) is built once,
    in the source's label order, from the closed-neighbourhood bitmasks of G
    and G².  A, its boundary and the rest always cover V, so on the exact
    route every test reads its rows and columns of the one factorization of
    the stacked covariance, computed on first use and shared with
    `path_precision_blocks`; on the ensemble route every test reads a Schur
    complement of one correlation matrix of all features, built once.
    """
    if not isinstance(source, (StackedCovariance, PathEnsemble)):
        raise TypeError("source must be a StackedCovariance or a PathEnsemble")
    bad = set(orders) - {1, 2}
    if bad:
        raise ValueError(f"unsupported orders {sorted(bad)}")
    if len(set(orders)) < len(orders):
        raise ValueError(f"orders repeat: {list(orders)}")
    keep = tuple(v for v in source.labels if v in g)
    if len(keep) < len(g):
        raise ValueError(f"vertex {next(v for v in g.vertices if v not in keep)!r} not in source")
    at = {v: j for j, v in enumerate(keep)}  # bit j of a mask stands for keep[j]
    if isinstance(source, StackedCovariance):
        test = partial(_exact_report, _marginal_maxima(source, keep), at, len(keep) * source.n_times, tol)
    else:
        grid = [t for t in source.grid if t > 0.0] if feature_grid is None else feature_grid
        test = partial(_partial_correlation, _features(source, source.labels, grid), source.n_replicas, alpha)
    sets = [(v,) for v in g.vertices] + g.edges() if sets is None else sets
    if keep != g.vertices:  # the source lists the vertices in another order
        g = Graph(keep, g.edges())
    reports = []
    for a in sets:
        unknown = [v for v in a if v not in at]
        if unknown:
            raise ValueError(f"unknown vertex {unknown[0]!r}")
        ia = sorted(at[v] for v in a)
        if len(set(ia)) < len(ia):
            raise ValueError("duplicate vertex in A")
        if not ia:
            raise ValueError("A and B must be nonempty")
        a = tuple([keep[j] for j in ia])
        for k in orders:
            s, rest = _split(_closed_masks(g, k), ia, keep)
            if rest:
                reports.append(test(a, s, rest, k))
    return reports


def order_summary(reports) -> dict:
    """Per-order verdict: fail on any dependent set, else inconclusive, else pass."""
    out = {}
    for rep in reports:
        if rep.order is None:
            continue
        seen = out.setdefault(rep.order, set())
        seen.add(rep.verdict)
    return {
        k: "fail" if "dependent" in v else ("inconclusive" if "inconclusive" in v else "pass")
        for k, v in sorted(out.items())
    }


def reports_to_json(reports) -> str:
    """Strict JSON array of report records, one object per test; a statistic
    or p-value that is not finite (an inconclusive test) is written as null."""
    recs = []
    for r in reports:
        rec = {
            "a": list(r.a),
            "s": list(r.s),
            "b": list(r.b),
            "mode": r.mode,
            "statistic": r.statistic if math.isfinite(r.statistic) else None,
            "threshold": r.threshold,
            "verdict": r.verdict,
        }
        for key in ("n_features", "n_replicas", "p_value", "order"):
            val = getattr(r, key)
            if val is not None:
                rec[key] = val if math.isfinite(val) else None
        if r.note:
            rec["note"] = r.note
        recs.append(rec)
    return json.dumps(recs, indent=2, allow_nan=False)


def reports_to_csv(reports) -> str:
    """CSV summary with columns set, order, mode, statistic, verdict."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["set", "order", "mode", "statistic", "verdict"])
    for r in reports:
        set_txt = "|".join(str(v) for v in r.a)
        order_txt = "" if r.order is None else r.order
        w.writerow([set_txt, order_txt, r.mode, f"{r.statistic:.6g}", r.verdict])
    return buf.getvalue()
