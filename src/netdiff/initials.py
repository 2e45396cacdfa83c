"""Initial-condition samplers for the simulation engine.

Product laws draw each vertex from its own counter-based stream, so adding
or removing vertices never perturbs the draws of the others.  The factor
model bridge gives a non-product initial law on small graphs by sampling
the exact joint table.
"""

from __future__ import annotations

import numpy as np

from .engine import vertex_stream, joint_stream

__all__ = ["FactorModelInitial", "NormalInitial", "PerVertexInitial", "PointMass", "UniformInitial"]


class _ProductLaw:
    """Base for laws that factorize over vertices."""

    def sample(self, n_replicas: int, g, seed: int, d: int = 1) -> np.ndarray:
        out = np.empty((n_replicas, len(g.vertices), d))
        for vi, v in enumerate(g.vertices):
            rng = vertex_stream(seed, v)
            out[:, vi, :] = self.draw(rng, n_replicas, d, v)
        return out

    def draw(self, rng, n, d, vertex):
        raise NotImplementedError


class PointMass(_ProductLaw):
    def __init__(self, value=0.0):
        self.value = np.atleast_1d(np.asarray(value, dtype=float))

    def draw(self, rng, n, d, vertex):
        if self.value.size not in (1, d):
            raise ValueError("point mass value has wrong dimension")
        return np.broadcast_to(self.value, (n, d))


class NormalInitial(_ProductLaw):
    def __init__(self, mean=0.0, std=1.0):
        if std <= 0:
            raise ValueError("std must be positive")
        self.mean = float(mean)
        self.std = float(std)

    def draw(self, rng, n, d, vertex):
        return rng.normal(self.mean, self.std, size=(n, d))


class UniformInitial(_ProductLaw):
    def __init__(self, lo, hi):
        if not hi > lo:
            raise ValueError("need hi > lo")
        self.lo = float(lo)
        self.hi = float(hi)

    def draw(self, rng, n, d, vertex):
        return rng.uniform(self.lo, self.hi, size=(n, d))


class PerVertexInitial(_ProductLaw):
    """Product law with per-vertex overrides over a default marginal."""

    def __init__(self, default=None, overrides=None):
        self.default = default
        self.overrides = dict(overrides or {})

    def draw(self, rng, n, d, vertex):
        law = self.overrides.get(vertex, self.default)
        if law is None:
            raise ValueError(f"no initial law for vertex {vertex!r}")
        return law.draw(rng, n, d, vertex)


class FactorModelInitial:
    """Non-product initial law: exact sampling of a discrete factor model.

    Replicas are iid draws from the model's joint table (categories mapped
    through `state_values`, default 0..k-1 as floats), so the initial law is
    a genuine second-order Markov field, not a product measure.
    """

    def __init__(self, model, state_values=None):
        self.model = model
        self.state_values = None if state_values is None else np.asarray(state_values, dtype=float)

    def sample(self, n_replicas: int, g, seed: int, d: int = 1) -> np.ndarray:
        from .discrete import joint_table  # deferred: discrete layer is optional here

        if d != 1:
            raise ValueError("factor model initials are one-dimensional")
        if tuple(self.model.graph.vertices) != tuple(g.vertices):
            raise ValueError("factor model graph does not match the simulation graph")
        table = joint_table(self.model)
        flat = table.probs.reshape(-1)
        rng = joint_stream(seed)
        idx = rng.choice(flat.size, size=n_replicas, p=flat)
        states = np.stack(np.unravel_index(idx, table.probs.shape), axis=1)
        vals = states.astype(float)
        if self.state_values is not None:
            vals = self.state_values[states]
        return vals[:, :, None]

