"""Synthetic scenario generation: topologies, noise, initial guesses.

Determinism contract: every function that consumes randomness takes an
explicit seed (or Generator) and draws in a documented order, so outputs
are reproducible byte for byte. Ground-truth generation draws positions
first (vertex-ascending, random topology only), then one rotation per
vertex ascending. Measurement corruption draws per undirected edge in
ascending ``(i, j)`` order: forward translation, forward rotation,
backward translation, backward rotation, three standard normals each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import so3
from .graph import (Pose, PoseGraph, PoseStack, RelativeMeasurement,
                    as_stack, bfs_tree, build_graph)

_GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))

TOPOLOGIES = ("random", "circle", "grid", "sphere")


class GenerationFailedError(RuntimeError):
    """Random placement could not satisfy its constraints."""


@dataclass
class NoiseModel:
    """Isotropic Gaussian corruption scales.

    ``tau`` is the translation standard deviation in meters; ``kappa``
    the rotation standard deviation in radians, applied through the
    exponential of a random axis-angle vector.
    """

    tau: float = 0.5
    kappa: float = 0.524
    seed: int = 0

    def __post_init__(self) -> None:
        if self.tau < 0 or self.kappa < 0:
            raise ValueError("noise scales must be nonnegative")

    def to_dict(self) -> dict:
        return {"tau": self.tau, "kappa": self.kappa, "seed": self.seed}

    @staticmethod
    def from_dict(d: dict) -> "NoiseModel":
        return NoiseModel(tau=float(d["tau"]), kappa=float(d["kappa"]),
                          seed=int(d["seed"]))


@dataclass
class ScenarioSpec:
    """Declarative description of a synthetic pose network.

    The edge rules per topology:

    * ``grid``: axis-aligned lattice of ``grid_dims`` vertices spaced
      ``grid_spacing`` apart, edges to the six axis neighbors.
    * ``circle``: ``n`` vertices evenly on a circle of ``radius``; each
      vertex connects to its ``circle_neighbors`` nearest on each side
      (1 gives the plain ring).
    * ``sphere``: ``n`` vertices on a Fibonacci spiral over a sphere of
      ``radius``; a closed ring along the spiral, then globally nearest
      non-adjacent pairs are added until ``sphere_target_undirected``
      undirected edges exist (default ``round(5.44 * n)``, capped at the
      complete graph).
    * ``random``: incremental placement, each new vertex offset uniformly
      within a ball of ``comm_radius`` around a random existing vertex;
      all pairs within ``comm_radius`` become edges.

    ``n`` is derived from ``grid_dims`` for grids.
    """

    topology: str
    n: int = 0
    comm_radius: float = 2.0
    grid_dims: tuple[int, int, int] | None = None
    grid_spacing: float = 2.0
    radius: float = 5.0
    circle_neighbors: int = 1
    sphere_target_undirected: int | None = None

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology {self.topology!r}; "
                             f"expected one of {TOPOLOGIES}")
        if self.topology == "grid":
            if self.grid_dims is None:
                raise ValueError("grid topology requires grid_dims")
            self.grid_dims = tuple(int(d) for d in self.grid_dims)
            if any(d < 1 for d in self.grid_dims):
                raise ValueError("grid dimensions must be at least 1")
            derived = int(np.prod(self.grid_dims))
            if self.n not in (0, derived):
                raise ValueError(
                    f"n={self.n} contradicts grid_dims {self.grid_dims}")
            self.n = derived
        elif self.n < 2:
            raise ValueError("need at least two vertices")
        if self.topology == "circle" and self.circle_neighbors < 1:
            raise ValueError("circle_neighbors must be at least 1")
        if self.topology == "random" and self.comm_radius <= 0:
            raise ValueError("comm_radius must be positive")
        if self.topology == "grid" and self.grid_spacing <= 0:
            raise ValueError("grid_spacing must be positive")
        if self.topology in ("circle", "sphere") and self.radius <= 0:
            raise ValueError("radius must be positive")

    def to_dict(self) -> dict:
        d = {"topology": self.topology, "n": self.n}
        if self.topology == "random":
            d["comm_radius"] = self.comm_radius
        if self.topology == "grid":
            d["grid_dims"] = list(self.grid_dims)
            d["grid_spacing"] = self.grid_spacing
        if self.topology in ("circle", "sphere"):
            d["radius"] = self.radius
        if self.topology == "circle":
            d["circle_neighbors"] = self.circle_neighbors
        if self.topology == "sphere":
            d["sphere_target_undirected"] = self.sphere_target_undirected
        return d

    @staticmethod
    def from_dict(d: dict) -> "ScenarioSpec":
        kwargs = dict(d)
        if "grid_dims" in kwargs and kwargs["grid_dims"] is not None:
            kwargs["grid_dims"] = tuple(kwargs["grid_dims"])
        return ScenarioSpec(**kwargs)


def _grid_layout(spec: ScenarioSpec) -> tuple[np.ndarray, list[tuple[int, int]]]:
    a, b, c = spec.grid_dims
    positions = np.zeros((spec.n, 3))
    index = {}
    for i, (x, y, z) in enumerate(np.ndindex(a, b, c)):
        positions[i] = np.array([x, y, z], dtype=float) * spec.grid_spacing
        index[(x, y, z)] = i
    edges = []
    for (x, y, z), i in index.items():
        for dx, dy, dz in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            key = (x + dx, y + dy, z + dz)
            if key in index:
                edges.append((i, index[key]))
    return positions, sorted(edges)


def _circle_layout(spec: ScenarioSpec) -> tuple[np.ndarray, list[tuple[int, int]]]:
    n = spec.n
    angles = 2.0 * np.pi * np.arange(n) / n
    positions = spec.radius * np.stack(
        [np.cos(angles), np.sin(angles), np.zeros(n)], axis=1)
    edges = set()
    k = min(spec.circle_neighbors, n // 2)
    for i in range(n):
        for d in range(1, k + 1):
            j = (i + d) % n
            edges.add((min(i, j), max(i, j)))
    return positions, sorted(edges)


def _sphere_layout(spec: ScenarioSpec) -> tuple[np.ndarray, list[tuple[int, int]]]:
    n = spec.n
    positions = np.zeros((n, 3))
    for i in range(n):
        z = 1.0 - 2.0 * (i + 0.5) / n
        rho = np.sqrt(max(0.0, 1.0 - z * z))
        phi = i * _GOLDEN_ANGLE
        positions[i] = spec.radius * np.array(
            [rho * np.cos(phi), rho * np.sin(phi), z])
    edges = {(i, i + 1) for i in range(n - 1)}
    edges.add((0, n - 1))
    complete = n * (n - 1) // 2
    target = spec.sphere_target_undirected
    if target is None:
        target = min(int(round(5.44 * n)), complete)
    if not (len(edges) <= target <= complete):
        raise ValueError(
            f"sphere edge target {target} outside [{len(edges)}, {complete}]")
    candidates = []
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges:
                d = float(np.linalg.norm(positions[i] - positions[j]))
                candidates.append((d, i, j))
    candidates.sort()
    for d, i, j in candidates:
        if len(edges) >= target:
            break
        edges.add((i, j))
    return positions, sorted(edges)


def _random_layout(
    spec: ScenarioSpec, rng: np.random.Generator,
) -> tuple[np.ndarray, list[tuple[int, int]]]:
    n = spec.n
    r = spec.comm_radius
    positions = np.zeros((n, 3))
    for i in range(1, n):
        for _ in range(100):
            anchor = int(rng.integers(0, i))
            direction = rng.standard_normal(3)
            norm = float(np.linalg.norm(direction))
            if norm < 1e-12:
                continue
            scale = r * float(rng.uniform()) ** (1.0 / 3.0)
            candidate = positions[anchor] + direction / norm * scale
            dists = np.linalg.norm(positions[:i] - candidate, axis=1)
            if float(dists.min()) > 1e-9:
                positions[i] = candidate
                break
        else:
            raise GenerationFailedError(
                f"could not place vertex {i} after 100 attempts")
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if float(np.linalg.norm(positions[i] - positions[j])) <= r:
                edges.append((i, j))
    return positions, edges


def generate_ground_truth(
    spec: ScenarioSpec, seed: int = 0,
) -> tuple[PoseStack, PoseGraph]:
    """Ground-truth poses plus the scenario topology as a pose graph.

    The returned graph carries the exact (noise-free) measurements, so
    it doubles as a globally consistent dataset; pass it through
    corrupt_measurements to overlay noise on the same edges.

    Rotations are Haar-uniform, one draw per vertex in ascending order,
    after any position draws (random topology only). One seeded stream
    drives everything, so identical inputs give identical output bytes.
    """
    rng = np.random.default_rng(seed)
    if spec.topology == "grid":
        positions, edges = _grid_layout(spec)
    elif spec.topology == "circle":
        positions, edges = _circle_layout(spec)
    elif spec.topology == "sphere":
        positions, edges = _sphere_layout(spec)
    else:
        positions, edges = _random_layout(spec, rng)
    poses = PoseStack(positions, np.array(
        [so3.random_rotation(rng) for _ in range(spec.n)]))
    return poses, build_graph(spec.n, exact_measurements(poses, edges))


def exact_measurements(
    poses: Sequence[Pose], edges: Iterable[tuple[int, int]],
) -> list[RelativeMeasurement]:
    """Noise-free directed measurements, both directions of every edge."""
    s = as_stack(poses)
    t, r = s.t, s.r
    out = []
    for i, j in sorted(edges):
        rij = r[i].T @ r[j]
        out.append(RelativeMeasurement(i, j, r[i].T @ (t[j] - t[i]), rij))
        out.append(RelativeMeasurement(j, i, r[j].T @ (t[i] - t[j]), rij.T))
    return out


def corrupt_measurements(
    poses: Sequence[Pose], topology: PoseGraph, noise: NoiseModel,
) -> PoseGraph:
    """Measurement graph over the same edges with independent noise per
    direction.

    Translation noise is added in the observer's frame; rotation noise
    right-multiplies the true relative rotation by the exponential of a
    Gaussian axis-angle vector. Draw order: undirected edges ascending,
    forward direction then backward, translation normals before rotation
    normals.
    """
    rng = np.random.default_rng(noise.seed)
    s = as_stack(poses)
    t, r = s.t, s.r

    def one(src: int, dst: int) -> RelativeMeasurement:
        t_true = r[src].T @ (t[dst] - t[src])
        r_true = r[src].T @ r[dst]
        t_meas = t_true + noise.tau * rng.standard_normal(3)
        r_meas = r_true @ so3.exp_map(noise.kappa * rng.standard_normal(3))
        return RelativeMeasurement(src, dst, t_meas, r_meas)

    out = []
    for i, j in topology.undirected_edges():
        out.append(one(i, j))
        out.append(one(j, i))
    return build_graph(topology.n, out)


def generate_dataset(
    spec: ScenarioSpec, noise: NoiseModel | None = None, seed: int = 0,
) -> tuple[PoseStack, PoseGraph]:
    """Ground truth plus a measurement graph in one call.

    ``noise=None`` yields exact measurements and consumes no noise draws.
    """
    poses, topology = generate_ground_truth(spec, seed)
    if noise is None:
        return poses, topology
    return poses, corrupt_measurements(poses, topology, noise)


def gps_init(
    poses: Sequence[Pose], tau: float, kappa: float, seed: int | None = 0,
) -> PoseStack:
    """Ground truth independently corrupted per vertex, as if from a noisy
    global positioning fix.

    Draws per vertex ascending: three normals for translation, three for
    rotation.
    """
    s = as_stack(poses)
    z = np.random.default_rng(seed).standard_normal((len(s), 2, 3))
    return PoseStack(s.t + tau * z[:, 0], s.r @ so3.exp_map(kappa * z[:, 1]))


def spanning_tree_init(g: PoseGraph, root: int = 0) -> PoseStack:
    """Compose measurements outward along a breadth-first tree.

    The root is pinned to the identity, so on noise-free input this
    recovers ground truth up to the global frame choice. Each level of
    the tree is composed from the level above in one stacked step, each
    pose as ``compose(parent, measurement)`` alone.
    """
    order, parent, depth = bfs_tree(g, root)
    kids = np.array(order[1:], dtype=np.intp)
    ups = np.array(parent, dtype=np.intp)[kids]
    rows = g.edge_rows(ups, kids)
    e = g.edge_arrays
    t = np.zeros((g.n, 3))
    r = np.empty((g.n, 3, 3))
    r[root] = np.eye(3)
    # bfs_tree lists the vertices level by level
    cuts = (np.flatnonzero(np.diff(np.array(depth)[kids])) + 1).tolist()
    for lo, hi in zip([0, *cuts], [*cuts, len(kids)]):
        k, up = kids[lo:hi], ups[lo:hi]
        t[k] = t[up] + (r[up] @ e.t_rel[rows[lo:hi]][..., None])[..., 0]
        r[k] = r[up] @ e.r_rel[rows[lo:hi]]
    return PoseStack(t, r)


def identity_init(n: int) -> PoseStack:
    """All poses at the identity."""
    return PoseStack(np.zeros((n, 3)), np.tile(np.eye(3), (n, 1, 1)))
