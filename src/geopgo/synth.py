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
from .graph import (MeasurementColumns, Pose, PoseGraph, PoseStack,
                    as_stack, build_graph)

_GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))

TOPOLOGIES = ("random", "circle", "grid", "sphere")


class GenerationFailedError(RuntimeError):
    """Random placement could not satisfy its constraints."""


def _check_integer(name: str, value) -> None:
    """Reject anything but an int or a numpy integer: a float is not
    truncated and a bool is not taken as 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_number(name: str, value) -> None:
    """Reject anything but a real number: a bool is not taken as 0 or 1
    and a string is not parsed."""
    if (isinstance(value, bool)
            or not isinstance(value, (int, float, np.integer, np.floating))):
        raise ValueError(f"{name} must be a number, got {value!r}")


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
        for name in ("tau", "kappa"):
            value = getattr(self, name)
            _check_number(name, value)
            if not 0 <= value < np.inf:  # written so that NaN fails too
                raise ValueError(
                    f"{name} must be finite and nonnegative, got {value!r}")
            # a float: a config's 1 is written 1.0, as it always was, and
            # a numpy float is JSON serializable
            setattr(self, name, float(value))
        _check_integer("seed", self.seed)
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        self.seed = int(self.seed)  # a numpy integer is not JSON serializable

    def to_dict(self) -> dict:
        return {"tau": self.tau, "kappa": self.kappa, "seed": self.seed}

    @staticmethod
    def from_dict(d: dict) -> "NoiseModel":
        return NoiseModel(tau=d["tau"], kappa=d["kappa"], seed=d["seed"])


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
        # counts are kept as ints: a numpy integer is not JSON serializable
        for name in ("n", "circle_neighbors"):
            _check_integer(name, getattr(self, name))
            setattr(self, name, int(getattr(self, name)))
        if self.sphere_target_undirected is not None:
            _check_integer("sphere_target_undirected",
                           self.sphere_target_undirected)
            self.sphere_target_undirected = int(self.sphere_target_undirected)
        if self.topology == "grid":
            if self.grid_dims is None:
                raise ValueError("grid topology requires grid_dims")
            if len(self.grid_dims) != 3:
                raise ValueError(
                    f"grid_dims needs three entries, got {self.grid_dims!r}")
            for d in self.grid_dims:
                _check_integer("grid_dims entry", d)
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
        for name in ("radius", "grid_spacing", "comm_radius"):
            value = getattr(self, name)
            _check_number(name, value)
            if isinstance(value, (np.integer, np.floating)):
                setattr(self, name, value.item())  # JSON serializable
        scale = {"random": "comm_radius",
                 "grid": "grid_spacing"}.get(self.topology, "radius")
        if not 0 < getattr(self, scale) < np.inf:  # NaN fails too
            raise ValueError(f"{scale} must be finite and positive, "
                             f"got {getattr(self, scale)!r}")

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


def _pair_distances(positions: np.ndarray) -> tuple[np.ndarray, ...]:
    """Every vertex pair ``i < j``, ascending, and its distance, in one
    pass; ``sqrt(dot(d, d))`` is ``np.linalg.norm(d)`` bit for bit."""
    i, j = np.triu_indices(len(positions), 1)
    d = positions[i] - positions[j]
    return i, j, np.sqrt(so3.dot_rows(d, d))


def _grid_layout(spec: ScenarioSpec) -> tuple[np.ndarray, np.ndarray]:
    a, b, c = spec.grid_dims
    coords = np.indices(spec.grid_dims).reshape(3, -1).T  # x, y, z per id
    # each vertex to its next neighbor along z, y and x, so by ascending id
    step = coords[:, ::-1] < np.array([c, b, a]) - 1
    j = np.arange(spec.n)[:, None] + np.array([1, c, b * c])
    return (coords.astype(float) * spec.grid_spacing,
            np.stack((np.nonzero(step)[0], j[step]), axis=1))


def _circle_layout(spec: ScenarioSpec) -> tuple[np.ndarray, np.ndarray]:
    n = spec.n
    angles = 2.0 * np.pi * np.arange(n) / n
    positions = spec.radius * np.stack(
        [np.cos(angles), np.sin(angles), np.zeros(n)], axis=1)
    k = min(spec.circle_neighbors, n // 2)
    i = np.repeat(np.arange(n), k)
    j = (i + np.tile(np.arange(1, k + 1), n)) % n
    keys = np.unique(np.minimum(i, j) * n + np.maximum(i, j))
    return positions, np.stack(np.divmod(keys, n), axis=1)


def _sphere_layout(spec: ScenarioSpec) -> tuple[np.ndarray, np.ndarray]:
    n = spec.n
    z = 1.0 - 2.0 * (np.arange(n) + 0.5) / n
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = np.arange(n) * _GOLDEN_ANGLE
    positions = spec.radius * np.stack(
        [rho * np.cos(phi), rho * np.sin(phi), z], axis=1)
    i, j, d = _pair_distances(positions)
    # a closed ring along the spiral
    keep = (j == i + 1) | ((i == 0) & (j == n - 1))
    ring = int(keep.sum())
    complete = len(i)
    target = spec.sphere_target_undirected
    if target is None:
        target = min(int(round(5.44 * n)), complete)
    if not (ring <= target <= complete):
        raise ValueError(
            f"sphere edge target {target} outside [{ring}, {complete}]")
    # then the nearest other pairs, ties by ascending (i, j)
    other = np.flatnonzero(~keep)
    nearest = np.lexsort((j[other], i[other], d[other]))
    keep[other[nearest[:target - ring]]] = True
    return positions, np.stack((i[keep], j[keep]), axis=1)


def _random_layout(
    spec: ScenarioSpec, rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
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
    i, j, d = _pair_distances(positions)
    near = d <= r
    return positions, np.stack((i[near], j[near]), axis=1)


_LAYOUTS = {"grid": _grid_layout, "circle": _circle_layout,
            "sphere": _sphere_layout}


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
    if spec.topology == "random":
        positions, edges = _random_layout(spec, rng)
    else:
        positions, edges = _LAYOUTS[spec.topology](spec)
    poses = PoseStack(positions, np.array(
        [so3.random_rotation(rng) for _ in range(spec.n)]))
    return poses, build_graph(spec.n, exact_measurements(poses, edges))


def _relative(
    poses: PoseStack, src: np.ndarray, dst: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The pose of each ``dst[k]`` in the frame of ``src[k]``, stacked:
    ``R_src^T (t_dst - t_src)`` and ``R_src^T R_dst``."""
    # transposed views, as r[i].T is: a contiguous copy may round differently
    r_t = np.swapaxes(poses.r[src], -1, -2)
    t = (r_t @ (poses.t[dst] - poses.t[src])[..., None])[..., 0]
    return t, r_t @ poses.r[dst]


def exact_measurements(
    poses: Sequence[Pose], edges: Iterable[tuple[int, int]],
) -> MeasurementColumns:
    """Noise-free directed measurements, both directions of every edge.

    The edges come in ascending ``(i, j)`` order, each forward then
    back; a back rotation is the exact transpose of its forward one.
    """
    pairs = np.array(edges if isinstance(edges, np.ndarray) else list(edges),
                     dtype=np.intp).reshape(-1, 2)
    pairs = pairs[np.lexsort(pairs.T[::-1])]
    src, dst = pairs.ravel(), pairs[:, ::-1].ravel()
    t_rel, r_rel = _relative(as_stack(poses), src, dst)
    r_rel[1::2] = np.swapaxes(r_rel[::2], -1, -2)
    return MeasurementColumns(src, dst, t_rel, r_rel)


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
    e = topology.edge_arrays
    fwd = e.src < e.dst
    m = exact_measurements(poses, np.stack((e.src[fwd], e.dst[fwd]), axis=1))
    z = np.random.default_rng(noise.seed).standard_normal((len(m), 2, 3))
    return build_graph(topology.n, MeasurementColumns(
        m.src, m.dst, m.t_rel + noise.tau * z[:, 0],
        m.r_rel @ so3.exp_map(noise.kappa * z[:, 1])))


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
    """Compose measurements outward along the breadth-first tree from
    ``root`` (:meth:`PoseGraph.tree_from`; the graph's stored one for 0).

    The root is pinned to the identity, so on noise-free input this
    recovers ground truth up to the global frame choice. Each level of
    the tree is composed from the level above in one stacked step, each
    pose as ``compose(parent, measurement)`` alone.
    """
    order, parent, depth = g.tree_from(root)
    kids = np.array(order[1:], dtype=np.intp)
    ups = np.array(parent, dtype=np.intp)[kids]
    rows = g.edge_rows(ups, kids)
    e = g.edge_arrays
    t = np.zeros((g.n, 3))
    r = np.empty((g.n, 3, 3))
    r[root] = np.eye(3)
    # the tree lists the vertices level by level
    cuts = (np.flatnonzero(np.diff(np.array(depth)[kids])) + 1).tolist()
    for lo, hi in zip([0, *cuts], [*cuts, len(kids)]):
        k, up = kids[lo:hi], ups[lo:hi]
        t[k] = t[up] + (r[up] @ e.t_rel[rows[lo:hi]][..., None])[..., 0]
        r[k] = r[up] @ e.r_rel[rows[lo:hi]]
    return PoseStack(t, r)


def identity_init(n: int) -> PoseStack:
    """All poses at the identity."""
    return PoseStack(np.zeros((n, 3)), np.tile(np.eye(3), (n, 1, 1)))
