"""Scene loading and procedural synthesis.

A point cloud is an (n, 3) array of x y z. Scene directories keep it as
a float64 ``.npy`` file; clouds made elsewhere are read as plain ASCII,
one point per line with '#' comment lines ignored. Either may carry
three more columns, r g b, which are checked and dropped.
``load_point_cloud`` picks the format by suffix. Procedural scenes
stand in for a rendering engine at desk scale: a flat ground plane,
box-extruded building footprints, and cylindrical tree canopies, all
sampled as surface points on a fixed lattice so that results are
bit-identical for a fixed spec.
"""

from __future__ import annotations

import io
import math
import os
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import ConfigError, check_kind, load_json
from .geometry import polygons_overlap

SURFACE_SAMPLE_SPACING = 0.5  # meters; fine enough that 1 m voxels never miss a wall
MAX_POINTS = 4 * 10**7  # per synthesized cloud: ~1 GB of float64, a few times that to build
DEFAULT_CANOPY_RADIUS = 2.0  # meters, of a tree spec that gives none


class PointCloudParseError(ConfigError):
    """Malformed point cloud line; carries the 1-based line number."""

    def __init__(self, path: str | Path, line_number: int, message: str) -> None:
        super().__init__(f"{path}:{line_number}: {message}")
        self.line_number = line_number


@dataclass
class PointCloud:
    """Ordered point set with cached bounds."""

    points: np.ndarray  # (N, 3) float64

    def __post_init__(self) -> None:
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValueError(f"point cloud shape {self.points.shape}, expected (n, 3)")
        if len(self.points) and not np.isfinite(self.points).all():
            raise ValueError("point cloud contains non-finite coordinates")

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned (min_corner, max_corner); degenerate zeros when empty.
        Computed on first use: ``points`` must not change after construction."""
        if len(self.points) == 0:
            zero = np.zeros(3)
            return zero, zero.copy()
        cols = self.points.T  # per column: an axis-0 reduction of (n, 3) is several times slower
        return np.array([c.min() for c in cols]), np.array([c.max() for c in cols])


@dataclass(frozen=True)
class BuildingSpec:
    footprint: list[tuple[float, float]]  # simple polygon, meters
    height: float
    label: str


@dataclass(frozen=True)
class TreeSpec:
    position: tuple[float, float]
    canopy_height: float
    canopy_radius: float = DEFAULT_CANOPY_RADIUS


@dataclass(frozen=True, kw_only=True)
class SceneSpec:
    """A procedural scene. Construction, ``dataclasses.replace`` included,
    checks it and raises ConfigError; footprints may not overlap, so the
    landmark count is well-defined. ``dataclasses.asdict`` is its scene.json
    document, keys in field order."""

    scene_id: str = "scene"
    extent: tuple[float, float]  # ground size in meters (x, y), origin at (0, 0)
    buildings: list[BuildingSpec] = field(default_factory=list)
    trees: list[TreeSpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        ex, ey = self.extent
        if ex <= 0 or ey <= 0:
            raise ConfigError("ground extent must be positive")
        for b in self.buildings:
            if b.height <= 0:
                raise ConfigError(f"building {b.label!r} has non-positive height")
            if not b.label:
                raise ConfigError("building label must be nonempty")
            if len(b.footprint) < 3:
                raise ConfigError(f"building {b.label!r} footprint needs >= 3 vertices")
            for x, y in b.footprint:
                if not (0.0 <= x <= ex and 0.0 <= y <= ey):
                    raise ConfigError(
                        f"building {b.label!r} footprint leaves the ground extent"
                    )
        for i, a in enumerate(self.buildings):
            for b in self.buildings[i + 1:]:
                if polygons_overlap(a.footprint, b.footprint):
                    raise ConfigError(
                        f"building footprints overlap: {a.label!r} and {b.label!r}")
        for t in self.trees:
            x, y = t.position
            if not (0.0 <= x <= ex and 0.0 <= y <= ey):
                raise ConfigError(f"tree at {t.position} leaves the ground extent")
            if t.canopy_height <= 0:
                raise ConfigError("tree canopy height must be positive")
            if t.canopy_radius <= 0:
                raise ConfigError(f"tree at {t.position} has non-positive canopy radius "
                                  f"{t.canopy_radius}")


def load_point_cloud(path: str | Path) -> PointCloud:
    """Read a point cloud file: ``.npy`` as ``_read_npy`` checks it, any
    other suffix as ASCII. An empty ASCII file yields an empty cloud.

    An ASCII file with no '#' anywhere is parsed in one NumPy call; if that
    fails, or yields other than 3 or 6 columns or a non-finite value, the
    line loop parses the same bytes and raises PointCloudParseError with the
    line number. Files with '#' take the loop, with the same result. A file
    that is not UTF-8 raises PointCloudParseError at the line of its first
    bad byte.
    """
    path = Path(path)
    if path.suffix == ".npy":
        return PointCloud(points=_read_npy(path)[:, :3])
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]  # lines end as the loop's: \n, \r\n or \r
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise PointCloudParseError(path, line, f"not UTF-8 text: {exc.reason}") from None

    def text() -> io.TextIOWrapper:  # what path.open("r") reads, without a second read
        return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")

    if b"#" not in data:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", UserWarning)  # "input contained no data"
                a = np.loadtxt(text(), dtype=np.float64, comments=None, ndmin=2)
        except (ValueError, UserWarning):
            a = None
        if a is not None and a.shape[1] in (3, 6) and np.isfinite(a).all():
            return PointCloud(points=a[:, :3])
    pts: list[tuple[float, float, float]] = []
    width = 0
    with text() as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) not in (3, 6):
                raise PointCloudParseError(
                    path, lineno, f"expected 3 or 6 fields, got {len(fields)}"
                )
            width = width or len(fields)  # the first data line's
            if len(fields) != width:
                raise PointCloudParseError(path, lineno, "mixed colored and uncolored points")
            try:
                values = [float(f) for f in fields]
            except ValueError as exc:
                raise PointCloudParseError(path, lineno, str(exc)) from None
            if not all(math.isfinite(v) for v in values):
                raise PointCloudParseError(path, lineno, "non-finite value")
            pts.append((values[0], values[1], values[2]))
    return PointCloud(points=np.array(pts, dtype=np.float64).reshape(-1, 3))


def _read_npy(path: Path) -> np.ndarray:
    """The (n, 3) or (n, 6) float64 array in the ``.npy`` file ``path``.

    Nothing is unpickled, and the header's shape is checked against the
    file size before the payload is allocated. Every other file, an
    ``.npz`` archive, another dtype or shape, a size the header does not
    claim, or a non-finite value included, is one ConfigError naming it.
    """
    fmt = np.lib.format
    with path.open("rb") as fh:
        try:
            version = fmt.read_magic(fh)
            if version not in ((1, 0), (2, 0)):
                raise ValueError(f"unsupported .npy version {version}")
            shape, fortran_order, dtype = (fmt.read_array_header_1_0(fh) if version == (1, 0)
                                           else fmt.read_array_header_2_0(fh))
        except ValueError as exc:
            raise ConfigError(f"{path}: not a .npy array: {exc}") from None
        if dtype.kind != "f" or dtype.itemsize != 8:
            raise ConfigError(f"{path}: dtype {dtype.str}, expected float64")
        if len(shape) != 2 or shape[1] not in (3, 6):
            raise ConfigError(f"{path}: shape {shape}, expected (n, 3) or (n, 6)")
        count = shape[0] * shape[1]
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != 8 * count:
            raise ConfigError(f"{path}: shape {shape} needs {8 * count} bytes of data, "
                              f"the file holds {size}")
        a = np.fromfile(fh, dtype, count).reshape(shape, order="F" if fortran_order else "C")
    if not np.isfinite(a).all():  # one flat pass; the per-row one only names the row
        row = int(np.argmin(np.isfinite(a).all(axis=1)))
        raise ConfigError(f"{path}: row {row}: non-finite value")
    return a


def load_scene_spec(path: str | Path) -> SceneSpec:
    return load_json(path, "an object", scene_spec_from_dict)


def scene_spec_from_dict(doc: dict) -> SceneSpec:
    """The spec of a scene.json document; keys it does not read, such as
    the ``seed`` older files carry, are ignored."""
    return SceneSpec(
        extent=tuple(check_kind("extent", doc["extent"], "two finite numbers")),
        buildings=[
            BuildingSpec(
                footprint=[tuple(check_kind("footprint vertex", v, "two finite numbers"))
                           for v in b["footprint"]],
                height=float(check_kind("building height", b["height"], "a number")),
                label=check_kind("building label", b["label"], "a string"),
            )
            for b in doc.get("buildings", [])
        ],
        trees=[
            TreeSpec(
                position=tuple(check_kind("tree position", t["position"],
                                          "two finite numbers")),
                canopy_height=float(check_kind("tree canopy_height", t["canopy_height"],
                                               "a number")),
                canopy_radius=float(check_kind(
                    "tree canopy_radius", t.get("canopy_radius", DEFAULT_CANOPY_RADIUS),
                    "a number")),
            )
            for t in doc.get("trees", [])
        ],
        scene_id=check_kind("scene_id", doc.get("scene_id", "scene"), "a string"),
    )


def _linspace_count(length: float, spacing: float) -> int:
    return max(2, int(math.ceil(length / spacing)) + 1)


def _point_bound(spec: SceneSpec, spacing: float) -> float:
    """An upper bound on the points ``synthesize_scene`` samples: each
    ``arange`` and ``_linspace_count`` below takes at most
    ``length / spacing + 2`` samples, and a ring at least 8."""
    def count(length: float) -> float:
        return length / spacing + 2

    total = count(spec.extent[0]) * count(spec.extent[1])
    for b in spec.buildings:
        xs, ys = zip(*b.footprint)
        ring = b.footprint[1:] + b.footprint[:1]
        total += (count(b.height) * sum(count(math.dist(u, v)) for u, v in zip(b.footprint, ring))
                  + count(max(xs) - min(xs)) * count(max(ys) - min(ys)))
    for t in spec.trees:
        total += count(t.canopy_height) * (count(2 * math.pi * t.canopy_radius) + 8) + 1
    return total


def _sample_edge(a: tuple[float, float], b: tuple[float, float], spacing: float) -> np.ndarray:
    n = _linspace_count(math.dist(a, b), spacing)
    t = np.linspace(0.0, 1.0, n)
    return np.stack([a[0] + (b[0] - a[0]) * t, a[1] + (b[1] - a[1]) * t], axis=1)


def _sample_polygon_interior(
    footprint: list[tuple[float, float]], spacing: float
) -> np.ndarray:
    xs = [v[0] for v in footprint]
    ys = [v[1] for v in footprint]
    gx = np.arange(min(xs), max(xs) + spacing / 2, spacing)
    gy = np.arange(min(ys), max(ys) + spacing / 2, spacing)
    x, y = np.meshgrid(gx, gy, indexing="ij")
    inside = np.zeros(x.shape, dtype=bool)
    # geometry.point_in_polygon over the whole lattice: the same float
    # operations per edge, so the same verdict on every point, edges included.
    for (x0, y0), (x1, y1) in zip(footprint, footprint[1:] + footprint[:1]):
        if y0 != y1:  # a horizontal edge crosses no ray
            t = (y - y0) / (y1 - y0)
            inside ^= ((y0 > y) != (y1 > y)) & (x < x0 + t * (x1 - x0))
    return np.stack([x[inside], y[inside]], axis=1)  # x-major, as the lattice loops


def synthesize_scene(spec: SceneSpec) -> PointCloud:
    """Surface-sample a procedural scene into a point cloud.

    Buildings become wall + roof points at <= SURFACE_SAMPLE_SPACING
    spacing. Only the cloud is returned: the spec's buildings (footprint,
    height, label) are the landmark ground truth. A spec that may sample
    more than ``MAX_POINTS`` points is a ConfigError.
    """
    spacing = SURFACE_SAMPLE_SPACING
    bound = _point_bound(spec, spacing)
    if not bound <= MAX_POINTS:  # counted in floats, before any allocation
        raise ConfigError(f"scene {spec.scene_id!r} samples up to {bound:.3g} points, "
                          f"more than MAX_POINTS ({MAX_POINTS:.0e})")
    chunks: list[np.ndarray] = []

    ex, ey = spec.extent
    gx = np.arange(0.0, ex + spacing / 2, spacing)
    gy = np.arange(0.0, ey + spacing / 2, spacing)
    ground = np.zeros((len(gx) * len(gy), 3))
    mesh = np.meshgrid(gx, gy, indexing="ij")
    ground[:, 0] = mesh[0].ravel()
    ground[:, 1] = mesh[1].ravel()
    chunks.append(ground)

    for b in spec.buildings:
        zs = np.linspace(0.0, b.height, _linspace_count(b.height, spacing))
        n = len(b.footprint)
        for i in range(n):
            edge = _sample_edge(b.footprint[i], b.footprint[(i + 1) % n], spacing)
            wall = np.zeros((len(edge) * len(zs), 3))
            wall[:, :2] = np.repeat(edge, len(zs), axis=0)
            wall[:, 2] = np.tile(zs, len(edge))
            chunks.append(wall)
        roof_xy = _sample_polygon_interior(b.footprint, spacing)
        if len(roof_xy):
            roof = np.zeros((len(roof_xy), 3))
            roof[:, :2] = roof_xy
            roof[:, 2] = b.height
            chunks.append(roof)

    for t in spec.trees:
        # Canopy as a cylinder shell from half height to full height plus a cap.
        zs = np.linspace(t.canopy_height * 0.5, t.canopy_height,
                         _linspace_count(t.canopy_height * 0.5, spacing))
        n_ring = max(8, int(math.ceil(2 * math.pi * t.canopy_radius / spacing)))
        angles = np.linspace(0.0, 2 * math.pi, n_ring, endpoint=False)
        ring = np.stack(
            [t.position[0] + t.canopy_radius * np.cos(angles),
             t.position[1] + t.canopy_radius * np.sin(angles)], axis=1)
        shell = np.zeros((len(ring) * len(zs), 3))
        shell[:, :2] = np.repeat(ring, len(zs), axis=0)
        shell[:, 2] = np.tile(zs, len(ring))
        cap = np.array([[t.position[0], t.position[1], t.canopy_height]])
        chunks.append(shell)
        chunks.append(cap)

    points = np.concatenate(chunks, axis=0) if chunks else np.zeros((0, 3))
    return PointCloud(points=points)
