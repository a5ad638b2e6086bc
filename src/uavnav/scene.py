"""Scene loading and procedural synthesis.

Point clouds are stored as plain ASCII, one point per line: "x y z"
or "x y z r g b" with '#' comment lines ignored. Procedural scenes
stand in for a rendering engine at desk scale: a flat ground plane,
box-extruded building footprints, and cylindrical tree canopies, all
sampled as surface points on a fixed lattice so that results are
bit-identical for a fixed spec.
"""

from __future__ import annotations

import io
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import ConfigError
from .geometry import point_in_polygon, polygon_centroid, polygons_overlap

SURFACE_SAMPLE_SPACING = 0.5  # meters; fine enough that 1 m voxels never miss a wall


class PointCloudParseError(ConfigError):
    """Malformed point cloud line; carries the 1-based line number."""

    def __init__(self, path: str | Path, line_number: int, message: str) -> None:
        super().__init__(f"{path}:{line_number}: {message}")
        self.line_number = line_number


class SceneSpecError(ConfigError):
    pass


@dataclass
class PointCloud:
    """Ordered point set with optional per-point color and cached bounds."""

    points: np.ndarray  # (N, 3) float64
    colors: np.ndarray | None = None  # (N, 3) float64 in [0, 1]

    def __post_init__(self) -> None:
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        if self.colors is not None:
            self.colors = np.asarray(self.colors, dtype=np.float64).reshape(-1, 3)
            if len(self.colors) != len(self.points):
                raise ValueError("color count does not match point count")
        if len(self.points) and not np.isfinite(self.points).all():
            raise ValueError("point cloud contains non-finite coordinates")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned (min_corner, max_corner); degenerate zeros when empty."""
        if len(self.points) == 0:
            zero = np.zeros(3)
            return zero, zero.copy()
        return self.points.min(axis=0), self.points.max(axis=0)


@dataclass(frozen=True)
class BuildingSpec:
    footprint: list[tuple[float, float]]  # simple polygon, meters
    height: float
    label: str


@dataclass(frozen=True)
class TreeSpec:
    position: tuple[float, float]
    canopy_height: float
    canopy_radius: float = 2.0


@dataclass(frozen=True)
class SceneSpec:
    """A procedural scene. Construction, ``dataclasses.replace`` included,
    checks it and raises SceneSpecError; footprints may not overlap, so the
    landmark count is well-defined."""

    extent: tuple[float, float]  # ground size in meters (x, y), origin at (0, 0)
    buildings: list[BuildingSpec] = field(default_factory=list)
    trees: list[TreeSpec] = field(default_factory=list)
    seed: int = 0
    scene_id: str = "scene"

    def __post_init__(self) -> None:
        ex, ey = self.extent
        if ex <= 0 or ey <= 0:
            raise SceneSpecError("ground extent must be positive")
        for b in self.buildings:
            if b.height <= 0:
                raise SceneSpecError(f"building {b.label!r} has non-positive height")
            if not b.label:
                raise SceneSpecError("building label must be nonempty")
            if len(b.footprint) < 3:
                raise SceneSpecError(f"building {b.label!r} footprint needs >= 3 vertices")
            for x, y in b.footprint:
                if not (0.0 <= x <= ex and 0.0 <= y <= ey):
                    raise SceneSpecError(
                        f"building {b.label!r} footprint leaves the ground extent"
                    )
        for i, a in enumerate(self.buildings):
            for b in self.buildings[i + 1:]:
                if polygons_overlap(a.footprint, b.footprint):
                    raise SceneSpecError(
                        f"building footprints overlap: {a.label!r} and {b.label!r}")
        for t in self.trees:
            if t.canopy_height <= 0:
                raise SceneSpecError("tree canopy height must be positive")


def load_point_cloud(path: str | Path) -> PointCloud:
    """Parse an ASCII point cloud file. An empty file yields an empty cloud.

    A file with no '#' anywhere is parsed in one NumPy call; if that fails,
    or yields other than 3 or 6 columns or a non-finite value, the line loop
    parses the same bytes and raises PointCloudParseError with the line
    number. Files with '#' take the loop, with the same result. A file that
    is not UTF-8 raises PointCloudParseError at the line of its first bad byte.
    """
    path = Path(path)
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
            return PointCloud(points=a[:, :3], colors=a[:, 3:] if a.shape[1] == 6 else None)
    pts: list[tuple[float, float, float]] = []
    colors: list[tuple[float, float, float]] = []
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
            if len(values) == 6:
                colors.append((values[3], values[4], values[5]))
    return PointCloud(
        points=np.array(pts, dtype=np.float64).reshape(-1, 3),
        colors=np.array(colors, dtype=np.float64).reshape(-1, 3) if colors else None,
    )


def save_point_cloud(cloud: PointCloud, path: str | Path) -> None:
    """Write the ASCII format; floats use repr so a reload is exact."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for i, p in enumerate(cloud.points):
            line = f"{float(p[0])!r} {float(p[1])!r} {float(p[2])!r}"
            if cloud.colors is not None:
                c = cloud.colors[i]
                line += f" {float(c[0])!r} {float(c[1])!r} {float(c[2])!r}"
            fh.write(line + "\n")


def load_scene_spec(path: str | Path) -> SceneSpec:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise SceneSpecError(f"{path}: {exc}") from exc
    return scene_spec_from_dict(doc)


def scene_spec_from_dict(doc: dict) -> SceneSpec:
    try:
        return SceneSpec(
            extent=tuple(doc["extent"]),
            buildings=[
                BuildingSpec(
                    footprint=[tuple(v) for v in b["footprint"]],
                    height=float(b["height"]),
                    label=str(b["label"]),
                )
                for b in doc.get("buildings", [])
            ],
            trees=[
                TreeSpec(
                    position=tuple(t["position"]),
                    canopy_height=float(t["canopy_height"]),
                    canopy_radius=float(t.get("canopy_radius", 2.0)),
                )
                for t in doc.get("trees", [])
            ],
            seed=int(doc.get("seed", 0)),
            scene_id=str(doc.get("scene_id", "scene")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SceneSpecError(f"bad scene spec: {exc}") from exc


def scene_spec_to_dict(spec: SceneSpec) -> dict:
    return {
        "scene_id": spec.scene_id,
        "extent": list(spec.extent),
        "buildings": [
            {"footprint": [list(v) for v in b.footprint], "height": b.height, "label": b.label}
            for b in spec.buildings
        ],
        "trees": [
            {
                "position": list(t.position),
                "canopy_height": t.canopy_height,
                "canopy_radius": t.canopy_radius,
            }
            for t in spec.trees
        ],
        "seed": spec.seed,
    }


@dataclass(frozen=True)
class GroundTruthLandmark:
    """Exact footprint, height and label copied from the scene spec."""

    id: int
    footprint: list[tuple[float, float]]
    centroid: tuple[float, float]
    height: float
    label: str


def _linspace_count(length: float, spacing: float) -> int:
    return max(2, int(math.ceil(length / spacing)) + 1)


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
    pts = [(x, y) for x in gx for y in gy if point_in_polygon((x, y), footprint)]
    return np.array(pts, dtype=np.float64).reshape(-1, 2)


def synthesize_scene(spec: SceneSpec) -> tuple[PointCloud, list[GroundTruthLandmark]]:
    """Surface-sample a procedural scene.

    Buildings become wall + roof points at <= SURFACE_SAMPLE_SPACING
    spacing; each building also yields a ground-truth landmark with the
    exact footprint, height, and label from the spec.
    """
    spacing = SURFACE_SAMPLE_SPACING
    chunks: list[np.ndarray] = []

    ex, ey = spec.extent
    gx = np.arange(0.0, ex + spacing / 2, spacing)
    gy = np.arange(0.0, ey + spacing / 2, spacing)
    ground = np.zeros((len(gx) * len(gy), 3))
    mesh = np.meshgrid(gx, gy, indexing="ij")
    ground[:, 0] = mesh[0].ravel()
    ground[:, 1] = mesh[1].ravel()
    chunks.append(ground)

    landmarks: list[GroundTruthLandmark] = []
    for idx, b in enumerate(spec.buildings):
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
        landmarks.append(
            GroundTruthLandmark(
                id=idx,
                footprint=list(b.footprint),
                centroid=polygon_centroid(b.footprint),
                height=b.height,
                label=b.label,
            )
        )

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
    return PointCloud(points=points), landmarks
