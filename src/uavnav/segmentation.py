"""Landmark extraction from BEV occupancy and semantic captioning.

Instances are 4-connected components of occupied BEV cells; their
outlines come from Moore (8-neighborhood) boundary tracing, the
standard pairing that avoids degenerate contours. Captions are fetched
through the chat-completion client and parsed from the loose
"color: --, feature: --, size: --, type: --" reply format.
"""

from __future__ import annotations

import json
import re
from collections import deque
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import check_kind, check_kinds, load_json, save_json
from .occupancy import BevGrid
from .vlm import MAX_RETRIES, VlmClient, VlmReplyError

DEFAULT_MIN_AREA = 20.0  # m^2; suppresses poles and sampling noise

CAPTION_PROMPT = (
    "You are an image recognition assistant. Identify the most prominent "
    "landmark visible in the referenced views and describe what sets it "
    "apart from its surroundings. Reply with a dictionary of the form "
    "color: --, feature: --, size: --, type: --."
)

_CAPTION_FIELDS = ("color", "feature", "size", "type")
_CAPTION_KEY_RE = re.compile(r"\b(color|feature|size|type)\b\s*[:=]", re.IGNORECASE)


@dataclass(frozen=True)
class Caption:
    color: str
    feature: str
    size: str
    type: str

    def __post_init__(self) -> None:
        check_kinds(self, "caption ", {"a string": _CAPTION_FIELDS})


@dataclass(frozen=True)
class LandmarkInstance:
    """A segmented structure: footprint outline, height, and optional caption."""

    id: int
    contour: list[tuple[float, float]]  # boundary cycle in meters, first != last
    centroid: tuple[float, float]
    height: float  # absolute z of the column top
    area: float
    cells: list[tuple[int, int]]  # BEV cells of the component
    caption: Caption | None = None


# Moore neighborhood ring, clockwise: W, NW, N, NE, E, SE, S, SW.
_RING = ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1))


def _moore_trace(cells: set[tuple[int, int]]) -> list[tuple[int, int]]:
    """Boundary cell cycle of a 4-connected component.

    Classic Moore-neighbor tracing from the lexicographically smallest
    cell, sweeping clockwise from the backtrack cell. The walk stops when
    a (cell, backtrack) state repeats, which always happens within one
    full boundary period.
    """
    start = min(cells)
    state = (start, 6)  # cell (i, j-1) is outside for the minimum cell
    seen: set[tuple[tuple[int, int], int]] = set()
    contour: list[tuple[int, int]] = []
    while state not in seen:
        seen.add(state)
        p, b = state
        contour.append(p)
        for t in range(1, 9):
            d = (b + t) % 8
            q = (p[0] + _RING[d][0], p[1] + _RING[d][1])
            if q in cells:
                break
        else:
            return contour  # isolated cell
        state = (q, (d + 4) % 8)
    while len(contour) > 1 and contour[-1] == contour[0]:
        contour.pop()
    return contour


def _component_cells(occupancy: np.ndarray) -> list[list[tuple[int, int]]]:
    """4-connected components of a boolean grid, in deterministic scan order."""
    nx, ny = occupancy.shape
    seen = np.zeros_like(occupancy, dtype=bool)
    components: list[list[tuple[int, int]]] = []
    for i in range(nx):
        for j in range(ny):
            if not occupancy[i, j] or seen[i, j]:
                continue
            queue = deque([(i, j)])
            seen[i, j] = True
            comp = []
            while queue:
                ci, cj = queue.popleft()
                comp.append((ci, cj))
                for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    ni, nj = ci + di, cj + dj
                    if 0 <= ni < nx and 0 <= nj < ny and occupancy[ni, nj] and not seen[ni, nj]:
                        seen[ni, nj] = True
                        queue.append((ni, nj))
            components.append(comp)
    return components


def extract_instances(bev: BevGrid, min_area: float = DEFAULT_MIN_AREA) -> list[LandmarkInstance]:
    """One instance per 4-connected occupied component with area >= min_area."""
    check_kind("min_area", min_area, "a number >= 0")
    cell_area = bev.cell_size * bev.cell_size
    instances: list[LandmarkInstance] = []
    for comp in _component_cells(bev.occupancy):
        area = len(comp) * cell_area
        if area < min_area:
            continue
        cell_set = set(comp)
        trace = _moore_trace(cell_set)
        ox, oy = float(bev.origin[0]), float(bev.origin[1])
        if len(set(trace)) >= 3:
            contour = [
                (ox + (i + 0.5) * bev.cell_size, oy + (j + 0.5) * bev.cell_size)
                for i, j in trace
            ]
        else:
            # Too few boundary cells for a polygon; use the bounding rectangle.
            i0 = min(i for i, _ in comp)
            i1 = max(i for i, _ in comp) + 1
            j0 = min(j for _, j in comp)
            j1 = max(j for _, j in comp) + 1
            contour = [(ox + i0 * bev.cell_size, oy + j0 * bev.cell_size),
                       (ox + i1 * bev.cell_size, oy + j0 * bev.cell_size),
                       (ox + i1 * bev.cell_size, oy + j1 * bev.cell_size),
                       (ox + i0 * bev.cell_size, oy + j1 * bev.cell_size)]
        cx = ox + (sum(i for i, _ in comp) / len(comp) + 0.5) * bev.cell_size
        cy = oy + (sum(j for _, j in comp) / len(comp) + 0.5) * bev.cell_size
        height = bev.base_z + max(float(bev.max_height[c]) for c in comp)
        instances.append(
            LandmarkInstance(
                id=len(instances), contour=contour, centroid=(cx, cy),
                height=height, area=area, cells=sorted(cell_set),
            )
        )
    return instances


def parse_caption(reply: str) -> Caption:
    """Parse either JSON or the loose comma-separated caption reply format."""
    try:
        doc = json.loads(reply)
        if isinstance(doc, dict):
            lowered = {str(k).lower(): str(v).strip() for k, v in doc.items()}
            if all(f in lowered for f in _CAPTION_FIELDS):
                return Caption(**{f: lowered[f] for f in _CAPTION_FIELDS})
    except ValueError:
        pass
    matches = list(_CAPTION_KEY_RE.finditer(reply))
    fields: dict[str, str] = {}
    for pos, match in enumerate(matches):
        key = match.group(1).lower()
        end = matches[pos + 1].start() if pos + 1 < len(matches) else len(reply)
        value = reply[match.end():end].strip().strip("{}\"'").strip(" ,.;").strip()
        if key not in fields:  # first occurrence wins
            fields[key] = value
    missing = [f for f in _CAPTION_FIELDS if f not in fields or not fields[f]]
    if missing:
        raise VlmReplyError(f"caption reply missing fields {missing}", reply)
    return Caption(**{f: fields[f] for f in _CAPTION_FIELDS})


def caption_instance(
    inst: LandmarkInstance,
    view_refs: list[str],
    vlm: VlmClient,
    hint_label: str | None = None,
) -> LandmarkInstance:
    """Return a copy of the instance with its caption filled in.

    ``hint_label`` carries scene ground truth to the deterministic mock;
    live endpoints are free to ignore it.
    """
    payload = {
        "task": "caption",
        "image_refs": list(view_refs),
        "hint": {"label": hint_label, "area_m2": inst.area},
    }
    for _ in range(MAX_RETRIES + 1):
        reply = vlm.complete(CAPTION_PROMPT, payload)
        try:
            return replace(inst, caption=parse_caption(reply))
        except VlmReplyError:
            continue
    raise VlmReplyError("caption reply never parsed", reply)


def instances_from_json(docs: list[dict]) -> list[LandmarkInstance]:
    """Landmarks from a parsed landmarks.json document; a value of the wrong
    kind (see ``check_kind``) is a ValueError naming the field."""
    out = []
    for doc in docs:
        caption = doc.get("caption")
        if caption is not None:
            caption = Caption(**check_kind("caption", caption, "an object"))
        out.append(LandmarkInstance(
            id=check_kind("id", doc["id"], "an integer"),
            contour=[tuple(check_kind("contour vertex", v, "two finite numbers"))
                     for v in doc["contour"]],
            centroid=tuple(check_kind("centroid", doc["centroid"], "two finite numbers")),
            height=float(check_kind("height", doc["height"], "a number")),
            area=float(check_kind("area", doc["area"], "a number")),
            cells=[tuple(check_kind("cell", c, "two integers")) for c in doc.get("cells", [])],
            caption=caption,
        ))
    return out


def load_instances(path: str | Path) -> list[LandmarkInstance]:
    """Read a landmarks.json file; a malformed one is a ConfigError."""
    return load_json(path, "a list of objects", instances_from_json)


def save_instances(instances: list[LandmarkInstance], path: str | Path) -> None:
    save_json(path, [asdict(inst) for inst in instances])
