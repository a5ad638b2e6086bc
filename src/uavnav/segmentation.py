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
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import ConfigError, UavnavError
from .occupancy import BevGrid
from .vlm import VlmClient, VlmReplyError

DEFAULT_MIN_AREA = 20.0  # m^2; suppresses poles and sampling noise

CAPTION_PROMPT = (
    "You are an image recognition assistant. Identify the most prominent "
    "landmark visible in the referenced views and describe what sets it "
    "apart from its surroundings. Reply with a dictionary of the form "
    "color: --, feature: --, size: --, type: --."
)

_CAPTION_FIELDS = ("color", "feature", "size", "type")
_CAPTION_KEY_RE = re.compile(r"\b(color|feature|size|type)\b\s*[:=]", re.IGNORECASE)


class CaptionError(UavnavError, RuntimeError):
    """Caption reply failed to parse after all retries; keeps the raw reply."""

    def __init__(self, message: str, raw_reply: str) -> None:
        super().__init__(message)
        self.raw_reply = raw_reply


@dataclass(frozen=True)
class Caption:
    color: str
    feature: str
    size: str
    type: str

    def as_dict(self) -> dict[str, str]:
        return {"color": self.color, "feature": self.feature,
                "size": self.size, "type": self.type}


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

    def closed_contour(self) -> list[tuple[float, float]]:
        return self.contour + [self.contour[0]]


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
    if min_area < 0:
        raise ValueError("min_area must be non-negative")
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
    last_reply = ""
    for _ in range(max(1, vlm.max_retries + 1)):
        reply = vlm.complete(CAPTION_PROMPT, payload)
        last_reply = reply
        try:
            return replace(inst, caption=parse_caption(reply))
        except VlmReplyError:
            continue
    raise CaptionError("caption reply never parsed", last_reply)


def instances_to_json(instances: list[LandmarkInstance]) -> str:
    docs = []
    for inst in instances:
        docs.append({
            "id": inst.id,
            "contour": [[x, y] for x, y in inst.contour],
            "centroid": list(inst.centroid),
            "height": inst.height,
            "area": inst.area,
            "cells": [[i, j] for i, j in inst.cells],
            "caption": inst.caption.as_dict() if inst.caption else None,
        })
    return json.dumps(docs, indent=1)


def _cell(doc) -> tuple[int, int]:
    if not (isinstance(doc, list) and len(doc) == 2 and all(type(v) is int for v in doc)):
        raise ValueError(f"cell must be two integers, got {doc!r}")
    return doc[0], doc[1]


def instances_from_json(text: str) -> list[LandmarkInstance]:
    """Landmarks from a landmarks.json document; a cell that is not two
    integers is a ValueError."""
    docs = json.loads(text)
    out = []
    for doc in docs:
        caption = Caption(**doc["caption"]) if doc.get("caption") else None
        out.append(LandmarkInstance(
            id=int(doc["id"]),
            contour=[tuple(v) for v in doc["contour"]],
            centroid=tuple(doc["centroid"]),
            height=float(doc["height"]),
            area=float(doc["area"]),
            cells=[_cell(c) for c in doc.get("cells", [])],
            caption=caption,
        ))
    return out


def load_instances(path: str | Path) -> list[LandmarkInstance]:
    """Read a landmarks.json file; a malformed one is a ConfigError."""
    try:
        return instances_from_json(Path(path).read_text(encoding="utf-8"))
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{path}: bad landmark entry ({exc!r})") from exc


def save_instances(instances: list[LandmarkInstance], path: str | Path) -> None:
    Path(path).write_text(instances_to_json(instances), encoding="utf-8")
