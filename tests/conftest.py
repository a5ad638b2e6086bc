from __future__ import annotations

import numpy as np
import pytest

from uavnav import pipeline as pl
from uavnav import trajgen as tg
from uavnav.occupancy import VoxelGrid


def desk_trajgen_config(**overrides) -> tg.TrajGenConfig:
    """Trajectory config scaled to the 240 m demo scene."""
    base = dict(height_range=(15.0, 40.0), min_landmark_height=20.0,
                start_distance_range=(40.0, 90.0))
    base.update(overrides)
    return tg.TrajGenConfig(**base)


@pytest.fixture(scope="session")
def desk_cfg() -> pl.PipelineConfig:
    return pl.PipelineConfig(seed=42, workers=4, trajgen=desk_trajgen_config())


@pytest.fixture(scope="session")
def demo_bundle(desk_cfg) -> pl.SceneBundle:
    return pl.build_scene_bundle(pl.demo_scene_spec(), desk_cfg)


@pytest.fixture(scope="session")
def small_batch(demo_bundle, desk_cfg, tmp_path_factory):
    """60 generated episodes shared by module-level tests."""
    out = tmp_path_factory.mktemp("episodes") / "small.jsonl"
    report = pl.run_generate(demo_bundle, desk_cfg, 60, out)
    assert report.ok, report.to_dict()
    from uavnav.dataset import read_episodes

    return read_episodes(out)


def empty_grid(dims=(60, 60, 30), voxel_size=1.0) -> VoxelGrid:
    return VoxelGrid(origin=np.zeros(3), voxel_size=voxel_size, dims=dims,
                     occupancy=np.zeros(dims, dtype=bool))


def floating_plates_grid(rng: np.random.Generator, dims=(40, 40, 30),
                         n_plates: int = 10) -> VoxelGrid:
    """Random one-voxel-thick horizontal plates, free above and below."""
    occ = np.zeros(dims, dtype=bool)
    for _ in range(n_plates):
        w, d = (int(v) for v in rng.integers(6, 20, size=2))
        i, j = int(rng.integers(0, dims[0] - w)), int(rng.integers(0, dims[1] - d))
        occ[i:i + w, j:j + d, int(rng.integers(2, dims[2] - 2))] = True
    return VoxelGrid(origin=np.zeros(3), voxel_size=1.0, dims=dims, occupancy=occ)


def random_obstacle_grid(rng: np.random.Generator, dims=(100, 100, 30),
                         n_boxes: int = 14) -> VoxelGrid:
    """Random axis-aligned box obstacles in an otherwise free grid."""
    occ = np.zeros(dims, dtype=bool)
    for _ in range(n_boxes):
        w = int(rng.integers(4, 14))
        d = int(rng.integers(4, 14))
        h = int(rng.integers(6, dims[2] - 2))
        i = int(rng.integers(0, dims[0] - w))
        j = int(rng.integers(0, dims[1] - d))
        occ[i:i + w, j:j + d, 0:h] = True
    return VoxelGrid(origin=np.zeros(3), voxel_size=1.0, dims=dims, occupancy=occ)
