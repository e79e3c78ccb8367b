"""Benchmark workloads: what each one runs and why, and the room generator.

Each workload is one CLI invocation, built from the workload seed alone:

* ``desk-validate``: the shipped desk scenario (S=4, K=17, N=13) in the
  CLI's default validate mode with a reduced run count. EKF linearisation
  (``fim.global_jacobian``, ``geometry.path_geometry``) dominates.
* ``room8-bounds``: a generated regular octagon (S=8, K=65, N=21) with every
  component visible, bounds mode only. Nearly all time is in
  ``scenario.snapshot_fim``; the ekf and streams layers do no work here, so a
  change to them must read as neutral on this workload.
* ``sparse8-validate``: the same octagon with only the line-of-sight path and
  the single bounces visible (9 of 65 components per anchor), one anchor
  blanked for a block of steps and every anchor blanked for a few steps, in
  validate mode. About 11% of component slots are visible, so channel code
  that evaluates all K components regardless of visibility shows its cost
  here, the dense N=21 EKF algebra weighs more, and steps without any
  measurement are covered.

The seed picks the Monte-Carlo seed and, for the octagon, the room size,
rotation and offset, the anchor poses, the agent's straight path and where
the blanked blocks fall. The amount of work per call does not depend on the
seed: component counts, step counts and blank lengths are fixed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

import yaml

NUM_WALLS = 8
N_STEPS = 30
TIME_STEP = 0.1
DESK_MC_RUNS = 2
SPARSE_MC_RUNS = 8
ANCHOR_BLANK_STEPS = 8  # one anchor sees nothing for this many steps ...
ALL_BLANK_STEPS = 3  # ... and every anchor for this many (disjoint) steps

WALL_MARGIN = 0.3  # m: anchors and agent keep this far inside every wall line
ANCHOR_CLEARANCE = 0.5  # m: the agent passes no anchor closer than this
_ATTEMPTS = 1000

# Scenario sections shared with scenarios/desk.yaml, so the octagon runs at the
# desk's signal-to-noise ratio and the EKF stays in its linear regime.
_ISOTROPIC = {"kind": "isotropic", "d_squared": 0.005}
_COMMON = {
    "signal": {"carrier_freq": 6.0e9, "rms_bandwidth": 2.0e8},
    "model": {
        "time_step": TIME_STEP,
        "accel_noise_var": 1.0e-6,
        "orient_noise_var": 1.0e-12,
        "surface_noise_var": 0.0,
    },
    "amplitude_model": {"reference_amplitude": 30.0, "bounce_loss": 0.65},
    "prior": {
        "position_var": 2.5e-3,
        "velocity_var": 0.01,
        "orientation_var": 1.9e-3,
        "surface_var": 0.04,
    },
}


# Workload name -> CLI mode. BENCHMARK.json records why each one exists.
WORKLOADS = {
    "desk-validate": "validate",
    "room8-bounds": "bounds",
    "sparse8-validate": "validate",
}


class GeometryError(ValueError):
    """Generated geometry puts an anchor or the agent on or outside a wall line."""


@dataclass(frozen=True)
class Room:
    """Regular polygon room: walls as (outward unit normal, offset) lines n.x = h."""

    normals: tuple[tuple[float, float], ...]
    offsets: tuple[float, ...]
    anchors: tuple[tuple[float, float], ...]
    anchor_orientations: tuple[float, ...]
    start: tuple[float, float]
    end: tuple[float, float]

    def surface_points(self) -> list[list[float]]:
        """Mirror image of the origin about each wall: 2 h n."""
        return [[2 * h * nx, 2 * h * ny] for (nx, ny), h in zip(self.normals, self.offsets)]

    def path_points(self) -> list[tuple[float, float]]:
        """Agent positions at steps 0..N_STEPS along the straight path."""
        (x0, y0), (x1, y1) = self.start, self.end
        return [
            (x0 + (x1 - x0) * n / N_STEPS, y0 + (y1 - y0) * n / N_STEPS)
            for n in range(N_STEPS + 1)
        ]


def wall_clearance(room: Room, point: tuple[float, float]) -> float:
    """Smallest signed distance from ``point`` to a wall line (positive inside)."""
    return min(
        h - (nx * point[0] + ny * point[1]) for (nx, ny), h in zip(room.normals, room.offsets)
    )


def check_room(room: Room) -> None:
    """Raise :class:`GeometryError` unless the room is usable by the program.

    The origin must lie strictly inside (a wall through the origin has no
    mirror point), anchors and every agent position must keep ``WALL_MARGIN``
    from each wall line, and the agent must keep ``ANCHOR_CLEARANCE`` from
    each anchor.
    """
    if min(room.offsets) <= WALL_MARGIN:
        raise GeometryError("the origin is on or outside a wall line")
    for i, anchor in enumerate(room.anchors):
        if wall_clearance(room, anchor) <= WALL_MARGIN:
            raise GeometryError(f"anchor {i + 1} is on or outside a wall line")
    for n, point in enumerate(room.path_points()):
        if wall_clearance(room, point) <= WALL_MARGIN:
            raise GeometryError(f"agent at step {n} is on or outside a wall line")
        for i, anchor in enumerate(room.anchors):
            if math.dist(point, anchor) < ANCHOR_CLEARANCE:
                raise GeometryError(f"agent at step {n} passes anchor {i + 1} too closely")


def _draw_room(rng: random.Random) -> Room:
    circumradius = rng.uniform(3.5, 4.5)
    apothem = circumradius * math.cos(math.pi / NUM_WALLS)
    rotation = rng.uniform(0.0, 2 * math.pi / NUM_WALLS)
    centre = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    normals = tuple(
        (math.cos(rotation + 2 * math.pi * i / NUM_WALLS),
         math.sin(rotation + 2 * math.pi * i / NUM_WALLS))
        for i in range(NUM_WALLS)
    )
    offsets = tuple(nx * centre[0] + ny * centre[1] + apothem for nx, ny in normals)

    def polar(radius: float, angle: float) -> tuple[float, float]:
        return (centre[0] + radius * math.cos(angle), centre[1] + radius * math.sin(angle))

    heading = rng.uniform(-math.pi, math.pi)
    anchors = (
        polar(rng.uniform(0.4, 0.8) * apothem, heading + rng.uniform(0.3, 1.2)),
        polar(rng.uniform(0.4, 0.8) * apothem, heading + math.pi + rng.uniform(0.3, 1.2)),
    )
    return Room(
        normals=normals,
        offsets=offsets,
        anchors=anchors,
        anchor_orientations=(rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)),
        start=polar(0.6 * apothem, heading + math.pi),
        end=polar(0.6 * apothem, heading),
    )


def octagon_room(seed: int) -> Room:
    """Deterministic regular-octagon room for ``seed``; rejects unusable draws."""
    rng = random.Random(seed)
    for _ in range(_ATTEMPTS):
        room = _draw_room(rng)
        try:
            check_room(room)
        except GeometryError:
            continue
        return room
    raise GeometryError(f"no usable room for seed {seed} in {_ATTEMPTS} draws")


def octagon_scenario(seed: int, sparse: bool) -> dict:
    """Scenario mapping of the octagon room for ``seed`` (all visible or sparse)."""
    room = octagon_room(seed)
    scenario = {
        "anchors": [
            {"position": list(p), "orientation": o, "aperture": dict(_ISOTROPIC)}
            for p, o in zip(room.anchors, room.anchor_orientations)
        ],
        "agent_aperture": dict(_ISOTROPIC),
        "surfaces": room.surface_points(),
        **{k: dict(v) for k, v in _COMMON.items()},
        "trajectory": {
            "kind": "waypoints",
            "n_steps": N_STEPS,
            "points": [
                {"time": 0.0, "position": list(room.start)},
                {"time": N_STEPS * TIME_STEP, "position": list(room.end)},
            ],
        },
        "mc": {"runs": SPARSE_MC_RUNS, "seed": mc_seed(seed)},
    }
    if not sparse:
        scenario["visibility"] = {"default": True}
        return scenario
    # The anchor block falls in the first half and the all-anchor block in the
    # second, so they never overlap and the visible count is seed independent.
    rng = random.Random(f"visibility:{seed}")
    half = N_STEPS // 2
    anchor_from = rng.randint(2, half - ANCHOR_BLANK_STEPS + 1)
    all_from = rng.randint(half + 1, N_STEPS - ALL_BLANK_STEPS + 1)
    scenario["visibility"] = {
        "default": False,
        "rules": [
            {"visible": True,
             "components": [[s, s] for s in range(NUM_WALLS + 1)]},
            {"visible": False, "anchors": [rng.randint(1, 2)],
             "steps": {"from": anchor_from, "to": anchor_from + ANCHOR_BLANK_STEPS - 1}},
            {"visible": False,
             "steps": {"from": all_from, "to": all_from + ALL_BLANK_STEPS - 1}},
        ],
    }
    return scenario


def mc_seed(seed: int) -> int:
    """Monte-Carlo seed passed to the CLI (an unsigned 64-bit integer)."""
    return seed % 2**64


def prepare(name: str, seed: int, root: Path, work: Path) -> list[str]:
    """Write the workload's inputs for ``seed`` under ``work``; return CLI argv.

    The argv ends with ``--out <csv>``; the CSV path is under ``work`` too.
    """
    if name == "desk-validate":
        scenario_path = root / "scenarios" / "desk.yaml"
        extra = ["--mc-runs", str(DESK_MC_RUNS)]
    else:
        scenario_path = work / f"{name}-seed{seed}.yaml"
        mapping = octagon_scenario(seed, sparse=name == "sparse8-validate")
        scenario_path.write_text(yaml.safe_dump(mapping, sort_keys=False))
        extra = []
    return [
        "--scenario", str(scenario_path), "--mode", WORKLOADS[name], *extra,
        "--seed", str(mc_seed(seed)), "--out", str(work / f"{name}-seed{seed}.csv"),
    ]
