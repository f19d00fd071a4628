"""Workload inputs for the darksector benchmark: scene files and job lists.

Every scene is generated here and written with ``save_scene``; the program
only ever receives scene files.  The fixed ``trapped`` scenes do not depend
on the seed, the random and unfold scenes are drawn from it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

from darksector.exact_angle import make_rational_turn
from darksector.scene import (
    Mirror,
    Scene,
    endpoints,
    load_scene,
    point_segment_distance,
    save_scene,
    segment_distance,
    validate_scene,
)
from darksector.scenegen import random_scene

# Sizes of the random workloads: full size, and the tiny size of the smoke
# tests.  ``random_sectors`` cycles the mirror count through 1..5, so the
# median job sits inside the 3-mirror group rather than on the edge between
# two groups, where it moved by ~12% from seed to seed; its 300 scenes keep
# the seed-to-seed spread of wall_s near 5% (150 gave ~7%).  160 covers
# every (mirror count, divisor of 840) pair of ``unfold_census`` once.  At
# full size a pass takes 3 to 7 s, so a run makes several passes.
RANDOM_MIRRORS = 5
RANDOM_SCENES = {False: 300, True: 5}
UNFOLD_SCENES = {False: 160, True: 10}

# ``random_sectors`` bounds a trace at 12 bounces.  At cap 50 the 1% of scenes
# with facing parallel mirrors took 28% of the wall time and the wall time of
# a 200-scene list moved by ~30% from seed to seed; deep trapped bands are the
# job of the ``trapped`` workload.
RANDOM_SECTORS_ARGS = (
    "--samples", "1024", "--eps-b", "1e-8", "--cap", "12",
    "--darkness-samples", "200",
)

DIVISORS_840 = tuple(d for d in range(1, 841) if 840 % d == 0)


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``darksector <command> --scene <scene> <args>``."""

    name: str
    command: str  # "sectors" or "unfold"
    scene: Scene
    scene_path: Path
    args: tuple[str, ...]
    expected_exits: frozenset[int]
    eps_b: float | None = None  # arc endpoint tolerance against the reference
    svg: bool = False

    def argv(self, out_dir: Path) -> list[str]:
        argv = [self.command, "--scene", str(self.scene_path), *self.args,
                "--out", str(self.out_path(out_dir))]
        if self.svg:
            argv += ["--svg", str(out_dir / f"{self.name}.svg")]
        return argv

    def out_path(self, out_dir: Path) -> Path:
        return out_dir / f"{self.name}.json"


def channel_scene() -> Scene:
    """Two facing parallel mirrors with overlapping x-ranges (a trapped band)."""
    flat = make_rational_turn(0, 1)
    return Scene(
        mirrors=(
            Mirror(anchor=(-1.0, 0.0), length=2.0, angle=flat),
            Mirror(anchor=(-1.0, 1.0), length=2.0, angle=flat),
        ),
        source=(0.0, 0.5),
    )


def six_mirror_trap_scene() -> Scene:
    """The second draw of ``random_scene(Random(7), n_mirrors=6)``: two
    parallel mirror pairs, whose run at the default parameters never ends."""
    rng = random.Random(7)
    random_scene(rng, n_mirrors=6)
    return random_scene(rng, n_mirrors=6)


def unfold_scene(rng: random.Random, n_mirrors: int, den: int) -> Scene:
    """Disjoint mirrors at angles k/den * pi, placed like ``random_scene``.

    The first two angles differ by u/den * pi with u prime to den, so the
    group has order exactly 2*den and a job's size depends only on
    (n_mirrors, den), not on the seed.
    """
    first = rng.randrange(2 * den)
    units = [u for u in range(1, den + 1) if gcd(u, den) == 1]
    nums = [first, first + rng.choice(units)]
    nums += [rng.randrange(2 * den) for _ in range(n_mirrors - 2)]
    mirrors: list[Mirror] = []
    placed: list[tuple] = []
    for num in nums:
        for _attempt in range(10_000):
            m = Mirror(
                anchor=(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)),
                length=rng.uniform(0.3, 1.5),
                angle=make_rational_turn(num, den),
            )
            a, b = endpoints(m)
            if all(segment_distance(a, b, *seg) >= 0.05 for seg in placed):
                mirrors.append(m)
                placed.append((a, b))
                break
        else:
            raise RuntimeError(f"cannot place {n_mirrors} disjoint mirrors")
    while True:
        source = (rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        if all(point_segment_distance(source, a, b) >= 0.1 for a, b in placed):
            return Scene(mirrors=tuple(mirrors), source=source)


def closed_form_sheets(scene: Scene) -> int:
    """2N, the order of the group the mirror reflections generate: N is the
    lcm of the denominators of (a_i - a_1) mod 1 for line angles a_i * pi."""
    a1 = scene.mirrors[0].angle.fraction
    n = 1
    for m in scene.mirrors:
        n = lcm(n, ((m.angle.fraction - a1) % Fraction(1)).denominator)
    return 2 * n


def _scenes(workload: str, seed: int, tiny: bool) -> list[tuple[str, Scene, dict]]:
    """(name, scene, job fields) for every job of the workload."""
    if workload == "trapped":
        if tiny:
            chan = ("--samples", "64", "--eps-b", "1e-4", "--cap", "60")
            trap = ("--samples", "128", "--eps-b", "1e-4", "--cap", "30")
        else:
            chan = ("--samples", "256", "--eps-b", "1e-5", "--cap", "400")
            trap = ("--samples", "1024", "--eps-b", "1e-6", "--cap", "100")
        return [
            ("channel", channel_scene(),
             dict(command="sectors", args=chan + ("--seed", "0"),
                  expected_exits=frozenset({4}), eps_b=float(chan[3]))),
            ("six_mirror_trap", six_mirror_trap_scene(),
             dict(command="sectors", args=trap + ("--seed", "0"),
                  expected_exits=frozenset({0}), eps_b=float(trap[3]))),
        ]
    rng = random.Random(seed)
    if workload == "random_sectors":
        return [
            (f"random_{i:03d}", random_scene(rng, n_mirrors=1 + i % RANDOM_MIRRORS),
             dict(command="sectors", args=RANDOM_SECTORS_ARGS + ("--seed", "0"),
                  expected_exits=frozenset({0, 4}), eps_b=1e-8, svg=True))
            for i in range(RANDOM_SCENES[tiny])
        ]
    if workload == "unfold_census":
        return [
            (f"unfold_{i:03d}",
             unfold_scene(rng, 2 + i % 5, DIVISORS_840[i % len(DIVISORS_840)]),
             dict(command="unfold", args=("--group-cap", "250000"),
                  expected_exits=frozenset({0})))
            for i in range(UNFOLD_SCENES[tiny])
        ]
    raise ValueError(f"unknown workload {workload!r}")


def setup(workload: str, seed: int, directory: Path, tiny: bool = False) -> list[Job]:
    """Generate, save and load the workload's scenes; return its job list.

    Raises ValueError if a saved scene does not load back valid and equal.
    """
    directory.mkdir(parents=True, exist_ok=True)
    jobs = []
    for name, scene, fields in _scenes(workload, seed, tiny):
        path = directory / f"{name}.scene.json"
        path.write_bytes(save_scene(scene))
        loaded = load_scene(path.read_bytes())
        if loaded != scene or validate_scene(loaded):
            raise ValueError(f"scene {name} does not round-trip as a valid scene")
        jobs.append(Job(name=name, scene=loaded, scene_path=path, **fields))
    return jobs
