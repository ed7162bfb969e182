"""Seeded inputs for the three benchmark workloads.

Every workload is a fixed schedule of job shapes (command, primitive count,
qubits per axis) over a fixed template molecule; the seed jitters the
template's values (exponents, centres, coefficients) by a few percent.
Different seeds therefore run different inputs whose cost and accuracy
compare, so a run-to-run spread measures the machine, not the draw.  The
same seed always writes byte-identical fixture and config files, and every
file is checked against the program's shipped schemas before any job uses
it.

Why each workload exists:

svd-sweep      repeated primitives (shared exponents, on-axis centres)
               across six svd_cutoff sweep points, plus the dense oracle:
               the primitive stage, truncation and the oracle dominate, so
               primitive caching and fit vectorization show here.
basis-scaling  12-36 distinct off-axis primitives with l <= 2: no two axis
               trains coincide, so the work is the O(n_g^2) Gram inner
               products and the add-then-round orbital sums; the bypass
               case for a primitive cache.
qubit-ladder   1-4 primitives on grids of 6..12 qubits per axis: work grows
               with 2^n through interpolant evaluation, dense embedding and
               from_dense; where a dense-free axis build must show.

Each workload has an odd number of jobs per pass, so the median job time
falls inside one job's cluster of times rather than in the gap between two.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import jsonschema

WORKLOADS = ("svd-sweep", "basis-scaling", "qubit-ladder")

SVD_AXIS = [0.3, 0.03, 0.003, 0.0003, 3e-05, 0.0]

# relative jitter the seed applies to template values, and to centres (Bohr)
JITTER = 0.02
CENTRE_JITTER = 0.03


@dataclass(frozen=True)
class Job:
    """One ttprep command; `pipelines` counts its pipeline evaluations."""

    job_id: str
    command: str
    config: Path
    fixture: Path
    pipelines: int


def _r(x: float) -> float:
    # six significant digits keep the files short and exactly reproducible
    return float(f"{x:.6g}")


def _dump(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8", newline="\n")


class _Draw:
    """Template values from a fixed stream, jittered by the seed's stream."""

    def __init__(self, workload: str, seed: int):
        self.template = random.Random(f"{workload}:template")
        self.seed = random.Random(f"{workload}:{seed}")

    def jitter(self, base: float, rel: float = JITTER) -> float:
        return _r(base * (1.0 + self.seed.uniform(-rel, rel)))

    def value(self, lo: float, hi: float) -> float:
        """A template value in [lo, hi], jittered."""
        return self.jitter(self.template.uniform(lo, hi))

    def centre(self, lo: float, hi: float) -> float:
        """Off-axis coordinate: |x| in [lo, hi] with a random sign."""
        base = self.template.choice((-1, 1)) * self.template.uniform(lo, hi)
        return _r(base + self.seed.uniform(-CENTRE_JITTER, CENTRE_JITTER))


def _orbital(coeffs) -> dict:
    return {"occupation": 1, "coeffs": [_r(c) for c in coeffs]}


def _spaced(n: int, spacing: float) -> list[float]:
    """n points `spacing` apart, centred on the origin."""
    return [spacing * (i - (n - 1) / 2) for i in range(n)]


def _svd_sweep(draw: _Draw):
    # two exponents shared by every centre, as in synthetic_diatomic
    gammas = (draw.jitter(1.0), draw.jitter(0.3))
    coeffs = (draw.jitter(0.62), draw.jitter(0.45))
    config = {
        "grid": {"L_bohr": 10.0, "K_inv_bohr": 14.0},
        "compression": {"svd_cutoff": 0.0, "eps_primitive": 0.001},
        "oracle": {"enabled": True, "max_points_per_axis": 64,
                   "tolerance": 1e-06},
        "sweep": {"svd_cutoff": SVD_AXIS},
    }
    shapes = (
        # name, centres on the x axis, orbital sign patterns, commands
        ("diatomic", _spaced(2, draw.jitter(2.2)), [(1, 1), (1, -1)],
         [("sweep", len(SVD_AXIS))]),
        ("chain", _spaced(3, draw.jitter(1.8)),
         [(1, 1, 1), (1, 0, -1), (1, -2, 1)],
         [("sweep", len(SVD_AXIS)), ("oracle", 1)]),
    )
    cases = []
    for name, xs, patterns, commands in shapes:
        prims = [{"center": [_r(x), 0.0, 0.0], "gamma": g, "ang": [0, 0, 0]}
                 for x in xs for g in gammas]
        orbitals = [_orbital([s * c for s in pattern for c in coeffs])
                    for pattern in patterns]
        fixture = {"name": name, "primitives": prims, "orbitals": orbitals,
                   "provenance": "perfbench svd-sweep"}
        cfg = dict(config, resources={"b": 10, "eta": len(orbitals)})
        cases.append((name, fixture, cfg, commands))
    return cases


_SHELLS = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1),
           (0, 1, 1), (2, 0, 0), (0, 2, 0), (0, 0, 2)]


def _exponents(draw: _Draw, n: int, lo: float, hi: float) -> list[float]:
    # log-spaced; the jitter stays below half the spacing, so the
    # exponents are distinct whatever the seed
    step = math.log(hi / lo) / n
    rel = min(JITTER, step / 3)
    return [draw.jitter(lo * math.exp(step * (i + 0.5)), rel)
            for i in range(n)]


def _estimate_fixture(draw: _Draw, name: str, prims: list, L: float,
                      K: float, provenance: str):
    orbitals = [_orbital([draw.value(0.3, 1.0) for _ in prims])
                for _ in range(2)]
    fixture = {"name": name, "primitives": prims, "orbitals": orbitals,
               "provenance": provenance}
    config = {
        "grid": {"L_bohr": L, "K_inv_bohr": K},
        "compression": {"svd_cutoff": 0.0001, "eps_primitive": 0.001},
        "resources": {"b": 10, "eta": 2},
        "oracle": {"enabled": False},
    }
    return name, fixture, config, [("estimate", 1)]


def _basis_scaling(draw: _Draw):
    cases = []
    # (primitives, K): at L = 10, K = 19.5 gives 63 points per axis
    # (6 qubits) and K = 20.5 gives 65 (7 qubits)
    for n_prim, k_cut in ((12, 19.5), (24, 19.5), (36, 20.5)):
        prims = [{"center": [draw.centre(0.3, 1.5) for _ in range(3)],
                  "gamma": gamma, "ang": list(_SHELLS[i % len(_SHELLS)])}
                 for i, gamma in enumerate(_exponents(draw, n_prim, 0.6, 1.6))]
        cases.append(_estimate_fixture(draw, f"basis{n_prim}", prims, 10.0,
                                       k_cut, "perfbench basis-scaling"))
    return cases


# (qubits per axis, primitives)
LADDER_RUNGS = ((6, 1), (7, 2), (8, 3), (9, 4), (10, 1), (11, 2), (12, 3))


def _qubit_ladder(draw: _Draw):
    cases = []
    k_cut = 14.0
    for qubits, n_prim in LADDER_RUNGS:
        # L chosen so the grid has 2^q - 1 points per axis at K = 14, which
        # certifies every exponent drawn below: the whole window is live
        L = _r(math.pi * (2 ** qubits - 1.5) / k_cut)
        prims = [{"center": [draw.centre(0.0, 1.0) for _ in range(3)],
                  "gamma": gamma, "ang": list(_SHELLS[i % 4])}
                 for i, gamma in enumerate(_exponents(draw, n_prim, 0.8, 1.0))]
        cases.append(_estimate_fixture(draw, f"ladder{qubits}", prims, L,
                                       k_cut, "perfbench qubit-ladder"))
    return cases


_GENERATORS = {"svd-sweep": _svd_sweep, "basis-scaling": _basis_scaling,
               "qubit-ladder": _qubit_ladder}


def load_schema(src: Path, name: str) -> dict:
    path = src / "ttprep" / "schemas" / f"{name}.schema.json"
    return json.loads(path.read_text(encoding="utf-8"))


def generate(workload: str, seed: int, out_dir: Path, src: Path) -> list[Job]:
    """Write the workload's inputs for `seed` into out_dir; return its jobs.

    Raises jsonschema.ValidationError if a generated file does not satisfy
    the shipped fixture or config schema.
    """
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    draw = _Draw(workload, seed)
    fixture_schema = load_schema(src, "fixture")
    config_schema = load_schema(src, "config")
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for name, fixture, config, commands in _GENERATORS[workload](draw):
        jsonschema.validate(fixture, fixture_schema)
        jsonschema.validate(config, config_schema)
        fx_path = out_dir / f"{name}.fixture.json"
        cfg_path = out_dir / f"{name}.config.json"
        _dump(fx_path, fixture)
        _dump(cfg_path, config)
        for command, pipelines in commands:
            jobs.append(Job(job_id=f"{command}-{name}", command=command,
                            config=cfg_path, fixture=fx_path,
                            pipelines=pipelines))
    return jobs
