"""Property tests over random primitive sets: off-axis centres, l <= 2 per
axis, one to three orbitals, at least one of them over a single primitive.

Each drawn input runs the grid and cutoff stages and the dense referee, and
checks the referee's verdict, the axis trains' bond cap and the rounding
rule of orbital_builder.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from ttprep import gauss_pw, oracle, orbital_builder, pipeline, tt_core
from ttprep.gauss_pw import PrimitiveGaussian

L_BOHR, K_INV_BOHR, EPS_PRIMITIVE = 10.0, 15.0, 1e-3

PRIMITIVES = st.lists(st.builds(
    PrimitiveGaussian,
    center=st.tuples(*[st.floats(-1.5, 1.5)] * 3),
    gamma=st.floats(0.5, 2.0),
    ang=st.tuples(*[st.integers(0, 2)] * 3)), min_size=1, max_size=6)


@st.composite
def fixtures(draw):
    """A fixture whose first orbital is over one primitive; the others are
    over any nonempty subset.  Coefficients are positive, so no orbital
    cancels to zero norm."""
    prims = tuple(draw(PRIMITIVES))
    index = st.integers(0, len(prims) - 1)
    lists = [(draw(index),)] + [
        tuple(draw(st.lists(index, min_size=1, unique=True)))
        for _ in range(draw(st.integers(0, 2)))]
    orbitals = tuple(pipeline.FixtureOrbital(
        occupation=1, indices=indices, coeffs=np.array(
            draw(st.lists(st.floats(0.25, 1.0), min_size=len(indices),
                          max_size=len(indices))), dtype=complex))
        for indices in lists)
    return pipeline.Fixture(name="random", primitives=prims,
                            orbitals=orbitals)


@settings(deadline=None, max_examples=25)
@given(fx=fixtures(), svd_cutoff=st.sampled_from([0.0, 1e-6, 1e-3]))
def test_random_primitive_sets(tmp_path_factory, fx, svd_cutoff):
    """The referee PASSes or SKIPs every check; every axis train keeps
    criterion 2's bond cap 2m+3; and every orbital is its grid-stage train
    rounded once at max(svd_cutoff, EPS_SUM) and renormalized, bit for
    bit."""
    cfg = {"grid": {"L_bohr": L_BOHR, "K_inv_bohr": K_INV_BOHR},
           "compression": {"svd_cutoff": svd_cutoff,
                           "eps_primitive": EPS_PRIMITIVE},
           "resources": {"b": 10},
           "oracle": {"enabled": True, "max_points_per_axis": 64,
                      "tolerance": 1e-6, "dump_tt": False},
           "sweep": {}}
    stage = pipeline.grid_stage(cfg, fx)
    result = pipeline.cutoff_stage(stage, svd_cutoff)
    grid = stage.grid
    n = grid.qubits_per_axis
    assert n == 6

    checks = oracle.run_checks(result, tmp_path_factory.mktemp("oracle"))
    assert "dense_oracle" not in {c["name"] for c in checks}
    assert {c["status"] for c in checks} <= {"PASS", "SKIP"}, checks

    for g, tt in zip(fx.primitives, stage.prim_tts):
        for axis, l in enumerate(g.ang):
            m = gauss_pw.axis_profile(g.gamma, l, grid,
                                      EPS_PRIMITIVE / math.sqrt(3)).degree + 1
            bonds = tt.bond_dims[axis * n:(axis + 1) * n - 1]
            assert max(bonds) <= 2 * m + 3, (g, axis)

    cut = max(svd_cutoff, orbital_builder.EPS_SUM)
    for summed, mps in zip(stage.mos, result.mos):
        rounded = tt_core.round(summed.tt, cut)
        rho = tt_core.norm(rounded)
        want = tt_core.scale(rounded, 1.0 / rho)
        assert mps.raw_norm_sq == summed.raw_norm_sq * rho ** 2
        assert len(mps.tt.cores) == len(want.cores)
        assert all(np.array_equal(a, b)
                   for a, b in zip(mps.tt.cores, want.cores))
