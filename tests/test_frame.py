"""The frame layer against its scalar oracle, and the polar duals each
build pays for.

`polytopes.regular_edge_scribed` decides the exceptional face lattices on
integer rows and `polytopes.polar_dual` takes each polar vertex from its
facet's barycenter; `frame_oracle` keeps the scalar versions.  Every
realized solid must come out equal, every exact polar dual equal, and every
float one within a few ulps.  A polytope whose facets are not perpendicular
to their barycenters is refused.
"""

import contextlib
import io

import pytest

import frame_oracle
from ballpack import cli, packings
from ballpack.apollonian import apollonian_group_from_packing, packing_from_curvatures
from ballpack.exactnum import is_float_data, phi
from ballpack.packings import centered_projection
from ballpack.polytopes import (
    CUBE,
    DODECAHEDRON,
    ICOSAHEDRON,
    OCTAHEDRON,
    PLATONIC,
    TETRAHEDRON,
    Polytope,
    Solid,
    polar_dual,
    regular_edge_scribed,
    solid_from_name,
)

PHI = phi()

# every solid that regular_edge_scribed realizes
SOLIDS = (
    *PLATONIC,
    *(solid_from_name(n) for n in ("triangle", "square", "5-gon", "6-gon", "7-gon")),
    *(Solid(k, n) for k in ("simplex", "cube", "cross") for n in (4, 5)),
)

SEEDS = {
    TETRAHEDRON: (-3, 5, 8),
    OCTAHEDRON: (-2, 4, 5),
    CUBE: (5, -3, 12),
    ICOSAHEDRON: (-4, 8, 9),
    DODECAHEDRON: (1 + PHI, -1, 2 * PHI),
}

# Both the oracle's solve and the program's c / <u, c> round to within about
# 6 ulps of the exact polar dual rotated the same way (worst cases measured:
# the oracle on the edge-centered dodecahedron, the program on the
# vertex-centered cube), so they can differ by a little more than that.
ULPS = 8


def _is_float(p: Polytope) -> bool:
    return any(is_float_data(v) for v in p.vertices)


def _assert_within_ulps(got: Polytope, want: Polytope):
    """Same lattice and family; each coordinate within ULPS ulps (2^-52
    relative) of the largest coordinate of the oracle's vertex."""
    assert (got.faces_by_rank, got.family) == (want.faces_by_rank, want.family)
    assert len(got.vertices) == len(want.vertices)
    for u, v in zip(got.vertices, want.vertices):
        size = max(abs(float(x)) for x in v)
        for x, y in zip(u, v):
            assert abs(float(x) - float(y)) <= ULPS * 2.0**-52 * size, (u, v)


@pytest.mark.parametrize("solid", SOLIDS, ids=str)
def test_edge_scribed_equals_the_scalar_oracle(solid):
    assert regular_edge_scribed(solid) == frame_oracle.regular_edge_scribed(solid)


@pytest.mark.parametrize("solid", SOLIDS, ids=str)
def test_polar_dual_equals_the_scalar_oracle(solid):
    p = regular_edge_scribed(solid)
    got, want = polar_dual(p), frame_oracle.polar_dual(p)
    if _is_float(p):
        _assert_within_ulps(got, want)
    else:
        assert got == want


@pytest.mark.parametrize("rank", (0, 1, 2))
@pytest.mark.parametrize("solid", PLATONIC, ids=str)
def test_polar_dual_of_a_rotated_polytope_is_within_ulps_of_the_oracle(solid, rank):
    p = centered_projection(solid, rank).polytope
    assert _is_float(p)
    _assert_within_ulps(polar_dual(p), frame_oracle.polar_dual(p))


def test_polar_dual_refuses_facets_not_perpendicular_to_their_barycenters():
    octa = regular_edge_scribed(OCTAHEDRON)
    stretched = Polytope(
        tuple((2 * v[0], v[1], v[2]) for v in octa.vertices), octa.faces_by_rank, OCTAHEDRON
    )
    frame_oracle.polar_dual(stretched)  # the linear solve finds a vertex anyway
    with pytest.raises(ValueError, match=r"facet \[.*\] is not perpendicular to its barycenter"):
        polar_dual(stretched)


def test_polar_dual_refuses_a_facet_whose_barycenter_is_orthogonal_to_it():
    # the edge {0, 1} passes through the origin
    square = Polytope(
        ((1, 0), (-1, 0), (0, 1)),
        {0: tuple(frozenset([i]) for i in range(3)), 1: (frozenset([0, 1]), frozenset([1, 2]))},
    )
    with pytest.raises(ValueError, match=r"facet \[0, 1\] has no polar vertex"):
        polar_dual(square)


def _counting(monkeypatch):
    calls = []
    real = packings.polar_dual

    def counted(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(packings, "polar_dual", counted)
    return calls


@pytest.mark.parametrize("solid", PLATONIC, ids=str)
def test_a_seed_and_its_generators_build_one_polar_dual(solid, monkeypatch):
    calls = _counting(monkeypatch)
    seed = packing_from_curvatures(solid, SEEDS[solid])
    gens = apollonian_group_from_packing(seed)
    assert len(calls) == 1
    assert len(gens) == len(regular_edge_scribed(solid).faces(2))


@pytest.mark.parametrize("center", ("none", "vertex", "edge", "face"))
def test_a_dual_projection_record_builds_one_polar_dual(center, monkeypatch):
    calls = _counting(monkeypatch)
    record = {"kind": "dual-projection", "solid": "cube", "primal": "octahedron", "center": center}
    made = cli._made_by(record)
    assert len(calls) == 1
    assert made.polytope.family == CUBE
    assert len(made) == 8


@pytest.mark.parametrize("center", ("none", "vertex", "edge", "face"))
def test_verify_builds_the_polytope_once(center, tmp_path, monkeypatch):
    path = str(tmp_path / "ico.json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["project", "--solid", "icosahedron", "--center", center, "--out", path]) == 0
    calls = []
    for module in (cli, packings):
        monkeypatch.setattr(module, "regular_edge_scribed", lambda s: calls.append(s) or regular_edge_scribed(s))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["verify", "--in", path]) == 0
    assert calls == [ICOSAHEDRON]
    assert [line.split(":")[0] for line in out.getvalue().splitlines()] == [
        "packing", "descartes", "soddy", "flags"
    ]
