"""One quadratic field per exact value.

An exact row carries one int modulus m (0 for Q, and 0 whenever its
irrational part is zero).  ``exactnum.one_field`` is the one rule for two
fields: exact data whose values lie in two fields is refused where its row
is made, or where two rows meet, with one message that names the fields in
operand order.  It never reaches float arithmetic: the row kernels take a
float vector only through ``exactnum.float_row``, which the refused data
never reaches, and the message is spelled once in the package.
"""

import functools
from pathlib import Path

import pytest

import ballpack
from ballpack import apollonian, linalg, lorentz, polytopes, relations
from ballpack.apollonian import (
    apollonian_group_from_packing,
    generate_cluster,
    packing_from_curvatures,
)
from ballpack.exactnum import QuadScalar, exact_row, one_field, scaled_row, sqrt_int
from ballpack.lorentz import Ball, apply_map, ball_from_geometry, classify_pair, inversion_map
from ballpack.packings import project
from ballpack.polytopes import ICOSAHEDRON, TETRAHEDRON, Polytope, polar_dual
from ballpack.relations import exact_flag_residuals

R2, R3 = sqrt_int(2), sqrt_int(3)
IN_Q2 = ball_from_geometry(2, center=(R2, 0), curvature=1)
IN_Q3 = ball_from_geometry(2, center=(0, R3), curvature=1)
IN_BOTH = Ball((R2, R3, 0, 2))  # 2 + 3 - 4 = 1


def message(a: int, b: int) -> str:
    return f"cannot mix fields Q(sqrt {a}) and Q(sqrt {b})"


def test_one_field_is_the_common_modulus_or_a_refusal_naming_the_first_operand_first():
    assert one_field() == one_field(0, 0) == 0
    assert one_field(0, 5, 0, 5) == 5
    with pytest.raises(ValueError, match=r"^cannot mix fields Q\(sqrt 3\) and Q\(sqrt 2\)$"):
        one_field(0, 3, 3, 2)
    with pytest.raises(ValueError) as err:
        R3 + R2
    assert str(err.value) == message(3, 2)


@pytest.mark.parametrize(
    "vector, m",
    [((1, 2, 3), 0), ((R2, 1, 0), 2), ((QuadScalar(1, 0, 5), 1, 2), 0), ((0, 0, 0), 0)],
    ids=["Q", "Q(sqrt 2)", "rational QuadScalar", "zero"],
)
def test_a_rows_field_is_an_int_and_zero_without_an_irrational_part(vector, m):
    row = exact_row(vector)
    assert row[4] == m and type(row[4]) is int
    assert scaled_row(*row[:4], 5)[4] == (5 if any(row[1]) else 0)


@functools.lru_cache(maxsize=None)
def seed(solid, triple):
    return packing_from_curvatures(solid, triple)


def cluster_args():
    gens = apollonian_group_from_packing(seed(ICOSAHEDRON, (-4, 8, 9)))
    return seed(TETRAHEDRON, (-3, 5, 8)), gens, 1


# each case: (make the arguments, the call, the two fields in operand order)
CASES = {
    "classify_pair": (lambda: (IN_Q2, IN_Q3), classify_pair, (2, 3)),
    "classify_pair, reversed": (lambda: (IN_Q3, IN_Q2), classify_pair, (3, 2)),
    "classify_pair, one ball in two fields": (lambda: (IN_BOTH, IN_Q3), classify_pair, (2, 3)),
    "apply_map": (lambda: (inversion_map(IN_Q3), IN_Q2), apply_map, (3, 2)),
    "inversion_map": (lambda: (IN_BOTH,), inversion_map, (2, 3)),
    "project": (
        lambda: (Polytope(((R2, R3, 0), (R3, 0, R2)), {0: (frozenset([0]), frozenset([1]))}),),
        project,
        (2, 3),
    ),
    "polar_dual": (
        lambda: (
            Polytope(
                ((R2, 0, 0), (0, R3, 0), (0, 0, 1)),
                {0: tuple(frozenset([i]) for i in range(3)), 2: (frozenset(range(3)),)},
            ),
        ),
        polar_dual,
        (2, 3),
    ),
    "exact_flag_residuals": (lambda: (ICOSAHEDRON, [], (R2,) * 12), exact_flag_residuals, (5, 2)),
    "generate_cluster": (cluster_args, generate_cluster, (2, 5)),
}


def refuse(*args, **kwargs):
    raise AssertionError("float arithmetic was reached")


@pytest.mark.parametrize("case", CASES, ids=str)
def test_two_fields_are_refused_before_any_scalar_formula(case, monkeypatch):
    make, call, fields = CASES[case]
    args = make()
    for module, name in (
        (lorentz, "float_row"),
        (lorentz, "same_vector"),
        (linalg, "mat_vec"),
        (polytopes, "float_row"),
        (apollonian, "float_row"),
        (apollonian, "_float_cluster"),
        (relations, "verify_flag_relation"),
    ):
        monkeypatch.setattr(module, name, refuse)
    with pytest.raises(ValueError) as err:
        call(*args)
    assert str(err.value) == message(*fields)


def test_the_refusal_is_spelled_only_in_exactnum():
    package = Path(ballpack.__file__).parent
    texts = {p.name: p.read_text(encoding="utf-8") for p in package.glob("*.py")}
    assert sorted(name for name, text in texts.items() if "cannot mix" in text) == ["exactnum.py"]
