"""Shared hypothesis strategies: random blowup towers.

A tower is drawn as a base model plus a list of steps, each curve center
dimensioned for the model at its own step; nothing is blown up while
drawing, so a test can build the tower with whichever transform it checks.
Use with @settings(deadline=None): tower sizes vary a lot between examples.
A tower keeps only its top model; models_of folds out the ones below it.
"""

from fractions import Fraction as Q

from hypothesis import strategies as st

from threefold import (
    BlowupTower,
    CurveCenterSpec,
    CurveClass,
    DivisorClass,
    SurfaceData,
    curve_step,
    make_base,
    make_custom_base,
    point_step,
)

# P2 x P1 with its tables rescaled: A.B = 1/2 f1, B.B = 3 f2 against the
# pairings A.f2 = 1/3 and B.f1 = 2, so every triple product is still 1 but
# the stored entries are fractions
FRACTIONAL_BASE = make_custom_base(
    label="fractional",
    divisor_names=["A", "B"],
    curve_names=["f1", "f2"],
    mul2={("A", "B"): {"f1": Q(1, 2)}, ("B", "B"): {"f2": 3}},
    pairing={("A", "f2"): Q(1, 3), ("B", "f1"): 2},
    c1={"A": 2, "B": Q(3, 2)},
    c2={"f1": Q(5, 2), "f2": Q(1, 3)},
    euler=6,
)

BASES = {
    "p3": make_base("p3"),
    "p2xp1": make_base("p2xp1"),
    "p1cubed": make_base("p1cubed"),
    "fractional": FRACTIONAL_BASE,
}


def rationals(max_num: int = 3, max_den: int = 3):
    return st.builds(Q, st.integers(-max_num, max_num), st.integers(1, max_den))


def classes(size: int, max_den: int = 3):
    """Coefficient tuples of the given length, possibly all zero."""
    return st.tuples(*(rationals(max_den=max_den) for _ in range(size)))


@st.composite
def curve_centers(draw, rho: int):
    """A non-zero curve center on a model of Picard number rho, sometimes
    with surface data (kappa left to the blowup to compute), and with the
    normal-bundle and movability flags drawn unset, true or false."""
    vec = list(draw(classes(rho)))
    if not any(vec):
        vec[draw(st.integers(0, rho - 1))] = Q(1)
    surface_data = None
    if draw(st.booleans()):
        surface_data = SurfaceData(
            surface=DivisorClass(draw(classes(rho))), mu=draw(st.integers(1, 3))
        )
    flag = st.sampled_from([None, True, False])
    return CurveCenterSpec(
        CurveClass(tuple(vec)),
        genus=draw(st.integers(0, 3)),
        normal_bundle_decomposable=draw(flag),
        surface_data=surface_data,
        movable_witness=draw(flag),
    )


@st.composite
def blowup_towers(draw, max_steps: int = 6):
    """An unbuilt BlowupTower over one of BASES: points and curve centers."""
    base = BASES[draw(st.sampled_from(sorted(BASES)))]
    steps = []
    for _ in range(draw(st.integers(0, max_steps))):
        if draw(st.booleans()):
            steps.append(point_step())
        else:
            steps.append(curve_step(draw(curve_centers(base.picard + len(steps)))))
    return BlowupTower(base, tuple(steps))


def models_of(tower: BlowupTower) -> list:
    """[base, after step 1, ..., after step k], each step blown up on the
    model before it, so the models share one line's store."""
    models = [tower.base]
    for step in tower.steps:
        models.append(BlowupTower(models[-1], (step,)).top())
    return models
