"""Seeded defects and the acceptance criteria that must catch them.

Each case installs one plausible wrong edit by monkeypatching and runs one
quick pass of the seven criteria for seed 7.  A caught defect must fail
every criterion listed for it.  A defect that no criterion catches is a
finding, not a case to drop: it is marked `xfail(strict=True)` with the
open item that closes its gap, so the change that closes it must flip the
mark.
"""

import pytest

from isoplab import isoperimetry, metric, search
from isoplab.acceptance import _run_criteria


def _outer_boundary_right(group, D):
    """(D*S) \\ D: the outer boundary with the generators on the wrong side."""
    products = {group.mul(x, s) for x in D.elements for s in group.generating_set}
    return products - D.member_set


def _displacement_right(group, x, D):
    """Card(Dx \\ D): the translate with x on the wrong side."""
    return sum(1 for d in D.elements if group.mul(d, x) not in D.member_set)


def _phi_not_strict(group, v, *, ball_cap=metric.DEFAULT_BALL_CAP):
    """The least r with gamma(r) >= v, where phi asks for gamma(r) > v."""
    return metric.minimal_d(group, v - 1, ball_cap=ball_cap)[0]


DEFECTS = {
    "outer boundary as D*S": (
        [(isoperimetry, "_outer_boundary_set", _outer_boundary_right)], {3, 7},
    ),
    "half-mass ball from gamma(d) > 2n - 2": (
        [(isoperimetry, "minimal_d", lambda group, t, **kw: metric.minimal_d(group, t - 2, **kw))],
        {2},
    ),
    "lemma31 handed ball(d + 1)": (
        [(isoperimetry, "ball", lambda group, radius, **kw: metric.ball(group, radius + 1, **kw))],
        {1},
    ),
    "phi as the least r with gamma(r) >= v": (
        [(isoperimetry, "phi", _phi_not_strict), (search, "phi", _phi_not_strict)], None,
    ),
    "right inner boundary computed as the left one": (
        [(isoperimetry, "inner_boundary_right", isoperimetry.inner_boundary_left)], {6},
    ),
    "translate on the wrong side": (
        [(isoperimetry, "displacement", _displacement_right)], {1},
    ),
}

# ROADMAP open items that own the gaps no criterion covers yet
UNCAUGHT = {
    "phi as the least r with gamma(r) >= v": "item 2: criterion 7 never checks phi",
}


@pytest.mark.parametrize("name", [
    pytest.param(
        name, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=UNCAUGHT[name])
    )
    if name in UNCAUGHT else name
    for name in DEFECTS
])
def test_seeded_defect_fails_its_criteria(monkeypatch, name):
    patches, must_fail = DEFECTS[name]
    for module, attr, wrong in patches:
        monkeypatch.setattr(module, attr, wrong)
    results, _ = _run_criteria(7, True)
    failed = {res.index for res in results if not res.passed}
    assert failed, f"no criterion catches: {name}"
    assert must_fail is None or must_fail <= failed, (name, failed)
