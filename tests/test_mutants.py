"""Seeded defects and the acceptance criteria that must catch them.

Each case installs one plausible wrong edit by monkeypatching and runs one
quick pass of the seven criteria for seed 7, from an empty ball-table
cache so that an edit of the BFS builds every table it is asked for.  A
caught defect must fail every criterion listed for it, or stop the pass
with the error listed for it (`accept` then exits 1, a falsified
construction).  A defect that no criterion catches is a
finding, not a case to drop: it is marked `xfail(strict=True)` with the
open item that closes its gap, so the change that closes it must flip the
mark.
"""

import inspect

import pytest

from isoplab import InternalContradiction, acceptance, isoperimetry, metric, parse_group, search
from isoplab.acceptance import _run_criteria


def _outer_boundary_right(group, D):
    """(D*S) \\ D: the outer boundary with the generators on the wrong side."""
    products = {group.mul(x, s) for x in D.elements for s in group.generating_set}
    return products - D.member_set


def _displacement_right(group, x, D):
    """Card(Dx \\ D): the translate with x on the wrong side."""
    return sum(1 for d in D.elements if group.mul(d, x) not in D.member_set)


def _edited(module, name, old, new):
    """module.name recompiled from its source with the one `old` made `new`."""
    source = inspect.getsource(getattr(module, name))
    assert source.count(old) == 1, old
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    return namespace[name]


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
    "half-mass scan counting the points that leave D": (
        [(acceptance, "half_mass_witness", _edited(
            isoperimetry, "half_mass_witness", "mul(x, y) in members", "mul(x, y) not in members"
        ))],
        {2},
    ),
    "half-mass scan on the right translate": (
        [(acceptance, "half_mass_witness", _edited(
            isoperimetry, "half_mass_witness", "mul(x, y) in members", "mul(y, x) in members"
        ))],
        {2},
    ),
    # Layer k-1 reappears in layer k+1, so a ball lists elements twice: the
    # first uniform sample of z meets its repeat check, before any criterion.
    "bipartite layer checked against the layer it grows from": (
        [(metric, "_grow", _edited(
            metric, "_grow",
            "ends[-3] if level > 2 else 0 : start if bipartite else end",
            "start if bipartite else ends[-3] if level > 2 else 0 : end",
        ))],
        InternalContradiction,
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
    monkeypatch.setattr(metric, "_tables", {})
    for module, attr, wrong in patches:
        monkeypatch.setattr(module, attr, wrong)
    if isinstance(must_fail, type):
        with pytest.raises(must_fail):
            _run_criteria(7, True)
        return
    results, _ = _run_criteria(7, True)
    failed = {res.index for res in results if not res.passed}
    assert failed, f"no criterion catches: {name}"
    assert must_fail is None or must_fail <= failed, (name, failed)


def test_a_table_listing_an_element_twice_is_refused(monkeypatch):
    # the bipartite-layer defect lists layer 2 of z again in layer 4, so the
    # element -> layer index is shorter than the table; without that check
    # layer_of((0,)) read the later layer, 4
    monkeypatch.setattr(metric, "_tables", {})
    for module, attr, wrong in DEFECTS["bipartite layer checked against the layer it grows from"][0]:
        monkeypatch.setattr(module, attr, wrong)
    table = metric.ball(parse_group("z"), 4)
    with pytest.raises(InternalContradiction, match="BFS layers list an element twice"):
        table.layer_of((0,))
