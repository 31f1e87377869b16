"""Runnable acceptance suite shared by the CLI scorecard and the test suite.

Each criterion is a deterministic function of the master seed.  Randomized
criteria derive per-instance sub-seeds through the documented SplitMix64
split rule, so the whole run (including every report line) is reproducible
byte for byte.  Quick mode reduces instance counts but keeps every
criterion and every tolerance identical; tolerances are all zero, since
every comparison is exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import InternalContradiction
from .groups import Element, Group, parse_group
from .isoperimetry import (
    FiniteSubset,
    VerificationReport,
    _word_levels,
    admissible,
    boundary_comparison,
    canonical_json,
    displacement,
    displacement_bound_check,
    half_mass_witness,
    inner_boundary_left,
    lemma31_check,
    outer_boundary,
    preimage_bound_check,
    transport_map,
    verify_csc,
    verify_theorem,
)
from .metric import ball, growth, word_length
from .rng import SplitMix64
from .search import (
    default_uniform_radius,
    generate_set,
    generate_sets,
    interval_subsets,
    parse_set_descriptor,
)

FAMILIES = ("z", "zd:2", "free:2", "cyclic:12", "dihedral:6", "heisenberg")
DEFAULT_SEED = 0


class Instance(NamedTuple):
    group: Group
    subset: FiniteSubset
    d: int


class CriterionResult(NamedTuple):
    index: int
    name: str
    passed: bool
    detail: str
    findings: tuple[str, ...] = ()

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.index} [{self.name}]: {status} ({self.detail})"

    def to_json_dict(self) -> dict:
        return {
            "criterion": self.index,
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
            "findings": list(self.findings),
        }


class AcceptanceOutcome(NamedTuple):
    seed: int
    quick: bool
    results: list[CriterionResult]
    report_dicts: list[dict]  # VerificationReport.to_json_dict() of each report

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)


def _random_subset(group, rng, size_cap, uniform) -> FiniteSubset:
    """A random set of 1..size_cap points (at most the group's order): drawn
    uniformly from a ball when `uniform`, else a connected sample."""
    order = group.order()
    size = 1 + rng.below(size_cap if order is None else min(size_cap, order))
    text = f"random:{size}:{rng.child_seed(1)}"
    if uniform:
        text += f":ball={default_uniform_radius(group, size)}"
    return generate_set(group, parse_set_descriptor(text))


def acceptance_instances(seed: int, quick: bool):
    """The shared randomized instance pool: (group, D, d) triples spanning
    all six families, sizes 1..60 (or up to the group order), d in 0..4."""
    per_family = 10 if quick else 84
    master = SplitMix64(seed)
    instances = []
    seq = 0
    for fam in FAMILIES:
        group = parse_group(fam)
        for j in range(per_family):
            rng = master.child(seq)
            seq += 1
            subset = _random_subset(group, rng, 60, uniform=(j % 2 == 1))
            instances.append(Instance(group=group, subset=subset, d=rng.below(5)))
    return instances


def _criterion_lemma31(instances, reports, quick) -> CriterionResult:
    failures = 0
    for ins in instances:
        rep = lemma31_check(ins.group, ins.subset, ins.d)
        reports.append(rep)
        if not rep.verdict:
            failures += 1
    families = len({ins.group.name for ins in instances})
    enough = quick or len(instances) >= 500
    detail = (
        f"{len(instances)} instances across {families} families, "
        f"exact integer identity, {failures} failures"
    )
    return CriterionResult(1, "smoothing identity exactness", failures == 0 and enough, detail)


def _criterion_half_mass(instances, reports) -> CriterionResult:
    checked = 0
    failures = 0
    for group, subset, _ in instances:
        if not admissible(group, len(subset)):
            continue
        x, rep = half_mass_witness(group, subset)
        reports.append(rep)
        checked += 1
        # the witness recounted: it moves lhs points of D, it is not e, and
        # it lies in B(e, d)
        recounted = (
            displacement(group, x, subset) == rep.lhs
            and x != group.identity()
            and word_length(group, x) <= rep.d
        )
        if not (rep.verdict and recounted):
            failures += 1
    detail = f"{checked} admissible instances, strict witness failures: {failures}"
    return CriterionResult(2, "half-mass witness", checked > 0 and failures == 0, detail)


def _criterion_transport(seed, quick, reports) -> CriterionResult:
    per_family = 5 if quick else 34
    master = SplitMix64(seed)
    failures = []
    checked = 0
    for fi, fam in enumerate(FAMILIES):
        group = parse_group(fam)
        table = ball(group, 5)
        candidates = [g for layer in table.layers[1:] for g in layer]
        for j in range(per_family):
            rng = master.child(10_000 + fi * 1000 + j)
            subset = _random_subset(group, rng, 40, uniform=(j % 2 == 1))
            gamma0 = candidates[rng.below(len(candidates))]
            try:
                record = transport_map(group, gamma0, subset)
            except InternalContradiction as exc:
                failures.append(f"{fam}: transport construction failed: {exc}")
                continue
            boundary = outer_boundary(group, subset).member_set
            k = record.length
            if not all(
                e.image in boundary and e.origin in subset and 1 <= e.hit_index <= k
                for e in record.entries
            ):
                failures.append(f"{fam}: image/origin invariant failed on {subset.provenance}")
            pre = preimage_bound_check(record, 5)
            reports.append(pre)
            if not (pre.verdict and pre.extra["max_le_word_length"]):
                failures.append(f"{fam}: preimage bound failed on {subset.provenance}")
            disp = displacement_bound_check(record, 5)
            reports.append(disp)
            if not (disp.verdict and disp.extra["holds_at_word_length"]):
                failures.append(f"{fam}: displacement bound failed on {subset.provenance}")
            checked += 1
    enough = quick or checked >= 200
    detail = f"{checked} transport instances, failures: {len(failures)}"
    if failures:
        detail += "; first: " + failures[0]
    return CriterionResult(3, "geodesic transport map", enough and not failures, detail)


def _criterion_theorem_exhaustive(reports) -> CriterionResult:
    expected = 1585  # sum of C(12, n) for n = 1..5
    failures = 0
    counts = {}
    for fam in ("cyclic:12", "dihedral:6"):
        group = parse_group(fam)
        count = 0
        for subset in generate_sets(group, parse_set_descriptor("exhaustive:1..5")):
            rep = verify_theorem(group, subset)
            reports.append(rep)
            if not rep.verdict:
                failures += 1
            count += 1
        counts[fam] = count
    complete = all(c == expected for c in counts.values())
    detail = (
        f"every subset of size 1..5 in cyclic:12 and dihedral:6 "
        f"({counts}), strict failures: {failures}"
    )
    return CriterionResult(4, "strict bound, exhaustive sweep", failures == 0 and complete, detail)


def _criterion_interval_sharpness(reports) -> CriterionResult:
    group = parse_group("z")
    bad = []
    for subset in interval_subsets(group, 1, 50):
        rep = verify_theorem(group, subset)
        reports.append(rep)
        n = len(subset)
        exact = (
            rep.verdict
            and rep.lhs == Fraction(2, n)
            and rep.rhs == Fraction(1, 2 * n)
            and rep.sharpness == Fraction(4)
        )
        if not exact:
            bad.append(n)
    detail = f"intervals n=1..50 on z, factor exactly 4 everywhere; deviations: {bad}"
    return CriterionResult(5, "factor-4 sharpness on z intervals", not bad, detail)


def _criterion_csc_boundary(instances, reports) -> CriterionResult:
    failures = []
    findings = []
    csc_checked = 0
    for group, subset, _ in instances:
        cmp_rep = boundary_comparison(group, subset)
        reports.append(cmp_rep)
        if not cmp_rep.verdict:
            failures.append(f"left comparison failed on {group.name} {subset.provenance}")
        # inner_r(D) = inv(inner_l(inv(D))), since S is symmetric
        inverses = tuple(sorted(map(group.inv, subset.elements), key=group.sort_key))
        inverse = FiniteSubset(group, inverses, f"inv({subset.provenance})")
        if cmp_rep.extra["inner_right_size"] != len(inner_boundary_left(group, inverse)):
            failures.append(
                f"right inner boundary is not inv(inner_l(inv(D))) on "
                f"{group.name} {subset.provenance}"
            )
        if not cmp_rep.extra["right_holds"]:
            findings.append(
                f"right-convention comparison exceeded on {group.name} "
                f"{subset.provenance}: outer={cmp_rep.extra['outer_size']} > "
                f"{cmp_rep.extra['rhs_right']}"
            )
        if admissible(group, len(subset)):
            csc_rep = verify_csc(group, subset)
            reports.append(csc_rep)
            csc_checked += 1
            if not csc_rep.verdict:
                failures.append(f"classical bound failed on {group.name} {subset.provenance}")
    detail = (
        f"{len(instances)} boundary comparisons, {csc_checked} classical-bound checks, "
        f"failures: {len(failures)}, right-convention findings: {len(findings)}"
    )
    return CriterionResult(
        6, "classical bound and boundary comparison", not failures, detail, tuple(findings)
    )


def _oracle_word_length(levels: list[set], g: Element) -> Optional[int]:
    """Minimal word length of g: the least n with g in L_n, or None if g
    lies in no level built."""
    return next((n for n, level in enumerate(levels) if g in level), None)


def _distance_one_oracle(group: Group, subset: FiniteSubset, levels: list[set]) -> frozenset:
    """{a : dist(a, D) = 1} by per-element distance queries against the word
    levels of radius 1, independent of the S*D construction: dist(a, D) = 1
    when no a*delta^-1, delta in D, has word length 0 and one has length 1.
    Such an a lies in B(e, 1) * D, so the queries scan that region alone."""
    mul = group.mul
    inverses = [group.inv(delta) for delta in subset.elements]
    region = {mul(x, delta) for level in levels for x in level for delta in subset.elements}
    out = set()
    for a in region:
        steps = {mul(a, i) for i in inverses}
        if steps.isdisjoint(levels[0]) and not steps.isdisjoint(levels[1]):
            out.add(a)
    return frozenset(out)


_ORACLE_RADII = {"z": 12, "zd:2": 6, "free:2": 5, "cyclic:12": 6, "dihedral:6": 6, "heisenberg": 4}


def _criterion_oracles(seed, quick) -> CriterionResult:
    failures = []
    master = SplitMix64(seed)

    # outer boundary vs per-element distance oracle
    per_family_a = 3 if quick else 17
    checked_a = 0
    for fi, fam in enumerate(FAMILIES):
        group = parse_group(fam)
        levels = _word_levels(group, 1)
        for j in range(per_family_a):
            rng = master.child(20_000 + fi * 1000 + j)
            subset = _random_subset(group, rng, 12, uniform=(j % 2 == 1))
            lib = outer_boundary(group, subset).member_set
            oracle = _distance_one_oracle(group, subset, levels)
            if lib != oracle:
                failures.append(f"{fam}: boundary oracle mismatch on {subset.provenance}")
            checked_a += 1

    # ball layers vs independent word-length searches
    per_family_b = 25 if quick else 167
    checked_b = 0
    for fi, fam in enumerate(FAMILIES):
        group = parse_group(fam)
        radius = _ORACLE_RADII[fam]
        table = ball(group, radius)
        levels = _word_levels(group, radius)
        pool = list(table.elements())
        rng = master.child(30_000 + fi)
        for _ in range(per_family_b):
            g = pool[rng.below(len(pool))]
            expected = table.layer_of(g)
            if word_length(group, g) != expected:
                failures.append(f"{fam}: BFS word length disagrees with layer of {group.format(g)}")
            if _oracle_word_length(levels, g) != expected:
                failures.append(f"{fam}: word enumeration disagrees with layer of {group.format(g)}")
            checked_b += 1

    # growth closed forms for r <= 8
    z_vals = growth(parse_group("z"), 8)
    z2_vals = growth(parse_group("zd:2"), 8)
    f2_vals = growth(parse_group("free:2"), 8)
    if z_vals != tuple(2 * r + 1 for r in range(9)):
        failures.append("z growth differs from 2r+1")
    if z2_vals != tuple(2 * r * r + 2 * r + 1 for r in range(9)):
        failures.append("zd:2 growth differs from 2r^2+2r+1")
    if f2_vals != tuple(2 * 3**r - 1 for r in range(9)):
        failures.append("free:2 growth differs from 2*3^r-1")

    enough = quick or (checked_a >= 100 and checked_b >= 1000)
    detail = (
        f"{checked_a} boundary oracles, {checked_b} word-length queries, "
        f"3 closed growth forms; failures: {len(failures)}"
    )
    if failures:
        detail += "; first: " + failures[0]
    return CriterionResult(7, "independent oracle agreement", enough and not failures, detail)


def _run_criteria(seed, quick):
    reports: list[VerificationReport] = []
    instances = acceptance_instances(seed, quick)
    results = [
        _criterion_lemma31(instances, reports, quick),
        _criterion_half_mass(instances, reports),
        _criterion_transport(seed, quick, reports),
        _criterion_theorem_exhaustive(reports),
        _criterion_interval_sharpness(reports),
        _criterion_csc_boundary(instances, reports),
        _criterion_oracles(seed, quick),
    ]
    return results, [rep.to_json_dict() for rep in reports]  # each report encoded once


def serialize_run(results, report_dicts) -> bytes:
    """Canonical machine serialization of a run from its criterion results
    and its reports' JSON dicts, used for the determinism criterion."""
    lines = [canonical_json(d) for d in report_dicts]
    for res in results:
        lines.append(canonical_json(res.to_json_dict()))
    lines.append("")  # the final newline, without a second copy of the joined stream
    return "\n".join(lines).encode()


def run_acceptance(seed: int = DEFAULT_SEED, quick: bool = False) -> AcceptanceOutcome:
    # The reference pass runs first, so only its bytes are alive during the reported pass.
    reference = serialize_run(*_run_criteria(seed, quick))
    results, report_dicts = _run_criteria(seed, quick)
    identical = serialize_run(results, report_dicts) == reference
    detail = (
        "re-running the pipeline with the same seed reproduced the machine "
        "report stream byte for byte"
        if identical
        else "second run with the same seed produced a different report stream"
    )
    results.append(CriterionResult(8, "determinism", identical, detail))
    return AcceptanceOutcome(seed=seed, quick=quick, results=results, report_dicts=report_dicts)
