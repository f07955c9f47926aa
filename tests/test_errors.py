"""Cross-check failures: one message format, ``name: key = value, ...``.

Each case breaks one route of a cross-check and asserts the whole message
that ``errors.check`` raises: what was checked, its inputs and every value,
rationals as exact p/q.
"""

import dataclasses
from fractions import Fraction

import pytest

from rslab import charclass, cli, intersections, lie, manifest
from rslab.charclass import RSIndexReport, product_rs_index
from rslab.errors import ConsistencyError, check
from rslab.holonomy import HolonomyModel, sphere_check
from rslab.intersections import CISpec, build_ci, hodge_numbers


def test_check_formats_values_only_on_failure():
    class Loud:
        def __str__(self):
            raise AssertionError("formatted on success")

    check("quiet", True, value=Loud())
    with pytest.raises(ConsistencyError) as failure:
        check("routes", False, at=(Fraction(1, 2), 3), one=(4,), rows=[[Fraction(-2, 6)]],
              **{"a + b": Fraction(7)})
    assert str(failure.value) == "routes at (1/2, 3): one = (4,), rows = [[-1/3]], a + b = 7"


def _sphere(monkeypatch, capsys):
    casimir = lie.RootSystem.casimir
    monkeypatch.setattr(lie.RootSystem, "casimir", lambda self, lam: casimir(self, lam) + 1)
    sphere_check(7)


def _spinor_model(monkeypatch, capsys):
    v7 = (Fraction(0), Fraction(-1), Fraction(1))
    HolonomyModel("X", lie.g2(), 7, tangent={v7: 1}, spinor={v7: 1})


def _signature_routes(monkeypatch, capsys):
    fermat = cli.fermat_signature
    monkeypatch.setattr(cli, "fermat_signature", lambda m, d: fermat(m, d) + 1)
    assert cli.main(["ci", "-n", "4", "-d", "4", "--method", "both"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    raise ConsistencyError(captured.err.removeprefix("consistency failure: ").rstrip("\n"))


def _product_index(monkeypatch, capsys):
    quartic = build_ci(CISpec(2, (4,))).profile
    split = charclass.rs_index(quartic)
    shifted = RSIndexReport(split.total + 1, split.dirac_tangent, split.dirac)
    monkeypatch.setattr(charclass, "rs_index", lambda profile: shifted)
    product_rs_index(quartic, quartic)


def _index_split(monkeypatch, capsys):
    paired = charclass._paired_top

    def shifted(pairs, pairing):  # the total pairs Ahat_n with 2n + 1, odd
        pairs = list(pairs)
        return paired(pairs, pairing) + pairs[-1][1][1] % 2

    monkeypatch.setattr(charclass, "_paired_top", shifted)
    charclass.rs_index(build_ci(CISpec(2, (4,))).profile)


def _serre(monkeypatch, capsys):
    monkeypatch.setattr(intersections, "evaluate_genus", lambda genus, profile: (2, -20, 3))
    hodge_numbers(build_ci(CISpec(2, (4,))))


def _middle_row_non_integral(monkeypatch, capsys):
    # Serre-dual chi_p whose middle row would be nonnegative, but not integral
    chi = (Fraction(3, 2), Fraction(-20), Fraction(3, 2))
    monkeypatch.setattr(intersections, "evaluate_genus", lambda genus, profile: chi)
    hodge_numbers(build_ci(CISpec(2, (4,))))


def _middle_row_negative(monkeypatch, capsys):
    monkeypatch.setattr(intersections, "evaluate_genus", lambda genus, profile: (0, -20, 0))
    hodge_numbers(build_ci(CISpec(2, (4,))))


def _hodge_euler(monkeypatch, capsys):
    # Serre-dual chi_p with an integral nonnegative middle row (1, 1, 1, 1), the
    # quintic's table with h^{2,1} = 1 instead of 101
    monkeypatch.setattr(intersections, "evaluate_genus", lambda genus, profile: (0,) * 4)
    hodge_numbers(build_ci(CISpec(3, (5,))))


def _wang(monkeypatch, capsys):
    invariants = intersections.ci_invariants

    def shifted(m):
        inv = invariants(m)
        return dataclasses.replace(inv, signature=inv.signature + 2)

    monkeypatch.setattr(intersections, "ci_invariants", shifted)
    manifest._wang_cy4_b4minus(4, [6])


def _weight_system(monkeypatch, capsys):
    system = lie.type_b(3)
    dimension = system._dimension  # the label-level Weyl formula the size check reads
    monkeypatch.setattr(system, "_dimension", lambda labels: dimension(labels) + 1)
    system.weight_multiplicities((Fraction(1), Fraction(0), Fraction(0)))


@pytest.mark.parametrize(
    "breaks, message",
    [
        (_sphere, "sphere Casimir: n = 7, root_data = 53/4, closed_form = 49/4"),
        (_spinor_model, "spinor model: group = X, dimension = 7, expected = 8"),
        (
            _signature_routes,
            "signature routes: spec = CISpec(n=4, degrees=(4,)), "
            "characteristic_classes = 100, series = 101",
        ),
        (
            _product_index,
            "product index: left_chern = (0, 6), left_pairing = 4, right_chern = (0, 6), "
            "right_pairing = 4, direct = -156, combined = -152",
        ),
        (
            _index_split,
            "index split: chern = (0, 6), pairing = 4, total = -37, twisted + dirac = -38",
        ),
        (
            _serre,
            "Serre duality of chi_p: spec = CISpec(n=2, degrees=(4,)), chi = (2, -20, 3), "
            "mirrored = (3, -20, 2)",
        ),
        (
            _middle_row_non_integral,
            "middle Hodge row: spec = CISpec(n=2, degrees=(4,)), row = (1/2, 20, 1/2)",
        ),
        (
            _middle_row_negative,
            "middle Hodge row: spec = CISpec(n=2, degrees=(4,)), row = (-1, 20, -1)",
        ),
        (
            _hodge_euler,
            "Euler number of the Hodge table: spec = CISpec(n=3, degrees=(5,)), table = 0, "
            "c_n = -200",
        ),
        (
            _wang,
            "b4- of a Calabi-Yau fourfold: n = 4, degrees = [6], "
            "(b4 - signature)/2 = 851, b2 + 2 h13 - 1 = 852",
        ),
        (
            _weight_system,
            "weight system size: system = B3, highest_weight = (1, 0, 0), "
            "multiplicities = 7, weyl_dimension = 8",
        ),
    ],
    ids=["holonomy-sphere", "holonomy-spinors", "cli-signature", "charclass-product",
         "charclass-index-split", "intersections-serre", "intersections-middle-row-fraction",
         "intersections-middle-row-negative", "intersections-euler", "manifest-wang",
         "lie-weight-system"],
)
def test_failed_cross_check_names_inputs_and_values(monkeypatch, capsys, breaks, message):
    with pytest.raises(ConsistencyError) as failure:
        breaks(monkeypatch, capsys)
    assert str(failure.value) == message
