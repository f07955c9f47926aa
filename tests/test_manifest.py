"""Regression manifest: loading, running, overriding, failure capture."""

import inspect
import json

import pytest

from rslab import intersections
from rslab.errors import InputError
from rslab.manifest import CHECKS, ManifestEntry, RegressionManifest, encode


def test_default_manifest_all_green():
    manifest = RegressionManifest.load()
    assert len(manifest.entries) >= 20
    outcomes = manifest.run()
    bad = [(r.entry.entry_id, r.error) for r in outcomes if not r.passed]
    assert bad == []


def test_every_entry_carries_a_source():
    manifest = RegressionManifest.load()
    assert all(entry.source for entry in manifest.entries)
    assert all(entry.description for entry in manifest.entries)


def test_id_filter():
    manifest = RegressionManifest.load()
    subset = manifest.run(id_filter="sphere")
    assert [r.entry.entry_id for r in subset] == [
        "sphere-casimir-7",
        "sphere-casimir-16",
    ]
    assert manifest.run(id_filter="zzz-no-such-entry") == []


def test_duplicate_ids_rejected():
    entry = ManifestEntry(
        entry_id="dup",
        description="",
        check="ci_ahat",
        args={"n": 2, "degrees": [4]},
        expected=2,
        source="x",
    )
    with pytest.raises(InputError):
        RegressionManifest([entry, entry], path=None)


def _write_manifest(path, entries):
    path.write_text(json.dumps(entries), encoding="utf-8")


def test_env_override_and_failure_reporting(tmp_path, monkeypatch):
    custom = tmp_path / "custom.json"
    _write_manifest(
        custom,
        [
            {
                "id": "good",
                "description": "quartic surface Ahat",
                "check": "ci_ahat",
                "args": {"n": 2, "degrees": [4]},
                "expected": 2,
                "source": "s",
            },
            {
                "id": "bad-value",
                "description": "wrong on purpose",
                "check": "ci_ahat",
                "args": {"n": 2, "degrees": [4]},
                "expected": 3,
                "source": "s",
            },
            {
                "id": "check-raises",
                "description": "the two b4- routes disagree",
                "check": "wang_cy4_b4minus",
                "args": {"n": 4, "degrees": [6]},
                "expected": 0,
                "source": "s",
            },
        ],
    )
    hodge_numbers = intersections.hodge_numbers

    def h13_off_by_one(manifold):
        table = [list(row) for row in hodge_numbers(manifold)]
        table[1][3] += 1
        return tuple(tuple(row) for row in table)

    monkeypatch.setattr(intersections, "hodge_numbers", h13_off_by_one)
    monkeypatch.setenv("RSLAB_MANIFEST", str(custom))
    outcomes = RegressionManifest.load().run()
    by_id = {r.entry.entry_id: r for r in outcomes}
    assert by_id["good"].passed
    assert not by_id["bad-value"].passed and by_id["bad-value"].actual == 2
    assert not by_id["check-raises"].passed
    assert by_id["check-raises"].error.startswith(
        "ConsistencyError: b4- of a Calabi-Yau fourfold: "
    )


def test_explicit_path_beats_env(tmp_path, monkeypatch):
    chosen = tmp_path / "chosen.json"
    decoy = tmp_path / "decoy.json"
    entry = {
        "id": "only",
        "description": "d",
        "check": "dimension_identities",
        "args": {"real_dim": 4},
        "expected": True,
        "source": "s",
    }
    _write_manifest(chosen, [entry])
    _write_manifest(decoy, [dict(entry, id="decoy")])
    monkeypatch.setenv("RSLAB_MANIFEST", str(decoy))
    manifest = RegressionManifest.load(chosen)
    assert [e.entry_id for e in manifest.entries] == ["only"]


def test_unknown_check_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    _write_manifest(
        bad,
        [
            {
                "id": "x",
                "description": "d",
                "check": "no_such_check",
                "args": {},
                "expected": 1,
                "source": "s",
            }
        ],
    )
    with pytest.raises(InputError):
        RegressionManifest.load(bad)


def test_missing_field_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    _write_manifest(bad, [{"id": "x", "check": "ci_ahat"}])
    with pytest.raises(InputError):
        RegressionManifest.load(bad)


GOOD_ENTRY = {
    "id": "x",
    "description": "d",
    "check": "ci_ahat",
    "args": {"n": 2, "degrees": [4]},
    "expected": 2,
    "source": "s",
}


@pytest.mark.parametrize(
    "entries, message",
    [
        ([1], r"^manifest entry 0 is not an object$"),
        ([GOOD_ENTRY, dict(GOOD_ENTRY, id="y", args=[2, [4]])],
         r"^manifest entry 1: args must be an object$"),
        ([dict(GOOD_ENTRY, id=["x"])],
         r"^manifest entry 0: id, description, check and source must be strings$"),
        ([dict(GOOD_ENTRY, check=["ci_ahat"])],
         r"^manifest entry 0: id, description, check and source must be strings$"),
        ([GOOD_ENTRY, dict(GOOD_ENTRY, id="y", args={"n": 2, "degrees": [4], "degree": [4]})],
         r"^manifest entry 1: bad args for ci_ahat: got an unexpected keyword "
         r"argument 'degree'$"),
        ([dict(GOOD_ENTRY, args={"n": 2})],
         r"^manifest entry 0: bad args for ci_ahat: missing a required argument: "
         r"'degrees'$"),
        ([dict(GOOD_ENTRY, check="topological_kernel",
               args={"family": "G2", "b2": 0, "b3": 1, "b_4minus": 7, "hodge_numbers": [3]})],
         r"^manifest entry 0: bad args for topological_kernel: got an unexpected keyword "
         r"argument 'b_4minus'$"),
        ([dict(GOOD_ENTRY, check="topological_index", args={"family": "HK", "n": 1, "hodges": [20]})],
         r"^manifest entry 0: bad args for topological_index: got an unexpected keyword "
         r"argument 'hodges'$"),
        ([dict(GOOD_ENTRY, check="product_rs_index",
               args={"left": {"n": 2}, "right": {"n": 2, "degrees": [4]}})],
         r"^manifest entry 0: bad args for product_rs_index: left: missing a required "
         r"argument: 'degrees'$"),
        ([dict(GOOD_ENTRY, check="product_rs_index",
               args={"left": {"n": 2, "degrees": [4]}, "right": {"n": 2, "degrees": [4], "d": 4}})],
         r"^manifest entry 0: bad args for product_rs_index: right: got an unexpected keyword "
         r"argument 'd'$"),
        ([dict(GOOD_ENTRY, check="product_rs_index",
               args={"left": [2, [4]], "right": {"n": 2, "degrees": [4]}})],
         r"^manifest entry 0: bad args for product_rs_index: left must be an object with "
         r"keys n and degrees$"),
    ],
    ids=["not-an-object", "args-list", "id-list", "check-list", "args-unknown-key",
         "args-missing-key", "topological-kernel-unknown-key", "topological-index-unknown-key",
         "product-index-missing-key", "product-index-unknown-key", "product-index-list-factor"],
)
def test_malformed_entries_rejected(tmp_path, entries, message):
    bad = tmp_path / "bad.json"
    _write_manifest(bad, entries)
    with pytest.raises(InputError, match=message):
        RegressionManifest.load(bad)


CI = "(n: 'int', degrees: 'Sequence[int]') -> 'int'"
MODEL = "(kind: 'str', parameter: 'Optional[int]' = None)"
TOPOLOGY = "(family: 'str', n=None, hodge=(), b2=None, b3=None, b4_minus=None) -> 'int'"


def test_check_parameter_lists():
    """The argument contract that RSLAB_MANIFEST files are written against."""
    assert {name: str(inspect.signature(fn)) for name, fn in CHECKS.items()} == {
        "ci_signature": CI,
        "ci_euler": CI,
        "ci_ahat": CI,
        "ci_rs_index": CI,
        "ci_rs_kernel": CI,
        "ci_hodge_number": "(n: 'int', degrees: 'Sequence[int]', p: 'int', q: 'int') -> 'int'",
        "dimension_identities": "(real_dim: 'int') -> 'bool'",
        "holonomy_summand_dims": MODEL + " -> 'List[int]'",
        "holonomy_graded_dims": MODEL + " -> 'Dict[str, List[int]]'",
        "parallel_rs": MODEL + " -> 'int'",
        "parallel_spinors": MODEL + " -> 'int'",
        "qk_survivors": "(m: 'int') -> 'List[str]'",
        "qk_kernel_formula": "(m: 'int') -> 'Optional[str]'",
        "sphere_casimir": "(n: 'int') -> 'str'",
        "topological_kernel": TOPOLOGY,
        "topological_index": TOPOLOGY,
        "symmetric_catalog": "() -> 'Dict[str, int]'",
        "spin7_identity": "() -> 'bool'",
        "hk_identity": "(n: 'int') -> 'bool'",
        "product_rs_index": "(left: 'Dict[str, object]', right: 'Dict[str, object]') -> 'int'",
        "product_parallel": "(left: 'Sequence[int]', right: 'Sequence[int]') -> 'int'",
        "wang_cy4_b4minus": CI,
    }


@pytest.mark.parametrize(
    "check, args, message",
    [
        ("ci_hodge_number", {"n": 2, "degrees": [4], "p": -1, "q": 0},
         "h^(p,q) needs 0 <= p, q <= 2, got (-1, 0)"),
        ("ci_hodge_number", {"n": 2, "degrees": [4], "p": 1, "q": 5},
         "h^(p,q) needs 0 <= p, q <= 2, got (1, 5)"),
        ("ci_signature", {"n": 3, "degrees": [4]}, "no signature in real dimension 6"),
        ("ci_rs_kernel", {"n": 3, "degrees": [2, 2]},
         "X_3(2,2): the kernel is determined only when c1 = 0 and n >= 2"),
        ("ci_rs_kernel", {"n": 1, "degrees": [3]},
         "X_1(3): the kernel is determined only when c1 = 0 and n >= 2"),
        ("holonomy_graded_dims", {"kind": "g2"}, "G2 has no graded spin-3/2 bundle"),
    ],
    ids=["hodge-negative-index", "hodge-index-past-n", "signature-odd-dimension",
         "kernel-positive-c1", "kernel-torus", "graded-g2"],
)
def test_out_of_domain_args_name_the_entry(tmp_path, check, args, message):
    chosen = tmp_path / "manifest.json"
    _write_manifest(chosen, [dict(GOOD_ENTRY, id="off", check=check, args=args)])
    manifest = RegressionManifest.load(chosen)
    with pytest.raises(InputError) as caught:
        manifest.run()
    assert str(caught.value) == f"manifest entry 0 ('off'): {message}"


def test_wang_relation_refuses_other_dimensions_before_building(monkeypatch):
    def unreachable(spec):
        raise AssertionError(f"built {spec}")

    monkeypatch.setattr(intersections, "build_ci", unreachable)
    with pytest.raises(InputError, match="^this relation is specific to fourfolds$"):
        CHECKS["wang_cy4_b4minus"](n=3, degrees=[5])


@pytest.mark.parametrize(
    "check, args, total",
    [
        ("ci_euler", {"n": 401, "degrees": [403]}, "n <= 400, got 401"),
        ("product_rs_index",
         {"left": {"n": 200, "degrees": [202]}, "right": {"n": 201, "degrees": [203]}},
         "n1 + n2 <= 400, got 401"),
        ("ci_euler", {"n": 400, "degrees": [402]}, None),
        ("product_rs_index",
         {"left": {"n": 200, "degrees": [202]}, "right": {"n": 200, "degrees": [202]}}, None),
    ],
    ids=["ci-401", "product-401", "ci-400", "product-400"],
)
def test_complete_intersections_past_the_limit_exit_2_naming_the_entry(
    tmp_path, monkeypatch, capsys, check, args, total
):
    from rslab.cli import main

    built = []

    def stand_in(spec):  # records the spec and stops before any class is built
        built.append(spec.n)
        raise InputError("stopped at build_ci")

    chosen = tmp_path / "manifest.json"
    _write_manifest(chosen, [dict(GOOD_ENTRY, id="big", check=check, args=args)])
    monkeypatch.setenv("RSLAB_MANIFEST", str(chosen))
    monkeypatch.setattr(intersections, "build_ci", stand_in)
    assert main(["verify-paper"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    reason = "stopped at build_ci" if total is None else f"complete intersections need {total}"
    assert captured.err == f"error: manifest entry 0 ('big'): {reason}\n"
    assert bool(built) == (total is None)


@pytest.mark.parametrize("kind", ["directory", "not-utf-8"])
def test_unreadable_manifest_rejected(tmp_path, monkeypatch, kind):
    chosen = tmp_path / "manifest.json"
    if kind == "directory":
        chosen.mkdir()
    else:
        chosen.write_bytes(b'[{"id": "caf\xe9"}]')
    monkeypatch.setenv("RSLAB_MANIFEST", str(chosen))
    with pytest.raises(InputError, match=f"^cannot read manifest {chosen}: "):
        RegressionManifest.load()


def test_encode_normalization():
    from fractions import Fraction

    assert encode(Fraction(3)) == 3
    assert encode(Fraction(49, 4)) == "49/4"
    assert encode((1, [Fraction(1, 2)])) == [1, ["1/2"]]
    assert encode({"a": True, "b": None, 7: Fraction(-2)}) == {"a": True, "b": None, "7": -2}
    with pytest.raises(InputError, match="cannot encode a object as JSON"):
        encode(object())
