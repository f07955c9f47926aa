"""Command-line interface: envelopes, exit codes, determinism."""

import json
import os
import sys

import pytest

from rslab.cli import main
from rslab.errors import InputError


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _run_json(capsys, *argv):
    code, out = _run(capsys, *argv)
    return code, json.loads(out) if out.strip().startswith("{") else None


def test_ci_json_envelope(capsys):
    code, payload = _run_json(capsys, "ci", "-n", "4", "-d", "4", "--json")
    assert code == 0
    assert set(payload) == {"command", "inputs", "results", "citations"}
    assert payload["command"] == "ci"
    assert payload["citations"] == []
    assert payload["results"]["invariants"]["signature"] == 100
    assert payload["results"]["manifold"] == "X_4(4)"


def test_ci_kernel_and_both_methods(capsys):
    code, payload = _run_json(
        capsys, "ci", "-n", "2", "-d", "4", "--kernel", "--method", "both", "--json"
    )
    assert code == 0
    results = payload["results"]
    assert results["signature_by_series"] == -16
    assert results["kernel"]["kernel_dimension"] == 38


def test_ci_comma_separated_degrees(capsys):
    code, payload = _run_json(capsys, "ci", "-n", "3", "-d", "2,2", "--json")
    assert code == 0
    assert payload["results"]["manifold"] == "X_3(2,2)"
    assert payload["inputs"]["degrees"] == [2, 2]


def test_ci_series_needs_even_dimension(capsys):
    code, out = _run(capsys, "ci", "-n", "3", "-d", "5", "--method", "series")
    assert code == 2


def test_ci_usage_errors(capsys):
    assert _run(capsys, "ci", "-n", "2", "-d", "x")[0] == 2
    assert _run(capsys, "ci", "-n", "2")[0] == 2
    assert _run(capsys, "nonsense")[0] == 2


def test_bad_integer_list_names_the_option_not_the_parser(capsys):
    assert main(["ci", "-n", "2", "-d", "x"]) == 2
    err = capsys.readouterr().err
    assert err.endswith("error: argument -d/--degree: bad integer list 'x'\n")
    assert "_parse" not in err
    assert main(["holonomy", "su", "3", "--hodge", "1,x"]) == 2
    assert capsys.readouterr().err.endswith("error: argument --hodge: bad integer list '1,x'\n")
    assert main(["product", "ci", "2:x", "2:4"]) == 2
    assert capsys.readouterr().err == "error: bad integer list 'x'\n"


RICCI_FLAT = "Ricci-flat Kaehler metric exists; kernel is an exact Hodge sum"
POSITIVE = "positive first Chern class: |index| bounds the kernel from below"


@pytest.mark.parametrize(
    "n, degrees, block",
    [
        ("2", "4", {"index": -38, "note": RICCI_FLAT, "kernel_dimension": 38,
                    "index_from_hodge": -38}),
        ("1", "3", {"index": 0,
                    "note": "flat torus case: the Hodge-sum kernel formula needs n >= 2"}),
        ("2", "6", {"index": -152,
                    "note": "negative first Chern class: harmonic spinors inject into ker Q",
                    "kernel_lower_bound": 8, "nontrivial_on_spinor_image": True,
                    "index_differs_from_dirac": True}),
        ("2", "2", {"index": 0, "note": POSITIVE, "ke_positive_window": True}),
        ("4", "2,3", {"index": -54, "note": POSITIVE, "kernel_lower_bound": 54,
                      "nontrivial_on_spinor_image": False}),
    ],
    ids=["ricci-flat", "torus", "negative", "positive-hypersurface", "positive-codim-2"],
)
def test_ci_kernel_block_per_regime(capsys, n, degrees, block):
    code, out = _run(capsys, "ci", "-n", n, "-d", degrees, "--kernel")
    assert code == 0
    text = ["kernel:"] + [f"  {key}: {value}" for key, value in block.items()]
    assert out.splitlines()[-len(text):] == text
    code, payload = _run_json(capsys, "ci", "-n", n, "-d", degrees, "--kernel", "--json")
    assert code == 0
    assert payload["results"]["kernel"] == block


def test_holonomy_human_output(capsys):
    code, out = _run(capsys, "holonomy", "g2")
    assert code == 0
    assert "group: G2" in out
    assert "parallel_rs_fields: 0" in out


def test_holonomy_spin7_topology(capsys):
    code, payload = _run_json(
        capsys,
        "holonomy",
        "spin7",
        "--b2",
        "4",
        "--b3",
        "33",
        "--b4minus",
        "60",
        "--json",
    )
    assert code == 0
    assert payload["results"]["topology"]["kernel_dimension"] == 97
    assert payload["results"]["topology"]["rs_index"] == -31
    grades = payload["results"]["graded"]
    assert [t["dimension"] for t in grades["plus"]] == [8, 48]
    assert sorted(t["dimension"] for t in grades["minus"]) == [21, 35]


def test_holonomy_qk_analysis(capsys):
    code, payload = _run_json(capsys, "holonomy", "sp1sp", "2", "--b2", "3", "--json")
    assert code == 0
    results = payload["results"]
    assert results["kernel_formula"] == "b2 + 1"
    assert results["topology"]["kernel_dimension"] == 4
    assert len(results["survivors"]) == 2


def test_holonomy_hodge_echoes_the_parsed_list(capsys):
    code, payload = _run_json(capsys, "holonomy", "su", "3", "--hodge", "1,2", "--json")
    assert code == 0
    assert payload["inputs"]["hodge"] == [1, 2]


def test_holonomy_missing_parameter(capsys):
    assert _run(capsys, "holonomy", "su")[0] == 2


@pytest.mark.parametrize(
    "argv, field",
    [
        ("g2 --b2 1 --b3 2 --b4minus 5", "G2 input takes no b4_minus"),
        ("su 3 --hodge 1,2 --b2 5", "CY input takes no b2"),
        ("sp 2 --hodge 1,2 --b3 4", "HK input takes no b3"),
        ("sp1sp 2 --b2 3 --hodge 1", "QK input takes no hodge"),
        ("u 3 --b2 1", "no kernel formula is wired up for holonomy kind 'u'"),
        ("so 5 --hodge 1", "no kernel formula is wired up for holonomy kind 'so'"),
        ("spin7 --b2 1 --b3 1", "SPIN7 input needs b4_minus"),
        ("g2 --b3 1", "G2 input needs b2"),
        ("spin7 --b2 -1 --b3 1 --b4minus 1", "b2 must be nonnegative"),
        ("su 3 --hodge 1", "CY input needs n >= 2 and the row h^{1,1}..h^{1,n-1}"),
    ],
)
def test_holonomy_refuses_topology_its_family_does_not_take(capsys, argv, field):
    assert main(["holonomy", *argv.split()]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {field}\n"


def test_rep_queries(capsys):
    code, payload = _run_json(
        capsys, "rep", "b3", "--weight", "3/2,1/2,1/2", "--json"
    )
    assert code == 0
    assert payload["results"]["dimension"] == 48
    assert payload["results"]["casimir"] == "49/4"


def test_rep_tensor_and_point(capsys):
    code, payload = _run_json(
        capsys,
        "rep",
        "g2",
        "--weight",
        "0,-1,1",
        "--tensor",
        "0,-1,1",
        "--point",
        "1,2,3",
        "--json",
    )
    assert code == 0
    results = payload["results"]
    assert results["tensor_dimension"] == 49
    assert sorted(t["dimension"] for t in results["tensor_decomposition"]) == [
        1,
        7,
        14,
        27,
    ]
    # moments sum(mult * <nu, (1, 2, 3)>^k), k = 0..4, over the weights nu of V(0, -1, 1)
    assert results["character_moments"] == ["7", "0", "12", "0", "36"]
    assert payload["inputs"]["point"] == "1,2,3"


@pytest.mark.parametrize(
    "argv",
    [
        ["g2", "--weight", "-1,-1,2"],
        ["g2", "--weight", "0,-1,1", "--tensor", "-1,-1,2"],
        ["b3", "--weight", "1,0,0", "--point", "-1/2,2,3"],
    ],
    ids=["weight", "tensor", "point"],
)
def test_rep_takes_a_negative_value_after_a_space(capsys, argv):
    *head, option, value = argv
    for form in ([], ["--json"]):
        spaced = _run(capsys, "rep", *argv, *form)
        glued = _run(capsys, "rep", *head, f"{option}={value}", *form)
        abbreviated = _run(capsys, "rep", *head, option[:4], value, *form)  # --we, --te, --po
        assert spaced == glued == abbreviated and spaced[0] == 0


def test_rep_option_without_its_value_is_a_usage_error(capsys):
    for option in ("--weight", "--wei"):
        assert main(["rep", "g2", option, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("error: argument --weight: expected one argument\n")


def test_rep_multiplicities_list_the_weight_system(capsys):
    code, payload = _run_json(capsys, "rep", "b3", "--weight", "1,0,0", "--multiplicities",
                              "--json")
    assert code == 0
    weights = [["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "-1"], ["0", "0", "0"],
               ["0", "0", "1"], ["0", "1", "0"], ["1", "0", "0"]]
    assert payload["results"]["weights"] == [{"weight": w, "multiplicity": 1} for w in weights]


@pytest.mark.parametrize(
    "argv, message",
    [
        ("rep g2 --weight 1,x,0", "bad rational list '1,x,0'"),
        ("product holonomy su:x g2", "bad holonomy token 'su:x'; use kind:parameter"),
        ("holonomy su 1", "su needs a parameter >= 2, got 1"),
        ("holonomy su", "su needs a parameter >= 2, got None"),
        ("holonomy sp1sp 1 --b2 1", "sp1sp needs a parameter >= 2, got 1"),
        ("product holonomy su:1 g2", "su needs a parameter >= 2, got 1"),
        ("ci -n 4 -d 3,3 --method series",
         "the series signature route applies to hypersurfaces only"),
        ("sphere --upto 2", "--upto must be at least 3"),
        ("ci -n 101 -d 103 --hodge", "hodge_numbers needs n <= 100, got 101"),
        ("ci -n 100000 -d 100002", "complete intersections need n <= 400, got 100000"),
        ("product ci 100000:100002 2:4",
         "complete intersections need n1 + n2 <= 400, got 100002"),
    ],
    ids=["rational-list", "holonomy-token", "su-1", "su-missing", "sp1sp-1", "product-su-1",
         "series-codim-2", "upto-2", "hodge-above-limit", "ci-above-limit",
         "product-ci-above-limit"],
)
def test_usage_errors_exit_2_with_their_message(capsys, argv, message):
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_rep_product_token(capsys):
    code, payload = _run_json(
        capsys, "rep", "c1xc2", "--weight", "1,1,0", "--json"
    )
    assert code == 0
    assert payload["results"]["dimension"] == 8


def test_rep_wrong_width(capsys):
    assert main(["rep", "b3", "--weight", "1,0"]) == 2
    assert main(["rep", "b3", "--weight", "1,0,0", "--tensor", "1,0"]) == 2
    assert main(["rep", "b3", "--weight", "1,0,0", "--point", "1,2"]) == 2
    assert capsys.readouterr().err == (
        "error: (1, 0): B3 weights have 3 coordinates\n"
        "error: (1, 0): B3 weights have 3 coordinates\n"
        "error: B3 points take 3 coordinates, got 2\n"
    )
    assert _run(capsys, "rep", "q5", "--weight", "1,0")[0] == 2


@pytest.mark.parametrize("token", ["b3x", "xb3", "c1xxc2", "x"])
def test_rep_empty_system_factor(capsys, token):
    assert main(["rep", token, "--weight", "1,0,0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: empty factor in system token {token!r}\n"


def test_rep_g2_weight_off_trace_zero_plane(capsys):
    # Dynkin labels (0, 0), but no weight of G2
    assert main(["rep", "g2", "--weight", "1,1,1"]) == 2
    assert main(["rep", "g2", "--weight", "1/3,1/3,1/3", "--tensor", "0,-1,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: (1, 1, 1) is off the trace-zero plane of G2\n"
        "error: (1/3, 1/3, 1/3) is off the trace-zero plane of G2\n"
    )


def test_sphere_single_and_range(capsys):
    code, payload = _run_json(capsys, "sphere", "-n", "7", "--json")
    assert code == 0
    assert payload["results"]["checks"][0]["casimir"] == "49/4"
    code, payload = _run_json(capsys, "sphere", "--upto", "10", "--json")
    assert code == 0
    assert len(payload["results"]["checks"]) == 8
    assert _run(capsys, "sphere", "-n", "7", "--upto", "9")[0] == 2


@pytest.mark.parametrize("argv", [["-n", "100000"], ["--upto", "100000"], ["--upto", "401"]])
def test_sphere_past_the_limit_exits_2_before_any_check(monkeypatch, capsys, argv):
    def unreachable(n):
        raise AssertionError(f"sphere_check({n}) ran past the limit")

    monkeypatch.setattr("rslab.cli.sphere_check", unreachable)
    assert main(["sphere", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: sphere checks stop at n = 400, got {argv[1]}\n"


B4_PAST = "got 37509367104 x 4 = 150037468416 for (12, 9, 6, 3)"
SPINOR = ["1/2"] * 4


@pytest.mark.parametrize(
    "argv, limit, refusal, built",
    [
        ("rep b4 --weight 12,9,6,3 --multiplicities", None, B4_PAST, []),
        ("rep b4 --weight 12,9,6,3 --point 1,0,0,0", None, B4_PAST, []),
        ("rep b4 --weight 12,9,6,3 --tensor 13,9,6,3", None, B4_PAST, []),
        ("rep b4 --weight 1/2,1/2,1/2,1/2 --tensor 12,9,6,3", None, None, [SPINOR]),
        # Klimyk reads the table --multiplicities built
        ("rep b4 --weight 1/2,1/2,1/2,1/2 --multiplicities --tensor 12,9,6,3", None, None,
         [SPINOR]),
        ("rep b4 --weight 12,9,6,3 --multiplicities --tensor 1/2,1/2,1/2,1/2", None, B4_PAST, []),
        ("rep a2 --weight 1,0,0 --multiplicities", 9, None, [["1", "0", "0"]]),
        ("rep a2 --weight 1,0,0 --multiplicities", 8, "got 3 x 3 = 9 for (1, 0, 0)", []),
        # equal dimensions: Klimyk enumerates the second factor
        ("rep a2 --weight 1,0,0 --tensor 0,0,-1", 8, "got 3 x 3 = 9 for (0, 0, -1)", []),
    ],
)
def test_weight_systems_past_the_limit_exit_2_before_they_are_built(
    monkeypatch, capsys, argv, limit, refusal, built
):
    from rslab import cli, lie

    requested = []
    original = lie.RootSystem.weight_multiplicities

    def stand_in(system, lam):
        requested.append([str(x) for x in lam])
        return original(system, lam)

    monkeypatch.setattr(lie.RootSystem, "weight_multiplicities", stand_in)
    if limit is not None:
        monkeypatch.setattr(cli, "WEIGHT_TABLE_LIMIT", limit)
    limit = cli.WEIGHT_TABLE_LIMIT
    code = main(argv.split())
    captured = capsys.readouterr()
    if refusal is None:
        assert code == 0 and captured.err == ""
    else:
        assert code == 2 and captured.out == ""
        message = f"weight systems need dimension x coordinates <= {limit}, {refusal}"
        assert captured.err == f"error: {message}\n"
    assert requested == built


@pytest.mark.parametrize(
    "argv, total, admitted",
    [
        ("ci -n 401 -d 403", "n <= 400, got 401", False),
        ("product ci 200:202 201:203", "n1 + n2 <= 400, got 401", False),
        ("ci -n 400 -d 402", None, True),
        ("product ci 200:202 200:202", None, True),
    ],
)
def test_complete_intersections_past_the_limit_exit_2_before_any_class(
    monkeypatch, capsys, argv, total, admitted
):
    built = []

    def stand_in(spec):  # records the spec and stops before any class is built
        built.append(spec.n)
        raise InputError("stopped at build_ci")

    monkeypatch.setattr("rslab.intersections.build_ci", stand_in)
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    if admitted:
        assert built and captured.err == "error: stopped at build_ci\n"
    else:
        assert not built
        assert captured.err == f"error: complete intersections need {total}\n"


@pytest.mark.parametrize(
    "argv, message, systems",
    [
        ("holonomy sp1sp 33", "sp1sp needs a parameter <= 32, got 33", []),
        ("product holonomy sp:2 so:401", "so needs a parameter <= 400, got 401", [("C", 2)]),
        ("rep a201 --weight 0", "root systems need rank <= 200, got 201", []),
        ("rep b201 --weight 0", "root systems need rank <= 200, got 201", []),
        ("rep c201 --weight 0", "root systems need rank <= 200, got 201", []),
        ("rep d201 --weight 0", "root systems need rank <= 200, got 201", []),
        ("rep c100xc101 --weight 0", "root systems need rank <= 200, got 201",
         [("C", 100), ("C", 101)]),
    ],
)
def test_models_and_systems_past_the_limit_exit_2_before_they_are_built(
    monkeypatch, capsys, argv, message, systems
):
    from rslab import lie

    requested = []
    shared = lie._shared

    def recorded(key, build):  # every root system a factory hands out
        requested.append(key)
        return shared(key, build)

    monkeypatch.setattr(lie, "_shared", recorded)
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert requested == systems


def test_product_ci(capsys):
    code, payload = _run_json(capsys, "product", "ci", "2:4", "2:4", "--json")
    assert code == 0
    assert payload["results"]["product_rs_index"] == -156
    assert payload["results"]["left"]["rs_index"] == -38


def test_product_ci_text(capsys):
    code, out = _run(capsys, "product", "ci", "2:4", "2:4")
    assert code == 0
    side = "  manifold: X_2(4)\n  rs_index: -38\n  dirac_index: 2\n"
    assert out == f"left:\n{side}right:\n{side}product_rs_index: -156\n"


def test_product_holonomy(capsys):
    code, payload = _run_json(capsys, "product", "holonomy", "sp:2", "sp:2", "--json")
    assert code == 0
    assert payload["results"]["parallel_rs_fields"] == 15
    assert payload["results"]["proven"] is True
    code, payload = _run_json(capsys, "product", "holonomy", "g2", "g2", "--json")
    assert code == 0
    assert payload["results"]["parallel_rs_fields"] == 1
    assert payload["results"]["proven"] is False


def test_product_bad_token(capsys):
    assert _run(capsys, "product", "ci", "2-4", "2:4")[0] == 2


def test_verify_paper_all_pass(capsys):
    code, out = _run(capsys, "verify-paper")
    assert code == 0
    assert "0 failures" in out
    assert "FAIL" not in out


def test_verify_paper_filter_and_json(capsys):
    code, payload = _run_json(capsys, "verify-paper", "--filter", "signature", "--json")
    assert code == 0
    assert payload["results"]["failures"] == 0
    assert all("signature" in e["id"] for e in payload["results"]["entries"])
    assert payload["citations"]
    assert _run(capsys, "verify-paper", "--filter", "zzz")[0] == 2


def test_verify_paper_reports_mismatch(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            [
                {
                    "id": "broken",
                    "description": "wrong on purpose",
                    "check": "ci_ahat",
                    "args": {"n": 2, "degrees": [4]},
                    "expected": 5,
                    "source": "s",
                }
            ]
        ),
        encoding="utf-8",
    )
    monkeypatch.setenv("RSLAB_MANIFEST", str(bad))
    code, out = _run(capsys, "verify-paper")
    assert code == 1
    assert "FAIL" in out and "broken" in out


def test_verify_paper_reports_a_failed_cross_check(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "bad.json"
    entry = {"id": "negative-kernel", "description": "no compact CY surface has h11 = 0",
             "check": "topological_kernel", "args": {"family": "CY", "n": 2, "hodge": [0]},
             "expected": 0, "source": "s"}
    bad.write_text(json.dumps([entry]), encoding="utf-8")
    monkeypatch.setenv("RSLAB_MANIFEST", str(bad))
    error = (
        "ConsistencyError: kernel formula: data = TopologicalInput(family='CY', n=2, "
        "hodge=(0,), b2=None, b3=None, b4_minus=None), kernel_dimension = -2"
    )
    code, out = _run(capsys, "verify-paper")
    assert code == 1
    assert out == (
        f"FAIL  negative-kernel  no compact CY surface has h11 = 0  [{error}]\n"
        "1 entries, 1 failures\n"
    )
    code, payload = _run_json(capsys, "verify-paper", "--json")
    assert code == 1
    (row,) = payload["results"]["entries"]
    assert row["error"] == error and row["actual"] is None and row["passed"] is False


@pytest.mark.parametrize(
    "entries",
    [[1], [{"id": "x", "description": "d", "check": "ci_ahat", "args": [2, [4]],
            "expected": 2, "source": "s"}],
     [{"id": "x", "description": "d", "check": "ci_ahat", "args": {"n": 2, "degree": [4]},
       "expected": 2, "source": "s"}],
     # binds at load; the check itself refuses the float degree
     [{"id": "x", "description": "d", "check": "ci_ahat", "args": {"n": 2, "degrees": [4.0]},
       "expected": 2, "source": "s"}],
     [{"id": "x", "description": "d", "check": "topological_kernel",
       "args": {"family": "G2", "b2": 0, "b3": 1, "b_4minus": 7, "hodge_numbers": [3]},
       "expected": 1, "source": "s"}],
     # binds at load; G2 data take no b4_minus
     [{"id": "x", "description": "d", "check": "topological_kernel",
       "args": {"family": "G2", "b2": 0, "b3": 1, "b4_minus": 7},
       "expected": 0, "source": "s"}],
     # bind at load; the holonomy layer refuses the types
     [{"id": "x", "description": "d", "check": "topological_kernel",
       "args": {"family": "G2", "b2": "0", "b3": 1}, "expected": 0, "source": "s"}],
     [{"id": "x", "description": "d", "check": "topological_kernel",
       "args": {"family": "CY", "n": 2, "hodge": 5}, "expected": 8, "source": "s"}],
     [{"id": "x", "description": "d", "check": "parallel_rs",
       "args": {"kind": "sp", "parameter": True}, "expected": 0, "source": "s"}],
     [{"id": "x", "description": "d", "check": "parallel_rs",
       "args": {"kind": "su", "parameter": "3"}, "expected": 2, "source": "s"}],
     # out of domain: the adapter refuses them before any cross-check can run
     [{"id": "x", "description": "d", "check": "ci_hodge_number",
       "args": {"n": 2, "degrees": [4], "p": -1, "q": 0}, "expected": 1, "source": "s"}],
     [{"id": "x", "description": "d", "check": "ci_hodge_number",
       "args": {"n": 2, "degrees": [4], "p": 5, "q": 0}, "expected": 0, "source": "s"}],
     [{"id": "x", "description": "d", "check": "ci_signature",
       "args": {"n": 3, "degrees": [4]}, "expected": 0, "source": "s"}],
     [{"id": "x", "description": "d", "check": "ci_rs_kernel",
       "args": {"n": 3, "degrees": [2, 2]}, "expected": 0, "source": "s"}],
     [{"id": "x", "description": "d", "check": "holonomy_graded_dims",
       "args": {"kind": "g2"}, "expected": {}, "source": "s"}],
     # a factor of a product index is bound like a complete-intersection check
     [{"id": "x", "description": "d", "check": "product_rs_index",
       "args": {"left": {"n": 2}, "right": {"n": 2, "degrees": [4]}}, "expected": -156,
       "source": "s"}],
     # int parameters: a float or bool is refused, not computed with
     [{"id": "x", "description": "d", "check": "sphere_casimir", "args": {"n": 7.0},
       "expected": "7", "source": "s"}],
     [{"id": "x", "description": "d", "check": "dimension_identities",
       "args": {"real_dim": 8.0}, "expected": True, "source": "s"}],
     [{"id": "x", "description": "d", "check": "hk_identity", "args": {"n": 2.0},
       "expected": True, "source": "s"}],
     *[[{"id": "x", "description": "d", "check": "product_parallel",
         "args": {"left": left, "right": [1, 0, 8]}, "expected": 1, "source": "s"}]
       for left in ([1, 0, 8, 9], [1], 5, [True, 0, 8])]],
    ids=["not-an-object", "args-list", "args-unknown-key", "args-float-degree",
         "topological-unknown-key", "topological-stray-field", "topological-string-betti",
         "topological-int-hodge", "parallel-bool-parameter", "parallel-string-parameter",
         "hodge-negative-index", "hodge-index-past-n", "signature-odd-dimension",
         "kernel-positive-c1", "graded-g2", "product-index-missing-key",
         "sphere-float-n", "identities-float-dim", "hk-float-n", "product-parallel-four",
         "product-parallel-one", "product-parallel-int", "product-parallel-bool"],
)
def test_verify_paper_malformed_manifest_exits_2(tmp_path, monkeypatch, capsys, entries):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(entries), encoding="utf-8")
    monkeypatch.setenv("RSLAB_MANIFEST", str(bad))
    assert main(["verify-paper"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: manifest entry 0")


def test_verify_paper_unreadable_manifest_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RSLAB_MANIFEST", str(tmp_path))
    assert main(["verify-paper"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read manifest {tmp_path}: ")


def test_json_output_is_reproducible(capsys):
    first = _run(capsys, "verify-paper", "--json")[1]
    second = _run(capsys, "verify-paper", "--json")[1]
    assert first == second
    third = _run(capsys, "holonomy", "sp1sp", "2", "--json")[1]
    fourth = _run(capsys, "holonomy", "sp1sp", "2", "--json")[1]
    assert third == fourth


def test_help_exits_zero(capsys):
    assert _run(capsys, "--help")[0] == 0


def test_closed_stdout_exits_141_without_traceback(tmp_path, monkeypatch, capsys):
    class ClosedPipe:
        """A stdout whose reader has gone away, on a file descriptor of its own."""

        def __init__(self):
            self.fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return self.fd

    pipe = ClosedPipe()
    monkeypatch.setattr(sys, "stdout", pipe)
    try:
        assert main(["ci", "-n", "4", "-d", "6", "--hodge"]) == 141
        # the descriptor now leads to devnull: a later flush cannot fail
        assert os.path.samestat(os.fstat(pipe.fd), os.stat(os.devnull))
    finally:
        os.close(pipe.fd)
    assert capsys.readouterr().err == ""
