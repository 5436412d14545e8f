"""CLI surface: JSON schemas, exit codes, determinism, mutation detection."""

import json

import pytest

from cubica.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_pure_count(capsys):
    code, doc = run_cli(capsys, "pure", "count", "0", "4")
    assert code == 0 and doc == {"count": 3}


def test_pure_enumerate(capsys):
    code, doc = run_cli(capsys, "pure", "enumerate", "--field", "5",
                        "--places",
                        '[{"poly": ["0", "1"]}, {"inf": true}]')
    assert code == 0
    assert doc["count"] == 1
    assert doc["models"][0]["pure"]["num"] == ["0", "1"]


def test_pure_twists_and_bitwists3(capsys):
    code, doc = run_cli(capsys, "pure", "twists", "--field", "7",
                        "--model", '{"pure": {"num": ["0", "1"], "den": ["1"]}}')
    assert code == 0 and doc["count"] == 3
    code, doc = run_cli(capsys, "pure", "bitwists3", "--field", "5")
    assert code == 0 and doc["count"] == 3


def test_analyze_y3_eq_3y_plus_x(capsys):
    code, doc = run_cli(capsys, "analyze", "--field", "5", "--model",
                        '{"impure": {"c": "1", "alpha": {"num": ["0", "1"]}}}')
    assert code == 0
    assert doc["total"] == [{"inf": True}]
    assert doc["genus"] == 0
    assert len(doc["partial"]) == 2


def test_analyze_over_q_requires_hints(capsys):
    model = '{"impure": {"c": "1", "alpha": {"num": ["4", "0", "2"], "den": ["-2", "0", "1"]}}}'
    code, _ = run_cli(capsys, "analyze", "--field", "q", "--model", model)
    assert code == 1
    code, doc = run_cli(capsys, "analyze", "--field", "q", "--model", model,
                        "--hints", '[["-2", "0", "1"], ["2", "0", "1"], ["0", "1"]]')
    assert code == 0
    assert doc["total"] == [{"poly": ["-2", "0", "1"]}]


def test_descend_document_shape(capsys):
    code, doc = run_cli(capsys, "descend", "--field", "5",
                        "--closure", '{"kummer": ["2"]}',
                        "--places", '[{"poly": ["2", "0", "1"]}]')
    assert code == 0
    assert set(doc) >= {"c", "alpha", "case", "theta", "report"}
    assert doc["case"] == "even"
    assert doc["alpha"]["den"] == ["2", "0", "1"]
    assert doc["report"]["genus"] == 0


def test_descend_all_signs_and_twists(capsys):
    code, doc = run_cli(capsys, "descend", "--field", "5",
                        "--closure", '{"kummer": ["0", "1"]}',
                        "--places", '[{"poly": ["4", "1"]}, {"poly": ["1", "1"]}]',
                        "--all-signs")
    assert code == 0 and doc["count"] == 2
    code, doc = run_cli(capsys, "descend", "--field", "5",
                        "--closure", '{"kummer": ["2"]}',
                        "--places", '[{"poly": ["2", "0", "1"]}]', "--twists")
    assert code == 0 and len(doc["twists"]) == 3


def test_descend_rejects_nonsplit(capsys):
    code, _ = run_cli(capsys, "descend", "--field", "5",
                      "--closure", '{"kummer": ["2"]}',
                      "--places", '[{"poly": ["0", "1"]}]')
    assert code == 1


def test_bitwists(capsys):
    code, doc = run_cli(capsys, "bitwists", "--tag", "R3322", "--field", "5")
    assert code == 0 and doc["count"] == 6 == doc["expected"]
    code, doc = run_cli(capsys, "bitwists", "--tag", "R33", "--field", "5",
                        "--params", '{"a": 0, "b": 2}')
    assert code == 0
    assert doc["model"]["impure"]["alpha"]["num"] == ["1", "0", "2"]


def test_bitwists_char2(capsys):
    code, doc = run_cli(capsys, "bitwists", "--tag", "R332_CHAR2", "--field", "2^2")
    assert code == 0 and doc["count"] == 4


def test_parshin_cover_cli(capsys):
    code, doc = run_cli(capsys, "parshin", "cover",
                        "--curve", '{"F": ["-5","0","0","0","4","0","4","0","1"]}',
                        "--point", '["1", "2"]')
    assert code == 0
    assert doc["c"] == "5"
    assert doc["witnesses"]["P_tilde"] == ["7/3", "-3278/81"]
    assert doc["alpha"]["B"] == ["-480", "-320"]


def test_schema_errors_exit_2(capsys):
    assert main(["analyze", "--field", "5", "--model", "not json"]) == 2
    capsys.readouterr()
    assert main(["analyze", "--field", "4", "--model", "{}"]) == 2
    capsys.readouterr()
    assert main(["descend", "--field", "5", "--closure", '{"kummer": ["2"]}',
                 "--places", '[{"poly": ["4", "0", "1"]}]']) == 2  # x^2-1 reducible
    capsys.readouterr()
    # a square constant gives no quadratic extension, over Q as over F_p
    assert main(["descend", "--field", "Q", "--closure", '{"kummer": ["4"]}',
                 "--places", '[{"inf": true}]']) == 2
    assert "non-square" in capsys.readouterr().err
    # a zero denominator in a point or a coefficient is malformed input
    octic = '{"F": [1, 0, 0, 0, 0, 0, 0, 0, 1]}'
    assert main(["parshin", "cover", "--curve", octic, "--point", '["1/0", "1"]']) == 2
    assert "bad element '1/0'" in capsys.readouterr().err
    assert main(["parshin", "cover", "--curve", '{"F": ["1/0", 0, 0, 0, 1]}',
                 "--point", '["0", "1"]']) == 2
    capsys.readouterr()


def test_domain_errors_exit_1(capsys):
    # degenerate model: alpha^2 = 4c^3
    assert main(["analyze", "--field", "5", "--model",
                 '{"impure": {"c": "1", "alpha": {"num": ["2"]}}}']) == 1
    capsys.readouterr()


def test_byte_identical_for_fixed_seed(capsys):
    args = ["descend", "--field", "13", "--closure", '{"kummer": ["0", "1"]}',
            "--places", '[{"poly": ["12", "1"]}]']
    code1 = main(args)
    out1 = capsys.readouterr().out
    code2 = main(args)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0 and out1 == out2


def test_mutation_detection():
    """Corrupting a constant in the explicit constant-closure bi-twist
    formula must flip the named criteria that pin it down."""
    from cubica import catalog
    from cubica.acceptance import criterion_family_table
    original = catalog.family_member

    def corrupted(tag, field, **params):
        model = original(tag, field, **params)
        if tag == catalog.R33:
            from cubica.models import CubicModel
            return CubicModel.impure(model.c, model.alpha + 1)
        return model

    catalog.family_member = corrupted
    try:
        result = criterion_family_table()
    finally:
        catalog.family_member = original
    assert not result.passed
    assert any("R33" in f for f in result.failures)
