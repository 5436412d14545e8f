"""CLI surface: JSON schemas, exit codes, determinism, mutation detection."""

import hashlib
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


@pytest.mark.parametrize("field", ["q", "7"])
def test_analyze_refuses_a_reducible_hint(capsys, field):
    """A hint is a place: x^2 - 1 is refused (exit 1) instead of being
    reported as one place of degree 2.  Its irreducible factors give the
    two linear places, as the factorization over F_7 does without hints
    (over Q the hints also name the zeros x^2 - 1/2 and x^2 - 3/2 of
    alpha^2 - 4, which split over F_7)."""
    model = '{"impure": {"c": "1", "alpha": {"num": ["1"], "den": ["-1", "0", "1"]}}}'
    disc = ', ["-1/2", "0", "1"], ["-3/2", "0", "1"]'
    assert main(["analyze", "--field", field, "--model", model,
                 "--hints", f'[["-1", "0", "1"]{disc}]']) == 1
    assert "is not irreducible" in capsys.readouterr().err
    if field == "7":
        disc = ""
    code, doc = run_cli(capsys, "analyze", "--field", field, "--model", model,
                        "--hints", f'[["-1", "1"], ["1", "1"]{disc}]')
    assert code == 0 and len(doc["total"]) == 2
    assert all(len(place["poly"]) == 2 for place in doc["total"])
    if field == "7":
        assert run_cli(capsys, "analyze", "--field", field, "--model", model) == (0, doc)


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


# sha256 of the stdout of CLI runs over F_4, F_25 and F_49 (and the constant
# closures of F_5 and F_7, whose K' = qK is built over q = F_25, F_49): the
# documents print F_{p^2} elements as c0+c1*t and pin their order, square
# classes, square roots and signs.
F_P2_DIGESTS = [
    (["pure", "enumerate", "--field", "2^2", "--places",
      '[{"poly": ["1*t", "1"]}, {"poly": ["1+1*t", "1"]}, {"inf": true}]'],
     "59aba9bc7d7fab6440847402a9289d62120cd49313d714e4fd70b8bc2eb8b5c7"),
    (["pure", "enumerate", "--field", "5^2", "--places",
      '[{"poly": ["0", "1"]}, {"poly": ["1+1*t", "1"]}, {"inf": true}]'],
     "512a5139c77124955dbd4d92a2b9fbc537e1a0890d681785abfdb67f463c4158"),
    (["pure", "enumerate", "--field", "7^2", "--places",
      '[{"poly": ["1+1*t", "0", "1"]}, {"inf": true}]'],
     "5b7783f11ac2104ddae74335faacbb848a836420fa19b5355f9fb53ecb26b935"),
    (["pure", "twists", "--field", "2^2", "--model",
      '{"pure": {"num": ["0", "1"], "den": ["1"]}}'],
     "f7f4733a02b61b7dbd428a296ff88af36495b35f046be6244735c3666f5fd6fb"),
    (["pure", "twists", "--field", "7^2", "--model",
      '{"pure": {"num": ["0", "1"], "den": ["1*t", "1"]}}'],
     "d32e3c346301ef0f1c1c1aecabf188b73bb4ba9935f818980149173d0d70678a"),
    (["bitwists", "--tag", "R332_CHAR2", "--field", "2^2"],
     "b885fbd453f534e12e4b4965c302d347e8391759a65785d11be92123bb20f611"),
    (["bitwists", "--tag", "R3322", "--field", "5^2"],
     "68ac7aace3285dd7fe9534b45a08c5eb671f5ac0fbb1f2badfd601a2eb866faf"),
    (["bitwists", "--tag", "R33", "--field", "7^2"],
     "83acf644e8e4f980596147aa6feb068bf472075a19dbf87fd986a2a1f0b4b15e"),
    (["descend", "--field", "5", "--closure", '{"kummer": ["2"]}', "--places",
      '[{"poly": ["2", "0", "1"]}, {"poly": ["1", "1", "1"]}]', "--twists"],
     "42fdaf89a030fe18f67279896d043bef6307e4f11cee35dd183ab9496c42406a"),
    (["descend", "--field", "7", "--closure", '{"kummer": ["3"]}', "--places",
      '[{"poly": ["1", "0", "1"]}]', "--twists"],
     "fcb2d76e9511d0deec707c0036de30ebbff0cc940cde16a61497386bf63ec84a"),
    (["descend", "--field", "5^2", "--closure", '{"kummer": ["2", "0", "1"]}',
      "--places", '[{"poly": ["1*t", "0", "1"]}, {"poly": ["1", "1"]}]', "--twists"],
     "f332761d05ef3959a0df27be37e38c1da028115388dfb39c4344deb39338c7e3"),
    (["descend", "--field", "7^2", "--closure", '{"kummer": ["1*t", "0", "1"]}',
      "--places", '[{"poly": ["3+1*t", "1", "1"]}, {"poly": ["2+1*t", "1"]}]',
      "--all-signs"],
     "848a333ad17f1e09c5746fb2a8140a605fdb65d6f6b83e75cf83a9c64ccd93cc"),
    (["analyze", "--field", "2^2", "--model",
      '{"impure": {"c": "1*t", "alpha": {"num": ["1", "1"], "den": ["1*t", "0", "1"]}}}'],
     "52ef356aec259ad4b096b428e238bbcfa891bcc3232541ecb4184de39cc59fac"),
    (["analyze", "--field", "5^2", "--model",
      '{"impure": {"c": "1+1*t", "alpha": {"num": ["0", "1"], "den": ["2*t", "0", "1"]}}}'],
     "e600d7b78008ea83e23d5a99efa36634a114f6143b365b3ec22cd961eecdf3f5"),
    (["parshin", "weierstrass", "--field", "5^2", "--g", '["1", "0", "0", "1"]',
      "--c", "1*t"],
     "e13af7882f3ba8b1ca1cb7100046222271abeae0511be000a1c495d8a3cf0c1b"),
    (["parshin", "weierstrass", "--field", "7^2", "--g", '["1*t", "2", "0", "1"]',
      "--c", "2"],
     "6d9930998936d4a8636f85db171d1e5f5d99a6b28fa1ceaea2efc7c9fe03612b"),
]


@pytest.mark.parametrize("argv,digest", F_P2_DIGESTS,
                         ids=[" ".join(a[:a.index("--field") + 2]) for a, _ in F_P2_DIGESTS])
def test_f_p2_documents_are_pinned(capsys, argv, digest):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
    # a list-form F_{p^2} coefficient has exactly two integer entries
    for coeff in ('[1]', '["a", 1]', '[1, 2, 3]', '[1.5, 2]'):
        assert main(["parshin", "weierstrass", "--field", "5^2", "--g",
                     f'[{coeff}, "0", "0", "1"]', "--c", "1"]) == 2
        assert "bad element" in capsys.readouterr().err
    assert main(["parshin", "weierstrass", "--field", "5^2", "--g",
                 '[[1, 2], "0", "0", "1"]', "--c", "1"]) == 0
    assert '"1+2*t"' in capsys.readouterr().out


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
