import json

import pytest

from heckedem import galois
from heckedem.cli import build_parser, main
from heckedem.coeffs import build_tower


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_orbits_q3(capsys):
    code, out = run(capsys, "orbits", "--p", "3")
    assert code == 0
    report = json.loads(out)
    assert report["q"] == 3
    assert report["count"] == 3
    flavors = sorted(o["component"] for o in report["orbits"])
    assert flavors == ["h2", "iwahori", "iwahori"]


def test_module_theta(capsys):
    code, out = run(capsys, "module", "--theta", "0,g^4")
    assert code == 0
    report = json.loads(out)
    assert report["flavor"] == "iwahori"
    assert report["irreducible"] is True
    assert report["theta"] == ["0", "g^4"]
    assert report["matrices"]["S"] == [["0", "0"], ["0", "g^4"]]  # g^4 = -1


def test_module_regular(capsys):
    code, out = run(capsys, "module", "--b", "g^4")
    assert code == 0
    report = json.loads(out)
    assert report["filtration_dims"] == [2, 4, 6, 8]
    assert report["factors"] == "4 x M2(0,g^4)"
    assert report["semisimple"] is False


def test_bijection_q3(capsys):
    code, out = run(capsys, "bijection", "--p", "3")
    assert code == 0
    report = json.loads(out)
    assert report["bijective"] is True
    assert report["classes"] == 24


def test_bijection_exits_by_the_suite_verdict(monkeypatch, capsys):
    """Without the last orbit and its y-class the map is still a bijection
    onto what is left, but the closed-form class and orbit counts fail."""
    tower = build_tower(5, 1)
    *kept, last = galois.torus_orbits(tower)
    one = tower.one()
    y_reps = [y for y in galois._y_class_reps(tower) if galois.orbit_of(galois.GaloisParam(tower, one, y)) != last]
    monkeypatch.setattr(galois, "torus_orbits", lambda t: kept)
    monkeypatch.setattr(galois, "_y_class_reps", lambda t: y_reps)
    code, out = run(capsys, "--p", "5", "bijection")
    report = json.loads(out)
    assert code == 1
    assert report["bijective"] is True
    assert (report["classes"], report["orbit_counts"]["total"]) == (24 * 9, 9)


def test_obstruction(capsys):
    code, out = run(capsys, "obstruction")
    assert code == 0
    report = json.loads(out)
    assert report["solvable"] is False


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out = run(capsys, "orbits", "--out", str(path))
    assert code == 0
    assert json.loads(path.read_text()) == json.loads(out)


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "no" / "such" / "x.json"
    assert main(["orbits", "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: cannot write --out: ") and str(path) in captured.err
    assert not path.parent.exists()


def test_deterministic_output(capsys):
    _, out1 = run(capsys, "orbits", "--p", "5")
    _, out2 = run(capsys, "orbits", "--p", "5")
    assert out1 == out2


def test_parser_is_built_once_and_no_call_sees_another_ones_arguments(capsys):
    build_parser.cache_clear()
    _, alone = run(capsys, "module", "--theta", "0,g^4")
    build_parser.cache_clear()
    assert run(capsys, "module", "--p", "5", "--b", "g^4")[0] == 0
    parser = build_parser()
    # neither --p 5 (g^4 = -1 only at p = 3) nor --b carries over into the next call
    assert run(capsys, "module", "--theta", "0,g^4") == (0, alone)
    assert build_parser() is parser
    assert main(["module", "--theta", "0,0"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["module", "--no-such-option"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert build_parser() is parser


def test_usage_errors(capsys):
    assert main(["module"]) == 2  # neither --theta nor --b
    capsys.readouterr()
    assert main(["module", "--theta", "0"]) == 2  # malformed theta
    capsys.readouterr()
    assert main(["module", "--theta", "0,0"]) == 2  # tau2 = 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["bijection", "--ext", "base"])  # no such option: E is always GF(q^2)
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["module", "--b", "0"]) == 2  # b = 0
    capsys.readouterr()


def test_bad_prime_exits_2(capsys):
    assert main(["orbits", "--p", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: p must be odd\n"


def test_verify_relations_refuses_a_field_its_suites_do_not_run_at(capsys):
    # the suites run at fixed fields, so a report naming p = 7 would be false
    assert main(["--p", "7", "verify-relations", "--seed", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    message = "verify-relations runs its suites at fixed fields: --p and --f must stay 3 and 1"
    assert captured.err == f"usage error: {message}\n"
    assert main(["--f", "2", "verify-relations"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv,message",
    [
        (("--theta", "x,g"), "invalid literal for int() with base 10: 'x'"),
        (("--theta", "0,0"), "tau2 must be nonzero (zeta2 acts invertibly)"),
        (("--b", "0"), "b must be nonzero"),
        (("--b", "zz"), "invalid literal for int() with base 10: 'zz'"),
        ((), "module needs --theta t1,t2 or --b for the regular case"),
        (("--theta", "0"), "--theta expects two comma-separated values"),
        (("--theta", "0,g^4", "--b", "g"), "module takes --theta or --b, not both"),
    ],
)
def test_module_usage_error_messages(capsys, argv, message):
    assert main(["module", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {message}\n"
