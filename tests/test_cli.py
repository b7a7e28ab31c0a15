import json

import pytest

from heckedem.cli import main


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


def test_deterministic_output(capsys):
    _, out1 = run(capsys, "orbits", "--p", "5")
    _, out2 = run(capsys, "orbits", "--p", "5")
    assert out1 == out2


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
    with pytest.raises(SystemExit) as exc:
        main(["orbits", "--p", "2"])
    assert exc.value.code == 2
