import pytest

from heckedem import verify
from heckedem.weyl import WeylElement


def test_tally_counts_checks_and_builds_payloads_only_on_failure():
    built = []

    def payload(tag):
        def build():
            built.append(tag)
            return tag

        return build

    t = verify.Tally("demo")
    assert t.check(True, payload("passing")) is True
    assert t.check(False, payload("failing")) is False
    assert t.check(False, ("eager", 1)) is False
    assert built == ["failing"]
    assert t.report() == {
        "name": "demo",
        "passed": False,
        "checks": 3,
        "counterexamples": ["failing", ("eager", 1)],
    }
    assert verify.Tally("empty").report() == {"name": "empty", "passed": True, "checks": 0, "counterexamples": []}


def test_length_oracle_reports_every_mismatch(monkeypatch):
    monkeypatch.setattr(verify, "length_bfs", lambda w: -1)
    result = verify.suite_length_oracle()
    box = [WeylElement(n1, n2, fp) for n1 in range(-4, 5) for n2 in range(-4, 5) for fp in ("e", "s")]
    assert result["passed"] is False
    assert result["checks"] == 162
    assert result["counterexamples"] == [w.to_json() for w in box]


@pytest.mark.parametrize(
    "suite,name,checks",
    [
        (lambda: verify.suite_krep_theta(3), "krep-theta", 184),
        (lambda: verify.suite_idempotents(3), "idempotents-q3", 15),
        (lambda: verify.suite_idempotents(5), "idempotents-q5", 148),
        (lambda: verify.suite_chowrep(0, n_random=100), "chowrep", 662),
    ],
)
def test_suite_check_counts(suite, name, checks):
    result = suite()
    assert result == {"name": name, "passed": True, "checks": checks, "counterexamples": []}
