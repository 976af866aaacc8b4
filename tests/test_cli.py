"""CLI surface: argument handling, output formats, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import qjt
import qjt.resolutions
from qjt.cli import main
from qjt.ring import make_type, RingElem
from qjt.series import h_coeff

from test_shapes import all_partitions


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_qchar_pinned_product_value(capsys):
    # chi for lambda=(3,1), mu=(2) at offset b factors as h_1 at offsets
    # b-2 and b+4 (the disconnected two-box skew shape)
    rc, out, _ = run(
        capsys, "qchar", "--type", "C", "--rank", "2",
        "--lambda", "3,1", "--mu", "2", "--offset", "2",
    )
    assert rc == 0
    t = make_type("C", 2)
    expected = h_coeff(t, 1, 0) * h_coeff(t, 1, 6)
    assert out.strip() == expected.to_text()


def test_qchar_json_round_trips(capsys):
    rc, out, _ = run(
        capsys, "qchar", "--type", "B", "--rank", "2",
        "--lambda", "2,1", "--output", "json", "--form", "both",
    )
    assert rc == 0
    obj = json.loads(out)
    assert json.dumps(obj, sort_keys=True) == out.strip()
    h = RingElem.from_json_obj(obj["h"])
    e = RingElem.from_json_obj(obj["e"])
    assert h == e
    assert h.to_text() == obj["h_text"]


def test_tableaux_count(capsys):
    rc, out, _ = run(
        capsys, "tableaux", "--type", "A", "--rank", "2",
        "--lambda", "2,1", "--count",
    )
    assert rc == 0
    assert out.splitlines()[0] == "count: 8"


def test_tableaux_listing_uses_ascii_bars(capsys):
    rc, out, _ = run(
        capsys, "tableaux", "--type", "C", "--rank", "2",
        "--lambda", "1", "--output", "json",
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["count"] == 4
    assert sorted(obj["tableaux"]) == [[["1"]], [["1b"]], [["2"]], [["2b"]]]


def test_paths_json_consistency(capsys):
    rc, out, _ = run(
        capsys, "paths", "--type", "C", "--rank", "2",
        "--lambda", "2,1", "--output", "json",
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["count"] == len(obj["tuples"])
    assert all(d["sign"] in (1, -1) for d in obj["tuples"])


def test_verify_suites_pass(capsys):
    for suite in ("he", "det", "classical"):
        rc, out, _ = run(
            capsys, "verify", "--suite", suite,
            "--max-rank", "2", "--trunc", "6", "--count", "3",
        )
        assert rc == 0, (suite, out)


def test_verify_deterministic_given_seed(capsys):
    rc1, out1, _ = run(
        capsys, "verify", "--suite", "paths", "--count", "3",
        "--seed", "7", "--output", "json",
    )
    rc2, out2, _ = run(
        capsys, "verify", "--suite", "paths", "--count", "3",
        "--seed", "7", "--output", "json",
    )
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_classical_report(capsys):
    rc, out, _ = run(
        capsys, "classical", "--type", "C", "--rank", "2",
        "--lambda", "2", "--output", "json",
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["equal"] is True
    assert obj["multiplicities"] == {"(empty)": 1, "2": 1}


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "qchar", "--type", "Z", "--rank", "2", "--lambda", "1")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    # shape that fails validation: mu not inside lambda
    rc, _, err = run(
        capsys, "qchar", "--type", "A", "--rank", "2",
        "--lambda", "1", "--mu", "2",
    )
    assert rc == 2


@pytest.mark.parametrize("flag,value", [
    ("--count", "0"), ("--count", "-2"), ("--max-rank", "1"), ("--max-rank", "0"), ("--trunc", "0"),
])
def test_verify_refuses_bounds_that_run_no_case(capsys, flag, value):
    rc, out, err = run(capsys, "verify", "--suite", "he", flag, value)
    assert (rc, out) == (2, "")
    assert f"error: {flag} must be at least" in err


@pytest.mark.parametrize("verb", ["paths", "tableaux"])
def test_paths_and_tableaux_refuse_type_D(capsys, verb):
    # they used to run the C rules, whose D3 (2,1) sums differ from chi_h
    rc, out, err = run(capsys, verb, "--type", "D", "--rank", "3", "--lambda", "2,1")
    assert (rc, out) == (2, "")
    assert err.startswith("error: the ") and "covers types A, B and C, not D3" in err


def test_tableaux_auto_refuses_C_shapes_without_a_rule(capsys):
    # C3 (3,1,1,1) used to fall back to hv: 298 tableaux whose sum is not chi
    argv = ["tableaux", "--type", "C", "--rank", "3", "--lambda", "3,1,1,1", "--count"]
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err.startswith("error: no C3 tableau rule covers SkewShape((3, 1, 1, 1)/())")
    rc, out, _ = run(capsys, *argv, "--ruleset", "hv")
    assert rc == 0 and out.startswith("count: 298\n")


def test_verify_appendixB_names_the_failing_lemmas(capsys, monkeypatch):
    # seed 1 draws (2,2,1)/(1), whose P2 has tuples outside the g-domain
    monkeypatch.setattr(qjt.resolutions, "f2_13", lambda t, pt: pt)
    rc, out, _ = run(capsys, "verify", "--suite", "appendixB", "--count", "3", "--seed", "1", "--output", "json")
    assert rc == 1
    (failure,) = json.loads(out)["failures"]
    assert failure["shape"] == "SkewShape((2, 2, 1)/(1,))"
    assert {"f2_13: sign", "f2_13: class", "f2_13: image is the condition set"} <= set(failure["lemmas"])
    assert not any(lemma.startswith(("g:", "f1_")) for lemma in failure["lemmas"])


def test_internal_failures_are_not_usage_errors(capsys, monkeypatch):
    import qjt.cli

    def broken(args):
        raise AssertionError("internal")

    monkeypatch.setattr(qjt.cli, "cmd_qchar", broken)
    with pytest.raises(AssertionError):
        main(["qchar", "--type", "A", "--rank", "2", "--lambda", "1"])


def test_classical_row_limit_fails_closed(capsys):
    argv = ["classical", "--type", "C", "--rank", "2", "--lambda", "1,1,1"]
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert "at most 2 rows" in err
    # the check must survive python -O, which strips assert statements
    src = os.path.dirname(os.path.dirname(qjt.__file__))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "qjt.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "at most 2 rows" in proc.stderr


# sha256 of stdout, captured before the ring kept its monomials packed.
GOLDEN = {
    ("qchar --type B --rank 3 --lambda 2,1 --offset -3 --form both", "text"):
        "7981fd982812f37d747fa99e4517dc890e039b2d92e449ba2509c6c3e488d449",
    ("qchar --type B --rank 3 --lambda 2,1 --offset -3 --form both", "json"):
        "cb66f9e589b093c9cc6d83b1627c6691e1e496558c8abf07cbb7ffb280864fa5",
    ("paths --type C --rank 2 --lambda 2,1,1", "text"):
        "05391a37f90a2808c75ddc911b8749311be345346784ad3738ebf6ab48fa761c",
    ("paths --type C --rank 2 --lambda 2,1,1", "json"):
        "d1e01ad8fc4a63da104eed0ed7a6d9584ec258e0e1a5229ccccf549ab262ad25",
    ("tableaux --type C --rank 3 --lambda 1,1,1,1 --ruleset columns", "text"):
        "a0a97a0b86870f9d7fff574beba304abbb3fe94e2e8a389d7830355a7cb2f40f",
    ("tableaux --type C --rank 3 --lambda 1,1,1,1 --ruleset columns", "json"):
        "7a2b22aa88161739ab20c1c52db336ae8a1376940da825751049a180918405b7",
    ("classical --type C --rank 2 --lambda 2,1", "text"):
        "d7ea851df34451f1c585f31c41e00d2be9eb82b472501135333dd451b7752e23",
    ("classical --type C --rank 2 --lambda 2,1", "json"):
        "be86269bcba81013699ce5aabd4533e3970e995c2662609148e3f44c507e1359",
    # captured before h-paths were tabulated once per (type, width)
    ("paths --type A --rank 2 --lambda 2,1", "text"):
        "6144ff9bd259a6ad981db6d99b982aa85a882457754a10804fd47f3bc78193ee",
    ("paths --type A --rank 2 --lambda 2,1", "json"):
        "10ec14752b6eee1b69b736941e0f86d4f9deb83871e1c5202be8473f4baaddd1",
    ("paths --type B --rank 3 --lambda 2,2 --mu 1", "text"):
        "1b27e72c77ea16c4bca0425a7903c83c209059ffe925fbf291b69f91df468e81",
    ("paths --type B --rank 3 --lambda 2,2 --mu 1", "json"):
        "f37efaf27997cc587af3d045844d35f765fdbb2a40dc07c36cc64f0ec33adcac",
    ("paths --type C --rank 3 --lambda 2,2,1 --mu 1", "text"):
        "077d22b76ce7fa5b967bb9ad7ee32d9df80dd86cc4fa0ce4edee52f7d1da86da",
    ("paths --type C --rank 3 --lambda 2,2,1 --mu 1", "json"):
        "a386876e44e96c89044d6716168c4dce37a0ebc583308aef50675e2551e21f38",
    ("verify --suite appendixB --count 1 --seed 1", "text"):
        "784fa324dd1cf4e326c29d90785a80520120b84ee88148b92c486b142cb66691",
    ("verify --suite appendixB --count 1 --seed 1", "json"):
        "06863bf2c1cf2d5e4b6f17de7249993163b0395c07d5bfc4a6243aedda0544d5",
}


@pytest.mark.parametrize("argv,output", sorted(GOLDEN))
def test_golden_stdout(capsys, argv, output):
    rc, out, _ = run(capsys, *argv.split(), "--output", output)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[(argv, output)]


# Partitions of at most 4 boxes, and strings that are not partitions.
PARTITIONS = [",".join(map(str, lam)) for lam in all_partitions(4)]
MALFORMED = ["x", "1,,2", "-1", "1,2", "0", "2,a", ",", " ", "1.5", "2;1"]


@st.composite
def argvs(draw):
    verb = draw(st.sampled_from(["qchar", "tableaux", "paths", "classical"]))
    partition = st.sampled_from(PARTITIONS + MALFORMED)
    argv = [verb, "--type", draw(st.sampled_from("ABCDZ")), "--rank", str(draw(st.integers(-1, 3)))]
    argv += ["--lambda", draw(partition)]
    if draw(st.booleans()):
        argv += ["--mu", draw(partition)]
    if draw(st.booleans()):
        argv += ["--offset", str(draw(st.integers(-4, 4)))]
    if draw(st.booleans()):
        argv += ["--ruleset", draw(st.sampled_from(["hv", "rows", "columns", "auto"]))]
    if draw(st.booleans()):
        argv += ["--output", draw(st.sampled_from(["text", "json"]))]
    return argv


@settings(max_examples=200, deadline=None)
@given(argvs())
def test_cli_exits_0_1_or_2_and_raises_nothing(argv):
    # in-process: hypothesis rejects function-scoped fixtures such as capsys
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    assert rc in (0, 1, 2), argv
