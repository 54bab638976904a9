"""Command line front end: output formats, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wedderburn
from wedderburn import battery, cli
from wedderburn.cli import EXIT_CHECK_FAILED, EXIT_INVALID, EXIT_OK, EXIT_PANIC
from wedderburn.groups import SNotInvolutive
from wedderburn.oracle import GroupMismatch


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decompose_text(capsys):
    code, out, err = run_cli(capsys, "decompose", "--q", "3", "--group", "split:n=4,s=3")
    assert code == EXIT_OK
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "group split:n=4,s=3  q=3  |G|=8  d=2 r=1 t=0"
    assert "component 4: M_2(F_3)  factor=2  case=sigma-tau" in out
    assert lines[-1] == "components=5 dimension-sum=8 |G|=8"


def test_decompose_json_round_trips(capsys):
    code, out, _ = run_cli(
        capsys, "decompose", "--q", "3", "--group", "split:n=4,s=3", "--format", "json"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["totals"] == {"component_count": 5, "dimension_sum": 8}
    assert len(doc["components"]) == 5
    assert doc["group"] == "split:n=4,s=3"


def test_output_is_byte_identical_across_runs(capsys):
    args = ("decompose", "--q", "3", "--group", "nonsplit:n=2,s=3", "--format", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_factor_text(capsys):
    code, out, _ = run_cli(capsys, "factor", "--q", "3", "--group", "split:n=4,s=3")
    assert code == EXIT_OK
    assert "x^4 - 1 over F_3:" in out
    assert "[2] 1 + 1*x^2  deg=2  root-order=4  self-involutive" in out


def test_idempotents_text_shows_noncentral_split(capsys):
    code, out, _ = run_cli(
        capsys,
        "idempotents", "--q", "3", "--group", "split:n=4,s=3", "--include-noncentral",
    )
    assert code == EXIT_OK
    assert "z4 [central-primitive] = (2 + 1*x^2) + (0)*y" in out
    assert "z4/1 [non-central-primitive parent=z4] = (1 + 2*x^2) + (1 + 2*x^2)*y" in out


# one instance per route to a non-central pair: split-style, sqrt(-1) for
# q = 1 mod 4, x^{n/2} for a big 2-part, interpolation in the eta frame and
# in the theta frame
@pytest.mark.parametrize("q,group", [
    (3, "split:n=4,s=3"),
    (5, "nonsplit:n=4,s=5"),
    (3, "nonsplit:n=8,s=9"),
    (3, "nonsplit:n=5,s=9"),
    (3, "nonsplit:n=2,s=3"),
])
def test_crt_fallback_flag_is_accepted_and_ignored(capsys, q, group):
    argv = ["idempotents", "--q", str(q), "--group", group,
            "--include-noncentral", "--format", "json"]
    code, plain, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    code, flagged, _ = run_cli(capsys, *argv, "--crt-fallback")
    assert code == EXIT_OK
    assert flagged == plain


def test_verify_ok(capsys):
    code, out, _ = run_cli(capsys, "verify", "--q", "3", "--group", "nonsplit:n=2,s=3")
    assert code == EXIT_OK
    assert "ok" in out
    for check in (
        "dimension",
        "component-count",
        "matrix-relations",
        "central-idempotents",
        "noncentral-splittings",
        "perlis-walker",
        "involutivity-criterion",
    ):
        assert f"{check}: pass" in out


def test_verify_skip_noncentral(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--q", "3", "--group", "nonsplit:n=2,s=3", "--skip-noncentral"
    )
    assert code == EXIT_OK
    assert "noncentral-splittings: skipped" in out


def test_verify_seed_flag_is_gone(capsys):
    # the oracle proves associativity from the generators; nothing is sampled
    code, out, err = run_cli(
        capsys, "verify", "--q", "3", "--group", "split:n=4,s=3", "--seed", "7"
    )
    assert code == EXIT_INVALID
    assert out == "" and "--seed" in err


def test_factor_over_a_large_prime(capsys):
    code, out, _ = run_cli(capsys, "factor", "--q", "1000000007", "--group", "split:n=2,s=1")
    assert code == EXIT_OK
    assert "x^2 - 1 over F_1000000007:" in out


def _stdout_within_20_s(*argv):
    """Run the CLI in a child process, so the bound holds even if the call
    hangs, and return what it prints."""
    src = str(Path(wedderburn.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from wedderburn.cli import main; sys.exit(main())",
         *argv],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=20)
    assert proc.returncode == EXIT_OK, proc.stderr
    return proc.stdout


def _answers_within_20_s(command, group, q=1000003):
    out = _stdout_within_20_s(command, "--q", str(q), "--group", group)
    assert out.startswith(f"group {group}  q={q}  ")


@pytest.mark.parametrize("command", ["factor", "decompose"])
def test_q_1000003_split_n4_answers_within_20_s(command):
    # in F_{p^2} = F_p[t]/(t^2 + 1) every c*t has the image -1 in the
    # root-of-unity scan, which walked about p of them before it skipped
    # orbits.
    _answers_within_20_s(command, "split:n=4,s=3")


@pytest.mark.parametrize("command", ["factor", "decompose"])
def test_q_1000003_split_n11_answers_within_20_s(command):
    # the splitting field has degree ord_11(1000003) = 5, and 5 does not
    # divide p - 1, so no x^5 + c is irreducible: the modulus search walked
    # all p of them, one Rabin test each, before it skipped the block.
    _answers_within_20_s(command, "split:n=11,s=1")


@pytest.mark.parametrize("command", ["factor", "decompose"])
def test_q_3_split_n1000_answers_within_20_s(command):
    # the splitting field has degree ord_1000(3) = 100: the modulus search
    # runs Rabin's test on hundreds of degree-100 candidates, and the coset
    # products of x^1000 - 1 run over F_3[t]/(M) with m = 100.  Both took
    # minutes when every product was a row loop and a division.
    _answers_within_20_s(command, "split:n=1000,s=999", q=3)


@pytest.mark.parametrize("argv,digest", [
    (["decompose"], "deeb4f7c14fb174184fb5dc7a46901012365eedcd5becff565c81ab684857e72"),
    (["idempotents", "--include-noncentral"],
     "04617a9925c0750840ca9322a71256fda775fe0b4ce75e9069089ad1a7501d2c"),
], ids=["decompose", "idempotents"])
def test_q_3_nonsplit_n127_theta_frame_answers_within_20_s(argv, digest):
    # the factor of degree 126 takes the theta frame, whose root theta over
    # F_(3^126) has an order known in advance.  Certifying it once factored
    # 3^126 - 1 by trial division: 40 s for decompose and 71 s for
    # idempotents, which built the frame twice, on one Xeon core.  The
    # digests are of the bytes printed then.
    out = _stdout_within_20_s(*argv, "--q", "3", "--group", "nonsplit:n=127,s=253",
                              "--format", "json")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_even_characteristic_rejected(capsys):
    code, out, err = run_cli(capsys, "decompose", "--q", "4", "--group", "split:n=3,s=2")
    assert code == EXIT_INVALID
    assert "EvenCharacteristic" in err
    assert out == ""


def test_non_prime_power_q_rejected(capsys):
    code, _, err = run_cli(capsys, "decompose", "--q", "12", "--group", "split:n=5,s=4")
    assert code == EXIT_INVALID
    assert "NonPrimeCharacteristic" in err


def test_bad_group_spec_rejected(capsys):
    code, _, err = run_cli(capsys, "decompose", "--q", "3", "--group", "split:n=4")
    assert code == EXIT_INVALID


def test_invalid_s_rejected_with_json_error_object(capsys):
    code, out, err = run_cli(
        capsys,
        "decompose", "--q", "3", "--group", "split:n=5,s=2", "--format", "json",
    )
    assert code == EXIT_INVALID
    doc = json.loads(out)
    assert doc["error"]["code"] == "SNotInvolutive"


def test_usage_errors_map_to_validation_exit(capsys):
    assert cli.main(["decompose", "--nonsense"]) == EXIT_INVALID
    capsys.readouterr()
    assert cli.main(["no-such-command"]) == EXIT_INVALID
    capsys.readouterr()
    assert cli.main(["--help"]) == EXIT_OK
    capsys.readouterr()


def test_exit_code_mapping():
    assert cli._exit_code_for(ValueError("x")) == EXIT_INVALID
    assert cli._exit_code_for(SNotInvolutive("x")) == EXIT_INVALID
    assert cli._exit_code_for(AssertionError("x")) == EXIT_PANIC
    assert cli._exit_code_for(GroupMismatch("x")) == EXIT_PANIC
    assert (EXIT_OK, EXIT_INVALID, EXIT_PANIC, EXIT_CHECK_FAILED) == (0, 1, 2, 3)


@st.composite
def group_specs(draw):
    """A group string from the grammar kind:n=..,s=.., sometimes with noise:
    an unknown kind, a missing or repeated key, or a non-integer value."""
    kind = draw(st.sampled_from(["split", "nonsplit"] * 3 + ["Split", "cyclic", ""]))
    s = draw(st.one_of(st.sampled_from([1, -1]), st.integers(-3, 25)))
    pieces = [f"n={draw(st.integers(0, 12))}", f"s={s}"]
    noise = draw(st.sampled_from(["none"] * 5 + ["missing", "repeated", "non-integer"]))
    if noise == "missing":
        pieces.pop(draw(st.integers(0, 1)))
    elif noise == "repeated":
        pieces.append(draw(st.sampled_from(pieces)))
    elif noise == "non-integer":
        k = draw(st.integers(0, 1))
        pieces[k] = pieces[k].split("=")[0] + "=" + draw(st.sampled_from(["", "x", "2.5", "1e3"]))
    return f"{kind}:{','.join(draw(st.permutations(pieces)))}"


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["factor", "decompose", "idempotents", "verify"]),
       st.booleans(), st.one_of(st.sampled_from([3, 5, 7, 9, 11, 25, 27, 49]),
                                st.integers(-3, 60)), group_specs())
def test_exit_code_is_ok_or_invalid_on_any_input(command, noncentral, q, group):
    argv = [command, "--q", str(q), "--group", group]
    if noncentral:
        argv.append("--include-noncentral")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in (EXIT_OK, EXIT_INVALID), argv


def test_battery_small_run(capsys):
    code, out, _ = run_cli(
        capsys, "battery", "--max-n", "4", "--qs", "3", "--kind", "split"
    )
    assert code == EXIT_OK
    assert "split:n=4,s=3" in out
    assert "0 failures" in out or "ok" in out


def test_battery_empty_filter(capsys):
    code, out, _ = run_cli(capsys, "battery", "--max-n", "0")
    assert code == EXIT_OK


def test_battery_rejects_jobs_below_one(capsys, monkeypatch):
    def graded(**kwargs):
        raise AssertionError("an instance ran")

    monkeypatch.setattr(battery, "run_battery", graded)
    for argv in (["--max-n", "0"], ["--max-n", "2", "--qs", "3"]):
        code, out, err = run_cli(capsys, "battery", *argv, "--jobs", "0")
        assert code == EXIT_INVALID
        assert out == ""
        assert "--jobs" in err


def test_battery_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "battery", "--max-n", "2", "--qs", "3,5", "--format", "json",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["summary"]["failures"] == []
    assert all(len(v) == 3 for v in doc["summary"]["by_check"].values())


@pytest.mark.parametrize("q, group", [("1000000321", "split:n=16,s=15"),
                                      ("1000000321", "split:n=32,s=31"),
                                      ("3037000493", "split:n=16,s=15")])
def test_verify_is_exact_at_a_large_prime(capsys, q, group):
    # at p ~ 1e9 one product of two coefficients is ~1e18; summing |G| of them
    # unreduced overflowed int64 and failed correct idempotents.  3037000493 is
    # the largest prime with (p - 1)^2 < 2^63, the oracle's bound for m = 1.
    code, out, _ = run_cli(capsys, "verify", "--q", q, "--group", group,
                           "--format", "json")
    doc = json.loads(out)
    assert doc["checks"] == {name: "pass" for name in battery.CHECK_CLASSES}
    assert code == EXIT_OK


def test_verify_refuses_a_prime_past_the_oracle_bound(capsys):
    # (p - 1)^2 >= 2^63 for the prime p = 2^32 + 15
    code, out, err = run_cli(capsys, "verify", "--q", "4294967311", "--group", "split:n=2,s=1")
    assert code == EXIT_INVALID
    assert out == ""
    assert "too large for the oracle" in err
