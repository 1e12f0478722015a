import errno
import json
import os
import sys

import pytest

from redring import cli
from redring.cli import main, parse_problem_text
from redring.scalars import IntegerDomain

Z_PROBLEM = """\
# two integer generators
ring z
gens:
4
6
probes:
10
3
"""

ZMOD_POLY_PROBLEM = """\
ring zmod 24
vars x,y
order degrevlex
gens:
4*x^2 + y
6*x*y
"""

Q_PROBLEM = """\
ring q
gens:
7
"""

QXY_PROBLEM = """\
ring q
vars x,y,z
order lex
gens:
x^2 - y
x^3 - z
"""


@pytest.fixture
def problem(tmp_path):
    def write(text, name="problem.txt"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_problem_sections():
    pf = parse_problem_text(Z_PROBLEM)
    assert pf.ring_spec == "z"
    assert [t for _, t in pf.generator_texts] == ["4", "6"]
    assert [t for _, t in pf.probe_texts] == ["10", "3"]


def test_gb_integers(problem, capsys):
    code, out, _ = run(capsys, ["gb", problem(Z_PROBLEM)])
    assert code == 0
    assert out.splitlines() == ["4", "6", "-2"]


def test_gb_monic_field(problem, capsys):
    code, out, _ = run(capsys, ["gb", problem(Q_PROBLEM), "--monic"])
    assert code == 0
    assert out.splitlines() == ["1"]


def test_gb_monic_integers_normalizes_sign(problem, capsys):
    code, out, _ = run(capsys, ["gb", problem(Z_PROBLEM), "--monic"])
    assert code == 0
    assert out.splitlines() == ["4", "6", "2"]


def test_gb_certify_and_check(problem, capsys):
    code, out, _ = run(capsys, ["gb", problem(ZMOD_POLY_PROBLEM), "--certify", "--check"])
    assert code == 0
    assert "cofactors: VERIFIED" in out
    assert "check: GROEBNER" in out


def test_gb_trace_streams_events(problem, capsys):
    code, out, _ = run(capsys, ["gb", problem(Z_PROBLEM), "--trace"])
    assert code == 0
    assert "pair 0 1" in out
    assert "final -2" in out


def test_gb_output_byte_identical_across_runs(problem, capsys):
    path = problem(ZMOD_POLY_PROBLEM)
    code1, out1, _ = run(capsys, ["gb", path, "--trace", "--certify"])
    code2, out2, _ = run(capsys, ["gb", path, "--trace", "--certify"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_gb_json_structure(problem, capsys):
    code, out, _ = run(capsys, ["gb", problem(Z_PROBLEM), "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["basis"] == ["4", "6", "-2"]
    assert doc["cofactors"] == [{"element": "-2", "cofactors": {"0": "-2", "1": "1"}}]
    assert len(doc["trace_digest"]) == 64
    assert "elapsed_seconds" in doc


def test_printed_basis_reparses_as_groebner(problem, capsys):
    from redring.buchberger import is_groebner_basis
    from redring.poly import make_poly_domain
    from redring.scalars import make_integer_quotient_domain

    path = problem(ZMOD_POLY_PROBLEM)
    code, out, _ = run(capsys, ["gb", path])
    assert code == 0
    dom = make_poly_domain(make_integer_quotient_domain(24), ("x", "y"), "degrevlex")
    reparsed = [dom.parse(line) for line in out.splitlines()]
    assert is_groebner_basis(dom, reparsed)


def test_member_exit_codes(problem, capsys):
    path = problem(Z_PROBLEM)
    code, out, _ = run(capsys, ["member", path, "--probe", "10"])
    assert code == 0 and out.startswith("MEMBER")
    code, out, _ = run(capsys, ["member", path, "--probe", "3"])
    assert code == 1 and out.startswith("NOT-MEMBER")
    code, out, _ = run(capsys, ["member", path, "--probe", "0"])
    assert code == 0


def test_member_uses_probes_section(problem, capsys):
    code, out, _ = run(capsys, ["member", problem(Z_PROBLEM)])
    assert code == 1  # probe 3 is not a member
    lines = out.splitlines()
    assert lines[0].startswith("MEMBER")
    assert lines[1].startswith("NOT-MEMBER")


def test_member_without_probe_errors(problem, capsys):
    code, _, err = run(capsys, ["member", problem(Q_PROBLEM)])
    assert code == 2
    # no line: the file is well formed, it only lacks a probe
    assert err == "parse error: no probe given (use --probe or a probes: section)\n"


def test_check_axioms(problem, capsys):
    code, out, _ = run(capsys, ["check", problem(Z_PROBLEM), "--axioms", "--ring", "zmod 24"])
    assert code == 0
    assert "zero-least: PASS" in out


def test_check_axioms_json_reports_mode(problem, capsys):
    for ring, mode in (("zmod 60", "exhaustive"), ("zmod 1000", "sampled"), ("z", "sampled")):
        code, out, _ = run(
            capsys, ["check", problem(Z_PROBLEM), "--axioms", "--json", "--ring", ring]
        )
        doc = json.loads(out)
        assert code == 0 and doc["ok"] is True, ring
        assert doc["mode"] == mode, ring


def test_check_is_gb(problem, capsys):
    code, out, _ = run(capsys, ["check", problem(Q_PROBLEM), "--is-gb"])
    assert code == 0 and out.strip() == "YES"
    code, out, _ = run(capsys, ["check", problem(Z_PROBLEM), "--is-gb"])
    assert code == 1 and out.strip() == "NO"
    for ring in ("z", "zmod 1"):  # zero generators are dropped, as gb drops them
        code, out, _ = run(capsys, ["check", problem(f"ring {ring}\ngens:\n0\n4\n"), "--is-gb"])
        assert code == 0 and out.strip() == "YES"


def test_check_is_gb_json(problem, capsys):
    code, out, _ = run(capsys, ["check", problem(Q_PROBLEM), "--is-gb", "--json"])
    assert (code, out) == (0, '{"is_groebner_basis": true}\n')
    code, out, _ = run(capsys, ["check", problem(Z_PROBLEM), "--is-gb", "--json"])
    assert (code, out) == (1, '{"is_groebner_basis": false}\n')


@pytest.mark.parametrize(
    "flag, hook, line",
    [("--certify", "verify_cofactors", "cofactors: FAILED"), ("--check", "is_groebner_basis", "check: FAILED")],
    ids=["certify", "check"],
)
def test_failed_verification_exits_1(flag, hook, line, problem, capsys, monkeypatch):
    monkeypatch.setattr(cli, hook, lambda *args, **kwargs: False)
    code, out, err = run(capsys, ["gb", problem(ZMOD_POLY_PROBLEM), flag])
    assert (code, out, err) == (1, "", line + "\n")


def test_parse_error_reports_line(problem, capsys):
    bad = "ring z\ngens:\n4\nnot-a-number\n"
    code, _, err = run(capsys, ["gb", problem(bad)])
    assert code == 2
    assert "line 4" in err


def test_parse_error_names_the_probe_flag(problem, capsys):
    code, _, err = run(capsys, ["member", problem("# comment\n" + Z_PROBLEM), "--probe", "x"])
    assert code == 2
    assert err == "parse error: --probe: not an integer: 'x'\n"


def test_parse_error_gives_the_file_column(problem, capsys):
    text = "ring q\nvars x,y\ngens:\nx\n  x^2 ! y\n"
    code, _, err = run(capsys, ["gb", problem(text)])
    assert code == 2
    assert err == "parse error: line 5: unexpected character '!' at column 7\n"


@pytest.mark.parametrize(
    "text, flags, where",
    [
        ("ring q\n\nvars x,x\ngens:\nx\n", [], "line 3"),
        ("ring q\nvars x,y\norder foo\ngens:\nx\n", [], "line 3"),
        ("ring q\norder foo\ngens:\n7\n", [], "line 2"),
        ("\nring zmod x\ngens:\n4\n", [], "line 2"),
        (Z_PROBLEM, ["--ring", "zmod y"], "--ring"),
        (Z_PROBLEM, ["--ring", ""], "--ring"),
        (Z_PROBLEM, ["--vars", "x,x"], "--vars"),
        (Z_PROBLEM, ["--vars", ","], "--vars"),
        ("ring q\nvars ,\ngens:\nx\n", [], "line 2"),
        ("ring\ngens:\n7\n", [], "line 1"),
        ("ring q\nfield x\ngens:\n7\n", [], "line 2"),
    ],
    ids=[
        "vars-line",
        "order-line",
        "scalar-order-line",
        "ring-line",
        "ring-flag",
        "ring-flag-empty",
        "vars-flag",
        "vars-flag-empty",
        "vars-line-empty",
        "ring-line-empty",
        "unknown-keyword-line",
    ],
)
def test_header_errors_name_their_line_or_flag(text, flags, where, problem, capsys):
    code, _, err = run(capsys, ["gb", problem(text), *flags])
    assert code == 2
    assert err.startswith(f"parse error: {where}: ")


@pytest.mark.parametrize("value", [",", " ", ""])
def test_empty_vars_flag_is_a_parse_error(value, problem, capsys):
    code, _, err = run(capsys, ["gb", problem("ring q\nvars x,y\ngens:\nx*y\n"), "--vars", value])
    assert (code, err) == (2, "parse error: --vars: empty variable list\n")


def test_check_takes_no_chain_criterion(problem, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["check", problem(Q_PROBLEM), "--is-gb", "--chain-criterion", "off"])
    assert exit_.value.code == 2
    assert "--chain-criterion" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gb", "--bogus"], "unrecognized arguments: --bogus"),
        (["check", "--is-gb", "--bogus"], "unrecognized arguments: --bogus"),
        (["check"], "one of the arguments --axioms --is-gb is required"),
        (["check", "--axioms", "--is-gb"], "argument --is-gb: not allowed with argument --axioms"),
        (
            ["check", "--is-gb", "--samples", "5"],
            "argument --samples: not allowed with argument --is-gb",
        ),
    ],
    ids=[
        "gb-unknown-flag",
        "check-unknown-flag",
        "check-no-mode",
        "check-both-modes",
        "check-samples-without-axioms",
    ],
)
def test_command_line_errors_name_the_subcommand(argv, message, problem, capsys):
    with pytest.raises(SystemExit) as exit_:
        main([argv[0], problem(Q_PROBLEM), *argv[1:]])
    assert exit_.value.code == 2
    assert capsys.readouterr().err == f"redring {argv[0]}: error: {message}\n"


def test_unknown_ring_is_parse_error(problem, capsys):
    code, _, err = run(capsys, ["gb", problem("ring nope\ngens:\n4\n")])
    assert code == 2
    assert "unknown ring selector" in err


def test_missing_file_is_parse_error(capsys):
    code, _, err = run(capsys, ["gb", "/nonexistent/problem.txt"])
    assert code == 2


@pytest.mark.parametrize("kind", ["directory", "non-utf8"])
def test_unreadable_problem_is_parse_error(kind, tmp_path, capsys):
    path = tmp_path
    if kind == "non-utf8":
        path = tmp_path / "latin1.txt"
        path.write_bytes("ring q\ngens:\n7 # caf\u00e9\n".encode("latin-1"))
    code, _, err = run(capsys, ["gb", str(path)])
    assert code == 2
    assert err.startswith("parse error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [["check", "--axioms", "--samples", "0"], ["gb", "--max-steps", "-1"]],
    ids=["samples-zero", "max-steps-negative"],
)
def test_non_positive_cap_is_rejected(argv, problem, capsys):
    with pytest.raises(SystemExit) as exit_:
        main([argv[0], problem(Z_PROBLEM), *argv[1:]])
    command, flag, value = argv[0], argv[-2], argv[-1]
    assert exit_.value.code == 2
    expected = f"redring {command}: error: argument {flag}: must be positive, got {value}\n"
    assert capsys.readouterr().err == expected


# A Z[x,y,z] system whose completion, without interreduction, ends with 76
# elements after 2926 pairs (about 4 s with CPython 3.11 on a 2-CPU VM).  The
# test below holds because its 60-pair cap (--max-steps also caps pairs) is
# below those 2926 pairs.
RUNAWAY_ZXYZ = """\
ring z
vars x,y,z
order degrevlex
gens:
-y^2*z^2 - 7*y^2 - 5*z^2
-9*x^2*y^2*z^2 - 6*x*y^2*z + 8*x*z^2
-x^2*y*z^2 - 5*z^2
"""


def test_runaway_completion_stops_at_the_pair_cap(problem, capsys):
    code, out, err = run(capsys, ["gb", problem(RUNAWAY_ZXYZ), "--max-steps", "60"])
    assert code == 3
    assert out == ""
    assert err.startswith("step cap exceeded: ")


def test_pair_cap_diagnostic_names_the_pair_and_the_basis_size(problem, capsys):
    code, out, err = run(capsys, ["gb", problem(Z_PROBLEM), "--max-steps", "1"])
    assert code == 3
    assert out == ""
    assert err == (
        "step cap exceeded: pair walk did not finish within 1 pairs: "
        "stopped at pair 0 1 with 2 basis elements\n"
    )


def test_step_cap_exit_code(problem, capsys):
    code, _, err = run(capsys, ["gb", problem(Z_PROBLEM), "--max-steps", "1"])
    assert code == 3
    assert "step cap" in err


class IrreducibleMntcr(IntegerDomain):
    def mntcrs(self, c1, i1, c2, i2):
        return [1]  # no multiple of 4 or 6 takes 1 below itself


def test_contract_violation_exit_code(problem, capsys, monkeypatch):
    monkeypatch.setattr(cli, "make_integer_domain", IrreducibleMntcr)
    code, out, err = run(capsys, ["gb", problem(Z_PROBLEM)])
    assert code == 4
    assert out == ""
    # the first pair formed is (0, 1): the self-pair (0, 0) has equal sides
    assert err == (
        "contract violation: mntcr 1 is not reducible by both generators "
        "at pair 0 1 with 2 basis elements\n"
    )


@pytest.mark.parametrize(
    "domain, flags, code, last, diagnostic",
    [
        (IntegerDomain, ["--max-steps", "1"], 3, "done 0 0", "step cap exceeded: "),
        (IrreducibleMntcr, [], 4, "pair 0 1", "contract violation: "),
    ],
    ids=["step-cap", "contract-violation"],
)
def test_stopped_gb_prints_the_trace_so_far(
    domain, flags, code, last, diagnostic, problem, capsys, monkeypatch
):
    monkeypatch.setattr(cli, "make_integer_domain", domain)
    status, out, err = run(capsys, ["gb", problem(Z_PROBLEM), "--trace", *flags])
    assert status == code
    assert out.startswith("init 0 4\ninit 1 6\n")
    assert out.splitlines()[-1] == last  # the one pair the cap allows, or the pair that broke
    assert err.startswith(diagnostic)


@pytest.mark.parametrize(
    "error, code, diagnostic",
    [
        (BrokenPipeError(errno.EPIPE, "Broken pipe"), 141, ""),  # the reader has gone
        (OSError(errno.ENOSPC, "No space left on device"), 74, "output error: "),
    ],
    ids=["closed-pipe", "full-disk"],
)
def test_failed_output_ends_with_its_own_status(
    error, code, diagnostic, problem, capsys, monkeypatch, tmp_path
):
    sink = tmp_path / "stdout"
    fd = os.open(sink, os.O_WRONLY | os.O_CREAT)

    class FailingStdout:
        def write(self, text):
            raise error

        def flush(self):
            pass

        def fileno(self):
            return fd

    monkeypatch.setattr(sys, "stdout", FailingStdout())
    try:
        status = main(["gb", problem(Z_PROBLEM), "--trace"])
        os.write(fd, b"flushed at exit")  # now goes to the null device
    finally:
        os.close(fd)
    assert status == code
    err = capsys.readouterr().err
    assert err.startswith(diagnostic) and err.count("\n") == (1 if diagnostic else 0)
    assert sink.read_bytes() == b""


def test_flag_overrides(problem, capsys):
    # same generators, reinterpreted in a different ring
    code, out, _ = run(capsys, ["gb", problem(Z_PROBLEM), "--ring", "zmod:24"])
    assert code == 0
    assert out.splitlines() == ["4", "6", "2"]


def test_order_flag_overrides_the_order_line(problem, capsys):
    code, lex, _ = run(capsys, ["gb", problem(QXY_PROBLEM)])
    assert code == 0
    code, flagged, _ = run(capsys, ["gb", problem(QXY_PROBLEM), "--order", "degrevlex"])
    assert code == 0
    code, lined, _ = run(capsys, ["gb", problem(QXY_PROBLEM.replace("order lex", "order degrevlex"))])
    assert code == 0
    assert flagged == lined != lex


def test_classical_specialization_through_cli(problem, capsys):
    code, out, _ = run(capsys, ["gb", problem(QXY_PROBLEM), "--monic"])
    assert code == 0
    assert "x^2 - y" in out.splitlines()


def test_chain_criterion_flag(problem, capsys):
    path = problem(QXY_PROBLEM)
    docs = {}
    for flags in ((), ("--chain-criterion", "on"), ("--chain-criterion", "off")):
        code, out, _ = run(capsys, ["gb", path, "--json", *flags])
        assert code == 0
        docs[flags] = json.loads(out)
    default, on, off = docs.values()
    assert on["trace_digest"] == default["trace_digest"]
    assert off["chain_skips"] == 0
