"""Command-line front end: gb, member and check over problem files.

A problem file is line-oriented UTF-8 with ``#`` comments::

    ring zmod 24
    vars x,y
    order degrevlex
    gens:
    4*x^2 + y
    6*x*y
    probes:
    2*y

``ring`` selects q, z or ``zmod N``; ``vars`` (optional) lifts the scalar
ring to polynomials; ``order`` picks lex, deglex or degrevlex (default
degrevlex).  Exit codes: 0 ok, 1 negative verdict, 2 parse error (also an
unreadable file or a bad flag value), 3 step cap exceeded, 4 contract
violation (a domain broke one of its own promises), 74 the output could
not be written (EX_IOERR of sysexits.h, e.g. a full disk), 141 standard
output closed by its reader (128 + SIGPIPE, as a shell reports a process
that SIGPIPE ended).  ``gb --trace`` prints the trace so far before a 3
or 4.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .buchberger import GBResult, gb, is_groebner_basis, verify_cofactors
from .core import (
    DEFAULT_STEP_BOUND,
    ContractViolationError,
    Domain,
    NonTerminationError,
    check_axioms,
)
from .poly import TermOrder, make_poly_domain
from .scalars import (
    make_field_domain,
    make_integer_domain,
    make_integer_quotient_domain,
)


class ProblemParseError(ValueError):
    """Text that does not parse, located by a file line number, a flag name or nothing."""

    def __init__(self, message: str, where=None) -> None:
        if isinstance(where, int):
            where = f"line {where}"
        super().__init__(f"{where}: {message}" if where else message)


@dataclass
class ProblemFile:
    """A parsed problem: ring selector, optional variables, generators, probes."""

    ring_spec: str = "q"
    var_names: Optional[tuple] = None
    order_kind: str = "degrevlex"
    generator_texts: list = field(default_factory=list)
    probe_texts: list = field(default_factory=list)
    origins: dict = field(default_factory=dict)  # header keyword -> its line or flag

    def build_domain(self) -> Domain:
        """The selected ring; a bad value is a ProblemParseError at its line or flag."""
        key = "ring"
        try:
            dom = _scalar_domain(self.ring_spec)
            if self.var_names:
                key = "vars"
                dom = make_poly_domain(dom, self.var_names, self.order_kind)
        except ValueError as exc:
            raise ProblemParseError(str(exc), self.origins.get(key)) from exc
        return dom


def _scalar_domain(spec: str) -> Domain:
    spec = spec.strip().lower().replace(":", " ")
    if spec == "q":
        return make_field_domain()
    if spec == "z":
        return make_integer_domain()
    parts = spec.split()
    if len(parts) == 2 and parts[0] == "zmod":
        try:
            n = int(parts[1])
        except ValueError:
            raise ValueError(f"bad modulus {parts[1]!r}") from None
        return make_integer_quotient_domain(n)
    raise ValueError(f"unknown ring selector {spec!r}; use q, z or zmod N")


def _var_names(value: str, where) -> tuple:
    """The comma-separated names of a ``vars`` line or the ``--vars`` flag, at least one."""
    names = tuple(v.strip() for v in value.split(",") if v.strip())
    if not names:
        raise ProblemParseError("empty variable list", where)
    return names


def parse_problem_text(text: str) -> ProblemFile:
    pf = ProblemFile()
    section = "header"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]  # element parsers skip blanks and report file columns
        line = body.strip()
        if not line:
            continue
        lowered = line.lower()
        if lowered in ("gens:", "probes:"):
            section = lowered[:-1]
            continue
        if section == "header":
            parts = line.split(None, 1)
            keyword = parts[0].lower()
            value = parts[1].strip() if len(parts) > 1 else ""
            pf.origins[keyword] = lineno
            if keyword == "ring":
                if not value:
                    raise ProblemParseError("ring selector missing", lineno)
                pf.ring_spec = value
            elif keyword == "vars":
                pf.var_names = _var_names(value, lineno)
            elif keyword == "order":
                pf.order_kind = value.lower()
                if pf.order_kind not in TermOrder.KINDS:
                    message = f"unknown term order {pf.order_kind!r}; choose from {TermOrder.KINDS}"
                    raise ProblemParseError(message, lineno)
            else:
                raise ProblemParseError(
                    f"unknown keyword {parts[0]!r} (expected ring/vars/order/gens:)",
                    lineno,
                )
        elif section == "gens":
            pf.generator_texts.append((lineno, body))
        else:
            pf.probe_texts.append((lineno, body))
    return pf


def _resolve(pf: ProblemFile, args) -> tuple:
    if args.ring is not None:
        pf.ring_spec, pf.origins["ring"] = args.ring, "--ring"
    if args.vars is not None:
        pf.var_names, pf.origins["vars"] = _var_names(args.vars, "--vars"), "--vars"
    if args.order:
        pf.order_kind = args.order
    dom = pf.build_domain()

    def parse(where, text: str):
        try:
            return dom.parse(text)
        except ValueError as exc:
            raise ProblemParseError(str(exc), where) from exc

    gens = [parse(*item) for item in pf.generator_texts]
    return dom, gens, [parse(*item) for item in pf.probe_texts]


def _complete(dom: Domain, gens: list, args) -> GBResult:
    chain = args.chain_criterion == "on"
    return gb(dom, gens, chain_criterion=chain, max_steps=args.max_steps, max_pairs=args.max_steps)


def _cmd_gb(args) -> int:
    pf = parse_problem_text(_read(args.problem))
    dom, gens, _probes = _resolve(pf, args)
    started = time.perf_counter()
    try:
        result = _complete(dom, gens, args)
    except (NonTerminationError, ContractViolationError) as exc:
        if args.trace and not args.json:
            sys.stdout.write(exc.trace.to_text())
            sys.stdout.flush()  # the trace comes before the diagnostic on stderr
        raise
    elapsed = time.perf_counter() - started
    shown = [dom.canonical_associate(g) if args.monic else g for g in result.basis]
    if args.certify and not verify_cofactors(dom, result.rows, gens):
        print("cofactors: FAILED", file=sys.stderr)
        return 1
    if args.check and not is_groebner_basis(dom, result.basis, max_steps=args.max_steps):
        print("check: FAILED", file=sys.stderr)
        return 1
    if args.json:
        doc = {
            "basis": [dom.render(g) for g in shown],
            "cofactors": [
                {
                    "element": dom.render(row.element),
                    "cofactors": {str(k): dom.render(v) for k, v in row.cofactors.items()},
                }
                for row in result.rows
            ],
            "trace_digest": result.trace.digest(),
            "pairs_processed": result.trace.pairs_processed,
            "critical_pairs_reduced": result.trace.critical_pairs_reduced,
            "chain_skips": result.trace.chain_skips,
            "elapsed_seconds": round(elapsed, 6),
        }
        print(json.dumps(doc, sort_keys=True))
        return 0
    if args.trace:
        sys.stdout.write(result.trace.to_text())
    if args.certify:
        for row in result.rows:
            parts = " + ".join(f"({dom.render(v)})*g{k}" for k, v in row.cofactors.items())
            print(f"cofactor {dom.render(row.element)} = {parts}")
        print("cofactors: VERIFIED")
    if args.check:
        print("check: GROEBNER")
    for g in shown:
        print(dom.render(g))
    return 0


def _cmd_member(args) -> int:
    pf = parse_problem_text(_read(args.problem))
    if args.probe is not None:
        pf.probe_texts = [("--probe", args.probe)]
    dom, gens, probes = _resolve(pf, args)
    if not probes:
        raise ProblemParseError("no probe given (use --probe or a probes: section)")
    rows = dom.reducer_rows(_complete(dom, gens, args).basis)
    verdicts = []
    for probe in probes:
        h = dom.normal_form(probe, rows, args.max_steps, None)
        verdicts.append((probe, not h, h))
    if args.json:
        rendered = [
            {"probe": dom.render(p), "member": m, "normal_form": dom.render(h)}
            for p, m, h in verdicts
        ]
        print(json.dumps({"verdicts": rendered}, sort_keys=True))
    else:
        for _probe, member, h in verdicts:
            print(("MEMBER " if member else "NOT-MEMBER ") + dom.render(h))
    return 0 if all(member for _, member, _ in verdicts) else 1


def _cmd_check(args) -> int:
    pf = parse_problem_text(_read(args.problem))
    dom, gens, _probes = _resolve(pf, args)
    if args.is_gb:
        verdict = is_groebner_basis(dom, gens, max_steps=args.max_steps)
        if args.json:
            print(json.dumps({"is_groebner_basis": verdict}))
        else:
            print("YES" if verdict else "NO")
        return 0 if verdict else 1
    report = check_axioms(dom, sample_budget=args.samples or 2000)
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        print(report.to_text())
    return 0 if report.ok else 1


def _read(path: str) -> str:
    """The problem file's text; a file that cannot be read is a ProblemParseError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ProblemParseError(str(exc)) from exc


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line on one stderr line, exit status 2.

    An unrecognized argument, or ``check --samples`` outside the axiom
    mode, is reported by the parser of the (sub)command it follows, so
    every error names the subcommand it concerns.
    """

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        if getattr(namespace, "is_gb", False) and namespace.samples is not None:
            self.error("argument --samples: not allowed with argument --is-gb")
        return namespace, extras

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _common_flags(sub: argparse.ArgumentParser, completes: bool = False) -> None:
    sub.add_argument("problem", help="problem file path")
    sub.add_argument("--ring", help="override the ring selector (q, z, zmod:N)")
    sub.add_argument("--vars", help="override the variable list, comma separated")
    sub.add_argument(
        "--order", choices=("lex", "deglex", "degrevlex"), help="override the term order"
    )
    sub.add_argument(
        "--max-steps", type=positive, default=DEFAULT_STEP_BOUND, help="reduction/pair step cap"
    )
    if completes:
        sub.add_argument(
            "--chain-criterion",
            choices=("on", "off"),
            default="on",
            help="chain criterion (Gebauer-Moeller M, F and B); off disables it alone"
            " (default on; it prunes pairs only in polynomial rings over q)",
        )
    sub.add_argument("--json", action="store_true", help="structured output")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="redring",
        description="Groebner bases in reduction rings: fields, Z, Z/nZ and polynomials over them.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    gb_cmd = commands.add_parser("gb", help="complete the generators into a Groebner basis")
    _common_flags(gb_cmd, completes=True)
    gb_cmd.add_argument("--certify", action="store_true", help="print and verify cofactor rows")
    gb_cmd.add_argument("--trace", action="store_true", help="print the completion trace")
    gb_cmd.add_argument("--monic", action="store_true", help="canonical scaling for display")
    gb_cmd.add_argument(
        "--check", action="store_true", help="re-verify the output with the finite criterion"
    )
    gb_cmd.set_defaults(handler=_cmd_gb)

    member_cmd = commands.add_parser("member", help="decide ideal membership of probes")
    _common_flags(member_cmd, completes=True)
    member_cmd.add_argument("--probe", help="probe element (overrides the probes: section)")
    member_cmd.set_defaults(handler=_cmd_member)

    check_cmd = commands.add_parser("check", help="axiom report or Groebner-basis verdict")
    _common_flags(check_cmd)
    mode = check_cmd.add_mutually_exclusive_group(required=True)
    mode.add_argument("--axioms", action="store_true", help="run the reduction-ring axiom checks")
    mode.add_argument(
        "--is-gb", action="store_true", help="test the generators with the finite criterion"
    )
    check_cmd.add_argument(
        "--samples", type=positive, help="sample budget for --axioms (default 2000)"
    )
    check_cmd.set_defaults(handler=_cmd_check)
    return parser


EXIT_OUTPUT_ERROR = 74  # EX_IOERR
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE


def _discard_stdout() -> None:
    """Point the standard output's file descriptor at the null device.

    The interpreter flushes standard output at exit; once a write has
    failed, that flush would fail again and print "Exception ignored".
    This is the SIGPIPE recipe of the Python ``signal`` documentation.
    """
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # no descriptor, e.g. a captured stream
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        _discard_stdout()
        return EXIT_BROKEN_PIPE
    except OSError as exc:  # problem files are read by _read, so this is the output
        _discard_stdout()
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT_ERROR
    except ProblemParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except NonTerminationError as exc:
        print(f"step cap exceeded: {exc}", file=sys.stderr)
        return 3
    except ContractViolationError as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 4


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
