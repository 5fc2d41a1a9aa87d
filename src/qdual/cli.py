"""Command-line interface.

Subcommands:

* ``nf`` — normal form of an expression in a chosen algebra;
* ``matpow`` — entries of the n-th power of the dual generator matrix,
  computed directly, by closed form, or both compared;
* ``inverse`` — entries of the inverse of the dual generator matrix;
* ``sdet`` — the superdeterminant element;
* ``verify`` — the named check suite, text or machine format.

Exit codes: 0 success, 1 verification/comparison failure, 2 usage or
expression errors.
"""

import argparse
import os
import sys
from functools import lru_cache

# the kernel first: loading it from inside the supermatrix and checks
# imports raised the peak RSS of a session of nf queries
from .algebra import AlgebraError, render_element
from .parsing import ParseError, parse_element
from .presentations import (
    dual_algebra,
    dual_superplane,
    gl_algebra,
    load_presentation_file,
    rename,
    superplane,
    tensor,
)
from . import supermatrix as sm
from .checks import (
    DEFAULT_MAX_N,
    DEFAULT_SEED,
    MAX_N_LIMIT,
    has_failure,
    machine_lines,
    run_suite,
    text_lines,
)

# on a 2-vCPU VM with Python 3.11, in a fresh interpreter: N=512 takes
# 0.2 s and 20 MB peak RSS, 0.12 s with --closed-form, 0.24 s with --compare
MATPOW_MAX_N = 512

# builtin name -> builder.  The constructors are memoised, so every call for
# one name returns the same presentation; the builders look them up at call
# time, so wrappers installed on the module attributes see every call.
_BUILTIN_ALGEBRAS = {
    "dual": lambda: dual_algebra(),
    "gl": lambda: gl_algebra(),
    "plane": lambda: superplane(),
    "dualplane": lambda: dual_superplane(),
    "dualxdual": lambda: tensor(
        dual_algebra(), rename(dual_algebra(), "2"), name="dualxdual"
    ),
    "glxplane": lambda: tensor(gl_algebra(), superplane()),
    "dualxplane": lambda: tensor(dual_algebra(), superplane()),
}


def _algebra_by_name(name):
    build = _BUILTIN_ALGEBRAS.get(name)
    if build is not None:
        return build()
    if os.path.exists(name):
        return load_presentation_file(name)
    raise AlgebraError(
        f"unknown algebra {name!r}: expected one of "
        f"{', '.join(_BUILTIN_ALGEBRAS)} or a descriptor file path"
    )


def _style(args):
    if getattr(args, "latex", False):
        return "latex"
    if getattr(args, "unicode", False):
        return "unicode"
    return "ascii"


def _emit(*lines):
    """Print lines to stdout and flush.

    A reader that has gone away (``qdual ... | head``) drops the rest of the
    output silently; the command still ends with its own exit code.
    """
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout goes to devnull from here on, so the flush at exit succeeds
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _print_matrix(mat, style, prefix=""):
    _emit(*(f"{prefix}{slot} = {render_element(entry, style)}"
            for slot, entry in zip(("e11", "e12", "e21", "e22"), mat.entries)))


def _add_style_flags(sub):
    group = sub.add_mutually_exclusive_group()
    group.add_argument(
        "--unicode", action="store_true",
        help="render greek letters and primes as unicode",
    )
    group.add_argument(
        "--latex", action="store_true", help="render entries as latex math"
    )


@lru_cache(maxsize=None)
def _parser_tree():
    # the one parser and its subcommand parsers by name, built on first use
    # and reused: parse_args leaves them unchanged.  main enters a command's
    # own parser directly.  That gives what the nested parse through the
    # top-level parser gives, less its outer pass, which was over half the
    # argument parsing of a repeated nf query (15 of 27 us on a 2-vCPU VM
    # with Python 3.11)
    parser = argparse.ArgumentParser(
        prog="qdual",
        description="Exact calculus for dual quantum supermatrices.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_nf = subs.add_parser("nf", help="normal form of an expression")
    p_nf.add_argument(
        "--algebra", default="dual",
        help="builtin algebra name or descriptor file (default: dual)",
    )
    _add_style_flags(p_nf)
    p_nf.add_argument("expr", help="expression, e.g. 'c*b - q*delta*alpha'")

    p_pow = subs.add_parser(
        "matpow", help="power of the dual generator matrix"
    )
    p_pow.add_argument("--n", type=int, required=True, metavar="N",
                       help=f"exponent, 1 <= N <= {MATPOW_MAX_N}")
    mode = p_pow.add_mutually_exclusive_group()
    mode.add_argument("--direct", action="store_true",
                      help="repeated multiplication (default)")
    mode.add_argument("--closed-form", action="store_true",
                      help="closed-form prediction")
    mode.add_argument("--compare", action="store_true",
                      help="compute both and compare")
    _add_style_flags(p_pow)

    p_inv = subs.add_parser(
        "inverse", help="inverse of the dual generator matrix"
    )
    _add_style_flags(p_inv)

    p_sdet = subs.add_parser("sdet", help="the superdeterminant element")
    _add_style_flags(p_sdet)

    p_ver = subs.add_parser("verify", help="run the verification suite")
    p_ver.add_argument("--max-n", type=int, default=DEFAULT_MAX_N,
                       metavar="N", help=f"power sweep bound, at most "
                       f"{MAX_N_LIMIT} (default {DEFAULT_MAX_N})")
    p_ver.add_argument("--only", default=None, metavar="IDS",
                       help="comma-separated check ids, e.g. C08,C09")
    p_ver.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help=f"fuzz seed (default {DEFAULT_SEED})")
    p_ver.add_argument("--format", choices=("text", "machine"),
                       default="text", dest="fmt",
                       help="report format (default text)")
    return parser, subs.choices


def _closed_form_power(pres, n):
    if n % 2:
        return sm.closed_form_odd(pres, (n + 1) // 2)
    return sm.closed_form_even(pres, n // 2)


def _cmd_nf(args):
    pres = _algebra_by_name(args.algebra)
    _emit(render_element(parse_element(args.expr, pres), _style(args)))
    return 0


def _cmd_matpow(args):
    if args.n < 1:
        raise AlgebraError("--n must be >= 1")
    if args.n > MATPOW_MAX_N:
        raise AlgebraError(f"--n must be <= {MATPOW_MAX_N}")
    pres = _algebra_by_name("dual")
    mat = sm.dual_generator_matrix(pres)
    style = _style(args)
    if args.compare:
        direct = sm.power(mat, args.n)
        closed = _closed_form_power(pres, args.n)
        verdict = "equal" if direct == closed else "different"
        _emit(verdict)
        _print_matrix(direct, style, prefix="direct.")
        _print_matrix(closed, style, prefix="closed.")
        return 0 if verdict == "equal" else 1
    if args.closed_form:
        _print_matrix(_closed_form_power(pres, args.n), style)
    else:
        _print_matrix(sm.power(mat, args.n), style)
    return 0


def _cmd_inverse(args):
    pres = _algebra_by_name("dual")
    mat = sm.dual_generator_matrix(pres)
    _print_matrix(sm.left_inverse(mat), _style(args))
    return 0


def _cmd_sdet(args):
    pres = _algebra_by_name("dual")
    mat = sm.dual_generator_matrix(pres)
    _emit(render_element(sm.sdet(mat), _style(args)))
    return 0


def _cmd_verify(args):
    selection = None
    if args.only is not None:
        selection = [s.strip() for s in args.only.split(",") if s.strip()]
        if not selection:
            raise AlgebraError("--only got an empty id list")
    try:
        reports = run_suite(args.max_n, selection=selection, seed=args.seed)
    except ValueError as exc:
        raise AlgebraError(str(exc)) from None
    lines = machine_lines(reports) if args.fmt == "machine" \
        else text_lines(reports)
    _emit(*lines)
    return 1 if has_failure(reports) else 0


_COMMANDS = {
    "nf": _cmd_nf,
    "matpow": _cmd_matpow,
    "inverse": _cmd_inverse,
    "sdet": _cmd_sdet,
    "verify": _cmd_verify,
}


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser, commands = _parser_tree()
    if argv and argv[0] in commands:
        command = argv[0]
        args, extra = commands[command].parse_known_args(argv[1:])
        if extra:
            # the message and exit code of the nested parse
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    else:
        # no command, -h or an unknown command: the whole tree says which
        args = parser.parse_args(argv)
        command = args.command
    try:
        return _COMMANDS[command](args)
    except (ParseError, AlgebraError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
