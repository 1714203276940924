"""Command-line front door.

Subcommands: partitions, syt, spectrum, norm-f, norm-g, norm-min, hook,
aspherical list|test, order compare, core-quotient encode|decode,
oracle verify, params convert.

Conventions shared by all subcommands:

- shapes are multipartition text: components joined by '|', each component a
  comma list, empty component = empty string (e.g. '3,3,1|2,1||5,5,2,1');
- tableaux / value fillings additionally join rows with '/'
  (e.g. '1,3,4/8,9|2,6/5,7');
- rationals are 'p/q' or integers; d-vectors are comma lists of rationals;
- exit code 0 = success, 1 = domain error (message on stderr), 2 = usage
  error, including a flag that the chosen path would ignore (no flag is
  silently dropped);
- output is byte-deterministic for fixed flags and seed (oracle verify
  timings can be suppressed with --no-timings for golden files).

Every subcommand but `aspherical list` and `oracle verify` writes through one
output path, `_emit`: with `--format json` the envelope {"schema":
"cherednik-kit/1", "command": <subcommand and action, e.g. "order compare">,
"result": ...}, otherwise its text lines.  `aspherical list --json` and
`aspherical list --format json` both emit the documented bare array of
hyperplane objects, and `oracle verify`'s report (which carries the schema)
is its JSON.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from math import factorial

from . import __version__
from .aspherical import (
    LinearCharacter,
    hyperplanes_rectangle,
    hyperplanes_rpn,
    hyperplanes_twisted,
    is_aspherical,
)
from .combinatorics import (
    Comparison,
    MultiPartition,
    enumerate_multipartitions,
    enumerate_syt,
    parse_assignment,
    parse_int_list,
    parse_multipartition,
    parse_partition,
    parse_tableau,
)
from .norms import (
    hook_product,
    extra_product,
    minimal_norm,
    nonsymmetric_norm,
    spectrum,
    symmetric_norm,
)
from .oracle import verify_report
from .orders import (
    OrderContext,
    assemble,
    disassemble,
    equiv_c,
    geq_c,
    quotient_compare,
    quotient_component,
    shape_from_quotient,
)
from .scalars import ParameterPoint, convert_parameters, parse_rational

SCHEMA = "cherednik-kit/1"


class DomainError(ValueError):
    pass


class UsageError(DomainError):
    """Flags that are malformed or contradict each other; exit 2, like
    argparse's own errors."""


def _parse_d(text: str, r: int) -> list[Fraction]:
    vals = [parse_rational(tok) for tok in text.split(",")] if text else []
    if len(vals) != r:
        raise DomainError(f"expected {r} d-values, got {len(vals)}")
    return vals


def _point(args) -> ParameterPoint:
    return ParameterPoint(args.r, parse_rational(args.c0), _parse_d(args.d, args.r))


def _emit_json(payload, out) -> None:
    json.dump(payload, out, sort_keys=True, indent=2)
    out.write("\n")


def _emit(args, out, result, lines) -> int:
    """The one output path of the enveloped commands: for --format json the
    envelope naming the parsed subcommand (with its action, if any), else the
    text lines."""
    if args.format == "json":
        command = " ".join(filter(None, (args.command, getattr(args, "action", None))))
        _emit_json({"schema": SCHEMA, "command": command, "result": result}, out)
    else:
        for line in lines:
            out.write(line + "\n")
    return 0


def _shape(args) -> MultiPartition:
    return parse_multipartition(args.shape, args.r, "--shape")


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_partitions(args, out) -> int:
    texts = [s.as_text() for s in enumerate_multipartitions(args.r, args.n)]
    return _emit(args, out, texts, texts)


def cmd_syt(args, out) -> int:
    texts = [t.as_text() for t in enumerate_syt(_shape(args))]
    return _emit(args, out, texts, texts)


def _mu_and_tableau(args):
    """(mu, T) from --shape, then --tableau or --tableau-index, then --mu."""
    if args.tableau is not None and args.tableau_index is not None:
        raise UsageError("--tableau and --tableau-index are mutually exclusive")
    shape = _shape(args)
    if args.tableau is not None:
        T = parse_tableau(args.tableau, shape, "--tableau")
    else:
        tabs = enumerate_syt(shape)
        index = args.tableau_index or 0
        if not 0 <= index < len(tabs):
            raise DomainError(f"tableau index out of range (shape has {len(tabs)} tableaux)")
        T = tabs[index]
    mu = parse_int_list(args.mu, "--mu")
    if len(mu) != shape.size or any(x < 0 for x in mu):
        raise DomainError(f"mu must be {shape.size} non-negative integers")
    return mu, T


def cmd_spectrum(args, out) -> int:
    rows = [
        {"i": d.index, "zeta_residue": d.zeta_residue, "z_eigenvalue": str(d.z_eigenvalue)}
        for d in spectrum(*_mu_and_tableau(args))
    ]
    if args.format == "tsv":
        lines = ["i\tzeta_residue\tz_eigenvalue"] + [
            f'{row["i"]}\t{row["zeta_residue"]}\t{row["z_eigenvalue"]}' for row in rows]
    else:
        lines = [f'z_{row["i"]}: residue {row["zeta_residue"]}, eigenvalue {row["z_eigenvalue"]}'
                 for row in rows]
    return _emit(args, out, rows, lines)


def cmd_norm_f(args, out) -> int:
    value = str(nonsymmetric_norm(*_mu_and_tableau(args)))
    return _emit(args, out, value, [value])


def cmd_norm_g(args, out) -> int:
    S = parse_assignment(args.values, _shape(args), "--values")
    value = str(symmetric_norm(S))
    return _emit(args, out, value, [value])


def cmd_norm_min(args, out) -> int:
    value = str(minimal_norm(_shape(args)))
    return _emit(args, out, value, [value])


def cmd_hook(args, out) -> int:
    shape = _shape(args)
    hook, extra = hook_product(shape), extra_product(shape)
    # minimal_norm = n! * hook * extra (criterion 3), from the two products above
    result = {"hook": str(hook), "extra": str(extra),
              "minimal_norm": str(factorial(shape.size) * hook * extra)}
    return _emit(args, out, result, [f"{k}: {v}" for k, v in result.items()])


def cmd_aspherical_list(args, out) -> int:
    if args.json and args.format not in (None, "json"):
        raise UsageError(f"--json and --format {args.format} are mutually exclusive")
    if args.p is not None and args.xi is not None:
        raise UsageError("--p and --xi are mutually exclusive")
    if args.p is not None:
        planes = hyperplanes_rpn(args.r, args.p, args.n)
    elif args.xi is not None:
        try:
            i, j = (int(tok) for tok in args.xi.split(","))
        except ValueError:
            raise DomainError(f"--xi must be 'i,j', two integers, not {args.xi!r}") from None
        planes = hyperplanes_twisted(args.r, args.n, LinearCharacter(i, j))
    else:
        planes = hyperplanes_rectangle(args.r, args.n)
    objs = [h.as_json_obj() for h in planes]
    if args.json or args.format == "json":
        _emit_json(objs, out)
    elif args.format == "tsv":
        out.write("kind\tk\tl\tm\tform\n")
        for h in planes:
            l = "" if h.l is None else h.l
            out.write(f"{h.kind}\t{h.k}\t{l}\t{h.m}\t{h.form}\n")
    else:
        for h in planes:
            l = "-" if h.l is None else h.l
            out.write(f"{h.form} = 0    [kind={h.kind} k={h.k} l={l} m={h.m}]\n")
    return 0


def cmd_aspherical_test(args, out) -> int:
    flag, witnesses = is_aspherical(_point(args), args.r, args.n)
    result = {"aspherical": flag, "witnesses": [h.as_json_obj() for h in witnesses]}
    lines = ["aspherical" if flag else "not aspherical"]
    lines += [f"witness: {h.form} = 0" for h in witnesses]
    return _emit(args, out, result, lines)


def cmd_order_compare(args, out) -> int:
    ctx = OrderContext(_point(args))
    lam = parse_multipartition(args.a, args.r, "--a")
    chi = parse_multipartition(args.b, args.r, "--b")
    if lam.size != chi.size:
        raise DomainError("shapes must have equal size")
    ge, le = geq_c(lam, chi, ctx), geq_c(chi, lam, ctx)
    relation = "=" if ge and le else ">=_c" if ge else "<=_c" if le else "incomparable"
    eq = equiv_c(lam, chi, ctx)
    charges = ctx.integer_charges()
    quotient_verdict = None
    if charges is not None and sum(charges) == 0:
        quotient_verdict = {Comparison.EQUAL: "=", Comparison.GREATER: ">='_c",
                            Comparison.LESS: "<='_c"}.get(quotient_compare(lam, chi, ctx),
                                                           "incomparable")
    lines = [relation, "equiv: " + ("yes" if eq else "no")]
    if quotient_verdict is not None:
        lines.append("quotient order: " + quotient_verdict)
    result = {"relation": relation, "equiv": eq, "quotient_order": quotient_verdict}
    return _emit(args, out, result, lines)


def _gordon_text(shape: MultiPartition) -> str:
    comps = [quotient_component(shape, i) for i in range(1, shape.r + 1)]
    return "|".join(",".join(str(x) for x in c) for c in comps)


def _shape_from_gordon(text: str, r: int) -> MultiPartition:
    gordon = parse_multipartition(text, name="--quotient").components
    if len(gordon) != r:
        raise DomainError(f"quotient must have {r} components")
    return shape_from_quotient(gordon)


def cmd_core_quotient(args, out) -> int:
    if args.action == "decode":
        if args.a is not None or args.quotient is not None:
            raise UsageError("decode reads --shape, not --a or --quotient")
        if args.shape is None:
            raise UsageError("decode requires --shape")
        charges, shape = disassemble(parse_partition(args.shape, "--shape"), args.r)
        result = {"a": ",".join(str(x) for x in charges), "quotient": _gordon_text(shape)}
        lines = [f'a={result["a"]}; quotient={result["quotient"]}']
    else:
        if args.shape is not None:
            raise UsageError("encode reads --a and --quotient, not --shape")
        if args.a is None or args.quotient is None:
            raise UsageError("encode requires --a and --quotient")
        charges = parse_int_list(args.a, "--a")
        shape = _shape_from_gordon(args.quotient, args.r)
        result = ",".join(str(x) for x in assemble(charges, shape))
        lines = [result]
    return _emit(args, out, result, lines)


def cmd_oracle_verify(args, out) -> int:
    seed = args.seed
    if seed is None:
        text = os.environ.get("CHEREDNIK_SEED", "0")
        try:
            seed = int(text)
        except ValueError:
            raise UsageError(f"CHEREDNIK_SEED must be an integer, not {text!r}") from None
    try:
        report = verify_report(args.r, args.n, degree=args.degree, seed=seed,
                               shape_text=args.shape)
    except ValueError as exc:   # the checks catch their own errors: a bad flag
        raise UsageError(str(exc)) from None
    report["schema"] = SCHEMA
    if not args.timings:
        for c in report["checks"]:
            c.pop("seconds", None)
    if args.format == "text":
        for c in report["checks"]:
            stamp = f' ({c["seconds"]}s)' if args.timings else ""
            out.write(f'{c["status"]:4s} {c["name"]}{stamp}: {c["details"]}\n')
        out.write(("ok" if report["ok"] else "FAILED") + "\n")
    else:
        _emit_json(report, out)
    return 0 if report["ok"] else 1


def cmd_params_convert(args, out) -> int:
    result = convert_parameters(_point(args), args.to)
    payload = {k: (str(v) if isinstance(v, Fraction) else [str(x) for x in v])
               for k, v in result.items()}
    lines = [f'{k} = {v if isinstance(v, str) else ",".join(v)}'
             for k, v in sorted(payload.items())]
    return _emit(args, out, payload, lines)


# ---------------------------------------------------------------------------
# parser


def _non_negative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _leaf(sub, name, func, help, *flags, formats=("text", "json"), default="text", actions=None):
    """Add a leaf subcommand: its positional action if `actions` are given,
    --r, the (flag, add_argument kwargs) pairs in order, --format, and the
    handler `func`.  A `default` of None means text, with an explicit
    --format still visible to the handler."""
    p = sub.add_parser(name, help=help)
    if actions:
        p.add_argument("action", choices=actions)
    p.add_argument("--r", type=int, required=True)
    for flag, kwargs in flags:
        p.add_argument(flag, **kwargs)
    p.add_argument("--format", choices=formats, default=default,
                   help=f"output format (default {default or 'text'})")
    p.set_defaults(func=func)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cherednik-kit",
        description="Exact combinatorics of G(r,1,n) Cherednik algebras: Jack "
                    "polynomial norms, aspherical hyperplanes, orderings on "
                    "r-partitions, and a brute-force verification oracle.")
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    n = ("--n", dict(type=int, required=True))
    shape = ("--shape", dict(required=True))
    c0 = ("--c0", dict(required=True, help="rational p/q; write --c0=-1/2 when negative"))
    d = ("--d", dict(required=True, help="comma list of r rationals; write --d=-1,1 "
                                         "when it starts with '-'"))
    mu_and_tableau = (
        ("--mu", dict(required=True, help="composition, comma list of length n")),
        ("--tableau", dict(help="tableau text, rows '/' components '|'")),
        ("--tableau-index", dict(type=int,
                                 help="index into the syt enumeration (default 0)")))

    _leaf(sub, "partitions", cmd_partitions, "enumerate r-partitions of n", n)
    _leaf(sub, "syt", cmd_syt, "enumerate standard Young tableaux on a shape",
          ("--shape", dict(required=True, help="multipartition text, e.g. '2,1|1'")))
    _leaf(sub, "spectrum", cmd_spectrum, "joint eigenvalues of the commuting family for (mu, T)",
          shape, *mu_and_tableau, formats=("text", "json", "tsv"))
    _leaf(sub, "norm-f", cmd_norm_f, "norm of the nonsymmetric eigenvector for (mu, T)",
          shape, *mu_and_tableau)
    _leaf(sub, "norm-g", cmd_norm_g, "norm of the symmetric eigenvector of a "
                                     "column-strict residue-compatible filling",
          shape, ("--values", dict(required=True, help="filling text, e.g. '0,2/1|1'")))
    _leaf(sub, "norm-min", cmd_norm_min,
          "norm of the minimal symmetric invariant (n! * hook * extra)", shape)
    _leaf(sub, "hook", cmd_hook, "hook product, extra product, and minimal norm", shape)

    p = sub.add_parser("aspherical", help="the aspherical hyperplane arrangement")
    asub = p.add_subparsers(dest="action", required=True)
    _leaf(asub, "list", cmd_aspherical_list, "enumerate the arrangement", n,
          ("--xi", dict(help="linear character twist 'i,j' (sign exponent, rotation)")),
          ("--p", dict(type=int, help="restrict the G(r,1,n) arrangement to the G(r,p,n) "
                                      "parameters (p | r, n >= 3), forms then over "
                                      "d_0..d_{r/p-1}; not yet the G(r,p,n) aspherical "
                                      "set")),
          ("--json", dict(action="store_true", help="emit the bare JSON array")),
          formats=("text", "json", "tsv"), default=None)
    _leaf(asub, "test", cmd_aspherical_test, "membership test for a parameter point", n, c0, d)

    p = sub.add_parser("order", help="orderings on r-partitions")
    osub = p.add_subparsers(dest="action", required=True)
    _leaf(osub, "compare", cmd_order_compare, "compare two shapes under the charged order",
          c0, d, ("--a", dict(required=True, help="first shape")),
          ("--b", dict(required=True, help="second shape")))

    _leaf(sub, "core-quotient", cmd_core_quotient,
          "the bijection (charges, r-quotient) <-> partition; quotient components "
          "are listed in charge order (component of charge a_1 first)",
          ("--shape", dict(help="partition to decode, e.g. '1,1'")),
          ("--a", dict(help="charges for encode, comma list summing to 0; "
                            "write --a=-1,1 when it starts with '-'")),
          ("--quotient", dict(help="quotient shape for encode (charge order)")),
          actions=("encode", "decode"))

    p = sub.add_parser("oracle", help="brute-force verification of the closed formulas")
    osub = p.add_subparsers(dest="action", required=True)
    _leaf(osub, "verify", cmd_oracle_verify, "run the identity suite and report", n,
          ("--degree", dict(type=_non_negative_int, default=2, help="degree cap (default 2)")),
          ("--seed", dict(type=int, default=None, help="RNG seed (default: CHEREDNIK_SEED or 0)")),
          ("--shape", dict(help="restrict to one shape")),
          ("--timings", dict(action=argparse.BooleanOptionalAction, default=True,
                             help="include wall times (disable for golden files)")),
          default="json")

    p = sub.add_parser("params", help="parameter convention conversions")
    psub = p.add_subparsers(dest="action", required=True)
    _leaf(psub, "convert", cmd_params_convert, "convert (c0, d) to another convention", c0, d,
          ("--to", dict(choices=["gordon", "rouquier", "hecke"], required=True)))

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        code = args.func(args, sys.stdout)
        sys.stdout.flush()   # so that a closed pipe raises here, not at exit
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, ValueError, ZeroDivisionError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout: what is left unwritten goes to devnull, so
        # that the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: output pipe closed before all output was written", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
