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
  error;
- output is byte-deterministic for fixed flags and seed (oracle verify
  timings can be suppressed with --no-timings for golden files).

JSON output carries "schema": "cherednik-kit/1" except `aspherical list
--json`, which emits the documented bare array of hyperplane objects.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .aspherical import (
    LinearCharacter,
    hyperplanes_rectangle,
    hyperplanes_rpn,
    hyperplanes_twisted,
    is_aspherical,
)
from .combinatorics import (
    MultiPartition,
    enumerate_multipartitions,
    enumerate_syt,
    parse_assignment,
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
    geq_c_quotient,
    quotient_component,
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


def _envelope(command: str, result) -> dict:
    return {"schema": SCHEMA, "command": command, "result": result}


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_partitions(args, out) -> int:
    shapes = enumerate_multipartitions(args.r, args.n)
    texts = [s.as_text() for s in shapes]
    if args.format == "json":
        _emit_json(_envelope("partitions", texts), out)
    else:
        for t in texts:
            out.write(t + "\n")
    return 0


def cmd_syt(args, out) -> int:
    shape = parse_multipartition(args.shape, args.r)
    tabs = enumerate_syt(shape)
    texts = [t.as_text() for t in tabs]
    if args.format == "json":
        _emit_json(_envelope("syt", texts), out)
    else:
        for t in texts:
            out.write(t + "\n")
    return 0


def _tableau_from_args(args, shape):
    if args.tableau is not None:
        return parse_tableau(args.tableau, shape)
    tabs = enumerate_syt(shape)
    if not 0 <= args.tableau_index < len(tabs):
        raise DomainError(f"tableau index out of range (shape has {len(tabs)} tableaux)")
    return tabs[args.tableau_index]


def _int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",")) if text else ()
    except ValueError:
        raise DomainError(f"{flag} must be a comma list of integers, not {text!r}") from None


def _parse_mu(text: str, n: int) -> tuple[int, ...]:
    mu = _int_list(text, "--mu")
    if len(mu) != n or any(x < 0 for x in mu):
        raise DomainError(f"mu must be {n} non-negative integers")
    return mu


def cmd_spectrum(args, out) -> int:
    shape = parse_multipartition(args.shape, args.r)
    T = _tableau_from_args(args, shape)
    mu = _parse_mu(args.mu, shape.size)
    data = spectrum(mu, T)
    rows = [
        {"i": d.index, "zeta_residue": d.zeta_residue, "z_eigenvalue": str(d.z_eigenvalue)}
        for d in data
    ]
    if args.format == "json":
        _emit_json(_envelope("spectrum", rows), out)
    elif args.format == "tsv":
        out.write("i\tzeta_residue\tz_eigenvalue\n")
        for row in rows:
            out.write(f'{row["i"]}\t{row["zeta_residue"]}\t{row["z_eigenvalue"]}\n')
    else:
        for row in rows:
            out.write(f'z_{row["i"]}: residue {row["zeta_residue"]}, '
                      f'eigenvalue {row["z_eigenvalue"]}\n')
    return 0


def cmd_norm_f(args, out) -> int:
    shape = parse_multipartition(args.shape, args.r)
    T = _tableau_from_args(args, shape)
    mu = _parse_mu(args.mu, shape.size)
    value = nonsymmetric_norm(mu, T)
    if args.format == "json":
        _emit_json(_envelope("norm-f", str(value)), out)
    else:
        out.write(str(value) + "\n")
    return 0


def cmd_norm_g(args, out) -> int:
    shape = parse_multipartition(args.shape, args.r)
    S = parse_assignment(args.values, shape)
    value = symmetric_norm(S)
    if args.format == "json":
        _emit_json(_envelope("norm-g", str(value)), out)
    else:
        out.write(str(value) + "\n")
    return 0


def cmd_norm_min(args, out) -> int:
    shape = parse_multipartition(args.shape, args.r)
    value = minimal_norm(shape)
    if args.format == "json":
        _emit_json(_envelope("norm-min", str(value)), out)
    else:
        out.write(str(value) + "\n")
    return 0


def cmd_hook(args, out) -> int:
    shape = parse_multipartition(args.shape, args.r)
    h = hook_product(shape)
    e = extra_product(shape)
    m = minimal_norm(shape)
    if args.format == "json":
        _emit_json(_envelope("hook", {"hook": str(h), "extra": str(e), "minimal_norm": str(m)}), out)
    else:
        out.write(f"hook: {h}\nextra: {e}\nminimal_norm: {m}\n")
    return 0


def cmd_aspherical_list(args, out) -> int:
    if args.p is not None and args.xi is not None:
        raise DomainError("--p and --xi are mutually exclusive")
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
    point = _point(args)
    flag, witnesses = is_aspherical(point, args.r, args.n)
    if args.format == "json":
        _emit_json(_envelope("aspherical test", {
            "aspherical": flag,
            "witnesses": [h.as_json_obj() for h in witnesses],
        }), out)
    else:
        out.write(("aspherical" if flag else "not aspherical") + "\n")
        for h in witnesses:
            out.write(f"witness: {h.form} = 0\n")
    return 0


def cmd_order_compare(args, out) -> int:
    ctx = OrderContext(_point(args))
    lam = parse_multipartition(args.a, args.r)
    chi = parse_multipartition(args.b, args.r)
    if lam.size != chi.size:
        raise DomainError("shapes must have equal size")
    ge = geq_c(lam, chi, ctx)
    le = geq_c(chi, lam, ctx)
    if ge and le:
        relation = "="
    elif ge:
        relation = ">=_c"
    elif le:
        relation = "<=_c"
    else:
        relation = "incomparable"
    eq = equiv_c(lam, chi, ctx)
    charges = ctx.integer_charges()
    quotient_verdict = None
    if charges is not None and sum(charges) == 0:
        qge = geq_c_quotient(lam, chi, ctx)
        qle = geq_c_quotient(chi, lam, ctx)
        quotient_verdict = "=" if (qge and qle) else (
            ">='_c" if qge else ("<='_c" if qle else "incomparable"))
    if args.format == "json":
        _emit_json(_envelope("order compare", {
            "relation": relation,
            "equiv": eq,
            "quotient_order": quotient_verdict,
        }), out)
    else:
        out.write(relation + "\n")
        out.write("equiv: " + ("yes" if eq else "no") + "\n")
        if quotient_verdict is not None:
            out.write("quotient order: " + quotient_verdict + "\n")
    return 0


def _gordon_text(shape: MultiPartition) -> str:
    comps = [quotient_component(shape, i) for i in range(1, shape.r + 1)]
    return "|".join(",".join(str(x) for x in c) for c in comps)


def _shape_from_gordon(text: str, r: int) -> MultiPartition:
    gordon = [parse_partition(tok) for tok in text.split("|")]
    if len(gordon) != r:
        raise DomainError(f"quotient must have {r} components")
    components = [gordon[(r - l) % r - 1] for l in range(r)]
    return MultiPartition(r, tuple(components))


def cmd_core_quotient(args, out) -> int:
    if args.action == "decode":
        if args.shape is None:
            raise DomainError("decode requires --shape")
        lam = parse_partition(args.shape)
        charges, shape = disassemble(lam, args.r)
        payload = {
            "a": ",".join(str(x) for x in charges),
            "quotient": _gordon_text(shape),
        }
        if args.format == "json":
            _emit_json(_envelope("core-quotient decode", payload), out)
        else:
            out.write(f'a={payload["a"]}; quotient={payload["quotient"]}\n')
    else:
        if args.a is None or args.quotient is None:
            raise DomainError("encode requires --a and --quotient")
        charges = _int_list(args.a, "--a")
        shape = _shape_from_gordon(args.quotient, args.r)
        lam = assemble(charges, shape)
        text = ",".join(str(x) for x in lam)
        if args.format == "json":
            _emit_json(_envelope("core-quotient encode", text), out)
        else:
            out.write(text + "\n")
    return 0


def cmd_oracle_verify(args, out) -> int:
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("CHEREDNIK_SEED", "0"))
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
    point = _point(args)
    result = convert_parameters(point, args.to)
    payload = {k: (str(v) if isinstance(v, Fraction) else [str(x) for x in v])
               for k, v in result.items()}
    if args.format == "json":
        _emit_json(_envelope("params convert", payload), out)
    else:
        for k in sorted(payload):
            v = payload[k]
            out.write(f'{k} = {v if isinstance(v, str) else ",".join(v)}\n')
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_format(p, default="text", choices=("text", "json")):
    p.add_argument("--format", choices=choices, default=default,
                   help="output format (default %(default)s)")


def _non_negative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cherednik-kit",
        description="Exact combinatorics of G(r,1,n) Cherednik algebras: Jack "
                    "polynomial norms, aspherical hyperplanes, orderings on "
                    "r-partitions, and a brute-force verification oracle.")
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partitions", help="enumerate r-partitions of n")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_partitions)

    p = sub.add_parser("syt", help="enumerate standard Young tableaux on a shape")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--shape", required=True, help="multipartition text, e.g. '2,1|1'")
    _add_format(p)
    p.set_defaults(func=cmd_syt)

    for name, handler, formats, help_text in [
            ("spectrum", cmd_spectrum, ("text", "json", "tsv"),
             "joint eigenvalues of the commuting family for (mu, T)"),
            ("norm-f", cmd_norm_f, ("text", "json"),
             "norm of the nonsymmetric eigenvector for (mu, T)")]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--r", type=int, required=True)
        p.add_argument("--shape", required=True)
        p.add_argument("--mu", required=True, help="composition, comma list of length n")
        p.add_argument("--tableau", help="tableau text, rows '/' components '|'")
        p.add_argument("--tableau-index", type=int, default=0,
                       help="index into the syt enumeration (default 0)")
        _add_format(p, choices=formats)
        p.set_defaults(func=handler)

    p = sub.add_parser("norm-g", help="norm of the symmetric eigenvector of a "
                                      "column-strict residue-compatible filling")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--shape", required=True)
    p.add_argument("--values", required=True, help="filling text, e.g. '0,2/1|1'")
    _add_format(p)
    p.set_defaults(func=cmd_norm_g)

    p = sub.add_parser("norm-min", help="norm of the minimal symmetric invariant (n! * hook * extra)")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--shape", required=True)
    _add_format(p)
    p.set_defaults(func=cmd_norm_min)

    p = sub.add_parser("hook", help="hook product, extra product, and minimal norm")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--shape", required=True)
    _add_format(p)
    p.set_defaults(func=cmd_hook)

    p = sub.add_parser("aspherical", help="the aspherical hyperplane arrangement")
    asub = p.add_subparsers(dest="action", required=True)
    q = asub.add_parser("list", help="enumerate the arrangement")
    q.add_argument("--r", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--xi", help="linear character twist 'i,j' (sign exponent, rotation)")
    q.add_argument("--p", type=int, help="restrict to G(r,p,n) (p | r, n >= 3); "
                                         "forms then live over d_0..d_{r/p-1}")
    q.add_argument("--json", action="store_true", help="emit the bare JSON array")
    _add_format(q, choices=("text", "json", "tsv"))
    q.set_defaults(func=cmd_aspherical_list)
    q = asub.add_parser("test", help="membership test for a parameter point")
    q.add_argument("--r", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--c0", required=True, help="rational p/q")
    q.add_argument("--d", required=True, help="comma list of r rationals")
    _add_format(q)
    q.set_defaults(func=cmd_aspherical_test)

    p = sub.add_parser("order", help="orderings on r-partitions")
    osub = p.add_subparsers(dest="action", required=True)
    q = osub.add_parser("compare", help="compare two shapes under the charged order")
    q.add_argument("--r", type=int, required=True)
    q.add_argument("--c0", required=True)
    q.add_argument("--d", required=True)
    q.add_argument("--a", required=True, help="first shape")
    q.add_argument("--b", required=True, help="second shape")
    _add_format(q)
    q.set_defaults(func=cmd_order_compare)

    p = sub.add_parser("core-quotient",
                       help="the bijection (charges, r-quotient) <-> partition; "
                            "quotient components are listed in charge order "
                            "(component of charge a_1 first)")
    p.add_argument("action", choices=["encode", "decode"])
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--shape", help="partition to decode, e.g. '1,1'")
    p.add_argument("--a", help="charges for encode, comma list summing to 0")
    p.add_argument("--quotient", help="quotient shape for encode (charge order)")
    _add_format(p)
    p.set_defaults(func=cmd_core_quotient)

    p = sub.add_parser("oracle", help="brute-force verification of the closed formulas")
    osub = p.add_subparsers(dest="action", required=True)
    q = osub.add_parser("verify", help="run the identity suite and report")
    q.add_argument("--r", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--degree", type=_non_negative_int, default=2,
                   help="degree cap (default 2)")
    q.add_argument("--seed", type=int, default=None,
                   help="RNG seed (default: CHEREDNIK_SEED or 0)")
    q.add_argument("--shape", help="restrict to one shape")
    q.add_argument("--timings", action=argparse.BooleanOptionalAction, default=True,
                   help="include wall times (disable for golden files)")
    _add_format(q, default="json")
    q.set_defaults(func=cmd_oracle_verify)

    p = sub.add_parser("params", help="parameter convention conversions")
    psub = p.add_subparsers(dest="action", required=True)
    q = psub.add_parser("convert", help="convert (c0, d) to another convention")
    q.add_argument("--r", type=int, required=True)
    q.add_argument("--c0", required=True)
    q.add_argument("--d", required=True)
    q.add_argument("--to", choices=["gordon", "rouquier", "hecke"], required=True)
    _add_format(q)
    q.set_defaults(func=cmd_params_convert)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, ValueError, ZeroDivisionError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
