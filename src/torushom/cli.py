"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage error.  Normal output
goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import comb, gcd

from . import curves, hecke, recursion, soergel, verify
from .algebra import (
    GradedTable,
    RatFunc,
    q_poly_to_json,
    ratfunc_to_json,
    render_descending,
    render_poly,
    render_ratfunc,
    series_truncate,
    table_to_json,
)
from .braid import identity_permutation, longest_permutation, parse_word


def _print_table(table: GradedTable) -> None:
    # A count past Python's digit limit for printing integers fails here,
    # before any row is written.
    str(max((c for _, c in table.entries), default=0))
    for (eq, et, ea), c in table.entries:
        mono = f"q^{eq}"
        if et:
            mono += f" t^{et}"
        if ea:
            mono += f" a^{ea}"
        print(f"{mono}: {c}")


def _refuse_unprintable_root(m: int, n: int) -> None:
    """Refuse the full series of T(0, n) or T(m, 0) before it is evaluated
    when Python cannot print it.  Its numerator is (1 + a)^N for N = m + n,
    whose middle coefficient C(N, N // 2) >= 2^N / (N + 1) has more digits
    than sys.get_int_max_str_digits() allows once N >= 4 times that limit.
    A root that the recursion refuses by its own budgets keeps that refusal."""
    limit = sys.get_int_max_str_digits()
    size = m + n
    if min(m, n) or not limit or recursion._base_bytes(size) > recursion.MAX_LIVE_BYTES:
        return
    if size >= 4 * limit or comb(size, size // 2) >= 10**limit:
        raise ValueError(
            f"T({m},{n}) has series coefficients of more than {limit} digits, past "
            "Python's limit for printing integers (sys.set_int_max_str_digits)"
        )


def _printable_catalan(m: int, n: int) -> int:
    """c(m, n) = C(N, k) / N, for N = m + n and k = min(m, n), refused when
    Python cannot print it.  C(N, k) >= (N // k)^k >= 2^E for E = k
    (bitlen(N // k) - 1), so c(m, n) >= 10^limit, more digits than
    sys.get_int_max_str_digits() allows, once E >= 4 limit + bitlen(N); such
    a pair is refused before c(m, n) is computed.  Below that, k < 4 limit +
    bitlen(N) and C(N, k) < (e N / k)^k has under 14 limit + 4 bitlen(N)
    bits: it is computed at once and refused if it is at least 10^limit."""
    limit = sys.get_int_max_str_digits()
    k, size = min(m, n), m + n
    huge = limit and k >= 1 and gcd(m, n) == 1 and (
        k * ((size // k).bit_length() - 1) >= 4 * limit + size.bit_length()
    )
    if not huge:
        value = curves.rational_catalan(m, n)
        if not limit or value < 10**limit:
            return value
    raise ValueError(
        f"c({m},{n}) has more than {limit} digits, past Python's limit for "
        "printing integers (sys.set_int_max_str_digits)"
    )


def _cmd_hhh(args) -> int:
    m, n = args.m, args.n
    if args.truncate is not None and (args.reduced or args.census):
        raise ValueError("--truncate does not apply to --reduced or --census")
    if args.census:
        census = recursion.term_census_a(m, n)
        if args.json:
            print(json.dumps({str(d): c for d, c in census}))
        else:
            for d, c in census:
                print(f"a^{d}: {c}")
        return 0
    if args.reduced:
        poly = recursion.reduced_knot_poly(m, n)
        if args.json:
            print(ratfunc_to_json(RatFunc.from_poly(poly)))
        else:
            print(render_poly(poly))
        return 0
    if args.euler:
        series = recursion.euler_a0(m, n)
    elif args.a0:
        series = recursion.hhh_a0(m, n)
    else:
        _refuse_unprintable_root(m, n)
        series = recursion.hhh_torus(m, n)
    if args.truncate is not None:
        table = series_truncate(series, args.truncate)
        if args.json:
            print(table_to_json(table))
        else:
            _print_table(table)
    elif args.json:
        print(ratfunc_to_json(series))
    else:
        print(render_ratfunc(series))
    return 0


def _cmd_count(args) -> int:
    b = parse_word(args.strands, args.word)
    target = (
        identity_permutation(args.strands)
        if args.target == "e"
        else longest_permutation(args.strands)
    )
    if args.brute is not None:
        count = hecke.brute_force_count(b, target, args.brute)
        print(json.dumps({"count": count}) if args.json else count)
        return 0
    poly = hecke.point_count(b, target)
    print(q_poly_to_json(poly) if args.json else render_descending(poly))
    return 0


def _cmd_soergel2(args) -> int:
    table = soergel.hhh0_two_strand(args.m, args.cutoff)
    if args.json:
        print(
            json.dumps(
                {
                    "cutoff": table.cutoff,
                    "dims": [
                        {"internal": d, "homological": h, "dim": v}
                        for (d, h), v in table.dims
                    ],
                }
            )
        )
    else:
        for (d, h), v in table.dims:
            print(f"Q^{d} T^{h}: {v}")
    return 0


def _cmd_curve(args) -> int:
    if args.which == "hilb":
        table = curves.hilb_poincare_series(args.m, args.n, args.max_k)
        if args.json:
            print(table_to_json(table))
        else:
            by_k: dict[int, list[str]] = {}
            for (eq, et, _), c in table.entries:
                coef = "" if c == 1 else f"{c}*"
                by_k.setdefault(eq, []).append(f"{coef}t^{et}" if et else str(c))
            for k in range(args.max_k + 1):
                print(f"k={k}: {' + '.join(by_k.get(k, ['0']))}")
    elif args.which == "jac":
        cells = curves.jacobian_cells(args.m, args.n)
        if args.json:
            print(json.dumps([c.to_dict() for c in cells]))
        else:
            for c in cells:
                print(
                    f"dim {c.dimension}: generators {list(c.generators)} "
                    f"bits {c.module.bits_str()}"
                )
            dims = sorted((c.dimension for c in cells), reverse=True)
            print(f"dimensions: {dims}")
    else:  # node
        table = curves.node_hilb(args.max_k)
        if args.json:
            print(table_to_json(table))
        else:
            _print_table(table)
    return 0


def _cmd_catalan(args) -> int:
    print(_printable_catalan(args.m, args.n))
    return 0


def _cmd_ors(args) -> int:
    report = curves.ors_compare(args.m, args.n, args.max_k)
    if args.json:
        print(
            json.dumps(
                {
                    "m": report.m,
                    "n": report.n,
                    "kmax": report.kmax,
                    "match": report.success,
                    "euler_match": report.euler_success,
                }
            )
        )
    else:
        print(report.render())
    return 0 if report.success and report.euler_success else 1


def _cmd_verify(args) -> int:
    try:
        reports = verify.run_verifications(args.suite)
    except KeyError as exc:
        print(f"usage error: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.json:
        print("[" + ", ".join(r.to_json() for r in reports) + "]")
    else:
        for r in reports:
            print(r.render())
    return 0 if all(r.all_passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torushom",
        description="Exact torus-link homology, braid-variety point counts, "
        "and curve-singularity cell data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hhh", help="torus link Poincare series")
    p.add_argument("kind", choices=["torus"])
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--a0", action="store_true", help="a = 0 specialization")
    mode.add_argument("--euler", action="store_true", help="a = 0, t = 1/q")
    mode.add_argument("--reduced", action="store_true", help="reduced knot numerator")
    mode.add_argument("--census", action="store_true", help="a-degree term census")
    p.add_argument("--truncate", type=int, metavar="D", help="q-series table")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_hhh)

    p = sub.add_parser("count", help="braid variety point count")
    p.add_argument("--strands", type=int, required=True)
    p.add_argument("--word", required=True, help="comma-separated positive generator indices")
    p.add_argument("--target", choices=["e", "w0"], default="e")
    p.add_argument("--brute", type=int, metavar="P", help="brute force over F_P")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("soergel2", help="two-strand homology table")
    p.add_argument("m", type=int)
    p.add_argument("--cutoff", type=int, required=True, help="internal degree bound")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_soergel2)

    p = sub.add_parser("curve", help="curve singularity cell data")
    curve_sub = p.add_subparsers(dest="which", required=True)
    ph = curve_sub.add_parser("hilb", help="Hilbert scheme Poincare series")
    ph.add_argument("m", type=int)
    ph.add_argument("n", type=int)
    ph.add_argument("--max-k", type=int, required=True)
    ph.add_argument("--json", action="store_true")
    pj = curve_sub.add_parser("jac", help="compactified Jacobian cells")
    pj.add_argument("m", type=int)
    pj.add_argument("n", type=int)
    pj.add_argument("--json", action="store_true")
    pn = curve_sub.add_parser("node", help="node xy=0 Hilbert series")
    pn.add_argument("--max-k", type=int, required=True)
    pn.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("catalan", help="rational Catalan number")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_catalan)

    p = sub.add_parser("ors", help="Hilbert scheme vs homology comparison")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--max-k", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_ors)

    p = sub.add_parser("verify", help="run cross-verification suites")
    p.add_argument("suite", nargs="?", default="all")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
