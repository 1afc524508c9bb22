"""Command-line interface: digit display, exact counting, the
partition/sequence maps, correspondence tables, congruence checks, and
bulk verification sweeps.

Exit codes: 0 all checks passed, 1 a verification failed, 2 usage or
resource error, and 2 also when the output pipe closes early.  Counts are
always printed in full decimal; verification failures are emitted as JSON
lines with big integers as decimal strings.  A verify suite yields one
batch of cases, skips and failures per base (per k for churchhouse), and
nothing is printed until the whole grid has run, so a refusal anywhere
leaves stdout empty.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from contextlib import contextmanager

from . import bijection, congruence, counting, kernels, partitions, radix
from .bijection import BetaSeq, phi, phi_inv
from .budgets import ENUM_BUDGET_ENV, LOOP_BUDGET_ENV, BudgetExceeded
from .partitions import MaryPartition
from .radix import BaseRepr, to_base

# Routes, residue checks and suite runners look library functions up in their
# module at call time, so a rebound module attribute (tracer, monkeypatch) counts.

# method -> count at (m, n), per kind, in the order usage lists them
B_ROUTES = {
    "nested": lambda m, n: counting.count_b_nested(m, n),
    "poly": lambda m, n: counting.count_b_poly(m, n),
    "recurrence": lambda m, n: counting.count_b_recurrence(m, n),
    "gf": lambda m, n: counting.count_b_gf(m, n)[n],
    "enumerate": lambda m, n: partitions.count_b_enum(m, n),
}
C_ROUTES = {
    "nested": lambda m, n: counting.count_c_nested(m, n),
    "poly": lambda m, n: counting.count_c_poly(m, n),
    "enumerate": lambda m, n: partitions.count_c_enum(m, n),
}


def _reprs(m: int, ns: range):
    """The digits of each n of ``ns``, by carry, as a ``BaseRepr``, built
    unchecked: the carry keeps them canonical."""
    new = BaseRepr.unchecked
    return (new(m, tuple(digits)) for digits, _ in radix.consecutive_digits(m, ns, 0))


def _predicted(predict, m: int, ns: range):
    """A digit prediction's residue at each n of ``ns``, from n's digits."""
    return (predict(r).value for r in _reprs(m, ns))


# property -> (expected, actual) residues mod m at each n of a consecutive
# range, at base m: afs-b, afs-c and afs-c-ell predict b or c at m*n;
# afs-equiv sets the two c forms against each other on each n's digits;
# reduction sets c(m^3 n) against c(m n).  Counts come mod m from the
# residue route's blocks, never in full; digits and blocks check (m, n) of
# the range's first n through to_base as they are made, so an invalid n is
# named as given, never as m^3 n.
RESIDUES = {
    "afs-b": lambda m, ns: zip(_predicted(congruence.b_mod_product, m, ns),
                               counting.count_b_residues(m, ns, m, 1)),
    "afs-c": lambda m, ns: zip(_predicted(congruence.c_mod_formula, m, ns),
                               counting.count_c_residues(m, ns, m, 1)),
    "afs-c-ell": lambda m, ns: zip(_predicted(congruence.afs_c_mod, m, ns),
                                   counting.count_c_residues(m, ns, m, 1)),
    "afs-equiv": lambda m, ns: ((congruence.c_mod_formula(r).value,
                                 congruence.afs_c_mod(r).value) for r in _reprs(m, ns)),
    "reduction": lambda m, ns: zip(counting.count_c_residues(m, ns, m, 1),
                                   counting.count_c_residues(m, ns, m, 3)),
}


def _int_tuple(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def _inclusive_range(text: str) -> range:
    try:
        lo_text, hi_text = text.split("..")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A..B, got {text!r}")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _fmt(values) -> str:
    return ",".join(str(v) for v in values)


def _answers(routes, m: int, n: int) -> tuple[list[tuple[str, int]], int]:
    """(method, count) for every route that answers at (m, n), in the
    routes' order, and the number that refused over budget."""
    answers, refused = [], 0
    for method, route in routes.items():
        try:
            answers.append((method, route(m, n)))
        except BudgetExceeded:
            refused += 1
    return answers, refused


def cmd_count(args) -> int:
    routes = B_ROUTES if args.kind == "b" else C_ROUTES
    if args.check:
        answers, _ = _answers(routes, args.base, args.n)  # poly has no budget
        if len({value for _, value in answers}) > 1:
            for method, value in answers:
                print(f"{method} {value}")
            return 1
        print(answers[0][1])
        return 0
    if args.method not in routes:
        raise ValueError(f"method {args.method!r} does not apply to kind {args.kind!r}")
    try:
        print(routes[args.method](args.base, args.n))
    except (BudgetExceeded, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("fallback: --method poly", file=sys.stderr)
        return 2
    return 0


def cmd_digits(args) -> int:
    print(_fmt(to_base(args.base, args.n).msb_first()))
    return 0


def cmd_phi(args) -> int:
    p = MaryPartition.from_mults(args.base, args.partition[::-1])
    print(_fmt(phi(p, args.n).msb_first()))
    return 0


def cmd_phi_inv(args) -> int:
    seq = BetaSeq(args.base, args.n, tuple(reversed(args.beta)))
    print(_fmt(phi_inv(seq).msb_first()))
    return 0


# table prints its rows every TABLE_CHUNK rows, so it holds one chunk in
# memory however many partitions n has, and still writes in large blocks
TABLE_CHUNK = 4096


def cmd_table(args) -> int:
    m = args.base
    alpha = to_base(m, args.n).digits
    carry = bijection.carry_betas
    rows = []

    # the walk's vectors carry every exponent up to j, so they are the padded
    # display; phi reverses lex order, so the descending partitions come out
    # in ascending order of their sequences.  By the run identity
    # (``bijection``'s docstring) beta_1 + lambda_1 is fixed within an
    # innermost run: the carry runs once per run, on its first leaf, lambda_0
    # < m, which also renders the row format's fixed fields lambda_j..lambda_2
    # and beta_j..beta_2.  A run's rows are formatted in slices that end
    # where the chunk fills.
    def run(mults, rem):
        lam = rem // m
        mults[1], mults[0] = lam, rem - m * lam
        betas = carry(m, alpha, mults)
        fixed = betas[0] + lam
        row = ("".join([f"{x}," for x in mults[:1:-1]]) + "%d,%d\t"
               + "".join([f"{x}," for x in betas[:0:-1]]) + "%d")
        while lam >= 0:
            stop = max(lam - (TABLE_CHUNK - len(rows)), -1)
            rows.extend([row % (x, rem - m * x, fixed - x) for x in range(lam, stop, -1)])
            lam = stop
            if len(rows) == TABLE_CHUNK:
                print("\n".join(rows))
                rows.clear()

    def single(mults, rem):  # n < m: one multiplicity and an empty sequence
        rows.append("%d\t" % rem)

    partitions.visit_runs(kernels.walk_partitions, m, args.n, run if len(alpha) > 1 else single)
    if rows:
        print("\n".join(rows))
    return 0


def _check_churchhouse_bases(bases: range) -> None:
    """Base 2 alone runs churchhouse, yet a start below 2 is named first, as
    by every other check."""
    if bases.start < 2:
        raise ValueError(f"base must be >= 2, got {bases.start}")
    if 2 not in bases:
        raise ValueError("churchhouse congruences are about base 2")


def cmd_congruence(args) -> int:
    m, n = args.base, args.n
    if args.property == "churchhouse":
        _check_churchhouse_bases(range(m, m + 1))
        first, second = congruence.churchhouse_check(args.k, n)
        print(
            f"first={'PASS' if first else 'FAIL'} "
            f"second={'PASS' if second else 'FAIL'}"
        )
        return 0 if first and second else 1
    [(predicted, actual)] = RESIDUES[args.property](m, range(n, n + 1))
    verdict = "PASS" if predicted == actual else "FAIL"
    print(f"predicted={predicted} actual={actual} {verdict}")
    return 0 if verdict == "PASS" else 1


def _compare_routes(suite: str, m: int, ns: range, routes):
    """One batch: every answering route checked against the first one at
    each n of ``ns`` at base m, each refusal a skip.  A point that poly, the
    one route with no budget, alone would answer is refused before poly runs."""
    budgeted = {method: route for method, route in routes.items() if method != "poly"}
    skips, failures = 0, []
    for n in ns:
        answers, refused = _answers(budgeted, m, n)
        if not answers:
            raise BudgetExceeded(f"{suite} at base {m}, n={n}: only poly answered; "
                                 f"raise {ENUM_BUDGET_ENV} or {LOOP_BUDGET_ENV}")
        answered = dict(answers, poly=routes["poly"](m, n))
        (_, expected), *others = [(k, answered[k]) for k in routes if k in answered]
        skips += refused
        failures += [(m, n, expected, value, {"method": method})
                     for method, value in others if value != expected]
    return len(ns), skips, failures


def _verify_oracle_b(args):
    top = args.n_range.stop - 1
    for m in args.base_range:
        # the grid's first n before the tables, which index a negative n from their end
        to_base(m, args.n_range.start)
        table = counting.recurrence_table(m, top)
        gf = counting.count_b_gf(m, top)
        routes = {"recurrence": lambda m, n: table[n], "gf": lambda m, n: gf[n],
                  "poly": B_ROUTES["poly"], "nested": B_ROUTES["nested"]}
        yield _compare_routes(args.suite, m, args.n_range, routes)


def _verify_oracle_c(args):
    # the enumeration is the reference where it answers, else poly
    routes = {method: C_ROUTES[method] for method in ("enumerate", "poly", "nested")}
    for m in args.base_range:
        yield _compare_routes(args.suite, m, args.n_range, routes)


def _verify_bijection(args):
    """Materialise both sides as objects, then check phi's image of each
    partition, and back, one innermost run at a time.

    Descending partitions map to ascending sequences, so the two lists line
    up element for element.  A run is the L + 1 partitions from one with
    lambda_1 = L; by the run identity (``bijection``'s docstring) it passes
    whole when its partitions and members are the walk's progressions from
    its first pair and the round trip holds on that pair.  A run that
    differs anywhere runs the carry recurrence and its inverse on each
    object, so the records and a wrong-weight error are those of a check
    object by object."""
    carry_betas, carry_mults = bijection.carry_betas, bijection.carry_mults
    for m in args.base_range:
        failures = []
        for n in args.n_range:
            parts = partitions.enumerate_b(m, n)
            members = bijection.enumerate_members(m, n)
            if len(parts) != len(members):
                failures.append((m, n, len(members), len(parts), {"method": "cardinality"}))
                continue
            alpha = to_base(m, n).digits
            same, bad, start = True, 0, 0
            while start < len(parts):
                lam = parts[start].mults
                betas = carry_betas(m, alpha, lam)
                top = max(lam[1], 0) if len(lam) > 1 else 0
                stop = start + top + 1
                run_lams = [p.mults for p in parts[start:stop]]
                run_betas = [b.betas for b in members[start:stop]]
                low, above = lam[0], lam[2:]
                walk = [(low + m * k, top - k) + above for k in range(top + 1)]
                if not above:  # no part above m: the run ends in (rem,)
                    walk[-1] = (low + m * top,)
                rest = betas[1:]
                images = [betas] + [(betas[0] + k,) + rest for k in range(1, top + 1)]
                if not (run_lams == walk and run_betas == images
                        and carry_mults(m, alpha, betas) == lam):
                    images = [carry_betas(m, alpha, q) for q in run_lams]
                    same = same and images == run_betas
                    bad += sum(1 for q, b in zip(run_lams, images)
                               if carry_mults(m, alpha, b) != q)
                start = stop
            if not same:
                failures.append((m, n, "image == member set", "mismatch", {"method": "image"}))
            if bad:
                failures.append((m, n, 0, bad, {"method": "round-trip"}))
        yield len(args.n_range), 0, failures


def _verify_residues(args):
    residues, ns = RESIDUES[args.suite], args.n_range
    for m in args.base_range:
        yield len(ns), 0, [(m, n, expected, actual, {})
                           for n, (expected, actual) in zip(ns, residues(m, ns))
                           if expected != actual]


def _verify_churchhouse(args):
    _check_churchhouse_bases(args.base_range)
    for k in args.k_range:
        yield len(args.n_range), 0, [
            (2, n, "0", "nonzero", {"k": k, "form": form})
            for n in args.n_range
            for form, holds in zip(("first", "second"), congruence.churchhouse_check(k, n))
            if not holds]


# suite -> runner over the grid, in the order usage lists them.  A runner
# yields one batch (cases, skips, failures) per base (per k for
# churchhouse), each failure (m, n, expected, actual, extra fields) in grid
# order; cmd_verify alone counts, builds the records and prints.
SUITES = {
    "oracle-b": _verify_oracle_b,
    "oracle-c": _verify_oracle_c,
    "bijection": _verify_bijection,
    "afs-b": _verify_residues,
    "afs-c": _verify_residues,
    "afs-equiv": _verify_residues,
    "churchhouse": _verify_churchhouse,
    "reduction": _verify_residues,
}


def cmd_verify(args) -> int:
    cases = skipped = 0
    failures = []
    for batch_cases, batch_skips, batch_failures in SUITES[args.suite](args):
        cases += batch_cases
        skipped += batch_skips
        failures += batch_failures
    for m, n, expected, actual, extra in failures:
        print(json.dumps({"m": m, "n": n, "suite": args.suite,
                          "expected": str(expected), "actual": str(actual), **extra}))
    print(json.dumps({"suite": args.suite, "cases_run": cases,
                      "failures": len(failures), "skipped": skipped}))
    return 1 if failures else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``mpart`` parser, built once per process on first use; argparse
    reads the terminal width when it prints usage, not here."""
    parser = argparse.ArgumentParser(
        prog="mpart",
        description="Exact counting and verification for m-ary partitions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("digits", help="base-m digits of n, most significant first")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_digits)

    p = sub.add_parser("count", help="count partitions of n with parts powers of the base")
    p.add_argument("--kind", choices=("b", "c"), required=True,
                   help="b: all m-ary partitions; c: gap-free only")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=B_ROUTES, default="poly",
                   help="gf and recurrence apply to kind b only")
    p.add_argument("--check", action="store_true",
                   help="run every applicable method and fail on disagreement")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("phi", help="map a partition to its bounded sequence")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--partition", type=_int_tuple, required=True,
                   help="multiplicities, largest exponent first, e.g. 1,4,4")
    p.set_defaults(func=cmd_phi)

    p = sub.add_parser("phi-inv", help="map a bounded sequence back to its partition")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta", type=_int_tuple, required=True,
                   help="sequence entries, highest index first, e.g. 2,9")
    p.set_defaults(func=cmd_phi_inv)

    p = sub.add_parser("table", help="TSV of partition/sequence pairs, ascending by sequence")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("congruence", help="check one residue prediction against the exact count")
    p.add_argument("--property", choices=("afs-b", "afs-c", "afs-c-ell", "churchhouse"),
                   required=True)
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=1, help="power index for churchhouse")
    p.set_defaults(func=cmd_congruence)

    p = sub.add_parser("verify", help="sweep a verification suite over a grid")
    p.add_argument("--suite", choices=SUITES, required=True)
    p.add_argument("--base-range", type=_inclusive_range, default=range(2, 6),
                   help="inclusive range A..B of bases (default 2..5)")
    p.add_argument("--n-range", type=_inclusive_range, required=True,
                   help="inclusive range A..B of n values")
    p.add_argument("--k-range", type=_inclusive_range, default=range(1, 3),
                   help="inclusive range A..B of k for churchhouse (default 1..2)")
    p.set_defaults(func=cmd_verify)

    return parser


@contextmanager
def _full_decimal():
    """Lift the interpreter's int <-> str digit limit while a command is
    parsed and runs, so that n is read and counts print in full however long
    they are; the caller's limit is restored afterwards.  Interpreters
    without the limit need nothing."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def main(argv=None) -> int:
    with _full_decimal():
        args = build_parser().parse_args(argv)
        try:
            code = args.func(args)
            sys.stdout.flush()  # a closed pipe raises here, not at exit
            return code
        except (BudgetExceeded, RecursionError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except BrokenPipeError:
            # the reader is gone: send what is still buffered to devnull, so
            # the flush at interpreter exit cannot raise again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 2


if __name__ == "__main__":
    sys.exit(main())
