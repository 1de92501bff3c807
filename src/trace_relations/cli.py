"""Command-line surface: enumerate, relations, dims, verify.

Exit codes: 0 ok, 2 usage error, 3 resource cap, 4 certification failure.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from .montecarlo import (ENTRY_BOUND, METHOD_MONTECARLO, METHOD_SYMMETRIZER,
                         KernelCertificationError, RelationSet,
                         certified_kernel, find_relations,
                         fresh_sample_verdicts, rank_of, rel_dimension_table,
                         stream)
from .symmetrizer import symmetrizer_relation_space
from .words import EnumerationCapError, encode, enumerate_invariant_basis

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_CERTIFICATION = 4


def _add_seed_flag(p):
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed; a random one is drawn and reported if omitted")


def _seed_from(args):
    seed = args.seed
    if seed is None:
        seed = random.SystemRandom().getrandbits(63)
        print(f"# seed not given; using fresh seed {seed}", file=sys.stderr)
    return seed


def _emit(text, output):
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_enumerate(args):
    ids = list(map(encode, enumerate_invariant_basis(args.d)))
    if args.format == "json":
        _emit(json.dumps({"d": args.d, "k": len(ids), "classes": ids},
                         sort_keys=True, separators=(",", ":")) + "\n", args.output)
    else:
        print(f"# degree {args.d}: {len(ids)} invariant classes", file=sys.stderr)
        _emit("\n".join(ids) + "\n", args.output)
    return EXIT_OK


def cmd_relations(args):
    seed = _seed_from(args)
    t0 = time.perf_counter()
    if args.method == METHOD_SYMMETRIZER:
        if args.d != args.n + 1:
            print("error: --method symmetrizer requires d = n + 1", file=sys.stderr)
            return EXIT_USAGE
        rs = symmetrizer_relation_space(args.n, seed)
    else:
        rs = find_relations(args.n, args.d, seed)
    elapsed = time.perf_counter() - t0
    # Every certified count is compared with a proved one: at d = n + 1 the
    # paper's closed form rel_dim_formula(n), which kernel_dim equals there;
    # past it, kernel_dim for both kernels of the quotient.
    certificate = ""
    if rs.d == rs.n + 1:
        certificate = " certificate=closed-form"
    elif rs.d > rs.n + 1:
        certificate = " certificate=proved"
    print(f"# n={rs.n} d={rs.d}: k={len(rs.basis)} relations={len(rs.relations)} "
          f"method={rs.method} wall={elapsed:.2f}s{certificate}", file=sys.stderr)
    _emit(rs.to_json(), args.output)
    return EXIT_OK


def cmd_dims(args):
    if args.max_d < 1 or args.max_n < 1:
        print("error: --max-d and --max-n must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    table = rel_dimension_table(args.max_d, args.max_n, _seed_from(args))
    ns = range(1, args.max_n + 1)
    rows = [["d\\n", *map(str, ns)]]
    rows += [[str(d), *(str(table[(d, n)]) for n in ns)]
             for d in range(1, args.max_d + 1)]
    if args.format == "csv":
        lines = [",".join(row) for row in rows]
    else:
        width = max(4, max(len(str(v)) for v in table.values()) + 2)
        lines = [row[0].ljust(3) + "".join(cell.rjust(width) for cell in row[1:])
                 for row in rows]
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_verify(args):
    try:
        with open(args.input, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"malformed relation file: {exc}") from exc
    rs = RelationSet.from_json(text)
    # a fresh seed unless --seed is given: a file must not pick its own samples
    seed = _seed_from(args)
    if not rs.relations:
        print("warning: relation list is empty; nothing to verify", file=sys.stderr)
        print("PASS (vacuous)")
        return EXIT_OK
    verdicts = fresh_sample_verdicts(rs.relations, rs.n, rs.d,
                                     stream(seed, "cli-verify"), ENTRY_BOUND)
    for i, ok in enumerate(verdicts):
        print(f"relation {i}: {'PASS' if ok else 'FAIL'}")
    failures = verdicts.count(False)
    if failures:
        print(f"# {failures} of {len(rs.relations)} relations failed", file=sys.stderr)
    # Relations count modulo the (n+1) kernel, which is trivial for
    # d <= n + 1.  rank_of eliminates the transpose of fewer than k vectors,
    # whose kernel is empty when they are independent, so no vector is
    # lifted.
    ambient = certified_kernel(rs.n + 1, rs.d, seed)[0] if rs.d > rs.n + 1 else []
    rank = rank_of([*ambient, *rs.relations]) - len(ambient)
    dependent = rank < len(rs.relations)
    if dependent:
        print(f"# relations are linearly dependent modulo the (n+1) kernel: "
              f"rank {rank} of {len(rs.relations)} vectors", file=sys.stderr)
    if failures or dependent:
        return EXIT_CERTIFICATION
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="trace-relations",
        description="Relations between trace-monomial invariants of "
                    "orthogonal conjugation on n x n matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list the degree-d invariant classes")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("relations", help="compute a certified relation basis")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--method", choices=[METHOD_MONTECARLO, METHOD_SYMMETRIZER],
                   default=METHOD_MONTECARLO)
    p.add_argument("--output", default=None)
    _add_seed_flag(p)
    p.set_defaults(func=cmd_relations)

    p = sub.add_parser("dims", help="tabulate relation-space dimensions")
    p.add_argument("--max-d", type=int, required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.add_argument("--output", default=None)
    _add_seed_flag(p)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("verify", help="re-verify a relation file on fresh samples")
    p.add_argument("--input", required=True)
    _add_seed_flag(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except KernelCertificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
