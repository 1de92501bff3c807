"""Command-line surface: enumerate, relations, dims, verify, bench.

Exit codes: 0 ok, 2 usage error, 3 resource cap, 4 certification failure.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from .evaluate import ContractionCapError
from .montecarlo import (METHOD_MONTECARLO, METHOD_SYMMETRIZER,
                         KernelCertificationError, RelationSet, SamplerConfig,
                         estimate_relation_dimension_float, find_relations,
                         rel_dimension_table, stream, verify_relation)
from .symmetrizer import DEFAULT_SYMMETRIZER_N_CAP, symmetrizer_relation_space
from .words import EnumerationCapError, enumerate_invariant_basis, monomial_from_id

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_CERTIFICATION = 4


def _add_sampler_flags(p):
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed; a random one is drawn and reported if omitted")
    p.add_argument("--entry-bound", type=int, default=10,
                   help="exact-mode entries are uniform integers in [-B, B]")
    p.add_argument("--oversample", type=int, default=10,
                   help="extra evaluation rows beyond the basis size")
    p.add_argument("--verify-trials", type=int, default=20,
                   help="fresh-sample certification trials per relation")
    p.add_argument("--mode", choices=["rational", "complex"], default="rational",
                   help="scalar mode; only rational results are certified")


def _config_from(args):
    seed = args.seed
    if seed is None:
        seed = random.SystemRandom().getrandbits(63)
        print(f"# seed not given; using recorded seed {seed}", file=sys.stderr)
    return SamplerConfig(seed=seed, entry_bound=args.entry_bound,
                         oversample=args.oversample,
                         verify_trials=args.verify_trials, mode=args.mode)


def _emit(text, output):
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_enumerate(args):
    basis = enumerate_invariant_basis(args.d)
    ids = [m.encode() for m in basis]
    if args.format == "json":
        _emit(json.dumps({"d": args.d, "k": len(ids), "classes": ids},
                         sort_keys=True, separators=(",", ":")) + "\n", args.output)
    else:
        print(f"# degree {args.d}: {len(ids)} invariant classes", file=sys.stderr)
        _emit("\n".join(ids) + "\n", args.output)
    return EXIT_OK


def cmd_relations(args):
    config = _config_from(args)
    t0 = time.perf_counter()
    if args.mode == "complex":
        dim, svals = estimate_relation_dimension_float(args.n, args.d, config)
        elapsed = time.perf_counter() - t0
        print(f"# float-mode estimate (not certified): {dim} relations "
              f"for n={args.n}, d={args.d} in {elapsed:.2f}s", file=sys.stderr)
        _emit(json.dumps({"n": args.n, "d": args.d, "estimated_relations": dim,
                          "method": "montecarlo-float", "seed": config.seed,
                          "float_tolerance": config.float_tolerance},
                         sort_keys=True, separators=(",", ":")) + "\n", args.output)
        return EXIT_OK
    if args.method == METHOD_SYMMETRIZER:
        if args.d != args.n + 1:
            print("error: --method symmetrizer requires d = n + 1", file=sys.stderr)
            return EXIT_USAGE
        rs = symmetrizer_relation_space(args.n, config, allow_long=args.allow_long)
    else:
        rs = find_relations(args.n, args.d, config)
    elapsed = time.perf_counter() - t0
    print(f"# n={rs.n} d={rs.d}: k={len(rs.basis)} "
          f"rank={len(rs.basis) - len(rs.relations)} relations={len(rs.relations)} "
          f"method={rs.method} wall={elapsed:.2f}s", file=sys.stderr)
    _emit(rs.to_json(), args.output)
    return EXIT_OK


def cmd_dims(args):
    if args.max_d < 1 or args.max_n < 1:
        print("error: --max-d and --max-n must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    config = _config_from(args)
    table = rel_dimension_table(args.max_d, args.max_n, config,
                                skip_stable=not args.compute_stable)
    lines = []
    if args.format == "csv":
        lines.append("d\\n," + ",".join(str(n) for n in range(1, args.max_n + 1)))
        for d in range(1, args.max_d + 1):
            lines.append(f"{d}," + ",".join(str(table[(d, n)])
                                            for n in range(1, args.max_n + 1)))
    else:
        width = max(4, max(len(str(v)) for v in table.values()) + 2)
        lines.append("d\\n" + "".join(str(n).rjust(width)
                                      for n in range(1, args.max_n + 1)))
        for d in range(1, args.max_d + 1):
            lines.append(str(d).ljust(3) + "".join(str(table[(d, n)]).rjust(width)
                                                   for n in range(1, args.max_n + 1)))
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_verify(args):
    with open(args.input) as fh:
        rs = RelationSet.from_json(fh.read())
    basis = [monomial_from_id(s) for s in rs.basis]
    if not rs.relations:
        print("warning: relation list is empty; nothing to verify", file=sys.stderr)
        print("PASS (vacuous)")
        return EXIT_OK
    seed = args.seed if args.seed is not None else rs.seed
    config = SamplerConfig(seed=seed, entry_bound=rs.entry_bound)
    failures = 0
    for i, rel in enumerate(rs.relations):
        rng = stream(seed, "cli-verify", i)
        ok = verify_relation(rel, rs.n, rs.d, args.trials, rng,
                             basis=basis, config=config)
        print(f"relation {i}: {'PASS' if ok else 'FAIL'}")
        failures += 0 if ok else 1
    if failures:
        print(f"# {failures} of {len(rs.relations)} relations failed", file=sys.stderr)
        return EXIT_CERTIFICATION
    return EXIT_OK


def cmd_bench(args):
    config = _config_from(args)
    t0 = time.perf_counter()
    mc = find_relations(args.n, args.d, config)
    mc_time = time.perf_counter() - t0
    print(f"montecarlo: {len(mc.relations)} relations in {mc_time:.3f}s")
    if args.d != args.n + 1:
        print("symmetrizer: not applicable (requires d = n + 1)")
        return EXIT_OK
    if args.n > DEFAULT_SYMMETRIZER_N_CAP and not args.allow_long:
        print(f"symmetrizer: refused for n={args.n} without --allow-long")
        return EXIT_OK
    t0 = time.perf_counter()
    ys = symmetrizer_relation_space(args.n, config, allow_long=args.allow_long)
    ys_time = time.perf_counter() - t0
    print(f"symmetrizer: {len(ys.relations)} relations in {ys_time:.3f}s")
    faster = "montecarlo" if mc_time <= ys_time else "symmetrizer"
    print(f"faster: {faster}")
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
    p.add_argument("--allow-long", action="store_true",
                   help="permit long-running symmetrizer sizes (n > "
                        f"{DEFAULT_SYMMETRIZER_N_CAP})")
    p.add_argument("--output", default=None)
    _add_sampler_flags(p)
    p.set_defaults(func=cmd_relations)

    p = sub.add_parser("dims", help="tabulate relation-space dimensions")
    p.add_argument("--max-d", type=int, required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.add_argument("--compute-stable", action="store_true",
                   help="compute stable-range cells instead of reporting 0 directly")
    p.add_argument("--output", default=None)
    _add_sampler_flags(p)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("verify", help="re-verify a relation file on fresh samples")
    p.add_argument("--input", required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="time both engines on one (n, d)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--allow-long", action="store_true")
    _add_sampler_flags(p)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (EnumerationCapError, ContractionCapError) as exc:
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
