"""Output checks for the benchmark's commands.

Relation vectors do not depend on the sampler seed: the certified kernel is
returned as the reduced (free-column) basis of a fixed space.  So each
`relations` cell is checked against a pinned digest of its `basis` and
`relations`, and each `dims` table against its pinned counts.  On the
diagonal d = n + 1 the relation count must also equal the closed form, and
the symmetrizer span must equal the Monte Carlo span.

Run this file as a script to print the pins for every workload command,
computed at two seeds that must agree:

    python3 benchmark/checks.py > benchmark/expected.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")
ENTRY_BOUND = 10


def cell_key(argv):
    return " ".join(argv)


def relation_digest(obj):
    payload = json.dumps({"basis": obj["basis"], "relations": obj["relations"]},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def parse_dims(text):
    """Counts of a text `dims` table as {"d,n": count}."""
    lines = text.splitlines()
    ns = [int(t) for t in lines[0].split()[1:]]
    counts = {}
    for line in lines[1:]:
        d, *row = (int(t) for t in line.split())
        if len(row) != len(ns):
            raise ValueError(f"ragged dims row {line!r}")
        counts.update({f"{d},{n}": c for n, c in zip(ns, row)})
    return counts


def exact_rank(vectors):
    """Rank over the rationals, by plain Gaussian elimination.

    Kept independent of the package's elimination code, which later changes
    may replace.
    """
    rows = [[Fraction(int(c)) for c in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


class CheckFailure(Exception):
    pass


class Checker:
    """Checks one command's output against the pins and the closed form."""

    def __init__(self, expected, rel_dim_formula):
        self.expected = expected
        self.rel_dim_formula = rel_dim_formula

    def check(self, argv, seed, rc, stdout):
        """Parsed output of a passing command; raises CheckFailure otherwise."""
        if rc != 0:
            raise CheckFailure(f"exit code {rc}")
        pin = self.expected.get(cell_key(argv))
        if pin is None:
            raise CheckFailure("no pinned output for this command")
        try:
            if argv[0] == "dims":
                return self._check_dims(argv, pin, stdout)
            return self._check_relations(argv, seed, pin, stdout)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise CheckFailure(f"malformed output: {exc!r}") from exc

    def _check_relations(self, argv, seed, pin, stdout):
        obj = json.loads(stdout)
        n, d = int(_flag(argv, "--n")), int(_flag(argv, "--d"))
        header = (obj["n"], obj["d"], obj["method"], obj["seed"], obj["entry_bound"])
        want = (n, d, _flag(argv, "--method", "montecarlo"), seed, ENTRY_BOUND)
        if header != want:
            raise CheckFailure(f"header {header} != {want}")
        if relation_digest(obj) != pin["digest"]:
            raise CheckFailure("basis/relations digest differs from the pin")
        if d == n + 1 and len(obj["relations"]) != self.rel_dim_formula(n):
            raise CheckFailure(f"{len(obj['relations'])} relations on the diagonal, "
                               f"closed form {self.rel_dim_formula(n)}")
        return obj

    def _check_dims(self, argv, pin, stdout):
        counts = parse_dims(stdout)
        if counts != pin["counts"]:
            raise CheckFailure("dims table differs from the pin")
        max_n = int(_flag(argv, "--max-n"))
        max_d = int(_flag(argv, "--max-d"))
        for n in range(1, min(max_n, max_d - 1) + 1):
            if counts[f"{n + 1},{n}"] != self.rel_dim_formula(n):
                raise CheckFailure(f"dims cell ({n + 1},{n}) != closed form")
        return counts

    @staticmethod
    def cross_check(outputs):
        """Indices of symmetrizer outputs whose span differs from the Monte
        Carlo span at the same (n, d); `outputs` maps index -> (argv, obj)."""
        mc = {}
        ys = {}
        for i, (argv, obj) in outputs.items():
            if argv[0] == "relations":
                side = ys if obj["method"] == "symmetrizer" else mc
                side[(obj["n"], obj["d"])] = (i, obj["relations"])
        bad = []
        for cell, (i, ys_rel) in ys.items():
            if cell not in mc:
                continue
            mc_rel = mc[cell][1]
            if not (exact_rank(mc_rel + ys_rel) == exact_rank(mc_rel)
                    == exact_rank(ys_rel) == len(mc_rel) == len(ys_rel)):
                bad.append(i)
        return bad


def load_expected():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def pin_all():
    """Pins for every workload command, at seeds 1 and 2."""
    import run

    package = run.load_package()
    pins = {}
    for commands in run.WORKLOADS.values():
        for argv in commands:
            seen = []
            for seed in (1, 2):
                run.clear_caches()
                rc, out, _ = run.run_command(package["cli"],
                                             [*argv, "--seed", str(seed)])
                if rc != 0:
                    raise SystemExit(f"{cell_key(argv)} exited {rc}")
                if argv[0] == "dims":
                    seen.append({"counts": parse_dims(out)})
                else:
                    obj = json.loads(out)
                    seen.append({"digest": relation_digest(obj),
                                 "relations": len(obj["relations"])})
            if seen[0] != seen[1]:
                raise SystemExit(f"{cell_key(argv)} depends on the seed")
            pins[cell_key(argv)] = seen[0]
    return pins


if __name__ == "__main__":
    json.dump(pin_all(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
