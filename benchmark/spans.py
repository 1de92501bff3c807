"""In-memory span recorder for the traced benchmark run.

The package is not edited.  Instead `Tracer.install()` rebinds the module
attributes through which the engines call one another, so every call made
through them records a span (name, parent, start, end).  Spans are kept in
flat arrays for the whole run and written once at the end.  Per-layer
metrics are derived from the spans of one pass, plus a few counters that
need a call's arguments or result.

Layers are the package modules.  A span's layer is the module that defines
the wrapped function; its name is the module attribute it was called
through, so `symmetrizer.rank_of` and `montecarlo.rank_of` are told apart
although both run `montecarlo.rank_of`.
"""

from __future__ import annotations

import gzip
import math
import time
from array import array

LAYERS = ("words", "evaluate", "montecarlo", "symmetrizer", "cli")

# (module, attribute) pairs rebound while tracing.  Every call between
# layers on the engine paths goes through one of these attributes.
WRAPPED = (
    ("cli", "main"),
    ("cli", "find_relations"),
    ("cli", "rel_dimension_table"),
    ("cli", "symmetrizer_relation_space"),
    ("montecarlo", "find_relations"),
    ("montecarlo", "certified_kernel"),
    ("montecarlo", "build_evaluation_matrix"),
    ("montecarlo", "sample_matrix"),
    ("montecarlo", "evaluate_basis_row"),
    ("montecarlo", "evaluate_monomial"),
    ("montecarlo", "nullspace"),
    ("montecarlo", "rank_of"),
    ("montecarlo", "verify_relation"),
    ("montecarlo", "enumerate_invariant_basis"),
    ("evaluate", "evaluate_word"),
    ("symmetrizer", "enumerate_standard_tableaux"),
    ("symmetrizer", "young_symmetrizer"),
    ("symmetrizer", "project_to_invariants"),
    ("symmetrizer", "rank_of"),
    ("symmetrizer", "verify_relation"),
    ("symmetrizer", "enumerate_invariant_basis"),
)

# Per-layer metrics with their units, in report order.
PER_LAYER_UNITS = {
    "words.self_s": "s",
    "words.basis_s": "s",
    "words.basis_calls": "count",
    "evaluate.self_s": "s",
    "evaluate.row_s": "s",
    "evaluate.rows": "count",
    "evaluate.word_evals": "count",
    "evaluate.distinct_word_ratio": "ratio",
    "evaluate.max_entry_bits": "bits",
    "montecarlo.self_s": "s",
    "montecarlo.sample_s": "s",
    "montecarlo.kernel_s": "s",
    "montecarlo.kernel_cells": "count",
    "montecarlo.kernel_max_bits": "bits",
    "montecarlo.verify_s": "s",
    "montecarlo.verify_calls": "count",
    "montecarlo.verify_samples": "count",
    "montecarlo.verify_monomial_evals": "count",
    "montecarlo.escalations": "count",
    "montecarlo.cert_bound_log2": "log2",
    "montecarlo.quotient_s": "s",
    "montecarlo.quotient_rank_calls": "count",
    "montecarlo.quotient_keep_ratio": "ratio",
    "symmetrizer.self_s": "s",
    "symmetrizer.tableaux": "count",
    "symmetrizer.expand_s": "s",
    "symmetrizer.terms": "count",
    "symmetrizer.project_s": "s",
    "symmetrizer.rank_s": "s",
    "symmetrizer.verify_s": "s",
    "symmetrizer.useful_ratio": "ratio",
    "cli.self_s": "s",
    "trace.spans": "count",
    "trace.unaccounted_s": "s",
    "trace.overhead_frac": "frac",
}

COUNTERS = ("distinct_words", "max_entry_bits", "kernel_cells",
            "kernel_max_bits", "quotient_kept", "terms", "tableaux",
            "symmetrizer_kept")


def _bits(values):
    return max((abs(int(v)).bit_length() for v in values), default=0)


class Tracer:
    """Records spans for calls through the attributes in WRAPPED."""

    def __init__(self, package):
        # package: dict short module name -> module object
        self.package = package
        self.site = []          # span-name id -> "module.attribute"
        self.layer = []         # span-name id -> defining module
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.cert_bound_log2 = -math.inf
        self._last_sample = None
        self._sample_words = set()
        self._wrappers = [self._wrap(mod, attr) for mod, attr in WRAPPED]

    # -- recording ---------------------------------------------------------

    def _wrap(self, mod, attr):
        original = getattr(self.package[mod], attr)
        nid = len(self.site)
        self.site.append(f"{mod}.{attr}")
        self.layer.append(original.__module__.rsplit(".", 1)[-1])
        hook = getattr(self, f"_after_{attr}", None)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack, clock = self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(idx, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        return mod, attr, original, wrapper

    def install(self):
        for mod, attr, original, wrapper in self._wrappers:
            setattr(self.package[mod], attr, wrapper)

    def uninstall(self):
        for mod, attr, original, wrapper in self._wrappers:
            setattr(self.package[mod], attr, original)

    def _parent_attr(self, idx):
        p = self.parent[idx]
        return self.site[self.name[p]].rsplit(".", 1)[-1] if p >= 0 else None

    def _after_evaluate_word(self, idx, args, kwargs, result):
        word = args[0] if args else kwargs["word"]
        x = args[1] if len(args) > 1 else kwargs["x"]
        if x is not self._last_sample:
            self._flush_sample()
            self._last_sample = x
        self._sample_words.add(getattr(word, "letters", word))

    def _flush_sample(self):
        self.counters["distinct_words"] += len(self._sample_words)
        self._sample_words = set()
        self._last_sample = None

    def _after_evaluate_basis_row(self, idx, args, kwargs, result):
        c = self.counters
        c["max_entry_bits"] = max(c["max_entry_bits"], _bits(result))

    def _after_nullspace(self, idx, args, kwargs, result):
        if self._parent_attr(idx) != "certified_kernel":
            return
        rows = args[0] if args else kwargs["rows"]
        c = self.counters
        c["kernel_cells"] += len(rows) * len(rows[0])
        c["kernel_max_bits"] = max([c["kernel_max_bits"]]
                                   + [_bits(v) for v in result])

    def _after_rank_of(self, idx, args, kwargs, result):
        rows = args[0] if args else kwargs["rows"]
        if result != len(rows):
            return
        if self.site[self.name[idx]] == "symmetrizer.rank_of":
            self.counters["symmetrizer_kept"] += 1
        else:
            self.counters["quotient_kept"] += 1

    def _after_verify_relation(self, idx, args, kwargs, result):
        # Schwartz-Zippel: a non-relation of degree d vanishes on one sample
        # with entries uniform in [-B, B] with probability at most d/(2B+1).
        if self.site[self.name[idx]] != "montecarlo.verify_relation":
            return
        params = dict(zip(("coeffs", "n", "d", "trials", "rng", "basis",
                           "config"), args), **kwargs)
        config = params.get("config")
        bound = config.entry_bound if config is not None else 10
        log2 = params["trials"] * math.log2(params["d"] / (2 * bound + 1))
        self.cert_bound_log2 = max(self.cert_bound_log2, log2)

    def _after_young_symmetrizer(self, idx, args, kwargs, result):
        self.counters["terms"] += len(result)

    def _after_enumerate_standard_tableaux(self, idx, args, kwargs, result):
        self.counters["tableaux"] += len(result)

    # -- passes ------------------------------------------------------------

    def begin_pass(self):
        """Reset the counters; returns the index of the pass's first span."""
        self._flush_sample()
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.cert_bound_log2 = -math.inf
        return len(self.name)

    def pass_metrics(self, lo, traced_wall, untraced_wall):
        """Per-layer metrics from the spans recorded since index `lo`."""
        self._flush_sample()
        hi = len(self.name)
        site, layer = self.site, self.layer
        name, parent, start, end = self.name, self.parent, self.start, self.end
        dur = [end[i] - start[i] for i in range(lo, hi)]
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = parent[i]
            if p >= lo:
                child[p - lo] += dur[i - lo]

        self_s = dict.fromkeys(LAYERS, 0.0)
        incl = {}
        calls = {}
        sample_s = kernel_s = 0.0
        kernel_calls = verify_samples = verify_monomial_evals = 0
        for i in range(lo, hi):
            s = site[name[i]]
            d = dur[i - lo]
            self_s[layer[name[i]]] += d - child[i - lo]
            incl[s] = incl.get(s, 0.0) + d
            calls[s] = calls.get(s, 0) + 1
            p = parent[i]
            psite = site[name[p]] if p >= 0 else None
            if s == "montecarlo.nullspace" and psite == "montecarlo.certified_kernel":
                kernel_s += d
                kernel_calls += 1
            elif s == "montecarlo.build_evaluation_matrix" or (
                    s == "montecarlo.sample_matrix"
                    and psite == "montecarlo.build_evaluation_matrix"):
                sample_s += d - child[i - lo]
            elif psite == "montecarlo.verify_relation":
                verify_samples += s == "montecarlo.sample_matrix"
                verify_monomial_evals += s == "montecarlo.evaluate_monomial"
        c = self.counters
        evals = calls.get("evaluate.evaluate_word", 0)
        tableaux = c["tableaux"]
        quotient_calls = calls.get("montecarlo.rank_of", 0)
        total_self = sum(self_s.values())
        metrics = {
            "words.self_s": self_s["words"],
            "words.basis_s": incl.get("montecarlo.enumerate_invariant_basis", 0.0)
            + incl.get("symmetrizer.enumerate_invariant_basis", 0.0),
            "words.basis_calls": calls.get("montecarlo.enumerate_invariant_basis", 0)
            + calls.get("symmetrizer.enumerate_invariant_basis", 0),
            "evaluate.self_s": self_s["evaluate"],
            "evaluate.row_s": incl.get("montecarlo.evaluate_basis_row", 0.0),
            "evaluate.rows": calls.get("montecarlo.evaluate_basis_row", 0),
            "evaluate.word_evals": evals,
            "evaluate.distinct_word_ratio": c["distinct_words"] / evals if evals else 0.0,
            "evaluate.max_entry_bits": c["max_entry_bits"],
            "montecarlo.self_s": self_s["montecarlo"],
            "montecarlo.sample_s": sample_s,
            "montecarlo.kernel_s": kernel_s,
            "montecarlo.kernel_cells": c["kernel_cells"],
            "montecarlo.kernel_max_bits": c["kernel_max_bits"],
            "montecarlo.verify_s": incl.get("montecarlo.verify_relation", 0.0),
            "montecarlo.verify_calls": calls.get("montecarlo.verify_relation", 0),
            "montecarlo.verify_samples": verify_samples,
            "montecarlo.verify_monomial_evals": verify_monomial_evals,
            "montecarlo.escalations": kernel_calls - calls.get("montecarlo.certified_kernel", 0),
            "montecarlo.cert_bound_log2": (self.cert_bound_log2
                                           if self.cert_bound_log2 > -math.inf else 0.0),
            "montecarlo.quotient_s": incl.get("montecarlo.rank_of", 0.0),
            "montecarlo.quotient_rank_calls": quotient_calls,
            "montecarlo.quotient_keep_ratio": (c["quotient_kept"] / quotient_calls
                                               if quotient_calls else 0.0),
            "symmetrizer.self_s": self_s["symmetrizer"],
            "symmetrizer.tableaux": tableaux,
            "symmetrizer.expand_s": incl.get("symmetrizer.young_symmetrizer", 0.0),
            "symmetrizer.terms": c["terms"],
            "symmetrizer.project_s": incl.get("symmetrizer.project_to_invariants", 0.0),
            "symmetrizer.rank_s": incl.get("symmetrizer.rank_of", 0.0),
            "symmetrizer.verify_s": incl.get("symmetrizer.verify_relation", 0.0),
            "symmetrizer.useful_ratio": (c["symmetrizer_kept"] / tableaux
                                         if tableaux else 0.0),
            "cli.self_s": self_s["cli"],
            "trace.spans": hi - lo,
            "trace.unaccounted_s": traced_wall - total_self,
            "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        }
        return metrics

    def write(self, path):
        """Write every recorded span once, as gzipped tab-separated text."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tlayer\tparent\tstart_s\tend_s\n")
            site, layer = self.site, self.layer
            for i, (nid, p, s, e) in enumerate(zip(self.name, self.parent,
                                                   self.start, self.end)):
                fh.write(f"{i}\t{site[nid]}\t{layer[nid]}\t{p}\t{s!r}\t{e!r}\n")
