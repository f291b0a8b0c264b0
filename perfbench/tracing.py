"""Spans and counters around the public functions of every poincarerep layer.

A function is patched at every name that resolves to it: ``cli.py`` binds
``check_lorentz`` by ``from .verify import ...``, so patching only
``poincarerep.verify.check_lorentz`` would record nothing for the CLI's
calls.  ``Tracer.installed`` therefore replaces each target in every loaded
``poincarerep`` module (and, for methods, under every alias in the class,
such as ``__radd__ = __add__``) and restores the originals on exit.

Spans are kept in memory as (item, parent, name, start, end).  A layer's
self time is its span time minus the time its child spans cover.  Work done
by a hook (counting nnz, scanning radicands) is recorded as a
``trace.hook`` span under the caller, so it is taken out of the caller's
self time as well.  The speed probe's kernel (about 1-2 % of the time)
lands in whichever span is open when it fires.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import os
import sys
import time

LAYERS = ("radical", "spins", "matrix", "generators", "vectors", "cg",
          "momentum", "verify", "bundle", "cli")

# (module, attribute, span name).  A dotted attribute is a method.
SPANS = (
    ("cli", "main", "cli"),
    ("generators", "direct_sum", "generators.direct_sum"),
    ("generators", "irrep_generators", "generators.irrep"),
    ("vectors", "closed_form_vectors", "vectors.closed_form"),
    ("vectors", "recursion_solve", "vectors.recursion"),
    ("vectors", "vectors_from_coefficients", "vectors.recursion"),
    ("cg", "cg_vector_matrices", "cg.vectors"),
    ("cg", "equivalence_ratio", "cg.equivalence"),
    ("momentum", "momentum_from_vectors", "momentum.from_vectors"),
    ("verify", "check_poincare", "verify.poincare"),
    ("verify", "check_lorentz", "verify.lorentz"),
    ("verify", "check_vector_rules", "verify.vector_rules"),
    ("verify", "check_translations", "verify.translations"),
    ("bundle", "save_bundle", "bundle.dump"),
    ("bundle", "load_bundle", "bundle.load"),
    ("matrix", "commutator", "matrix.commutator"),
    ("matrix", "Matrix.__matmul__", "matrix.matmul"),
)

# Counted only: these run millions of times, and a span each would swamp
# the self times of the layers that call them.
COUNTS = (
    ("radical", "RadicalScalar.__mul__", "radical.mul"),
    ("radical", "RadicalScalar.__add__", "radical.add"),
    ("spins", "SpinPair.basis", "spins.basis"),
    ("spins", "Spin.projections", "spins.projections"),
)

HOOK = "trace.hook"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: collections.Counter = collections.Counter()
        self.item = -1
        self.rules = 0
        self.nnz_in = 0
        self.bundle_bytes = 0
        self.max_radicand = 0
        self.max_den_bits = 0
        self.irreps: list = []  # (item, (2A, 2B)) per irrep_generators call
        self.lorentz: list = []  # (item, ((2A, 2B), (2C, 2D))) per check_lorentz
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._hooks = {
            "generators.irrep": self._on_irrep,
            "verify.lorentz": self._on_lorentz,
            "verify.vector_rules": self._on_rules,
            "verify.translations": self._on_rules,
            "matrix.matmul": self._on_matmul,
            "bundle.dump": self._on_dump,
            "vectors.closed_form": self._on_vectors,
            "vectors.recursion": self._on_vectors,
            "cg.vectors": self._on_vectors,
        }

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (self.item, parent, name, start, end)
            if hook is not None:
                h0 = clock()
                hook(args, result)
                spans.append((self.item, parent, HOOK, h0, clock()))
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks --------------------------------------------------------------

    def _on_irrep(self, args, result):
        pair = args[0]
        self.irreps.append((self.item, (pair.left.twice, pair.right.twice)))

    def _on_lorentz(self, args, result):
        key = tuple((p.left.twice, p.right.twice) for p in args[0].spins)
        self.lorentz.append((self.item, key))
        self.rules += len(result)

    def _on_rules(self, args, result):
        self.rules += len(result)

    def _on_matmul(self, args, result):
        self.nnz_in += args[0].nnz() + args[1].nnz()

    def _on_dump(self, args, result):
        self.bundle_bytes += os.path.getsize(args[1])

    def _on_vectors(self, args, result):
        if not hasattr(result, "components"):
            return  # recursion_solve returns coefficients, not matrices
        for mat in result.components():
            for _, _, value in mat.nonzero_items():
                for d, re, im in value.sorted_terms():
                    self.max_radicand = max(self.max_radicand, d)
                    self.max_den_bits = max(
                        self.max_den_bits, re.denominator.bit_length(), im.denominator.bit_length()
                    )

    # -- installation -------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch every target under every name that resolves to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "poincarerep" or n.startswith("poincarerep."))]
        patches = []
        try:
            for targets, make in ((SPANS, self._span), (COUNTS, self._count)):
                for module, attr, name in targets:
                    patches += self._patch(module, attr, name, make, modules)
            yield self
        finally:
            for owner, key, original in reversed(patches):
                setattr(owner, key, original)

    def _patch(self, module, attr, name, make, modules):
        mod = sys.modules.get(f"poincarerep.{module}")
        cls_name, _, meth = attr.rpartition(".")
        owner = getattr(mod, cls_name, None) if cls_name else mod
        original = vars(owner).get(meth) if owner is not None else None
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return []
        wrapper = make(name, original)
        owners = [owner] if cls_name else modules
        patches = []
        for obj in owners:
            for key, value in list(vars(obj).items()):
                if value is original:
                    patches.append((obj, key, original))
                    setattr(obj, key, wrapper)
        return patches

    # -- summaries ----------------------------------------------------------

    def span_totals(self) -> tuple[dict[str, float], collections.Counter]:
        """Self seconds and call counts per span name."""
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = collections.defaultdict(float)
        calls: collections.Counter = collections.Counter()
        for sid, (_, _, name, start, end) in enumerate(self.spans):
            self_s[name] += (end - start) - child[sid]
            if name != HOOK:
                calls[name] += 1
        return self_s, calls

    def layer_calls(self) -> dict[str, int]:
        _, calls = self.span_totals()
        out = dict.fromkeys(LAYERS, 0)
        for name, n in list(calls.items()) + list(self.counts.items()):
            out[name.split(".")[0]] += n
        return out


def per_item_share(records) -> tuple[int, int]:
    """(distinct, total) of keys, counting distinct keys within each item."""
    seen = {(item, key) for item, key in records}
    return len(seen), len(records)


def repeat_share(records) -> tuple[int, int]:
    """(repeats, blocks): irreducible blocks already checked earlier in the same item."""
    seen: set = set()
    repeats = blocks = 0
    for item, pairs in records:
        for pair in pairs:
            blocks += 1
            if (item, pair) in seen:
                repeats += 1
            seen.add((item, pair))
    return repeats, blocks
