"""Span tracing of the library's layers from outside the library.

Each target function is replaced, at every ``hookcells`` module attribute
bound to it, by a wrapper that records a span: target, start, end, parent
span and item id. Rebinding every attribute matters because modules import
functions by name (``cells`` holds its own ``ram_data`` and ``hooks``,
``hookcode`` its own ``hooks`` and ``enumerate_with_diagonal_lengths``,
``secant`` its own ``grass_degree``). Constructors are traced through
``__init__`` and methods on their class, so every caller sees the wrapper.

The wrappers are prepared once and can be installed and removed again, so
one process can time the same items traced and untraced. A target that
cannot be found is listed in ``missing``; the benchmark refuses to report
layer metrics then, since a renamed or removed function would otherwise read
as 0 calls.

Spans stay in memory; self time is computed from them at the end, and the
raw spans can be written out as JSON.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# Traced functions, as <module>.<name>; a class name alone means its constructor.
TARGETS = (
    "linalg.rref", "linalg.rank", "linalg.nullspace", "linalg.in_rowspace",
    "binforms.FormSpace", "binforms.FormSpace.span", "binforms.FormSpace.contains",
    "binforms.change_basis", "binforms.ram_data", "binforms.wronskian",
    "binforms.total_ramification_check",
    "unipoly.det", "unipoly.rational_roots", "unipoly.factorize",
    "cells.build_ideal", "cells.GradedIdeal", "cells.initial_ideal", "cells.pair_set_S",
    "partitions.enumerate_with_diagonal_lengths", "partitions.hooks",
    "hookcode.code", "hookcode.decode", "hookcode.all_codes", "hookcode.complement",
    "hookcode.betti_numbers", "hookcode.gaussian_binomial",
    "schubert.lr_multiply", "schubert.lr_coefficient", "schubert.pieri_multiply",
    "schubert.grass_degree", "schubert.intersect_ramification",
    "secant.t_multiply", "secant.secant_pullback", "secant.iota_pullback", "secant.hankel_rank",
    "cli.main",
)


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


class Tracer:
    """Wrappers for the targets of one imported ``hookcells`` package."""

    def __init__(self, hc):
        self.hc = hc
        self.names = list(TARGETS)
        self.spans = []  # [target index, start, end, parent span or -1, item id]
        self.stack = []
        self.item = -1
        self.missing = []
        self.patches = []  # (owner, attribute, original, wrapper)
        self.counts = {
            "rref_entries": 0, "rref_rows_in": 0, "rref_rows_out": 0,
            "change_basis_identity": 0, "factorize_bits": 0,
        }
        for idx, name in enumerate(self.names):
            try:
                self._prepare(idx, name)
            except (AttributeError, KeyError):
                self.missing.append(name)

    # -- installation ---------------------------------------------------------

    def _prepare(self, idx, name):
        module_name, *path = name.split(".")
        module = getattr(self.hc, module_name)
        obj = getattr(module, path[0])
        account = getattr(self, "_account_" + name.replace(".", "_"), None)
        if isinstance(obj, type):
            attr = path[1] if len(path) > 1 else "__init__"
            raw = obj.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapper = classmethod(self._wrap(idx, raw.__func__, account))
            else:
                wrapper = self._wrap(idx, raw, account)
            self.patches.append((obj, attr, raw, wrapper))
            return
        wrapper = self._wrap(idx, obj, account)
        prefix = self.hc.__name__
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is obj:
                    self.patches.append((mod, attr, obj, wrapper))

    def install(self):
        for owner, attr, _, wrapper in self.patches:
            setattr(owner, attr, wrapper)

    def remove(self):
        for owner, attr, original, _ in self.patches:
            setattr(owner, attr, original)

    def _wrap(self, idx, fn, account):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [idx, 0.0, 0.0, stack[-1] if stack else -1, self.item]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if account is not None:
                account(args, kwargs, result)
            return result

        return wrapper

    # -- work counts at the same boundaries -----------------------------------

    def _account_linalg_rref(self, args, kwargs, result):
        rows = _arg(args, kwargs, 0, "rows")
        ncols = _arg(args, kwargs, 1, "ncols")
        self.counts["rref_entries"] += len(rows) * ncols
        self.counts["rref_rows_in"] += len(rows)
        self.counts["rref_rows_out"] += len(result[0])

    def _account_binforms_change_basis(self, args, kwargs, result):
        p = _arg(args, kwargs, 1, "p")
        if p == self.hc.POINT_X and _arg(args, kwargs, 2, "c_form") is None:
            self.counts["change_basis_identity"] += 1

    def _account_unipoly_factorize(self, args, kwargs, result):
        self.counts["factorize_bits"] += int(_arg(args, kwargs, 0, "n")).bit_length()

    # -- results --------------------------------------------------------------

    def layer_metrics(self):
        """Calls and self seconds per target, plus the derived work counts."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        child = [0.0] * len(self.spans)
        for idx, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (idx, start, end, _, _) in enumerate(self.spans):
            calls[idx] += 1
            self_s[idx] += end - start - child[i]
        out = {}
        for idx, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[idx]
            out[f"{name}.self_s"] = self_s[idx]
        c = self.counts
        out["linalg.rref.entries"] = c["rref_entries"]
        out["linalg.rref.kept_ratio"] = c["rref_rows_out"] / c["rref_rows_in"] if c["rref_rows_in"] else 0.0
        cb_calls = calls[self.names.index("binforms.change_basis")]
        out["binforms.change_basis.identity_ratio"] = c["change_basis_identity"] / cb_calls if cb_calls else 0.0
        out["unipoly.factorize.bits"] = c["factorize_bits"]
        return out

    def inclusive(self):
        """Per target: inclusive seconds (calls nested in a call of the same
        target count once), and the inclusive seconds of each direct child."""
        names = self.names
        total = dict.fromkeys(names, 0.0)
        children = {n: {} for n in names}
        for idx, start, end, parent, _ in self.spans:
            if parent >= 0:
                kids = children[names[self.spans[parent][0]]]
                kids[names[idx]] = kids.get(names[idx], 0.0) + end - start
        for i, (idx, start, end, parent, _) in enumerate(self.spans):
            p, nested = parent, False
            while p >= 0 and not nested:
                nested = self.spans[p][0] == idx
                p = self.spans[p][3]
            if not nested:
                total[names[idx]] += end - start
        return total, children

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "names": self.names,
                "fields": ["name", "start", "end", "parent", "item"],
                "spans": self.spans,
            }, fh)
