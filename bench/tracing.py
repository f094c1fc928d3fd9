"""Span tracing of blockred from outside the package.

A Tracer wraps the public functions the pipelines and the command line call,
each one in every blockred module that binds it, so a call made through any
module's own name is seen; the MatrixPolynomial and system `transfer`
methods are wrapped at their classes.  Every call becomes a span
[name, start, end, parent span, operation, extra] kept in memory; `extra`
holds what a per-layer ratio needs (a result size, a requested count, a
fingerprint of the analysed system).  `summary` turns the spans into the
per-layer metrics, each normalised per benchmark operation.
"""

import functools
import hashlib
import json
import sys
import time

import numpy as np

PIPELINES = ("reduce.reduce_dominant", "reduce.reduce_latent")
SYSDOC = ("sysdoc.load_document", "sysdoc.build_system", "sysdoc.save_document")


def _report_extra(args, kwargs, result):
    report = result[1]
    return [len(report.eliminated), report.iterations]


def _fingerprint(args, kwargs, result):
    """Digest of every array that defines the analysed system."""
    h = hashlib.blake2b(digest_size=12)

    def feed(obj):
        if isinstance(obj, np.ndarray):
            h.update(str(obj.shape).encode())
            h.update(np.ascontiguousarray(obj).tobytes())
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                feed(item)
        elif hasattr(obj, "__dict__"):
            for key in sorted(vars(obj)):
                feed(getattr(obj, key))

    feed(args[0])
    return h.hexdigest()


# (span name, defining module, function name, extra)
FUNCTIONS = (
    ("reduce.reduce_dominant", "blockred.reduce", "reduce_dominant", _report_extra),
    ("reduce.reduce_latent", "blockred.reduce", "reduce_latent", _report_extra),
    ("sysrep.mfd_from_state_space", "blockred.sysrep", "mfd_from_state_space", None),
    ("sysrep.block_diagonalize", "blockred.sysrep", "block_diagonalize", None),
    ("solvents.compute_complete_set", "blockred.solvents", "compute_complete_set",
     lambda a, k, res: len(res)),
    ("solvents.solvent_from_roots", "blockred.solvents", "solvent_from_roots", None),
    ("dompoles.dominant_poles", "blockred.dompoles", "dominant_poles",
     lambda a, k, res: int(k.get("count", a[1] if len(a) > 1 else 0))),
    ("metrics.relative_error", "blockred.metrics", "relative_error", None),
    ("metrics.hankel_singular_values", "blockred.metrics", "hankel_singular_values",
     _fingerprint),
    ("metrics.h2_error", "blockred.metrics", "h2_error", None),
    ("sysdoc.load_document", "blockred.sysdoc", "load_document", None),
    ("sysdoc.build_system", "blockred.sysdoc", "build_system", None),
    ("sysdoc.save_document", "blockred.sysdoc", "save_document", None),
)

# (span name, defining module, class name, method name)
METHODS = (
    ("matpoly.latent_roots", "blockred.matpoly", "MatrixPolynomial", "latent_roots"),
    ("matpoly.block_divide", "blockred.matpoly", "MatrixPolynomial", "block_divide"),
    ("sysrep.transfer", "blockred.sysrep", "StateSpace", "transfer"),
    ("sysrep.transfer", "blockred.sysrep", "RightMFD", "transfer"),
    ("sysrep.transfer", "blockred.sysrep", "BlockDiagonalRealization", "transfer"),
)


class Tracer:
    """Installs span-recording wrappers into blockred and removes them again."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, extra):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if extra is not None:
                rec[5] = extra(args, kwargs, result)
            else:
                rec[5] = True  # returned normally
            return result

        return traced

    def install(self):
        modules = [mod for key, mod in sys.modules.items()
                   if key == "blockred" or key.startswith("blockred.")]
        for name, home, attr, extra in FUNCTIONS:
            original = getattr(sys.modules[home], attr)
            traced = self._wrap(name, original, extra)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
                        self._undo.append((mod, key, original))
        for name, home, cls_name, attr in METHODS:
            cls = getattr(sys.modules[home], cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(name, original, None))
            self._undo.append((cls, attr, original))

    def uninstall(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def write(self, path, **info):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(info, spans=self.spans), fh)


def summary(spans, ops):
    """Per-layer metrics, as (value, unit), from spans over `ops` operations.

    Times and call counts are per operation; shares and yields are ratios
    over the whole run.
    """
    def total(names):
        names = set(names)
        out = 0.0
        for rec in spans:
            if rec[0] not in names:
                continue
            parent = rec[3]
            while parent >= 0 and spans[parent][0] not in names:
                parent = spans[parent][3]
            if parent < 0:  # count nested spans of the same layer once
                out += rec[2] - rec[1]
        return out / ops

    def calls(name):
        return sum(1 for rec in spans if rec[0] == name) / ops

    children = {}
    for rec in spans:
        if rec[3] >= 0:
            children[rec[3]] = children.get(rec[3], 0.0) + rec[2] - rec[1]
    self_time = sum(
        rec[2] - rec[1] - children.get(i, 0.0)
        for i, rec in enumerate(spans) if rec[0] in PIPELINES
    )

    roots_calls = [rec for rec in spans if rec[0] == "solvents.solvent_from_roots"]
    useful = sum(rec[5] for rec in spans
                 if rec[0] == "solvents.compute_complete_set" and rec[5] is not None)
    useful += sum(1 for rec in roots_calls
                  if rec[5] is not None and spans[rec[3]][0] == "reduce.reduce_latent")

    hankel = [rec for rec in spans if rec[0] == "metrics.hankel_singular_values"]
    seen, repeats = set(), 0
    for rec in hankel:
        key = (rec[4], rec[5])
        repeats += key in seen
        seen.add(key)

    requested = sum(rec[5] for rec in spans
                    if rec[0] == "dompoles.dominant_poles" and rec[5] is not None)
    steps = [rec[5] for rec in spans if rec[0] in PIPELINES and rec[5] is not None]
    attempts = sum(s[1] for s in steps)

    per_op = {
        "sysdoc.s": (total(SYSDOC), "s"),
        "sysrep.mfd_from_state_space.s": (total(["sysrep.mfd_from_state_space"]), "s"),
        "sysrep.block_diagonalize.s": (total(["sysrep.block_diagonalize"]), "s"),
        "sysrep.transfer.s": (total(["sysrep.transfer"]), "s"),
        "solvents.compute_complete_set.s": (total(["solvents.compute_complete_set"]), "s"),
        "solvents.solvent_from_roots.calls": (calls("solvents.solvent_from_roots"), "count"),
        "solvents.solvent_from_roots.s": (total(["solvents.solvent_from_roots"]), "s"),
        "solvents.search_yield": (useful / len(roots_calls) if roots_calls else 0.0, "ratio"),
        "matpoly.latent_roots.s": (total(["matpoly.latent_roots"]), "s"),
        "matpoly.block_divide.s": (total(["matpoly.block_divide"]), "s"),
        "dompoles.dominant_poles.s": (total(["dompoles.dominant_poles"]), "s"),
        "dompoles.dominant_poles.calls": (calls("dompoles.dominant_poles"), "count"),
        "dompoles.poles_requested": (requested / ops, "count"),
        "metrics.relative_error.s": (total(["metrics.relative_error"]), "s"),
        "metrics.relative_error.calls": (calls("metrics.relative_error"), "count"),
        "metrics.hankel_singular_values.calls": (len(hankel) / ops, "count"),
        "metrics.hankel_repeat_share": (repeats / len(hankel) if hankel else 0.0, "ratio"),
        "metrics.h2_error.s": (total(["metrics.h2_error"]), "s"),
        "reduce.self_s": (self_time / ops, "s"),
        "reduce.accept_share": (sum(s[0] for s in steps) / attempts if attempts else 0.0,
                                "ratio"),
    }
    return per_op
