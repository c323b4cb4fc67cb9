"""In-memory span tracer that wraps layer boundaries of the ``witl`` package
from outside, without editing it.

A boundary is a module attribute (``witl.rd._ba_batch``, ``witl.gray_wyner.c_star``,
the ``minimize`` that ``witl.common_info`` imports, ...). Functions defined in
``witl`` are replaced in every ``witl`` module that holds them, so a call
through ``from .rd import ba_joint_rd`` in another module is traced too.
Spans are kept as plain lists and written out when the run ends.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

import numpy as np

# span record layout
NAME, START, END, PARENT, OP, EXTRA = range(6)


def _kernel_extra(args, kwargs, result):
    cost = kwargs.get("cost", args[1] if len(args) > 1 else None)
    return {"entries": int(np.shape(cost)[0])}


def _minimize_extra(args, kwargs, result):
    return {"nfev": int(getattr(result, "nfev", 0))}


def _solve_name(result):
    return "common_info.exhaustive" if result.status == "exhaustive-optimal" else "common_info.descent"


def _audit_extra(args, kwargs, result):
    return {"failed_checks": sum(c.verdict == "fail" for c in result.checks)}


def _estimate_extra(args, kwargs, result):
    return {"witness": result.witness is not None}


def _generator_extra(args, kwargs, result):
    distinct = len(np.unique(result.codebook, axis=0))
    return {"M": int(result.M), "distinct": int(distinct)}


def _delta_extra(args, kwargs, result):
    gen = kwargs.get("gen", args[0] if args else None)
    p = kwargs.get("p", args[1] if len(args) > 1 else None)
    symbols = int(np.prod(p.alphabet_sizes))
    return {"states": float(symbols) ** gen.n * gen.M}


# (module, attribute, span name, extra-from-call, name-from-result)
TARGETS = (
    ("witl.rd", "_ba_batch", "rd.kernel", _kernel_extra, None),
    ("witl.rd", "ba_rate_distortion", "rd.marginal", None, None),
    ("witl.rd", "ba_conditional_rd", "rd.conditional", None, None),
    ("witl.rd", "ba_joint_rd", "rd.joint", None, None),
    ("witl.common_info", "solve_common_info", "common_info.solve", None, _solve_name),
    ("witl.common_info", "common_info_bounds", "common_info.bounds", None, None),
    ("witl.common_info", "minimize", "common_info.minimize", _minimize_extra, None),
    ("witl.gray_wyner", "minimize", "gray_wyner.minimize", _minimize_extra, None),
    ("witl.gray_wyner", "c3_tilde", "gray_wyner.c3_tilde", _estimate_extra, None),
    ("witl.gray_wyner", "c_star", "gray_wyner.c_star", _estimate_extra, None),
    ("witl.gray_wyner", "check_membership", "gray_wyner.membership", None, None),
    ("witl.synthesis", "build_generator", "synthesis.build", _generator_extra, None),
    ("witl.synthesis", "exact_delta", "synthesis.delta", _delta_extra, None),
    ("witl.audit", "audit_lemma1", "audit.lemma1", _audit_extra, None),
)

#: boundaries a refactor may legitimately remove; their counts then read 0
OPTIONAL = {"common_info.minimize", "gray_wyner.minimize"}


class Tracer:
    """Records spans (name, start, end, parent, op id, extra) in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, extra_fn, name_fn):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if name_fn is not None:
                tracer.spans[idx][NAME] = name_fn(result)
            if extra_fn is not None:
                tracer.spans[idx][EXTRA] = extra_fn(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Wrap every target; raises if a required boundary is missing."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "witl" or key.startswith("witl."))
        ]
        for mod_name, attr, name, extra_fn, name_fn in TARGETS:
            mod = sys.modules[mod_name]
            fn = getattr(mod, attr, None)
            if fn is None:
                if name in OPTIONAL:
                    continue
                raise RuntimeError(f"trace boundary {mod_name}.{attr} is missing")
            wrapper = self._wrap(fn, name, extra_fn, name_fn)
            holders = [mod]
            if getattr(fn, "__module__", "").startswith("witl"):
                holders = [m for m in modules if any(v is fn for v in vars(m).values())]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        self._patches.append((holder, key, value))
                        setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, value in reversed(self._patches):
            setattr(holder, key, value)
        self._patches.clear()


LAYER_SPANS = (
    "rd.kernel", "rd.conditional", "rd.marginal", "rd.joint",
    "common_info.minimize", "gray_wyner.minimize",
    "common_info.exhaustive", "common_info.descent", "common_info.bounds",
    "gray_wyner.c3_tilde", "gray_wyner.c_star", "gray_wyner.membership",
    "synthesis.build", "synthesis.delta", "audit.lemma1", "cli",
)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and self times from a finished span list.

    Self time is a span's duration minus the durations of its direct child
    spans; spans of one thread nest, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    miss = set()
    for i, s in enumerate(spans):
        parent = s[PARENT]
        if parent is not None:
            child_time[parent] += s[END] - s[START]
            if s[NAME] == "rd.kernel" and spans[parent][NAME] == "rd.joint" and s[EXTRA]["entries"] > 1:
                miss.add(parent)
    calls = {name: 0 for name in LAYER_SPANS}
    self_s = {name: 0.0 for name in LAYER_SPANS}
    extra_sum: dict[str, float] = {}
    for i, s in enumerate(spans):
        name = s[NAME]
        if name not in calls:
            continue
        calls[name] += 1
        self_s[name] += (s[END] - s[START]) - child_time[i]
        for key, value in (s[EXTRA] or {}).items():
            extra_sum[f"{name}.{key}"] = extra_sum.get(f"{name}.{key}", 0.0) + float(value)

    def share(num, den):
        return num / den if den else 0.0

    out = {
        "rd.kernel.calls": calls["rd.kernel"],
        "rd.kernel.entries": int(extra_sum.get("rd.kernel.entries", 0)),
        "rd.kernel.entries_per_call": share(extra_sum.get("rd.kernel.entries", 0), calls["rd.kernel"]),
        "rd.kernel.s": self_s["rd.kernel"],
        "rd.conditional.calls": calls["rd.conditional"],
        "rd.conditional.s": self_s["rd.conditional"],
        "rd.marginal.calls": calls["rd.marginal"],
        "rd.marginal.s": self_s["rd.marginal"],
        "rd.joint.calls": calls["rd.joint"],
        "rd.joint.s": self_s["rd.joint"],
        "rd.joint.sweep_misses": len(miss),
        "rd.joint.sweep_miss_share": share(len(miss), calls["rd.joint"]),
    }
    for mod in ("common_info", "gray_wyner"):
        name = f"{mod}.minimize"
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.nfev"] = int(extra_sum.get(f"{name}.nfev", 0))
        out[f"{name}.s"] = self_s[name]
    for name in ("common_info.exhaustive", "common_info.descent"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = self_s[name]
    out["common_info.bounds.s"] = self_s["common_info.bounds"]
    for name in ("gray_wyner.c3_tilde", "gray_wyner.c_star", "gray_wyner.membership"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = self_s[name]
    estimates = calls["gray_wyner.c3_tilde"] + calls["gray_wyner.c_star"]
    witnesses = extra_sum.get("gray_wyner.c3_tilde.witness", 0) + extra_sum.get("gray_wyner.c_star.witness", 0)
    out["gray_wyner.witness_share"] = share(witnesses, estimates)
    out["synthesis.build.calls"] = calls["synthesis.build"]
    out["synthesis.build.s"] = self_s["synthesis.build"]
    out["synthesis.delta.calls"] = calls["synthesis.delta"]
    out["synthesis.delta.s"] = self_s["synthesis.delta"]
    out["synthesis.delta.states"] = extra_sum.get("synthesis.delta.states", 0.0)
    out["synthesis.distinct_codeword_share"] = share(
        extra_sum.get("synthesis.build.distinct", 0), extra_sum.get("synthesis.build.M", 0)
    )
    out["audit.lemma1.calls"] = calls["audit.lemma1"]
    out["audit.lemma1.s"] = self_s["audit.lemma1"]
    out["audit.checks.failed"] = int(extra_sum.get("audit.lemma1.failed_checks", 0))
    out["cli.calls"] = calls["cli"]
    out["cli.overhead_s"] = self_s["cli"]
    return out
