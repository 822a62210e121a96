"""Span tracing of fneg's layers from outside the package.

A :class:`Tracer` replaces each layer function with a wrapper that records a
span (name, start, end, parent) in memory.  The wrapper is installed at every
place the function is bound: the defining module, every ``fneg`` module that
imported the name, and the class for methods.  Internal calls are therefore
caught too.  A layer function that no longer exists is reported as missing,
never skipped silently.

Self time of a span is its duration minus the part of its interval that its
direct child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass, field

#: Layer name -> (module, public callables timed).  ``Class.method`` names a
#: method; ``@click`` marks the callback of a click command object.
LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "ptranspose.fermionic_pt": ("fneg.ptranspose", ("fermionic_pt", "full_transpose")),
    "ptranspose.bosonic_pt": ("fneg.ptranspose", ("bosonic_pt",)),
    "ptranspose.reduce": ("fneg.ptranspose", ("partial_trace", "parity_project")),
    "measures.spectral": ("fneg.measures", ("trace_norm", "entropy")),
    "measures.three_tangle": ("fneg.measures", ("three_tangle",)),
    "fock.validate": ("fneg.fock", ("FockOperator.require_density_matrix",)),
    "fock.build": ("fneg.fock", ("creation_op", "majorana_op", "parity_op", "embed_local",
                                 "graded_tensor", "permute_modes")),
    "states.sample": ("fneg.states", ("random_density", "random_pure", "random_separable")),
    "verify": ("fneg.verify", ("check_identity_suite", "check_locc_monotonicity",
                               "check_perturbation_expansion", "conjecture_scan")),
    "classify": ("fneg.classify", ("pure3_class", "mixed3_classify", "two_mode_separable")),
    "cli": ("fneg.cli", ("reproduce@click", "sweep@click", "classify_cmd@click",
                         "verify_cmd@click")),
}

#: Span name (module.callable) -> layer.
SPAN_LAYER = {f"{mod}.{name}": layer for layer, (mod, names) in LAYERS.items() for name in names}

#: Root span wrapped around each benchmark operation; it belongs to no layer,
#: so its self time is the part of the operation no layer covers.
OP_SPAN = "op"

#: Per-layer metrics printed by a traced run: name -> unit.  Times and counts
#: are per benchmark operation, so runs of different length compare directly.
PER_LAYER_UNITS: dict[str, str] = {
    "ptranspose.fermionic_pt.self_s": "s/op",
    "ptranspose.fermionic_pt.calls": "calls/op",
    "ptranspose.bosonic_pt.self_s": "s/op",
    "ptranspose.reduce.self_s": "s/op",
    "measures.spectral.self_s": "s/op",
    "measures.spectral.calls": "calls/op",
    "measures.three_tangle.self_s": "s/op",
    "measures.three_tangle.useful_ratio": "ratio",
    "fock.validate.self_s": "s/op",
    "fock.validate.calls_per_op": "calls/op",
    "fock.build.self_s": "s/op",
    "fock.build.calls": "calls/op",
    "states.sample.self_s": "s/op",
    "states.sample.calls": "calls/op",
    "verify.self_s_per_trial": "s/trial",
    "verify.trials": "trials/op",
    "classify.self_s": "s/op",
    "cli.import_s": "s",
    "cli.self_s": "s/op",
    "trace.overhead_frac": "ratio",
    "trace.covered_frac": "ratio",
    "trace.uncovered_s": "s/op",
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    ok: bool = True
    trials: int = 0  # verify functions: the trial or sample count requested


@dataclass
class Tracer:
    """In-memory span recorder; ``install`` patches fneg, ``uninstall`` restores it.

    Spans are stored column-wise in flat lists of numbers so that hundreds of
    thousands of them add no objects for the garbage collector to traverse.
    """

    missing: list[str] = field(default_factory=list)
    bindings: dict[str, int] = field(default_factory=dict)
    _names: list[str] = field(default_factory=list)
    _starts: list[float] = field(default_factory=list)
    _ends: list[float] = field(default_factory=list)
    _parents: list[int] = field(default_factory=list)
    _oks: list[bool] = field(default_factory=list)
    _trials: list[int] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self._names)
        self._parents.append(self._stack[-1] if self._stack else -1)
        self._names.append(name)
        self._ends.append(0.0)
        self._oks.append(False)
        self._trials.append(0)
        self._stack.append(idx)
        self._starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int, ok: bool) -> None:
        self._ends[idx] = time.perf_counter()
        self._oks[idx] = ok
        self._stack.pop()

    @property
    def span_count(self) -> int:
        return len(self._names)

    @property
    def spans(self) -> list[Span]:
        return [Span(*row) for row in zip(self._names, self._starts, self._ends,
                                          self._parents, self._oks, self._trials)]

    def call_op(self, fn):
        """Run one benchmark operation ``fn()`` inside an OP_SPAN root span."""
        idx = self._open(OP_SPAN)
        ok = False
        try:
            result = fn()
            ok = True
            return result
        finally:
            self._close(idx, ok)

    def _wrap(self, name: str, fn, count_trials: bool):
        sig = inspect.signature(fn) if count_trials else None

        def wrapper(*args, **kwargs):
            idx = self._open(name)
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self._trials[idx] = int(
                    bound.arguments.get("trials", bound.arguments.get("samples", 0))
                )
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                self._close(idx, ok)

        return functools.wraps(fn)(wrapper)

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, layers: dict[str, tuple[str, tuple[str, ...]]] = LAYERS) -> None:
        """Wrap every layer callable at each place it is bound in loaded fneg modules."""
        fneg_modules = [
            mod for modname, mod in list(sys.modules.items())
            if mod is not None and (modname == "fneg" or modname.startswith("fneg."))
        ]
        for layer, (modname, names) in layers.items():
            try:
                module = importlib.import_module(modname)
            except ImportError:
                self.missing.extend(f"{modname}.{n}" for n in names)
                continue
            if module not in fneg_modules:
                fneg_modules.append(module)
            for name in names:
                qualified = f"{modname}.{name}"
                if not self._install_one(module, name, qualified, fneg_modules, layer):
                    self.missing.append(qualified)

    def _install_one(self, module, name: str, qualified: str, fneg_modules, layer) -> bool:
        count_trials = layer == "verify"
        if name.endswith("@click"):
            command = getattr(module, name[: -len("@click")], None)
            callback = getattr(command, "callback", None)
            if callback is None:
                return False
            self._set(command, "callback", self._wrap(qualified, callback, count_trials))
            self.bindings[qualified] = 1
            return True
        if "." in name:
            cls_name, meth = name.split(".", 1)
            cls = getattr(module, cls_name, None)
            if cls is None or not callable(cls.__dict__.get(meth)):
                return False
            self._set(cls, meth, self._wrap(qualified, cls.__dict__[meth], count_trials))
            self.bindings[qualified] = 1
            return True
        original = getattr(module, name, None)
        if original is None or not callable(original):
            return False
        wrapper = self._wrap(qualified, original, count_trials)
        count = 0
        for mod in fneg_modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)
                    count += 1
        self.bindings[qualified] = count
        return True

    def uninstall(self) -> None:
        """Restore every patched binding, last patch first."""
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as one JSON line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps([i, s.name, s.start, s.end, s.parent, s.ok, s.trials]))
                fh.write("\n")


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its direct children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append((s.end - s.start) - covered)
    return out


def per_layer_metrics(
    spans: list[Span], ops: int, import_s: float, overhead_frac: float
) -> dict[str, float]:
    """Aggregate spans into the per-layer metrics of PER_LAYER_UNITS.

    Times and counts are divided by ``ops``, the operations traced; ``wall`` is
    the summed duration of the root operation spans.
    """
    selfs = self_times(spans)
    layer_self: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    layer_calls: dict[str, int] = {layer: 0 for layer in LAYERS}
    tangle_ok = 0
    trials = 0
    wall = 0.0
    for span, own in zip(spans, selfs):
        if span.name == OP_SPAN:
            wall += span.end - span.start
            continue
        layer = SPAN_LAYER.get(span.name)
        if layer is None:
            continue
        layer_self[layer] += own
        layer_calls[layer] += 1
        if layer == "measures.three_tangle" and span.ok:
            tangle_ok += 1
        trials += span.trials
    per_op = 1.0 / max(ops, 1)
    covered = sum(layer_self.values())
    tangle_calls = layer_calls["measures.three_tangle"]
    return {
        "ptranspose.fermionic_pt.self_s": layer_self["ptranspose.fermionic_pt"] * per_op,
        "ptranspose.fermionic_pt.calls": layer_calls["ptranspose.fermionic_pt"] * per_op,
        "ptranspose.bosonic_pt.self_s": layer_self["ptranspose.bosonic_pt"] * per_op,
        "ptranspose.reduce.self_s": layer_self["ptranspose.reduce"] * per_op,
        "measures.spectral.self_s": layer_self["measures.spectral"] * per_op,
        "measures.spectral.calls": layer_calls["measures.spectral"] * per_op,
        "measures.three_tangle.self_s": layer_self["measures.three_tangle"] * per_op,
        "measures.three_tangle.useful_ratio": tangle_ok / tangle_calls if tangle_calls else 0.0,
        "fock.validate.self_s": layer_self["fock.validate"] * per_op,
        "fock.validate.calls_per_op": layer_calls["fock.validate"] * per_op,
        "fock.build.self_s": layer_self["fock.build"] * per_op,
        "fock.build.calls": layer_calls["fock.build"] * per_op,
        "states.sample.self_s": layer_self["states.sample"] * per_op,
        "states.sample.calls": layer_calls["states.sample"] * per_op,
        "verify.self_s_per_trial": layer_self["verify"] / trials if trials else 0.0,
        "verify.trials": trials * per_op,
        "classify.self_s": layer_self["classify"] * per_op,
        "cli.import_s": import_s,
        "cli.self_s": layer_self["cli"] * per_op,
        "trace.overhead_frac": overhead_frac,
        "trace.covered_frac": covered / wall if wall > 0 else 0.0,
        "trace.uncovered_s": (wall - covered) * per_op,
    }
