"""Per-layer tracing from outside the library.

:class:`Tracer` replaces the public functions of ``src/dendrotensor/`` at
every module that binds them (``lurie`` imports ``operations`` by name,
``shuffle`` imports ``hom``, and so on), wraps the constructors and
``ops_by_output`` on their classes, and records one span per call: name,
parent span, start, end, the length of the result and whether it raised.
Spans stay in flat arrays until :meth:`Tracer.metrics` folds them into the
per-layer metrics and :meth:`Tracer.write` dumps them.
"""

from __future__ import annotations

from array import array
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Any, Callable

SUITES = (
    "functoriality", "retract", "segal", "d3", "nerve",
    "fibrous", "shuffles", "assoc", "interior", "freealg",
)

# (defining module, attribute, span name, whether the result has a length)
FUNCTIONS = (
    ("treecore", "parse_tree", "treecore.parse", False),
    ("treecore", "parse_forest", "treecore.parse", False),
    ("treecore", "serialize_tree", "treecore.serialize", False),
    ("treecore", "serialize_forest", "treecore.serialize", False),
    ("omegacat", "operations", "omegacat.operations", True),
    ("omegacat", "hom", "omegacat.hom", True),
    ("omegacat", "is_cut", "omegacat.is_cut", False),
    ("omegacat", "compose", "omegacat.compose", False),
    ("omegacat", "validate", "omegacat.validate", False),
    ("shuffle", "shuffles", "shuffle.shuffles", True),
    ("shuffle", "count_shuffles", "shuffle.count_shuffles", False),
    ("shuffle", "tensor_hom", "shuffle.tensor_hom", True),
    ("lurie", "check_fibrous", "lurie.check_fibrous", False),
    ("lurie", "ell_hom", "lurie.ell_hom", True),
    ("lurie", "ell_compose", "lurie.ell_compose", False),
    ("lurie", "rho", "lurie.rho", False),
    ("lurie", "maps_into", "lurie.maps_into", True),
    ("lurie", "segal_cut_check", "lurie.segal_cut_check", False),
    ("lurie", "segal_components_check", "lurie.segal_components_check", False),
    ("lurie", "enumerate_chains", "lurie.enumerate_chains", True),
    ("lurie", "free_algebra", "lurie.free_algebra", True),
    ("levelforest", "omega_obj", "levelforest.omega_obj", False),
    ("levelforest", "omega_mor", "levelforest.omega_mor", False),
    ("levelforest", "retract_witness", "levelforest.retract_witness", False),
    ("render", "to_dot", "render.dot", False),
    ("render", "gallery_dot", "render.dot", False),
    ("cli", "main", "cli.main", False),
)

# (module, class, method, span name); "__init__" spans the constructor
METHODS = (
    ("treecore", "Tree", "__init__", "treecore.Tree"),
    ("lurie", "FinPtdMor", "__init__", "lurie.FinPtdMor"),
    ("lurie", "BVTensorOperad", "__init__", "lurie.BVTensorOperad"),
    ("lurie", "FreeForestOperad", "ops_by_output", "lurie.ops_by_output"),
    ("lurie", "TableOperad", "ops_by_output", "lurie.ops_by_output"),
    ("lurie", "BVTensorOperad", "ops_by_output", "lurie.ops_by_output"),
)

# span name -> the statistics reported for it
STATS = {
    "treecore.Tree": ("calls", "self_s"),
    "treecore.parse": ("calls", "self_s"),
    "treecore.serialize": ("calls", "self_s"),
    "omegacat.operations": ("calls", "self_s", "items"),
    "omegacat.hom": ("calls", "self_s", "items"),
    "omegacat.is_cut": ("calls", "self_s"),
    "omegacat.compose": ("calls", "self_s"),
    "omegacat.validate": ("calls", "self_s"),
    "shuffle.shuffles": ("calls", "self_s", "items"),
    "shuffle.count_shuffles": ("calls", "self_s"),
    "shuffle.tensor_hom": ("calls", "self_s", "items"),
    "lurie.check_fibrous": ("calls", "self_s"),
    "lurie.ell_hom": ("calls", "self_s", "items"),
    "lurie.ell_compose": ("calls", "self_s"),
    "lurie.FinPtdMor": ("calls", "self_s"),
    "lurie.rho": ("calls",),
    "lurie.maps_into": ("calls", "self_s", "items", "raised"),
    "lurie.ops_by_output": ("calls", "self_s"),
    "lurie.BVTensorOperad": ("calls", "self_s"),
    "lurie.segal_cut_check": ("calls", "self_s"),
    "lurie.segal_components_check": ("calls", "self_s"),
    "lurie.enumerate_chains": ("calls", "self_s", "items"),
    "lurie.free_algebra": ("calls", "self_s", "items"),
    "levelforest.omega_obj": ("calls", "self_s"),
    "levelforest.omega_mor": ("calls", "self_s"),
    "levelforest.retract_witness": ("calls", "self_s"),
    "render.dot": ("calls", "self_s"),
    "cli.main": ("self_s",),
}
LAYERS = ("treecore", "omegacat", "shuffle", "lurie", "levelforest", "suites", "cli", "render")
UNITS = {"calls": "count", "self_s": "s", "items": "count", "raised": "count"}


class Tracer:
    def __init__(self, dt: SimpleNamespace):
        self.dt = dt
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.parent = array("l")
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.items = array("q")
        self.raised = array("b")
        self._stack = [-1]
        self._undo: list[tuple[Any, str, Any]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn: Callable, name: str | Callable[[tuple], str], counted: bool) -> Callable:
        fixed = self._id(name) if isinstance(name, str) else None

        def traced(*args, **kwargs):
            i = len(self.start)
            self.parent.append(self._stack[-1])
            self.name.append(fixed if fixed is not None else self._id(name(args)))
            self.items.append(-1)
            self.raised.append(0)
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[i] = 1
                raise
            finally:
                self.end[i] = perf_counter()
                self._stack.pop()
            if counted:
                self.items[i] = len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        dt = self.dt
        wrappers: dict[int, Callable] = {}
        for module, attr, name, counted in FUNCTIONS:
            fn = getattr(getattr(dt, module), attr)
            wrappers[id(fn)] = self._wrap(fn, name, counted)
        run_check = dt.suites.run_check
        wrappers[id(run_check)] = self._wrap(run_check, lambda args: f"suites.{args[0]}", False)
        for module in (dt.package, *(getattr(dt, m) for m in dt.modules)):
            for attr, value in list(vars(module).items()):
                if callable(value) and id(value) in wrappers:
                    self._patch(module, attr, wrappers[id(value)])
        for module, cls_name, method, name in METHODS:
            cls = getattr(getattr(dt, module), cls_name)
            self._patch(cls, method, self._wrap(cls.__dict__[method], name, False))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def metrics(self, wall_s: float, overhead_s: float, bytes_out: int, records: dict[str, int]) -> dict[str, tuple[float, str]]:
        """Fold the spans into ``<span>.<stat>`` metrics, per-layer self
        totals, the runner's share of the traced wall time and the two
        waste ratios."""
        n = len(self.start)
        names, parent, name, items = self.names, self.parent, self.name, self.items
        child = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += self.end[i] - self.start[i]
        by_name: dict[str, list[float]] = {}
        hom_id, ops_id, th_id = (self._ids.get(k, -2) for k in ("omegacat.hom", "omegacat.operations", "shuffle.tensor_hom"))
        under_hom = bytearray(n)
        under_th = bytearray(n)
        cuts_under_hom = maps_under_th = 0
        for i in range(n):
            p = parent[i]
            if p >= 0:
                under_hom[i] = under_hom[p] or name[p] == hom_id
                under_th[i] = under_th[p] or name[p] == th_id
            if name[i] == ops_id and under_hom[i]:
                cuts_under_hom += items[i]
            if name[i] == hom_id and under_th[i]:
                maps_under_th += items[i]
            agg = by_name.setdefault(names[name[i]], [0, 0.0, 0, 0, 0.0])
            dur = self.end[i] - self.start[i]
            agg[0] += 1
            agg[1] += dur - child[i]
            agg[2] += max(items[i], 0)
            agg[3] += self.raised[i]
            agg[4] += dur
        out: dict[str, tuple[float, str]] = {}
        for span, stats in STATS.items():
            calls, self_s, got, raised, _ = by_name.get(span, (0, 0.0, 0, 0, 0.0))
            values = {"calls": calls, "self_s": self_s, "items": got, "raised": raised}
            for stat in stats:
                out[f"{span}.{stat}"] = (values[stat], UNITS[stat])
        for suite in SUITES:
            out[f"suites.{suite}.s"] = (by_name.get(f"suites.{suite}", (0, 0.0, 0, 0, 0.0))[4], "s")
            out[f"suites.{suite}.records"] = (records.get(suite, 0), "count")
        hom_maps = by_name.get("omegacat.hom", (0, 0.0, 0))[2]
        th_maps = by_name.get("shuffle.tensor_hom", (0, 0.0, 0))[2]
        out["omegacat.hom.maps_per_cut"] = (hom_maps / cuts_under_hom if cuts_under_hom else 0.0, "ratio")
        out["shuffle.tensor_hom.distinct_ratio"] = (th_maps / maps_under_th if maps_under_th else 0.0, "ratio")
        out["cli.bytes_out"] = (bytes_out, "bytes")
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for span, agg in by_name.items():
            layer_self[span.split(".", 1)[0]] += agg[1]
        for layer, s in layer_self.items():
            out[f"{layer}.self_s"] = (s, "s")
        out["runner.self_s"] = (wall_s - sum(layer_self.values()), "s")
        out["trace.wall_s"] = (wall_s, "s")
        out["trace.overhead_s"] = (overhead_s, "s")
        return out

    def write(self, path: Path) -> None:
        """One line per span: id, parent id, name, start and end in seconds
        from the first span, result length (-1 when not counted), raised."""
        t0 = self.start[0] if len(self.start) else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\titems\traised\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                    f"{self.start[i] - t0:.7f}\t{self.end[i] - t0:.7f}\t{self.items[i]}\t{self.raised[i]}\n"
                )
