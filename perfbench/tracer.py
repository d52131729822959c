"""Outside-in spans around the package's layers, for the traced run only.

The tracer wraps each target function in every ``skeinseq`` module namespace
that holds it, so names imported into ``cli``, ``complexes``, ``spectral``
or ``infer`` are traced where they are looked up.  Methods such as
``UHomology.__init__`` are wrapped on their class.  No file of the package
changes, and a target that a refactor removed is reported as absent.
"""

from __future__ import annotations

import sys
from time import perf_counter


def _ckh(args, kwargs, res):
    return {"gens": res.complex.n, "entries": len(res.complex.diff)}


def _matrix_rank(args, kwargs, res):
    return {"bits": len(args[0]) * args[1]}


def _module_decompose(args, kwargs, res):
    rel = args[1] if len(args) > 1 else kwargs["relations"]
    return {"relations": len(rel), "summands": len(res.summands)}


def _analyze(args, kwargs, res):
    return {"events": len(res.events), "survivors": len(res.survivors)}


def _patterns(args, kwargs, res):
    return {"patterns": len(res)}


# (label, module, attribute path, size extractor).  The label is the metric
# prefix; "UHomology.__init__" is reported as "complexes.UHomology".
TARGETS = (
    ("khovanov.ckh", "khovanov", "ckh", _ckh),
    ("khovanov.parse_pd", "khovanov", "parse_pd", None),
    ("complexes.UHomology", "complexes", "UHomology.__init__", None),
    ("complexes.homology_f2", "complexes", "homology_f2", None),
    ("gf2.matrix_rank", "gf2", "matrix_rank", _matrix_rank),
    ("gf2.column_kernel", "gf2", "column_kernel", None),
    ("gf2.ColumnSpace.add", "gf2", "ColumnSpace.add", None),
    ("umod.reduce_columns", "umod", "reduce_columns", None),
    ("umod.echelonize", "umod", "echelonize", None),
    ("umod.solve_in_echelon", "umod", "solve_in_echelon", None),
    ("umod.module_decompose", "umod", "module_decompose", _module_decompose),
    ("spectral.analyze", "spectral", "analyze", _analyze),
    ("spectral.pages", "spectral", "pages", None),
    ("spectral.converge", "spectral", "converge", None),
    ("spectral.check_constraints", "spectral", "check_constraints", None),
    ("serde.read_json", "serde", "read_json", None),
    ("serde.load_complex", "serde", "load_complex", None),
    ("infer.enumerate_patterns", "infer", "enumerate_patterns", _patterns),
    ("infer.resolve_filtration", "infer", "resolve_filtration", None),
    ("models.run_model_suite", "models", "run_model_suite", None),
    ("cli.main", "cli", "main", None),
)

PACKAGE = "skeinseq"

# Span fields, kept as lists to make recording cheap.
LABEL, SITE, START, END, PARENT, JOB, SIZES = range(7)


class Tracer:
    """Records one span per wrapped call: label, site, start, end, parent, job."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1
        self.absent: list[str] = []
        self.size_errors: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []

    # -- installing ----------------------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self) -> None:
        modules = self._modules()
        for label, modname, path, sizes in TARGETS:
            owner = sys.modules.get("%s.%s" % (PACKAGE, modname))
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = owner.__dict__.get(attr) if owner is not None else None
            if not callable(fn):
                self.absent.append(label)
                continue
            if outer:  # a method: wrap it once, on its class
                self._set(owner, attr, self._wrap(fn, label, modname, sizes))
                continue
            for mod in modules:
                site = mod.__name__.rpartition(".")[2]
                for name, val in list(vars(mod).items()):
                    if val is fn:
                        self._set(mod, name, self._wrap(fn, label, site, sizes))

    def _set(self, owner, name, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def _wrap(self, fn, label, site, sizes):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            rec = [label, site, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if sizes is not None:
                try:
                    rec[SIZES] = sizes(args, kwargs, res)
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.size_errors.add(label)
            return res

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", label)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def begin_job(self, job: int) -> None:
        self.job = job
        del self.stack[:]

    # -- summarizing ---------------------------------------------------------

    def summary(self, job_times: dict[int, float], large_jobs: set[int]) -> dict[str, float]:
        """Per-layer metrics of the recorded spans.

        total_s counts a label's outermost spans only, so recursion is not
        counted twice; self_s is each span's duration minus its children's.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        out: dict[str, float] = {}

        def add(key: str, value: float) -> None:
            out[key] = out.get(key, 0.0) + value

        jobs_with: dict[str, set[int]] = {}
        for label, *_ in TARGETS:
            for stat in ("calls", "total_s", "self_s"):
                out["%s.%s" % (label, stat)] = 0.0
        for i, rec in enumerate(spans):
            label = rec[LABEL]
            dur = rec[END] - rec[START]
            add(label + ".calls", 1)
            add(label + ".self_s", dur - child[i])
            if not self._inside_same(i):
                add(label + ".total_s", dur)
            if rec[SIZES]:
                for k, v in rec[SIZES].items():
                    add("%s.%s" % (label, k), v)
            jobs_with.setdefault(label, set()).add(rec[JOB])
            if rec[SITE] == "infer" and label == "umod.module_decompose":
                add("infer.module_decompose.calls", 1)
        out.setdefault("infer.module_decompose.calls", 0.0)
        for label, jobs in jobs_with.items():
            out[label + ".calls_per_job"] = out[label + ".calls"] / len(jobs)
        shares = []
        for job in large_jobs:
            covered = 0.0
            for i, rec in enumerate(spans):
                if rec[JOB] != job:
                    continue
                parent = rec[PARENT]
                top = parent < 0 and rec[LABEL] != "cli.main"
                under_main = parent >= 0 and spans[parent][LABEL] == "cli.main" \
                    and spans[parent][PARENT] < 0
                if top or under_main:
                    covered += rec[END] - rec[START]
            shares.append(covered / job_times[job])
        out["trace.large_input_child_share"] = min(shares) if shares else 0.0
        out["trace.absent"] = float(len(self.absent) + len(self.size_errors))
        return out

    def _inside_same(self, i: int) -> bool:
        label = self.spans[i][LABEL]
        p = self.spans[i][PARENT]
        while p >= 0:
            if self.spans[p][LABEL] == label:
                return True
            p = self.spans[p][PARENT]
        return False

    def absent_names(self) -> list[str]:
        return sorted(set(self.absent) | {l + " (sizes)" for l in self.size_errors})
