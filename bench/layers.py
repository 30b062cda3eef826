"""Child-side layer instrumentation for bench/run.py; needs PYTHONPATH=src.

    python3 bench/layers.py trace SPANS -- <gskit CLI arguments>
        Runs `gskit.cli.main` with a span around the import, around `main`,
        and around every call into a public function of core, construct,
        structure, search and satgen (patched wherever gskit modules bind
        it).  Spans are kept in memory as [name, start, end, parent, run id,
        counts] and written to SPANS as JSON when main returns.

    python3 bench/layers.py probe PARAMS_JSON
        In-process measurements that the CLI path cannot show: the
        per-order search scan behind max_order, the parallel split and task
        balance of enumerate, and the tracemalloc peak of the CNF encoder.
        Prints one JSON object of per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

MODULES = ("core", "construct", "structure", "search", "satgen")
# run_task may run in pool workers, whose spans would be lost; var_index is a
# per-literal helper whose span would cost more than its body.
SKIP = {"search.run_task", "satgen.var_index"}


def _check_pairs(args, kwargs, verdict):
    """Pairs a + b = c the verifier inspected, computed from where it stopped:
    rows 2..m hold floor(m^2/4) pairs, and a first witness (a, b, c) stops
    after a pairs of row c."""
    coloring = args[0]
    exhaustive = kwargs.get("exhaustive", args[2] if len(args) > 2 else False)
    first = verdict.violations[0] if verdict.violations else None
    if first is not None and not exhaustive:
        if first.triple is None and first.category.value == "BadColorRange":
            return {"pairs": 0, "ok": 0}
        if first.triple is not None:
            a, _, c = first.triple
            return {"pairs": (c - 1) ** 2 // 4 + a, "ok": 0}
    return {"pairs": coloring.n ** 2 // 4, "ok": int(verdict.ok)}


def _report(args, kwargs, report):
    return {"nodes": report.nodes_explored, "witnesses": len(report.witnesses)}


def _run_search(args, kwargs, report):
    workers = kwargs.get("workers", args[1] if len(args) > 1 else 1)
    return dict(_report(args, kwargs, report), workers=workers)


def _entries(args, kwargs, coloring):
    return {"entries": coloring.n}


COUNTERS = {
    "core.check_partition": _check_pairs,
    "construct.two_fold": _entries,
    "construct.five_fold": _entries,
    "construct.inverse_two_fold": _entries,
    "construct.inverse_five_fold": _entries,
    "structure.decompose_full": lambda a, k, dec: {"peels": len(dec.tags)},
    "search.exists_partition": _report,
    "search.run_search": _run_search,
    "satgen.encode": lambda a, k, doc: {"clauses": len(doc.clauses)},
    "satgen.to_dimacs": lambda a, k, dimacs: {"bytes": len(dimacs)},
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.stack: list = []

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, 0.0, 0.0, parent, self.run_id, None])
        self.stack.append(len(self.spans) - 1)
        self.spans[-1][1] = time.perf_counter()
        return self.stack[-1]

    def close(self, index: int):
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                value = fn(*args, **kwargs)
            finally:
                self.close(index)
            if count is not None:
                self.spans[index][5] = count(args, kwargs, value)
            return value

        return traced

    def install(self):
        """Patch every binding of each public layer function across gskit."""
        modules = [importlib.import_module(f"gskit.{m}") for m in MODULES + ("cli",)]
        traced = {}  # id of the original function -> its wrapper
        for mod, layer in zip(modules, MODULES):
            for attr, fn in vars(mod).items():
                name = f"{layer}.{attr}"
                if (not attr.startswith("_") and name not in SKIP and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    traced[id(fn)] = self.wrap(name, fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in traced:
                    setattr(mod, attr, traced[id(value)])


def trace(spans_path: str, argv: list) -> int:
    tracer = Tracer(os.path.basename(spans_path))
    index = tracer.open("cli.import")
    import gskit.cli
    tracer.close(index)
    tracer.install()
    index = tracer.open("cli.main")
    code = 1
    try:
        code = gskit.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    finally:
        tracer.close(index)
        sys.stdout.flush()
        with open(spans_path, "w") as f:
            json.dump(tracer.spans, f)
    return code


def probe(params: dict) -> dict:
    from gskit import (Kind, SearchConfig, SearchMode, encode, exists_partition,
                       gs_number, parallel_split, run_task, to_dimacs)
    from gskit.search import default_split_depth

    out: dict = {}
    workload = params["workload"]
    if workload == "max-order":
        # The scan max_order runs today: one first-witness search per order
        # n = 1 .. m_max + streak (streak 5), counted and timed here.
        orders = nodes = 0
        seconds = 0.0
        for kind, r in params["max_order"]:
            top = gs_number(r, Kind(kind)).value - 1 + 5
            for n in range(1, top + 1):
                cfg = SearchConfig(kind=Kind(kind), r=r, n=n)
                t0 = time.perf_counter()
                report = exists_partition(cfg)
                seconds += time.perf_counter() - t0
                nodes += report.nodes_explored
                orders += 1
        out = {"search.scan_orders": orders, "search.scan_nodes": nodes,
               "search.scan_nodes_per_s": nodes / seconds}
    elif workload == "enumerate":
        kind, r, n = params["enumerate"]
        cfg = SearchConfig(kind=Kind(kind), r=r, n=n, mode=SearchMode.ENUMERATE_ALL)
        t0 = time.perf_counter()
        tasks = parallel_split(cfg, default_split_depth(cfg))
        split_s = time.perf_counter() - t0
        task_s = []
        for task in tasks:
            t0 = time.perf_counter()
            run_task(task)
            task_s.append(time.perf_counter() - t0)
        out = {"search.split_s": split_s, "search.tasks": len(tasks),
               "search.task_max_share": max(task_s) / sum(task_s)}
    elif workload == "cnf":
        import tracemalloc

        r = params["cnf_r"]
        n = gs_number(r, Kind.STRONG).value - 1
        tracemalloc.start()
        to_dimacs(encode(n, r, Kind.STRONG, symmetry=True))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        out = {"satgen.alloc_peak_mb": peak / 2 ** 20}
    return out


def main(argv: list) -> int:
    if len(argv) >= 3 and argv[0] == "trace" and argv[2] == "--":
        return trace(argv[1], argv[3:])
    if len(argv) == 2 and argv[0] == "probe":
        print(json.dumps(probe(json.loads(argv[1]))))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
