"""Layer tracer for the traced benchmark run.

The tracer wraps the public entry points of each torushom layer from outside
the package.  Every name is patched where its caller looks it up: a module
global (``recursion`` imports ``ratfunc_normalize`` by name, ``verify`` calls
``hecke._enumerate_counts``), a class attribute (operators such as
``LaurentPoly.__mul__``) or an entry of ``verify.SUITES``.  Everything is
restored on exit.

Layer boundaries are recorded as spans (name, start, end, parent span, job).
The algebra kernels run tens of thousands of times per job, so they are only
aggregated: calls, self time and a work counter.  A span's self time is its
duration minus the time covered by the traced calls made inside it.

Work counts that must repeat exactly are derived from call arguments and
results, never from timing: brute-force tuples are sum p^r, cell assignments
sum p^|params|, and recursion states come from an independent replay of the
five rewriting rules.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

# Hot kernels, aggregated only: (module, attribute path, layer).
KERNELS = (
    ("algebra", "LaurentPoly.__mul__", "algebra.lp_mul"),
    ("algebra", "LaurentPoly.__add__", "algebra.lp_add"),
    ("algebra", "RatFunc.__add__", "algebra.ratfunc_add"),
    ("algebra", "ratfunc_normalize", "algebra.normalize"),
)

# Layer boundaries, recorded as spans.
BOUNDARIES = (
    ("recursion", "pair_series", "recursion"),
    ("hecke", "point_count", "hecke.point_count"),
    ("hecke", "braid_transfer_product", "hecke.fold"),
    ("hecke", "braid_hecke_product", "hecke.fold"),
    ("hecke", "_enumerate_counts", "hecke.brute"),
    ("curves", "cell_dimension", "curves.cell"),
    ("curves", "enumerate_jacobian_modules", "curves.enumerate"),
    ("curves", "enumerate_hilb_ideals", "curves.enumerate"),
    ("soergel", "hhh0_two_strand", "soergel.two_strand"),
)

def replay_states(roots) -> int:
    """Number of distinct pairs a memoised evaluation of the five rules visits
    from the given roots, found without evaluating any series."""
    seen = set()
    todo = list(roots)
    while todo:
        v, w = key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        if not v or not w:
            continue
        last = (v[-1], w[-1])
        if last == ("1", "1"):
            todo.append((v[:-1], w[:-1]))
        elif last == ("0", "1"):
            todo.append((v[:-1], "1" + w[:-1]))
        elif last == ("1", "0"):
            todo.append(("1" + v[:-1], w[:-1]))
        else:
            todo.append(("1" + v[:-1], "1" + w[:-1]))
            if "1" in v or "1" in w:
                todo.append(("0" + v[:-1], "0" + w[:-1]))
    return len(seen)


# -- per-layer hooks: (tracer, stats, arguments, result, parent frame) -----------

def _hook_lp_mul(tracer, stats, args, result, parent):
    if result is not NotImplemented:
        stats["term_products"] += len(args[0]) * len(args[1])


def _hook_normalize(tracer, stats, args, result, parent):
    # Trial divisions by (1-q): each power cancelled, plus the one that failed.
    if not result.is_zero():
        stats["divisions"] += args[1] - result.denom_pow + (result.denom_pow > 0)


def _hook_recursion(tracer, stats, args, result, parent):
    root = (args["v"], args["w"])
    tracer.segments[-1].add(root)
    tracer.recursion_results[root] = result


def _hook_fold(tracer, stats, args, result, parent):
    support = len(result.support)
    stats["letters"] += len(args["b"].letters)
    stats["support"] = max(stats["support"], support)
    stats["support_total"] += support
    # point_count reads one coefficient; any other caller may read them all.
    read_one = parent is not None and parent[2] == "hecke.point_count"
    stats["coefficients_read"] += 1 if read_one else support


def _hook_brute(tracer, stats, args, result, parent):
    stats["tuples"] += args["p"] ** len(args["b"].letters)


def _hook_cell(tracer, stats, args, result, parent):
    primes = args["p_set"]
    params = len(result.parameters)
    stats["modules"] += 1
    stats["assignments"] += sum(p**params for p in primes)
    stats["closed"] += sum(p**result.dimension for p in primes)


_HOOKS = {
    "algebra.lp_mul": (_hook_lp_mul, ("term_products",)),
    "algebra.normalize": (_hook_normalize, ("divisions",)),
    "recursion": (_hook_recursion, ()),
    "hecke.fold": (_hook_fold, ("letters", "support", "support_total", "coefficients_read")),
    "hecke.brute": (_hook_brute, ("tuples",)),
    "curves.cell": (_hook_cell, ("modules", "assignments", "closed")),
}


class Tracer:
    """Patches the layers of an imported ``torushom`` while active.

    Use as a context manager around the jobs of one pass, and run each job
    through ``run_job`` so that its spans share the job's identifier.
    """

    def __init__(self, package):
        self.package = package
        self.spans: list[dict] = []
        self.layers: dict[str, dict] = {}
        # Recursion roots per cold-memo segment; new_segment() opens one.
        self.segments: list[set] = [set()]
        self.recursion_results: dict = {}
        self.hook_errors: dict[str, str] = {}
        self._stack: list[list] = []
        self._patches: list[tuple] = []
        self._next_id = 0
        self._job = None

    # -- patching ---------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for module, path, layer in KERNELS:
                self._patch(module, path, layer, span=False)
            for module, path, layer in BOUNDARIES:
                self._patch(module, path, layer, span=True)
            verify = getattr(self.package, "verify", None)
            suites = getattr(verify, "SUITES", {})
            for name, fn in list(suites.items()):
                wrapper = self._wrap(fn, f"verify.{name}", span=True)
                self._patches.append((suites, name, fn, True))
                suites[name] = wrapper
                self._patch_globals(fn, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        for owner, name, original, is_item in reversed(self._patches):
            if is_item:
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, module_name: str, path: str, layer: str, span: bool) -> None:
        """Wrap ``module.path`` if it exists; a layer rewritten away is skipped."""
        owner = getattr(self.package, module_name, None)
        *parents, name = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        original = vars(owner).get(name) if owner is not None else None
        if not callable(original):
            return
        wrapper = self._wrap(original, layer, span)
        if parents:
            self._patches.append((owner, name, original, False))
            setattr(owner, name, wrapper)
        else:
            self._patch_globals(original, wrapper)

    def _patch_globals(self, original, wrapper) -> None:
        """Replace ``original`` in every torushom module that holds it by name."""
        prefix = self.package.__name__
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, original, False))
                    setattr(mod, name, wrapper)

    # -- recording --------------------------------------------------------------

    def _stats(self, layer: str) -> dict:
        stats = self.layers.get(layer)
        if stats is None:
            stats = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
            for counter in _HOOKS.get(layer, (None, ()))[1]:
                stats[counter] = 0
            self.layers[layer] = stats
        return stats

    def _wrap(self, fn, layer: str, span: bool):
        """Time ``fn`` as ``layer``; spans are kept, kernels only aggregated.
        Span hooks see arguments by name, kernel hooks positionally."""
        tracer = self
        stats = self._stats(layer)
        hook = _HOOKS.get(layer, (None, ()))[0]
        signature = inspect.signature(fn) if span and hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = None
            if span:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [0.0, 0.0, layer, span_id]  # start, child time, layer, span id
            stack.append(frame)
            frame[0] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._close(frame, parent, stats, end)
            if hook is not None:
                try:
                    if signature is not None:
                        bound = signature.bind(*args, **kwargs)
                        bound.apply_defaults()
                        args = bound.arguments
                    hook(tracer, stats, args, result, parent)
                except (AttributeError, IndexError, KeyError, TypeError) as exc:
                    # The layer's interface changed; its counters are now
                    # incomplete, but the program's own result stands.
                    tracer.hook_errors[layer] = f"{type(exc).__name__}: {exc}"
            return result

        return traced

    def _close(self, frame, parent, stats, end) -> None:
        start, child_s, layer, span_id = frame
        duration = end - start
        self_s = duration - child_s
        if parent is not None:
            parent[1] += duration
        stats["calls"] += 1
        stats["total_s"] += duration
        stats["self_s"] += self_s
        if span_id is not None:
            self.spans.append({
                "id": span_id,
                "parent": parent[3] if parent is not None else None,
                "job": self._job,
                "layer": layer,
                "start": start,
                "end": end,
                "self_s": self_s,
            })

    def run_job(self, name: str, fn):
        """Run one job under a root span that all its spans share."""
        self._job = name
        return self._wrap(fn, "job", span=True)()

    def new_segment(self) -> None:
        """Mark a cold memo: later recursion roots count their states afresh."""
        self.segments.append(set())

    def summary(self) -> dict:
        """Per-layer aggregates plus the exact recursion counts."""
        layers = {name: dict(stats) for name, stats in self.layers.items()}
        results = list(self.recursion_results.values())
        layers.setdefault("recursion", {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        by_segment = [replay_states(roots) for roots in self.segments if roots]
        layers["recursion"].update(
            states=sum(by_segment),
            states_by_segment=by_segment,
            num_terms=max((len(r.num) for r in results), default=0),
            max_coeff_bits=max(
                (abs(c).bit_length() for r in results for _, c in r.num.items()),
                default=0,
            ),
        )
        return layers
