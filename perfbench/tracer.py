"""Outside-in span tracing of the grasscohom layers.

`Tracer.install()` replaces each traced function with a wrapper at every
name it is bound to: the defining module, every module that imported it
with `from .x import y`, and the package namespace.  Wrapping only the
definition would miss calls such as `rings.integer_rref` or
`solver.check_well_defined`, which go through the importing module's own
binding.  Methods are wrapped on their class.

Wrappers record nothing outside a request (`begin_request` /
`end_request`), so the benchmark's own output checks stay untraced.  Each
span keeps its name, start, end, parent span and request id in flat arrays
that stay in memory until `save()` writes them out.  A layer's self time is
its span durations minus the durations of its direct children; calls are
strictly nested in this single-threaded run, so children never overlap.

`Polynomial.__mul__` and `grevlex_key` are deliberately not wrapped: they
run millions of times per request and a wrapper would swamp them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

# Per-layer metrics, in the order printed, with their units.  BENCHMARK.json
# lists exactly these names under "per_layer".
PER_LAYER: list[tuple[str, str]] = [
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cache.get.calls", "count"),
    ("cache.memory_hits", "count"),
    ("cache.disk_hits", "count"),
    ("cache.misses", "count"),
    ("cache.read.self_s", "s"),
    ("cache.read_bytes", "bytes"),
    ("cache.write.self_s", "s"),
    ("cache.write_bytes", "bytes"),
    ("rings.build_ring.calls", "count"),
    ("rings.build_ring.self_s", "s"),
    ("rings.ideal_slice.self_s", "s"),
    ("rings.hilbert_check.self_s", "s"),
    ("rings.freeness_check.self_s", "s"),
    ("rings.pairing_is_unimodular.self_s", "s"),
    ("rings.table_from_dict.self_s", "s"),
    ("rings.table_to_dict.self_s", "s"),
    ("linalg.integer_rref.calls", "count"),
    ("linalg.integer_rref.self_s", "s"),
    ("linalg.rank_lower_bound_certified.calls", "count"),
    ("linalg.rank_lower_bound_certified.self_s", "s"),
    ("linalg.rank_escalations", "count"),
    ("linalg.cokernel_is_free.self_s", "s"),
    ("linalg.sample_nonzero_minor.calls", "count"),
    ("linalg.minor_hit_ratio", "ratio"),
    ("linalg.smith_fallbacks", "count"),
    ("linalg.bareiss_determinant.self_s", "s"),
    ("polynomials.parse_polynomial.calls", "count"),
    ("polynomials.parse_polynomial.self_s", "s"),
    ("polynomials.substitute.calls", "count"),
    ("polynomials.substitute.self_s", "s"),
    ("polynomials.inverse_series.self_s", "s"),
    ("groebner.buchberger.calls", "count"),
    ("groebner.buchberger.self_s", "s"),
    ("groebner.reduce_poly.calls", "count"),
    ("groebner.reduce_poly.self_s", "s"),
    ("groebner.spairs", "count"),
    ("groebner.spair_useful_ratio", "ratio"),
    ("groebner.basis_size", "count"),
    ("groebner.minimal_polynomial.self_s", "s"),
    ("groebner.budget_exhausted", "count"),
    ("maps.check_well_defined.calls", "count"),
    ("maps.check_well_defined.self_s", "s"),
    ("maps.rank_profile.self_s", "s"),
    ("maps.compose.calls", "count"),
    ("solver.build_hom_system.self_s", "s"),
    ("solver.solve_system.calls", "count"),
    ("solver.solve_system.self_s", "s"),
    ("solver.unknowns", "count"),
    ("solver.constraints", "count"),
    ("solver.outcome.only-trivial", "count"),
    ("solver.outcome.witness", "count"),
    ("solver.outcome.inconclusive", "count"),
    ("solver.replay_certificate.self_s", "s"),
    ("trace_overhead", "ratio"),
]


def _file_size(path) -> int:
    try:
        return Path(path).stat().st_size
    except OSError:
        return 0


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._request: int | None = None
        self._restore: list[tuple[object, str, object]] = []
        self._pending_spoly = None

    # -- recording ------------------------------------------------------

    def begin_request(self, request_id: int) -> None:
        self._request = request_id

    def end_request(self) -> None:
        self._request = None
        self._stack.clear()

    def _name_id(self, name: str) -> int:
        got = self._name_ids.get(name)
        if got is None:
            got = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return got

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self._request)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _innermost(self) -> str | None:
        return self.names[self.name[self._stack[-1]]] if self._stack else None

    # -- wrappers -------------------------------------------------------

    def span(self, name: str, fn, before=None, after=None, on_raise=None):
        """Wrap fn in a span; hooks run outside the span's interval."""
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._request is None:
                return fn(*args, **kwargs)
            state = before(args, kwargs) if before else None
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                tracer._close(idx)
                if on_raise:
                    on_raise(err)
                raise
            tracer._close(idx)
            if after:
                after(args, kwargs, result, state)
            return result

        return wrapper

    def counting(self, fn, after):
        """Wrap fn without a span; `after` sees the arguments and result."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._request is None:
                return fn(*args, **kwargs)
            result = fn(*args, **kwargs)
            after(args, kwargs, result)
            return result

        return wrapper

    # -- installation ---------------------------------------------------

    def _rebind_function(self, modules, module, attr: str, make) -> None:
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        wrapped = make(original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, value))
                    setattr(mod, key, wrapped)

    def _rebind_method(self, cls, attr: str, make) -> None:
        original = cls.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{cls.__qualname__}.{attr}")
            return
        self._restore.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def install(self) -> None:
        """Wrap every traced public function at all of its bindings."""
        from grasscohom import cache, cli, groebner, linalg, maps, polynomials, rings, solver

        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "grasscohom"
                                         or name.startswith("grasscohom."))]
        c = self.counters
        tracer = self

        def spanned(name, **hooks):
            return lambda fn: tracer.span(name, fn, **hooks)

        def fn(module, attr, make):
            self._rebind_function(modules, module, attr, make)

        fn(cli, "main", spanned("cli.main"))

        # cache: the disk cache's own counters are read before and after
        # each lookup, so hits are attributed without touching its code
        def cache_before(args, kwargs):
            store = args[0]
            return store.memory_hits, store.disk_hits, store.misses

        def cache_after(args, kwargs, result, before):
            store = args[0]
            c["cache.memory_hits"] += store.memory_hits - before[0]
            c["cache.disk_hits"] += store.disk_hits - before[1]
            c["cache.misses"] += store.misses - before[2]

        def read_after(args, kwargs, result, _):
            if result is not None:
                c["cache.read_bytes"] += _file_size(args[0].path_for(args[1]))

        def write_after(args, kwargs, result, _):
            c["cache.write_bytes"] += _file_size(args[0].path_for(args[1]))

        disk = getattr(cache, "DiskRingCache", None)
        if disk is None:
            self.missing.append("grasscohom.cache.DiskRingCache")
        else:
            self._rebind_method(disk, "get", spanned(
                "cache.get", before=cache_before, after=cache_after))
            self._rebind_method(disk, "_load_disk", spanned("cache.read", after=read_after))
            self._rebind_method(disk, "_store_disk", spanned("cache.write", after=write_after))

        for attr in ("build_ring", "ideal_slice", "hilbert_check", "freeness_check",
                     "pairing_is_unimodular", "table_from_dict", "table_to_dict"):
            fn(rings, attr, spanned(f"rings.{attr}"))

        for attr in ("integer_rref", "rank_lower_bound_certified",
                     "cokernel_is_free", "bareiss_determinant"):
            fn(linalg, attr, spanned(f"linalg.{attr}"))

        def escalation(args, kwargs, result):
            # a sparse-prime or exact tier run after a dense-tier miss
            if tracer._innermost() == "linalg.rank_lower_bound_certified":
                c["linalg.rank_escalations"] += 1

        fn(linalg, "rank_mod_prime", lambda f: self.counting(f, escalation))
        fn(linalg, "rank_exact", lambda f: self.counting(f, escalation))

        def minor(args, kwargs, result):
            c["linalg.sample_nonzero_minor.calls"] += 1
            c["linalg.minor_hits"] += result is not None

        fn(linalg, "sample_nonzero_minor", lambda f: self.counting(f, minor))
        fn(linalg, "smith_invariant_factors_all_one", lambda f: self.counting(
            f, lambda a, k, r: c.update(["linalg.smith_fallbacks"])))

        fn(polynomials, "parse_polynomial", spanned("polynomials.parse_polynomial"))
        fn(polynomials, "inverse_series", spanned("polynomials.inverse_series"))
        poly_cls = getattr(polynomials, "Polynomial", None)
        if poly_cls is None:
            self.missing.append("grasscohom.polynomials.Polynomial")
        else:
            self._rebind_method(poly_cls, "substitute", spanned("polynomials.substitute"))

        def budget_hit(err):
            if isinstance(err, groebner.BudgetExceeded):
                c["groebner.budget_exhausted"] += 1

        def buchberger_before(args, kwargs):
            gens = args[0] if args else kwargs.get("gens", [])
            c["groebner.basis_size"] += sum(1 for g in gens if not g.is_zero())

        def remember_spoly(args, kwargs, result):
            tracer._pending_spoly = result

        def reduce_after(args, kwargs, result, _):
            # an S-pair reduction is the one whose input is the S-polynomial
            # just built; inter-reduction of the final basis is not one
            poly = args[0] if args else kwargs.get("poly")
            if poly is not None and poly is tracer._pending_spoly:
                tracer._pending_spoly = None
                c["groebner.spairs"] += 1
                if not result.is_zero():
                    c["groebner.spair_useful"] += 1
                    c["groebner.basis_size"] += 1

        fn(groebner, "buchberger", spanned(
            "groebner.buchberger", before=buchberger_before, on_raise=budget_hit))
        fn(groebner, "s_polynomial", lambda f: self.counting(f, remember_spoly))
        fn(groebner, "reduce_poly", spanned("groebner.reduce_poly", after=reduce_after))
        fn(groebner, "minimal_polynomial", spanned(
            "groebner.minimal_polynomial", on_raise=budget_hit))

        fn(maps, "check_well_defined", spanned("maps.check_well_defined"))
        fn(maps, "rank_profile", spanned("maps.rank_profile"))
        fn(maps, "compose", lambda f: self.counting(
            f, lambda a, k, r: c.update(["maps.compose.calls"])))

        def solved(args, kwargs, result, _):
            system = args[0] if args else kwargs.get("system")
            c["solver.unknowns"] += system.unknown_count
            c["solver.constraints"] += system.constraint_count
            c[f"solver.outcome.{result.kind}"] += 1

        fn(solver, "build_hom_system", spanned("solver.build_hom_system"))
        fn(solver, "solve_system", spanned("solver.solve_system", after=solved))
        fn(solver, "replay_certificate", spanned("solver.replay_certificate"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results --------------------------------------------------------

    def span_totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Per span name: number of spans and summed self time in seconds."""
        if not len(self.start):
            return {}, {}
        names = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        selfs = np.bincount(names, weights=dur - child, minlength=len(self.names))
        calls = np.bincount(names, minlength=len(self.names))
        return ({n: int(calls[i]) for i, n in enumerate(self.names)},
                {n: float(selfs[i]) for i, n in enumerate(self.names)})

    def layer_metrics(self, decks: int, overhead: float) -> dict[str, float]:
        """Every PER_LAYER metric, as a per-deck average over `decks`."""
        calls, selfs = self.span_totals()
        c = self.counters
        out: dict[str, float] = {}
        for name, unit in PER_LAYER:
            if name == "trace_overhead":
                value = overhead
            elif name == "linalg.minor_hit_ratio":
                tries = c["linalg.sample_nonzero_minor.calls"]
                value = c["linalg.minor_hits"] / tries if tries else 0.0
            elif name == "groebner.spair_useful_ratio":
                tries = c["groebner.spairs"]
                value = c["groebner.spair_useful"] / tries if tries else 0.0
            elif name.endswith(".self_s"):
                value = selfs.get(name[:-len(".self_s")], 0.0) / decks
            elif name.endswith(".calls") and name[:-len(".calls")] in self._name_ids:
                value = calls.get(name[:-len(".calls")], 0) / decks
            else:
                value = c[name] / decks
            out[name] = value
        return out

    def save(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.request, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            meta=np.array(json.dumps(meta, sort_keys=True)),
        )
