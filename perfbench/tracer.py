"""Outside-in tracing of noisecalc's module boundaries.

``Tracer.install()`` replaces the module attributes through which one
noisecalc module calls another with thin wrappers that record a span per
call; ``uninstall()`` puts the originals back.  Nothing under ``src/`` is
edited and no arithmetic changes: wrappers pass arguments and results
through untouched, and the generator proxy hands out the real draws.

A span is (name, start, end, parent span, job id, amount), where
``amount`` is the count of work the call did (points evaluated, values
drawn, path-steps scheduled).  Spans are appended to flat typed arrays,
because mc_wide makes ~180,000 per-path calls a pass and a tuple per span
would both slow the wrappers and cost hundreds of MB.  Self times and the
per-layer metrics are computed from the arrays after the run, in
:func:`layer_metrics`.
"""
from __future__ import annotations

import functools
from array import array
from dataclasses import replace
from time import perf_counter

import numpy as np

import noisecalc.cli as cli
import noisecalc.expr as expr
import noisecalc.integrals as integrals
import noisecalc.paths as paths
import noisecalc.physics as physics
import noisecalc.solvers as solvers
from noisecalc.physics import InterpretationTriple

# Span names, in code order.
NAMES = (
    "cli.main",
    "paths.generator", "paths.draw", "paths.bridge",
    "sde.coeff", "expr.eval", "sde.convert",
    "solvers.run", "solvers.engine", "physics",
    "fokker_planck.evolve", "fokker_planck.stationary", "fokker_planck.entropy",
    "integrals.table", "integrals.sum",
)
CODE = {name: i for i, name in enumerate(NAMES)}
_DRAW = CODE["paths.draw"]


def _npoints(x) -> int:
    return int(np.size(x))


class _DrawProxy:
    """Stands in for a ``numpy.random.Generator``: records a span per
    ``standard_normal`` call (amount: values drawn) and delegates
    everything else.  The real draws are returned untouched."""

    __slots__ = ("_rng", "_record")

    def __init__(self, rng, record):
        self._rng = rng
        self._record = record

    def standard_normal(self, *args, **kwargs):
        start = perf_counter()
        out = self._rng.standard_normal(*args, **kwargs)
        self._record(_DRAW, start, perf_counter(), getattr(out, "size", 1))
        return out

    def __getattr__(self, attr):
        return getattr(self._rng, attr)


class Tracer:
    def __init__(self) -> None:
        self.name = array("b")
        self.parent = array("q")
        self.job = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.amount = array("d")
        self.extra: dict[int, float] = {}   # second amount of rare spans
        self.current_job = -1
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []
        self.record = self._recorder()

    def _recorder(self):
        """``record(code, start, end, amount)``: append one finished leaf span."""
        names, parents, jobs = self.name, self.parent, self.job
        t0s, t1s, amounts = self.t0, self.t1, self.amount
        stack, tracer = self._stack, self

        def record(code, start, end, amount):
            names.append(code)
            parents.append(stack[-1])
            jobs.append(tracer.current_job)
            t0s.append(start)
            t1s.append(end)
            amounts.append(amount)
        return record

    # -- recording -----------------------------------------------------------

    def span(self, fn, name: str, amount=None, extra=None, leaf=False):
        """``fn`` wrapped to record one span per call.

        ``amount(args, kwargs, result)`` gives the span's work count;
        ``extra`` a second count, kept in a dict for rarely called spans.
        A ``leaf`` span never encloses another wrapped call, so it skips the
        parent stack and is recorded after the call returns (a leaf call
        that raises records nothing); the hot per-path and per-step
        wrappers are leaves.
        """
        code = CODE[name]
        names, parents, jobs = self.name, self.parent, self.job
        t0s, t1s, amounts = self.t0, self.t1, self.amount
        stack, tracer, clock = self._stack, self, perf_counter

        if leaf:
            record = self.record

            @functools.wraps(fn)
            def traced_leaf(*args, **kwargs):
                start = clock()
                out = fn(*args, **kwargs)
                record(code, start, clock(),
                       0.0 if amount is None else amount(args, kwargs, out))
                return out
            return traced_leaf

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(t0s)
            names.append(code)
            parents.append(stack[-1])
            jobs.append(tracer.current_job)
            t1s.append(0.0)
            amounts.append(0.0)
            stack.append(idx)
            t0s.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                t1s[idx] = clock()
                stack.pop()
            if amount is not None:
                amounts[idx] = amount(args, kwargs, out)
            if extra is not None:
                tracer.extra[idx] = extra(args, kwargs, out)
            return out
        return traced

    def _coeff(self, fn, name="sde.coeff"):
        if fn is None:
            return None
        return self.span(fn, name, amount=lambda a, k, out: _npoints(a[0]), leaf=True)

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        span, patch = self.span, self._patch

        # cli -> the whole job
        patch(cli, "main", span(cli.main, "cli.main"))

        # paths: per-path stream setup, the draws made from each stream,
        # and bridge refinement (called from integrals)
        make = span(paths.SeedSpec.generator, "paths.generator", leaf=True)
        record = self.record
        patch(paths.SeedSpec, "generator", lambda seed: _DrawProxy(make(seed), record))
        patch(integrals, "refine_bridge", span(integrals.refine_bridge, "paths.bridge"))

        # sde: model coefficients, built-in families and custom expressions
        coeff = self._coeff

        family_models = cli.family_models

        def traced_family(name, params=None):
            return InterpretationTriple(*(
                replace(m, f=coeff(m.f), g=coeff(m.g), dgdx=coeff(m.dgdx))
                for m in family_models(name, params).members()))
        patch(cli, "family_models", traced_family)
        vector_fn = expr.vector_fn
        patch(expr, "vector_fn", lambda e: coeff(vector_fn(e), "expr.eval"))
        for owner in (cli, solvers):
            patch(owner, "to_ito", span(owner.to_ito, "sde.convert"))
        patch(cli, "from_ito", span(cli.from_ito, "sde.convert"))

        # solvers: ensemble entry points (from cli and physics) and the
        # engine under them; an engine span counts the path-steps scheduled
        # (n_paths x n_steps, from its arguments) and, as its extra, the
        # path-steps actually stepped (each path's final step, from its result)
        patch(cli, "simulate_ensemble", span(cli.simulate_ensemble, "solvers.run"))
        patch(physics, "hitting_time", span(physics.hitting_time, "solvers.run"))
        for owner in (solvers, physics):
            patch(owner, "_run_engine", span(
                owner._run_engine, "solvers.engine",
                amount=lambda a, k, out: a[3] * (np.size(a[2]) - 1),
                extra=lambda a, k, out: int(out.final_step.sum())))

        # physics: the two studies of the experiment command
        patch(cli, "rest_start_diagnostics", span(cli.rest_start_diagnostics, "physics"))
        patch(cli, "boundary_hitting_study", span(cli.boundary_hitting_study, "physics"))

        # fokker_planck: explicit stepping, stationary law, entropy trace
        patch(cli, "evolve_fpe", span(
            cli.evolve_fpe, "fokker_planck.evolve",
            amount=lambda a, k, out: round(a[2] / a[1]),
            extra=lambda a, k, out: a[0].initial.n_cells))
        patch(cli, "stationary_density", span(cli.stationary_density,
                                               "fokker_planck.stationary"))
        patch(cli, "relative_entropy", span(cli.relative_entropy, "fokker_planck.entropy"))

        # integrals: convergence tables and the rule sums inside them
        patch(cli, "convergence_table", span(cli.convergence_table, "integrals.table"))
        patch(integrals, "stochastic_sum", span(
            integrals.stochastic_sum, "integrals.sum",
            amount=lambda a, k, out: _npoints(a[1].values)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    # -- output --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as numpy columns (``extra`` as ``extra_id``/``extra``)."""
        ids = np.fromiter(self.extra.keys(), dtype=np.int64, count=len(self.extra))
        vals = np.fromiter(self.extra.values(), dtype=float, count=len(self.extra))
        return {
            "name": np.frombuffer(self.name, dtype=np.int8).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "job": np.frombuffer(self.job, dtype=np.int64).copy(),
            "t0": np.frombuffer(self.t0, dtype=float).copy(),
            "t1": np.frombuffer(self.t1, dtype=float).copy(),
            "amount": np.frombuffer(self.amount, dtype=float).copy(),
            "extra_id": ids, "extra": vals,
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(NAMES), **self.arrays())


def layer_metrics(sp: dict[str, np.ndarray], jobs: set[int]):
    """Per-layer metrics of the spans whose job id is in ``jobs``, and the
    self time of each span name.

    Self time is a span's duration minus the durations of its direct
    children; wrapped calls run serially, so children never overlap.
    """
    name, parent = sp["name"], sp["parent"]
    dur = sp["t1"] - sp["t0"]
    amount = sp["amount"]
    child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                        minlength=name.size)
    self_t = dur - child
    keep = np.isin(sp["job"], list(jobs))
    parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
    extra = dict(zip(sp["extra_id"].tolist(), sp["extra"].tolist()))

    def sel(*names):
        return keep & np.isin(name, [CODE[n] for n in names])

    def total(mask, values=dur) -> float:
        return float(values[mask].sum())

    gen, drw = sel("paths.generator"), sel("paths.draw")
    # expression callables evaluated as an integrand (under a rule sum) are
    # not model coefficients; they stay in integrals.sum_s
    expr_coeff = sel("expr.eval") & (parent_name != CODE["integrals.sum"])
    coeff = sel("sde.coeff") | expr_coeff
    solver_codes = [CODE["solvers.run"], CODE["solvers.engine"]]
    solver = sel("solvers.run", "solvers.engine")
    outer = solver & ~np.isin(parent_name, solver_codes)
    engine = sel("solvers.engine")
    evolve = sel("fokker_planck.evolve")
    path_steps = total(engine, amount)
    stepped = sum(extra[i] for i in np.flatnonzero(engine))
    draw_values = total(drw, amount)
    coeff_calls = int(coeff.sum())
    cell_steps = sum(amount[i] * extra[i] for i in np.flatnonzero(evolve))
    out = {
        "paths.generator_calls": int(gen.sum()),
        "paths.generator_s": total(gen),
        "paths.generator_us_per_call": 1e6 * total(gen) / max(1, int(gen.sum())),
        "paths.draw_calls": int(drw.sum()),
        "paths.draw_values": draw_values,
        "paths.draw_s": total(drw),
        "paths.draws_per_path_step": draw_values / stepped if stepped else 0.0,
        "paths.bridge_calls": int(sel("paths.bridge").sum()),
        "paths.bridge_s": total(sel("paths.bridge")),
        "sde.coeff_calls": coeff_calls,
        "sde.coeff_points": total(coeff, amount),
        "sde.coeff_s": total(coeff),
        "sde.points_per_call": total(coeff, amount) / coeff_calls if coeff_calls else 0.0,
        "expr.eval_s": total(expr_coeff),
        "sde.convert_s": total(sel("sde.convert")),
        "solvers.calls": int(outer.sum()),
        "solvers.s": total(outer),
        "solvers.self_s": total(solver, self_t),
        "solvers.path_steps": path_steps,
        "solvers.stepped_path_steps": stepped,
        "solvers.self_ns_per_path_step":
            1e9 * total(solver, self_t) / path_steps if path_steps else 0.0,
        "physics.s": total(sel("physics")),
        "physics.self_s": total(sel("physics"), self_t),
        "fokker_planck.evolve_s": total(evolve),
        "fokker_planck.steps": total(evolve, amount),
        "fokker_planck.cell_steps": cell_steps,
        "fokker_planck.ns_per_cell_step":
            1e9 * total(evolve, self_t) / cell_steps if cell_steps else 0.0,
        "fokker_planck.stationary_s": total(sel("fokker_planck.stationary")),
        "fokker_planck.entropy_calls": int(sel("fokker_planck.entropy").sum()),
        "fokker_planck.entropy_s": total(sel("fokker_planck.entropy")),
        "integrals.table_s": total(sel("integrals.table")),
        "integrals.sum_calls": int(sel("integrals.sum").sum()),
        "integrals.sum_points": total(sel("integrals.sum"), amount),
        "integrals.sum_s": total(sel("integrals.sum")),
        "cli.jobs": int(sel("cli.main").sum()),
        "cli.self_s": total(sel("cli.main"), self_t),
    }
    # self time of every span name, for the shares printed with a traced run
    self_by_name = {n: total(sel(n), self_t) for n in NAMES}
    return out, self_by_name
