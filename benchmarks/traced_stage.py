"""Run one ``chansbgm`` CLI stage with spans around the calls into each module.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 benchmarks/traced_stage.py SPANS_JSON SPAWN_TIME --threads 1 fit ...

Each traced public function is wrapped as soon as its module has been
imported, so every name bound to it afterwards is the wrapper: the
``cmd_*`` functions import from the submodules at call time, while
``em``, ``generation`` and ``dictionary`` bind the ``container`` functions
at import. Nothing is imported ahead of the stage, so the ``cli.import``
spans (interpreter start, then every import that loads modules) cover
what the stage itself imports. Spans (name, start, end, parent, count)
stay in memory and are written to SPANS_JSON when the stage returns.

After each ``csgmm_fit`` the fitted model is probed with one call each to
``csgmm_e_step``, ``total_log_likelihood`` and the M-step of its variance
form, the reference pieces that do the arithmetic of one EM iteration.
"""

from __future__ import annotations

import builtins
import functools
import json
import os
import resource
import sys
import time
from pathlib import Path


class Tracer:
    """In-memory span recorder; spans nest through a stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    def record(self, name: str, start: float, end: float, **extra) -> None:
        parent = self._open[-1] if self._open else None
        self.spans.append({"name": name, "start": start, "end": end, "parent": parent, **extra})

    def wrap(self, name: str, func, count=None):
        """Wrap ``func`` so each call records a span; ``count(args, kwargs,
        result)`` adds a work count (bytes) to it."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append({"name": name, "start": time.time(), "end": None,
                               "parent": self._open[-1] if self._open else None})
            self._open.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index]["end"] = time.time()
            if count is not None:
                self.spans[index]["count"] = count(args, kwargs, result)
            return result

        return traced


def _written_bytes(args, kwargs, result):
    stem = Path(args[0] if args else kwargs["stem"])
    return stem.with_suffix(".bin").stat().st_size


def _read_bytes(args, kwargs, result):
    return int(result[0].nbytes)


def _rebind(modules, original, replacement) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _fit_wrapper(tracer: Tracer, probes: list, fit):
    """``csgmm_fit`` with a span carrying its iterations and ``getrusage``
    deltas; each fitted model is kept for :func:`probe_fitted_models`."""

    @functools.wraps(fit)
    def traced_fit(obs, dictionary_, n_components, **options):
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.time()
        model, trace = fit(obs, dictionary_, n_components, **options)
        end = time.time()
        after = resource.getrusage(resource.RUSAGE_SELF)
        tracer.record(
            "em.fit", start, end,
            count=int(trace.n_iterations),
            sys_s=after.ru_stime - before.ru_stime,
            minor_faults=after.ru_minflt - before.ru_minflt,
        )
        probes.append((model, obs, dictionary_, options.get("kron_sweeps", 3)))
        return model, trace

    return traced_fit


def install(tracer: Tracer, probes: list) -> None:
    """Wrap the traced functions of each chansbgm module as it is imported.

    A replacement ``__import__`` wraps a module's functions as soon as the
    import that loaded it returns, so every module that binds them later
    binds the wrappers. It also records a ``cli.import`` span for each
    outermost import that loads modules: the stage imports only what the
    program itself imports, when it imports it.
    """

    def spans(name, count=None):
        return lambda func: tracer.wrap(name, func, count)

    pending = {
        "chansbgm.scenario": [
            ("laplacian_local_covariance", spans("scenario.covariance")),
            ("draw_simo_channel", spans("scenario.draw")),
            ("draw_ofdm_channel", spans("scenario.draw")),
            ("make_observations", spans("scenario.observations")),
        ],
        "chansbgm.dictionary": [
            ("build_simo_dictionary", spans("dictionary.build")),
            ("build_ofdm_dictionary", spans("dictionary.build")),
            ("load_dictionary", spans("dictionary.load")),
        ],
        "chansbgm.container": [
            ("write_array", spans("container.write", _written_bytes)),
            ("read_array", spans("container.read", _read_bytes)),
        ],
        "chansbgm.em": [
            ("save_model", spans("em.save")),
            ("load_model", spans("em.load")),
            ("csgmm_fit", functools.partial(_fit_wrapper, tracer, probes)),
        ],
        "chansbgm.generation": [
            ("sample_parameters", spans("generation.sample")),
            ("limit_batch_paths", spans("generation.limit")),
            ("render_channels", spans("generation.render")),
            ("save_batch", spans("generation.save")),
            ("load_batch", spans("generation.load")),
        ],
        "chansbgm.metrics": [
            ("power_angular_profile", spans("metrics.profile")),
            ("batch_angular_spreads", spans("metrics.spread")),
            ("nmse", spans("metrics.channel")),
            ("cosine_similarity", spans("metrics.channel")),
            ("histogram_w1", spans("metrics.w1")),
        ],
    }
    real_import = builtins.__import__
    depth = 0

    def traced_import(*args, **kwargs):
        nonlocal depth
        # a module is whole only once the import that first loaded it returns
        absent = [name for name in pending if name not in sys.modules]
        n_modules = len(sys.modules)
        start = time.time()
        depth += 1
        try:
            return real_import(*args, **kwargs)
        finally:
            depth -= 1
            for name in absent:
                if name in sys.modules and name in pending:  # not yet by a nested import
                    package = [m for n, m in list(sys.modules.items()) if n.startswith("chansbgm")]
                    for attr, make in pending.pop(name):
                        original = getattr(sys.modules[name], attr)
                        _rebind(package, original, make(original))
            if depth == 0 and len(sys.modules) > n_modules:
                tracer.record("cli.import", start, time.time())

    builtins.__import__ = traced_import


def probe_fitted_models(tracer: Tracer, probes: list) -> None:
    """Time one E-step, log-likelihood and M-step on each fitted model."""
    from chansbgm import em

    for model, obs, dictionary, kron_sweeps in probes:
        start = time.time()
        resp, stats = em.csgmm_e_step(model, obs, dictionary)
        tracer.record("em.e_step", start, time.time())
        start = time.time()
        em.total_log_likelihood(model, obs, dictionary)
        tracer.record("em.loglik", start, time.time())
        start = time.time()
        if model.variance_form == em.KRONECKER:
            em.kronecker_m_step(
                resp, stats, dictionary.grid.doppler_size, dictionary.grid.delay_size,
                coord_iters=kron_sweeps, clip_floor=model.clip_floor,
                init_doppler=model.doppler_variances, init_delay=model.delay_variances,
            )
        else:
            em.csgmm_m_step(resp, stats, clip_floor=model.clip_floor)
        tracer.record("em.m_step", start, time.time())


def main(argv: list[str]) -> int:
    spans_path, spawn_time, cli_args = Path(argv[0]), float(argv[1]), argv[2:]
    tracer = Tracer()
    # interpreter start; the stage's own imports add their spans below
    tracer.record("cli.import", spawn_time, time.time())
    probes: list = []
    install(tracer, probes)
    from chansbgm import cli

    code = tracer.wrap("cli.stage", cli.main)(cli_args)
    probe_fitted_models(tracer, probes)
    tmp = spans_path.with_name(spans_path.name + ".tmp")
    tmp.write_text(json.dumps({"exit_code": code, "spans": tracer.spans}), encoding="utf-8")
    os.replace(tmp, spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
