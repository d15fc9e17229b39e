"""Call counters and self timers bound around the public functions of oporder.

Used only by the traced run (and, restricted to the campaign hooks, by the
output check of the search workload).  Every wrapper is bound in each oporder
module that holds the original object, because ``dsl`` and ``verify`` import
``matrix_power`` by name and ``cli`` imports ``verify`` functions by name; a
wrapper bound only at the defining module would miss those calls.  A target
that no longer exists is recorded as missing and its metrics are reported
absent, never as zero.  ``Tracer.uninstall`` restores every original.

Self time of a hooked call is its duration minus the durations of the hooked
calls made inside it, so ``dsl.evaluate.self_s`` excludes the spectral calls
it makes.  The runner rescales each invocation's times to the reference
machine speed, like the end-to-end timings (calibrate.py).
"""
from __future__ import annotations

import math
import statistics
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

# (metric, module, attribute) for module-level functions.
FUNCTION_TARGETS = (
    ("spectral.decompose", "spectral", "spectral_decompose"),
    ("spectral.power", "spectral", "matrix_power"),
    ("spectral.compare", "spectral", "directional_margins"),
    ("spectral.compare", "spectral", "loewner_compare"),
    ("spectral.congruence", "spectral", "congruence"),
    ("chains.build", "chains", "build_chain"),
    ("chains.weight", "chains", "necessity_weight_from"),
    ("dsl.evaluate", "dsl", "evaluate"),
    ("verify.generate", "verify", "gen_suite_tuple"),
    ("verify.generate", "verify", "gen_unordered_tuple"),
    ("verify.campaign", "verify", "check_hypotheses"),
    ("verify.reduction", "verify", "check_reduction_chain"),
    ("verify.search", "verify", "search_counterexample"),
    ("cli", "cli", "main"),
)

# (metric, module, class, method) for methods patched on the class itself;
# every module shares the class object, so one binding catches every call.
METHOD_TARGETS = (
    ("spectral.hermitian", "spectral", "HermitianMatrix", "__post_init__"),
    ("spectral.request", "spectral", "HermitianMatrix", "decomposition"),
    ("spectral.gate", "spectral", "NearSingularError", "__init__"),
    ("verify.tuple", "verify", "OperatorTuple", "__post_init__"),
)

# Hooks that only count; their time stays with the enclosing hooked call.
COUNT_ONLY = frozenset({"spectral.request", "spectral.gate", "verify.tuple"})

CAMPAIGN_ONLY = frozenset({"verify.campaign", "verify.search"})


@dataclass
class Stat:
    calls: int = 0
    errors: int = 0
    self_s: float = 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _oporder_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "oporder" or name.startswith("oporder."))]


class Tracer:
    """Installs wrappers for the chosen metrics and aggregates what they see.

    ``metrics`` limits the hooks to those metric prefixes (all by default).
    Set ``invocation`` before each CLI call so per-instance durations of
    ``check_hypotheses`` from different invocations stay apart.
    """

    def __init__(self, metrics=None):
        self.wanted = None if metrics is None else frozenset(metrics)
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.site_calls: Counter = Counter()
        self.missing: list[str] = []
        self.present: set[str] = set()
        self.invocation = 0
        self.decompose_hits = 0
        self.campaign_rows = 0
        self.campaign_error_rows = 0
        self.search_rows = 0
        self.search_instances = 0
        self.nonfinite_deciding = 0
        self.instance_seconds: dict[tuple[int, int], float] = defaultdict(float)
        self._search_depth = 0
        self._stack: list[float] = []
        self._restore: list = []

    # -- installation -------------------------------------------------------

    def _wants(self, metric: str) -> bool:
        return self.wanted is None or metric in self.wanted

    def install(self) -> "Tracer":
        modules = {mod.__name__.rpartition(".")[2]: mod for mod in _oporder_modules()}
        for metric, mod_name, attr in FUNCTION_TARGETS:
            if not self._wants(metric):
                continue
            original = getattr(modules.get(mod_name), attr, None)
            if not callable(original):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self.present.add(metric)
            for mod in modules.values():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        site = mod.__name__.rpartition(".")[2]
                        setattr(mod, name, self._wrap(metric, site, original))
                        self._restore.append((mod, name, original))
        for metric, mod_name, cls_name, method in METHOD_TARGETS:
            if not self._wants(metric):
                continue
            cls = getattr(modules.get(mod_name), cls_name, None)
            original = cls.__dict__.get(method) if isinstance(cls, type) else None
            if not callable(original):
                self.missing.append(f"{mod_name}.{cls_name}.{method}")
                continue
            self.present.add(metric)
            setattr(cls, method, self._wrap(metric, cls_name, original))
            self._restore.append((cls, method, original))
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, metric: str, site: str, fn):
        stat = self.stats[metric]
        site_key = (metric, site)
        site_calls = self.site_calls

        if metric in COUNT_ONLY:
            if metric == "spectral.request":
                def counted(obj, *args, **kwargs):
                    if "_decomposition" in vars(obj):
                        self.decompose_hits += 1
                    stat.calls += 1
                    return fn(obj, *args, **kwargs)
            else:
                def counted(*args, **kwargs):
                    stat.calls += 1
                    return fn(*args, **kwargs)
            counted.__wrapped__ = fn
            return counted

        after = {
            "verify.campaign": self._after_campaign,
            "verify.search": self._after_search,
        }.get(metric)
        stack = self._stack

        def timed(*args, **kwargs):
            stack.append(0.0)
            if metric == "verify.search":
                self._search_depth += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                duration = perf_counter() - start
                children = stack.pop()
                stat.calls += 1
                stat.self_s += duration - children
                site_calls[site_key] += 1
                if stack:
                    stack[-1] += duration
                if metric == "verify.search":
                    self._search_depth -= 1
            if after is not None:
                start = perf_counter()
                after(kwargs, result, duration)
                if stack:  # bookkeeping is not the caller's self time
                    stack[-1] += perf_counter() - start
            return result

        timed.__wrapped__ = fn
        return timed

    def _after_campaign(self, kwargs, report, duration) -> None:
        rows = report.rows
        self.campaign_rows += len(rows)
        self.campaign_error_rows += sum(1 for r in rows if not math.isfinite(r.margin))
        instance = int(kwargs.get("instance_index", 0))
        self.instance_seconds[(self.invocation, instance)] += duration
        if self._search_depth:
            self.search_rows += len(rows)
            # with stop_on_violation the deciding row is the last one; the
            # search counts a non-finite margin there as a hypothesis failure
            last = rows[-1] if rows else None
            if report.config.get("stopped_early") and last is not None \
                    and last.error is None and not math.isfinite(last.margin):
                self.nonfinite_deciding += 1

    def _after_search(self, kwargs, report, duration) -> None:
        self.search_instances += int(report.stats["counters"]["instances"])

    # -- time scaling -------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        return {metric: stat.self_s for metric, stat in self.stats.items()}

    def rescale_since(self, snapshot: dict[str, float], factor: float) -> None:
        """Scale the time recorded since ``snapshot`` (one invocation) by
        ``factor``, the calibration factor of that invocation."""
        for metric, stat in self.stats.items():
            before = snapshot.get(metric, 0.0)
            stat.self_s = before + (stat.self_s - before) * factor
        for key in self.instance_seconds:
            if key[0] == self.invocation:
                self.instance_seconds[key] *= factor

    # -- metrics ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics by name as (value, unit).  Metrics of a missing
        target are left out; a ratio over nothing (no search instances in a
        campaign workload, say) reads 0."""
        out: dict[str, tuple[float, str]] = {}
        have = self.present

        def timed(metric, calls_name="calls", self_time=True):
            if metric in have:
                out[f"{metric}.{calls_name}"] = (self.stats[metric].calls, "count")
                if self_time:
                    out[f"{metric}.self_s"] = (self.stats[metric].self_s, "s")

        timed("spectral.decompose")
        if "spectral.request" in have:
            out["spectral.decompose.reuse_ratio"] = (
                _ratio(self.decompose_hits, self.stats["spectral.request"].calls), "ratio")
        timed("spectral.power")
        timed("spectral.hermitian", calls_name="constructed")
        timed("spectral.compare")
        timed("spectral.congruence", self_time=False)
        if "spectral.gate" in have:
            out["spectral.gate_rejections"] = (self.stats["spectral.gate"].calls, "count")
        timed("chains.build")
        timed("chains.weight")
        timed("dsl.evaluate")
        if "dsl.evaluate" in have:
            out["dsl.evaluate.errors"] = (self.stats["dsl.evaluate"].errors, "count")
        timed("verify.generate")
        generated = self.stats["verify.generate"].calls - self.stats["verify.generate"].errors
        if {"verify.generate", "verify.tuple"} <= have:
            out["verify.generate.tuples_per_accept"] = (
                _ratio(self.stats["verify.tuple"].calls, generated), "ratio")
        timed("verify.campaign")
        if "verify.campaign" in have:
            out["verify.campaign.rows"] = (self.campaign_rows, "count")
            out["verify.campaign.error_rows"] = (self.campaign_error_rows, "count")
            durations = [1e3 * s for s in self.instance_seconds.values()] or [0.0]
            p90 = statistics.quantiles(durations, n=10)[8] if len(durations) > 1 else durations[0]
            out["verify.campaign.ms_p50"] = (statistics.median(durations), "ms")
            out["verify.campaign.ms_p90"] = (p90, "ms")
        if "verify.reduction" in have:
            out["verify.reduction.self_s"] = (self.stats["verify.reduction"].self_s, "s")
        if {"verify.search", "verify.campaign"} <= have:
            out["verify.search.rows_per_instance"] = (
                _ratio(self.search_rows, self.search_instances), "ratio")
        if "cli" in have:
            out["cli.self_s"] = (self.stats["cli"].self_s, "s")
        return out

    def detail(self) -> dict:
        """Calls per binding site and sample counts, for the printed record."""
        by_site: dict[str, dict[str, int]] = defaultdict(dict)
        for (metric, site), calls in sorted(self.site_calls.items()):
            by_site[metric][site] = calls
        return {
            "calls_by_site": by_site,
            "campaign_instance_samples": len(self.instance_seconds),
            "missing_targets": self.missing,
        }
