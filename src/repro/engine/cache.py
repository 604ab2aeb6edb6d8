"""Memoisation of battery-cost evaluations.

Profiling the experiment drivers shows that virtually all of their time is
spent inside :meth:`~repro.battery.BatteryModel.apparent_charge`: the window
search, the weighted re-sequencing, the baselines and every sweep coordinate
evaluate the Rakhmatov–Vrudhula series over and over for *identical*
discharge profiles (the same sequence prefix with the same design points
keeps reappearing across windows and iterations).  The evaluation is a pure
function of ``(model parameters, profile intervals, evaluation time)``, so it
memoises perfectly.

:class:`BatteryCostCache` is a bounded LRU mapping from that fingerprint to
sigma, and :class:`CachedBatteryModel` is a drop-in :class:`BatteryModel`
wrapper that routes ``apparent_charge`` through a cache.  Because every
algorithm in the library accepts a ``model`` override, injecting the cache
needs no changes to the algorithms themselves — the engine's executors wrap
each job's model before running it.

Keys use the *exact* float values of the profile (no rounding), so a cache
hit returns bit-for-bit the number the wrapped model would have produced;
parallel and serial engine runs therefore stay byte-identical.

Two key namespaces share one LRU store:

* **profile keys** — ``apparent_charge`` calls, fingerprinted by the
  profile's interval triples and evaluation time (the original scheme); and
* **schedule keys** — the evaluator stack's array path
  (:meth:`CachedBatteryModel.schedule_charge` and the
  :class:`~repro.scheduling.IncrementalCostEvaluator`'s proposal probes),
  fingerprinted by the back-to-back duration/current value tuples plus the
  post-completion rest.  The evaluator maintains these tuples by splicing
  the changed segment per move — a key over state deltas, with no profile
  object or full re-boxing on the probe path.

The namespaces are tagged so a schedule state can never alias a profile
fingerprint, and both return bit-identical values to the uncached model by
construction.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Hashable, Optional, Tuple

from ..battery import BatteryModel, LoadProfile

__all__ = [
    "DEFAULT_CACHE_SIZE",
    "CacheStats",
    "BatteryCostCache",
    "CachedBatteryModel",
    "model_signature",
]

#: Default LRU bound.  One entry is a short tuple key plus a float, so even
#: this many entries stay in the low tens of megabytes.
DEFAULT_CACHE_SIZE = 200_000


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one :class:`BatteryCostCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total number of cache probes."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of probes answered from the cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> "CacheStats":
        """An independent copy (used for per-job accounting deltas)."""
        return CacheStats(hits=self.hits, misses=self.misses, evictions=self.evictions)

    def delta(self, earlier: "CacheStats") -> "CacheStats":
        """Counters accumulated since ``earlier`` was snapshotted."""
        return CacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            evictions=self.evictions - earlier.evictions,
        )

    def add(self, other: "CacheStats") -> None:
        """Fold another stats object in (aggregating per-worker counters)."""
        self.hits += other.hits
        self.misses += other.misses
        self.evictions += other.evictions


def model_signature(model: BatteryModel) -> Tuple:
    """A hashable fingerprint of a battery model's cost function.

    Two models with equal signatures must produce identical
    ``apparent_charge`` values for every profile, so that one cache can be
    shared safely across models (e.g. across beta-sweep coordinates) *and*
    across chemistries — the signature leads with the model's type name, so
    chemistries with numerically identical parameters can never alias.

    Models defining ``signature()`` (every built-in chemistry, plus
    :class:`CachedBatteryModel`, which delegates to its inner model) supply
    their own exact-parameter fingerprint.  The repr fallback for unknown
    third-party models is precision-lossy (``%g``-style formatting), which
    is why the built-ins stopped relying on it: two models whose parameters
    differ below the repr precision must not share cache entries.
    """
    signature = getattr(model, "signature", None)
    if callable(signature):
        return signature()
    beta = getattr(model, "beta", None)
    series_terms = getattr(model, "series_terms", None)
    if beta is not None:
        return (type(model).__name__, float(beta), series_terms)
    # Fallback: parameter-free models key by type; anything else keys by
    # repr, which every model implements.
    return (type(model).__name__, repr(model))


class BatteryCostCache:
    """Bounded LRU cache of apparent-charge evaluations.

    The cache itself is model-agnostic: the model signature is part of every
    key, so a single instance may back many :class:`CachedBatteryModel`
    wrappers (the engine gives each worker process one shared cache).
    """

    def __init__(self, max_entries: int = DEFAULT_CACHE_SIZE) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries!r}")
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[Hashable, float]" = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: Hashable) -> Optional[float]:
        """The cached value for ``key`` (refreshing its recency), or None."""
        try:
            value = self._entries[key]
        except KeyError:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return value

    def insert(self, key: Hashable, value: float) -> None:
        """Store ``value``, evicting the least recently used entry when full."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        if len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._entries.clear()


def _profile_key(profile: LoadProfile, at_time: Optional[float]) -> Tuple:
    """Exact-value fingerprint of one evaluation request."""
    intervals = tuple(
        (iv.start, iv.duration, iv.current) for iv in profile if iv.current != 0.0
    )
    return (intervals, at_time if at_time is not None else profile.end_time)


#: Namespace tag separating schedule-state keys from profile keys.
_SCHEDULE_TAG = "sched"


class CachedBatteryModel(BatteryModel):
    """A :class:`BatteryModel` that memoises ``apparent_charge`` calls.

    Wraps any inner model and is substitutable anywhere the library accepts
    a model (the core scheduler, every baseline, the sweep evaluators).  The
    derived helpers inherited from :class:`BatteryModel` (``cost``,
    ``lifetime``, ...) route through the cached ``apparent_charge`` too.
    """

    def __init__(
        self, inner: BatteryModel, cache: Optional[BatteryCostCache] = None
    ) -> None:
        self.inner = inner
        self.cache = cache if cache is not None else BatteryCostCache()
        self._signature = model_signature(inner)

    # Expose the wrapped model's parameters so code that introspects the
    # model (e.g. reports printing beta) keeps working on the wrapper.
    @property
    def beta(self) -> Optional[float]:
        return getattr(self.inner, "beta", None)

    @property
    def series_terms(self) -> Optional[int]:
        return getattr(self.inner, "series_terms", None)

    def signature(self) -> Tuple:
        """The wrapped model's cache fingerprint (wrapping never changes keys)."""
        return self._signature

    def apparent_charge(
        self, profile: LoadProfile, at_time: Optional[float] = None
    ) -> float:
        key = (self._signature, _profile_key(profile, at_time))
        value = self.cache.lookup(key)
        if value is None:
            value = self.inner.apparent_charge(profile, at_time=at_time)
            self.cache.insert(key, value)
        return value

    # ------------------------------------------------------------------
    # schedule path (array-keyed, used by the evaluator stack)
    # ------------------------------------------------------------------
    def schedule_charge(self, durations, currents, rest: float = 0.0) -> float:
        """Memoised sigma of a back-to-back schedule (array path).

        Keyed by the exact duration/current values plus ``rest`` — no
        profile object is built for either the probe or the inner
        evaluation when the wrapped model has a vectorized schedule path.
        """
        key = self._schedule_full_key(
            (tuple(map(float, durations)), tuple(map(float, currents)), float(rest))
        )
        value = self.cache.lookup(key)
        if value is None:
            value = self.inner.schedule_charge(durations, currents, rest)
            self.cache.insert(key, value)
        return value

    def lookup_schedule(self, state_key: Tuple) -> Optional[float]:
        """Probe the schedule namespace with an evaluator-maintained state key.

        ``state_key`` is ``(duration values, current values, rest)`` — the
        incremental evaluator splices the value tuples per move so repeat
        visits to a schedule state cost one hash, not one series evaluation.
        """
        return self.cache.lookup(self._schedule_full_key(state_key))

    def store_schedule(self, state_key: Tuple, value: float) -> None:
        """Record a sigma under an evaluator-maintained state key."""
        self.cache.insert(self._schedule_full_key(state_key), value)

    def _schedule_full_key(self, state_key: Tuple) -> Tuple:
        return (self._signature, _SCHEDULE_TAG, state_key)

    # The evaluator's incremental path needs the wrapped model's
    # per-interval decomposition (and its chemistry traits); forward them
    # when present.  (Contribution arrays are not memoised — only
    # whole-schedule sigmas are.)
    def __getattr__(self, name: str):
        if name in (
            "interval_contributions",
            "schedule_contributions",
            "schedule_charge_batch",
            "contribution_floor",
            "TIME_SENSITIVE",
        ):
            return getattr(self.inner, name)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def __repr__(self) -> str:
        return (
            f"CachedBatteryModel({self.inner!r}, entries={len(self.cache)}, "
            f"hit_rate={self.cache.stats.hit_rate:.1%})"
        )
