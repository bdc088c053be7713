"""Hierarchical metrics: Counter/Gauge/Histogram instruments + registry.

The paper's operators diagnose regressions with Mellanox Neohost and
pcm-iio counter dumps; this module is the reproduction's equivalent
substrate.  Instruments are dotted-name scalars (``rnic.stellar0.bytes_sent``,
``net.port.<link>.queue_depth``) collected in a :class:`MetricsRegistry`.

Two registration styles coexist, both cheap enough to stay always-on:

* **instruments** — :class:`Counter`, :class:`Gauge`, :class:`Histogram`
  objects written on the hot path (a counter increment is one attribute
  add);
* **providers** — a component registers its public ``snapshot()`` under a
  name prefix; the registry calls it lazily at :meth:`MetricsRegistry.snapshot`
  time.  Hot paths keep their existing plain-attribute counters and pay
  nothing; re-registering the same prefix replaces the previous provider,
  so rebuilt components never collide or leak.
"""

import bisect


class MetricError(ValueError):
    """Invalid instrument registration or use."""


# Public base of Counter/Gauge/Histogram: the shared value()/name
# contract, referenced by type only through its subclasses.
class Instrument:  # simlint: ok L-api-drift
    """Base: a named scalar readable via :meth:`value`."""

    __slots__ = ("name", "description")
    kind = "instrument"

    def __init__(self, name, description=""):
        self.name = name
        self.description = description

    def value(self):
        raise NotImplementedError

    def __repr__(self):
        return "%s(%r, %s)" % (type(self).__name__, self.name, self.value())


class Counter(Instrument):
    """Monotonically increasing count (bytes sent, packets dropped...)."""

    __slots__ = ("_value",)
    kind = "counter"

    def __init__(self, name, description=""):
        super().__init__(name, description)
        self._value = 0

    def inc(self, amount=1):
        if amount < 0:
            raise MetricError("counter %s cannot decrease (%r)" % (self.name, amount))
        self._value += amount

    def value(self):
        return self._value


class Gauge(Instrument):
    """Point-in-time value, either set directly or backed by a callback."""

    __slots__ = ("_value", "_fn")
    kind = "gauge"

    def __init__(self, name, description="", fn=None):
        super().__init__(name, description)
        self._value = 0.0
        self._fn = fn

    def set(self, value):
        self._fn = None
        self._value = value

    def set_function(self, fn):
        """Back the gauge by ``fn()``; replaces any previous source."""
        self._fn = fn

    def value(self):
        return self._fn() if self._fn is not None else self._value


#: Default sim-latency buckets (microseconds): 10us .. 10ms.
DEFAULT_LATENCY_BUCKETS_US = (
    10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1000.0, 2000.0, 5000.0, 10000.0,
)


class Histogram(Instrument):
    """Fixed-bucket histogram with ``value <= bound`` bucket semantics.

    ``bounds`` are the finite upper edges; one implicit overflow bucket
    catches everything above the last bound.
    """

    __slots__ = ("bounds", "counts", "total", "count")
    kind = "histogram"

    def __init__(self, name, bounds, description=""):
        super().__init__(name, description)
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise MetricError("histogram %s needs at least one bucket bound" % name)
        if list(bounds) != sorted(set(bounds)):
            raise MetricError(
                "histogram %s bounds must be strictly increasing: %r" % (name, bounds)
            )
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value):
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    def quantile(self, q):
        """Bucket-resolution quantile estimate (upper bound of the bucket)."""
        if not 0.0 <= q <= 1.0:
            raise MetricError("quantile out of range: %r" % q)
        if not self.count:
            return 0.0
        rank = q * self.count
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= rank and bucket_count:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self.bounds[-1]  # overflow bucket: clamp to last edge
        return self.bounds[-1]

    def value(self):
        return self.mean

    def snapshot(self):
        """Flat dict of the distribution (what the registry exports)."""
        snap = {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }
        for bound, bucket_count in zip(self.bounds, self.counts):
            snap["le_%g" % bound] = bucket_count
        snap["le_inf"] = self.counts[-1]
        return snap


def flatten(report, prefix=""):
    """Flatten a nested snapshot dict into dotted scalar leaves.

    Lists become ``name[i]`` entries, mirroring
    :func:`repro.analysis.diagnostics.render_report`.
    """
    flat = {}

    def walk(path, value):
        if isinstance(value, dict):
            for key, sub in value.items():
                walk("%s.%s" % (path, key) if path else str(key), sub)
        elif isinstance(value, (list, tuple)):
            for index, sub in enumerate(value):
                walk("%s[%d]" % (path, index), sub)
        else:
            flat[path] = value

    walk(prefix, report)
    return flat


class MetricsRegistry:
    """A namespace of instruments plus lazily-evaluated snapshot providers."""

    def __init__(self, name="repro"):
        self.name = name
        self._instruments = {}  # dotted name -> Instrument
        self._providers = {}    # prefix -> snapshot callable

    # -- instruments -----------------------------------------------------

    def _get_or_create(self, cls, name, description, **kwargs):
        instrument = self._instruments.get(name)
        if instrument is not None:
            if not isinstance(instrument, cls):
                raise MetricError(
                    "%s is already registered as a %s" % (name, instrument.kind)
                )
            return instrument
        instrument = cls(name, description=description, **kwargs)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name, description=""):
        return self._get_or_create(Counter, name, description)

    def gauge(self, name, description="", fn=None):
        gauge = self._get_or_create(Gauge, name, description)
        if fn is not None:
            gauge.set_function(fn)
        return gauge

    def histogram(self, name, bounds=DEFAULT_LATENCY_BUCKETS_US, description=""):
        instrument = self._instruments.get(name)
        if isinstance(instrument, Histogram):
            return instrument
        if instrument is not None:
            raise MetricError(
                "%s is already registered as a %s" % (name, instrument.kind)
            )
        histogram = Histogram(name, bounds, description=description)
        self._instruments[name] = histogram
        return histogram

    def __contains__(self, name):
        return name in self._instruments

    def __len__(self):
        return len(self._instruments)

    # -- providers -------------------------------------------------------

    def add_provider(self, prefix, snapshot_fn):
        """Expose ``snapshot_fn()``'s numeric leaves under ``prefix``.

        Registering the same prefix again replaces the previous provider —
        deliberate, so a rebuilt component (a fresh ``PacketNetSim``, say)
        takes over its namespace instead of colliding.
        """
        if not prefix:
            raise MetricError("provider prefix must be non-empty")
        self._providers[prefix] = snapshot_fn

    # -- export ----------------------------------------------------------

    def snapshot(self, prefix=None):
        """Flat ``{dotted name: scalar}`` view of every instrument + provider.

        Histograms expand into ``<name>.count/sum/mean/p50/p90/p99/le_*``
        leaves.  Non-numeric provider leaves (names, enum strings) are kept
        — :func:`repro.analysis.diagnostics.render_report` prints them —
        but samplers filter on numeric types.
        """
        flat = {}
        for name, instrument in self._instruments.items():
            if isinstance(instrument, Histogram):
                for key, value in instrument.snapshot().items():
                    flat["%s.%s" % (name, key)] = value
            else:
                flat[name] = instrument.value()
        for provider_prefix, fn in self._providers.items():
            flat.update(flatten(fn(), prefix=provider_prefix))
        if prefix is not None:
            flat = {k: v for k, v in flat.items() if k.startswith(prefix)}
        return dict(sorted(flat.items()))

    def families(self):
        """Top-level name segments present (``rnic``, ``net``, ...)."""
        return sorted({name.split(".", 1)[0] for name in self.snapshot()})

    def clear(self):
        self._instruments.clear()
        self._providers.clear()

    def __repr__(self):
        return "MetricsRegistry(%r, %d instruments, %d providers)" % (
            self.name, len(self._instruments), len(self._providers),
        )


#: Process-wide default registry; the CLI exports this one.
_DEFAULT_REGISTRY = MetricsRegistry("default")


def get_registry():
    """The process-wide default registry (what ``--metrics`` exports)."""
    return _DEFAULT_REGISTRY


def set_registry(registry):
    """Swap the default registry; returns the previous one (for tests)."""
    global _DEFAULT_REGISTRY
    previous = _DEFAULT_REGISTRY
    _DEFAULT_REGISTRY = registry
    return previous
