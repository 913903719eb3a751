"""Read a :class:`~repro.serving.SimilarityEngine`'s registry series."""


def engine_series(engine):
    """Snapshot of ``engine``'s ``engine_*`` series, keyed by name.

    Counters and gauges read as floats; a histogram reads as its
    ``count``/``sum``/``buckets`` dict.
    """
    label = engine.engine_label
    return {
        metric.name: metric.snapshot_value()
        for metric in engine.registry.series().values()
        if metric.labels.get("engine") == label
    }
