"""Names, units and bounds of every metric, and the per-layer values of a trace.

End-to-end metrics come from untraced runs; per-layer metrics come from
a separate traced run of the same inputs.  Each per-layer entry notes
the end-to-end metric and workload it should move.
"""

from __future__ import annotations

from tracer import Tracer

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = (
    # fresh interpreter to `import expwell` done; median of several starts
    ("setup_s", "s", "lower", 0.25),
    # closed loop, one caller.  Op latency is divided by the time of a
    # fixed mpmath reference computation timed next to it (worker.py): the
    # shared machine's speed drifts by tens of percent within minutes, and
    # the reference drifts with it.  ops_per_ref is ops completed per
    # summed cost; the wall-clock ops_per_s, op_p50_s and op_tail_s are in
    # the report line.
    ("ops_per_ref", "1/ref", "higher", 0.25),
    ("op_p50_ref", "ref", "lower", 0.25),
    # peak resident memory of the run's interpreters; the kernel cache
    # holds up to 200k mpmath values
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# name, unit, better
PER_LAYER = (
    # moves op_p50_s on spectrum-sweep and ops_per_s on scatter-points
    ("specfun.calls", "count", "lower"),
    ("specfun.series_misses", "count", "lower"),
    ("specfun.cache_hit_ratio", "ratio", "higher"),
    ("specfun.self_s", "s", "lower"),
    ("specfun.us_per_miss", "us", "lower"),
    # op_p50_s on spectrum-sweep; scatter-points should not move
    ("bound.find_spectrum.calls", "count", "lower"),
    ("bound.find_spectrum.busy_s", "s", "lower"),
    ("bound.self_s", "s", "lower"),
    ("bound.count_nodes.busy_s", "s", "lower"),
    # ops_per_s on spectrum-sweep and crum-hierarchy
    ("bound.normalize.busy_s", "s", "lower"),
    ("bound.inner_product.calls", "count", "lower"),
    ("quadrature.calls", "count", "lower"),
    ("quadrature.integrand_evals", "count", "lower"),
    ("quadrature.self_s", "s", "lower"),
    # ops_per_s on scatter-points; find_poles on verify-battery
    ("scatter.amplitudes.calls", "count", "lower"),
    ("scatter.amplitudes.busy_s", "s", "lower"),
    ("scatter.wronskian_identity_residual.busy_s", "s", "lower"),
    ("scatter.find_poles.busy_s", "s", "lower"),
    ("scatter.self_s", "s", "lower"),
    # ops_per_s and op_p50_s on crum-hierarchy
    ("crum.det_misses", "count", "lower"),
    ("crum.det_hit_ratio", "ratio", "higher"),
    ("crum.specfun_calls_per_det", "calls/det", "lower"),
    ("crum.associated_potential.busy_s", "s", "lower"),
    ("crum.associated_eigenfunction.busy_s", "s", "lower"),
    ("crum.associated_orthogonality_residuals.busy_s", "s", "lower"),
    ("crum.shape_invariance_residual.busy_s", "s", "lower"),
    ("crum.self_s", "s", "lower"),
    # op_p50_s on verify-battery; no other workload calls the oracle
    ("oracle.numerov_eigenvalue.calls", "count", "lower"),
    ("oracle.numerov_eigenvalue.busy_s", "s", "lower"),
    ("oracle.transmission_numeric.busy_s", "s", "lower"),
    ("oracle.self_s", "s", "lower"),
    # ops_per_s on verify-battery; cli.self_s weighs most on scatter-points
    ("verify.run_battery.busy_s", "s", "lower"),
    ("verify.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    # traced wall time / untraced wall time - 1, same inputs
    ("trace.overhead_ratio", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def _ratio(num: float, den: float) -> float:
    """num / den, or 0.0 when nothing was attempted."""
    return num / den if den else 0.0


def layer_values(tracer: Tracer, series_info, det_info) -> dict:
    """Per-layer metrics of one traced set, all but the overhead ratio.

    ``series_info`` and ``det_info`` are the ``cache_info()`` of the two
    kernel caches, or None where the program no longer has that cache;
    metrics read from a missing cache are None.
    """
    selfs = {layer: ns / 1e9 for layer, ns in tracer.self_ns().items()}
    out = {}
    for name, *_ in PER_LAYER:
        fn, _, what = name.rpartition(".")
        if what == "busy_s":
            out[name] = tracer.busy_ns(fn) / 1e9
        elif what == "self_s":
            out[name] = selfs[fn]
        elif what == "calls":
            # "layer.calls" counts entries into the layer, "layer.fn.calls"
            # every call of that function
            out[name] = tracer.calls(fn) if "." in fn else tracer.layer_entries(fn)
    out["quadrature.integrand_evals"] = tracer.integrand_evals
    if series_info is None:
        out.update(dict.fromkeys(("specfun.series_misses",
                                  "specfun.cache_hit_ratio",
                                  "specfun.us_per_miss")))
    else:
        lookups = series_info.hits + series_info.misses
        out["specfun.series_misses"] = series_info.misses
        out["specfun.cache_hit_ratio"] = _ratio(series_info.hits, lookups)
        out["specfun.us_per_miss"] = _ratio(selfs["specfun"] * 1e6,
                                            series_info.misses)
    if det_info is None:
        out.update(dict.fromkeys(("crum.det_misses", "crum.det_hit_ratio",
                                  "crum.specfun_calls_per_det")))
    else:
        out["crum.det_misses"] = det_info.misses
        out["crum.det_hit_ratio"] = _ratio(det_info.hits,
                                           det_info.hits + det_info.misses)
        out["crum.specfun_calls_per_det"] = _ratio(tracer.det_specfun_calls,
                                                   det_info.misses)
    return out
