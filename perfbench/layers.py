"""Per-layer metrics computed from the spans of one traced round.

Each metric names the layer function it reads; the layer -> metric ->
workload map is in README.md.  A layer a workload never calls reads 0.
"""

from __future__ import annotations


def _route(stats: dict) -> str:
    if "route" in stats:
        return str(stats["route"])
    if "central_targets" in stats or "group_order_over_limit" in stats:
        return "structured"
    return "generic"


def _verdict_attrs(args, kwargs, verdict) -> dict:
    stats = verdict.statistics
    attrs = {"route": _route(stats)}
    for key in ("conjugacy_classes", "pairs_examined", "comparisons"):
        if key in stats:
            attrs[key] = int(stats[key])
    return attrs


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


# Work counts recorded with each span, keyed by traced name.  Numeric
# values are summed per name; a string value splits the name's calls,
# durations and self times by that value.
ANNOTATIONS = {
    "fszcheck.check_fsz_n": _verdict_attrs,
    "gncount.SpjIndexed.pow_index_array": lambda a, k, r: {
        "elements": a[0].N,
        "probe": f"{a[0].params.p},{a[0].params.j},{_arg(a, k, 1, 'n')}",
    },
    "gncount.SpjIndexed.mul_index_arrays": lambda a, k, r: {"elements": len(r)},
    "gncount.TableIndexed.mul_index_arrays": lambda a, k, r: {"elements": len(r)},
    "gncount.gn_count_bruteforce_many": lambda a, k, r: {
        "elements": _arg(a, k, 0, "G").order()
    },
    "gncount.validate_table": lambda a, k, r: {
        "entries": len(_arg(a, k, 0, "table")) ** 2
    },
}


def _s(name):
    return lambda agg: agg[name].s


def _self(name):
    return lambda agg: agg[name].self_s


def _calls(name):
    return lambda agg: agg[name].calls


def _attr(name, key):
    return lambda agg: agg[name].attrs.get(key, 0)


def _rate(name, key):
    def get(agg):
        st = agg[name]
        return st.attrs.get(key, 0) / st.s if st.s > 0 else 0.0
    return get


_FSZ = "fszcheck.check_fsz_n"
_SPJ = "gncount.SpjIndexed"

# (metric, unit, better, getter); the getter reads tracing.aggregate().
# None marks metrics the harness fills in from the whole traced run.
PER_LAYER = [
    (f"{_FSZ}.generic.s", "s", "lower", _attr(_FSZ, "route=generic.s")),
    (f"{_FSZ}.generic.self_s", "s", "lower", _attr(_FSZ, "route=generic.self_s")),
    (f"{_FSZ}.structured.s", "s", "lower", _attr(_FSZ, "route=structured.s")),
    (f"{_FSZ}.calls.generic", "count", "lower", _attr(_FSZ, "route=generic")),
    (f"{_FSZ}.calls.structured", "count", "lower", _attr(_FSZ, "route=structured")),
    ("fszcheck.conjugacy_class_reps.s", "s", "lower", _s("fszcheck.conjugacy_class_reps")),
    ("fszcheck.residue_witness_classes.calls", "count", "lower",
     _calls("fszcheck.residue_witness_classes")),
    ("fszcheck.conjugacy_classes", "count", "lower", _attr(_FSZ, "conjugacy_classes")),
    ("fszcheck.pairs_examined", "count", "lower", _attr(_FSZ, "pairs_examined")),
    ("fszcheck.comparisons", "count", "lower", _attr(_FSZ, "comparisons")),
    ("fszcheck.spj_witness.s", "s", "lower", _s("fszcheck.spj_witness")),
    (f"{_SPJ}.pow_index_array.s", "s", "lower", _s(f"{_SPJ}.pow_index_array")),
    (f"{_SPJ}.pow_index_array.elements_per_s", "elements/s", "higher",
     _rate(f"{_SPJ}.pow_index_array", "elements")),
    (f"{_SPJ}.rightmul_array.s", "s", "lower", _s(f"{_SPJ}.rightmul_array")),
    (f"{_SPJ}.leftmul_array.s", "s", "lower", _s(f"{_SPJ}.leftmul_array")),
    (f"{_SPJ}.leftmul_array.calls", "count", "lower", _calls(f"{_SPJ}.leftmul_array")),
    (f"{_SPJ}.mul_index_arrays.s", "s", "lower", _s(f"{_SPJ}.mul_index_arrays")),
    (f"{_SPJ}.mul_index_arrays.elements", "count", "lower",
     _attr(f"{_SPJ}.mul_index_arrays", "elements")),
    (f"{_SPJ}.invert_index_array.s", "s", "lower", _s(f"{_SPJ}.invert_index_array")),
    (f"{_SPJ}.decode.s", "s", "lower", _s(f"{_SPJ}.decode")),
    (f"{_SPJ}.thread_speedup", "ratio", "higher", None),
    ("gncount.gn_count_bruteforce_many.s", "s", "lower",
     _s("gncount.gn_count_bruteforce_many")),
    ("gncount.gn_count_bruteforce_many.elements_per_s", "elements/s", "higher",
     _rate("gncount.gn_count_bruteforce_many", "elements")),
    ("gncount.gn_count_structured.calls", "count", "lower",
     _calls("gncount.gn_count_structured")),
    ("gncount.exponent.s", "s", "lower", _s("gncount.exponent")),
    ("gncount.load_table_group.s", "s", "lower", _s("gncount.load_table_group")),
    ("gncount.validate_table.s", "s", "lower", _s("gncount.validate_table")),
    ("gncount.validate_table.entries_per_s", "entries/s", "higher",
     _rate("gncount.validate_table", "entries")),
    ("gncount.TableGroup.pow_index_array.s", "s", "lower",
     _s("gncount.TableGroup.pow_index_array")),
    ("gncount.TableIndexed.mul_index_arrays.elements", "count", "lower",
     _attr("gncount.TableIndexed.mul_index_arrays", "elements")),
    ("spgroup.structure_report.s", "s", "lower", _s("spgroup.structure_report")),
    ("spgroup.power_generic.calls", "count", "lower", _calls("spgroup.power_generic")),
    ("spgroup.power_generic.self_s", "s", "lower", _self("spgroup.power_generic")),
    ("spgroup.power_pj.calls", "count", "lower", _calls("spgroup.power_pj")),
    ("spgroup.b_power_row0.s", "s", "lower", _s("spgroup.b_power_row0")),
    ("spgroup.SpjGroup.power.calls", "count", "lower", _calls("spgroup.SpjGroup.power")),
    ("construction.verify_construction.s", "s", "lower",
     _s("construction.verify_construction")),
    ("construction.build_y.s", "s", "lower", _s("construction.build_y")),
    ("mixedmod.mat_mul.calls", "count", "lower", _calls("mixedmod.mat_mul")),
    ("mixedmod.mat_mul.self_s", "s", "lower", _self("mixedmod.mat_mul")),
    ("mixedmod.mat_apply.calls", "count", "lower", _calls("mixedmod.mat_apply")),
    ("mixedmod.mat_apply.self_s", "s", "lower", _self("mixedmod.mat_apply")),
    ("mixedmod.mat_pow.s", "s", "lower", _s("mixedmod.mat_pow")),
    ("cli.run.self_s", "s", "lower", _self("cli.run")),
    ("trace.overhead_s", "s", "lower", None),
    ("trace.top_level_s", "s", "lower", None),
    ("trace.coverage", "ratio", "higher", None),
]


def round_metrics(agg) -> dict[str, float]:
    return {name: get(agg) for name, _, _, get in PER_LAYER if get is not None}


def probe_target(agg) -> tuple[int, int, int] | None:
    """(p, j, n) of the SpjIndexed.pow_index_array call that took longest."""
    attrs = agg[f"{_SPJ}.pow_index_array"].attrs
    keys = [k[len("probe="):-len(".s")] for k in attrs
            if k.startswith("probe=") and k.endswith(".s") and not k.endswith(".self_s")]
    if not keys:
        return None
    best = max(keys, key=lambda k: attrs[f"probe={k}.s"])
    p, j, n = (int(x) for x in best.split(","))
    return p, j, n
