"""Which program functions the traced run wraps, and the per-layer metrics.

Counters are computed from each call's arguments and return value, so the
program needs no edits. MOVES records, before any optimisation is tried,
which end-to-end metric on which workload each layer metric should move.
"""

from __future__ import annotations

from tracer import Target

P = "rcgibbs.percolation"
EA = "rcgibbs.experiments.ea"


def _add(counters, key, value):
    counters[key] += value


def _slices(c, a, result):
    _add(c, "percolation.slices_visited", 1)
    _add(c, "percolation.slices_positive", result[0] != 0)


def _peak(c, key, value):
    c[key] = max(c[key], value)


def _glass_run(c, a, result):
    eq = result["equilibration"]
    _peak(c, "experiments.ea.tau_max", eq["tau_max"])
    _peak(c, "experiments.ea.gap", max(eq["gaps"]))


TARGETS = [
    Target(P, "integrated_rc", "percolation.integrated_rc",
           count=lambda c, a, r: _add(c, "percolation.patterns_kept", len(r.patterns))),
    Target(P, "_integrated_rc_binary", "percolation._integrated_rc_binary"),
    Target(P, "_slice_pattern_terms", "percolation._slice_pattern_terms", count=_slices),
    Target(P, "sigma_connection_profile", "percolation.sigma_connection_profile"),
    Target(P, "regions_connected", "percolation.regions_connected"),
    Target(P, "chain_components", "percolation.chain_components"),
    Target("rcgibbs.twocopy", "symmetrized_spec", "twocopy.symmetrized_spec"),
    Target("rcgibbs.rcr", "monotone_base", "rcr.monotone_base"),
    Target("rcgibbs.experiments.examples", "check_model_bounds", "experiments.examples.check_model_bounds",
           count=lambda c, a, r: _add(c, "experiments.examples.support_pairs", r["n_support_pairs"])),
    Target("rcgibbs.gibbs", "gibbs_measure", "gibbs.gibbs_measure",
           count=lambda c, a, r: _add(c, "gibbs.states_enumerated", a["spec"].n_states())),
    Target("rcgibbs.sampling", "heat_bath_chain", "sampling.heat_bath_chain",
           count=lambda c, a, r: _add(c, "sampling.site_updates", len(a["spec"].region) * a["n_sweeps"])),
    Target("rcgibbs.sampling", "mc_connection_probability", "sampling.mc_connection_probability"),
    Target(EA, "ea_mns_percolation", "experiments.ea.ea_mns_percolation", count=_glass_run),
    Target(EA, "heat_bath_sweeps", "experiments.ea.heat_bath_sweeps",
           count=lambda c, a, r: _add(c, "experiments.ea.site_updates", a["s"].size * a["n_sweeps"])),
    Target(EA, "_cluster_stats", "experiments.ea._cluster_stats",
           label=lambda a: "periodic" if a["periodic"] else "open",
           count=lambda c, a, r: _add(c, f"experiments.ea.sites_labelled.{'periodic' if a['periodic'] else 'open'}", a["L"] ** 2)),
    Target(EA, "sample_blue_red", "experiments.ea.sample_blue_red"),
    Target(EA, "bond_energy", "experiments.ea.bond_energy"),
]

SPANS = [
    name
    for t in TARGETS
    for name in ([f"{t.name}.open", f"{t.name}.periodic"] if t.label else [t.name])
]

# name: (unit, better, what it should move)
DERIVED = {
    "percolation.slices_visited": ("count", "lower", "explains sweep and ibar"),
    "percolation.slices_positive": ("count", "lower", "explains sweep and ibar"),
    "percolation.slice_yield": ("ratio", "higher", "explains sweep and ibar"),
    "percolation.patterns_kept": ("count", "lower", "explains sweep and ibar"),
    "experiments.examples.support_pairs": ("count", "lower", "fixed by the sweep inputs"),
    "gibbs.states_enumerated": ("count", "lower", "setup_s, a little of sweep"),
    "sampling.site_updates_per_s": ("1/s", "higher", "mc ops_per_s"),
    "sampling.mc_z_max": ("ratio", "lower", "accuracy of mc, not speed"),
    "experiments.ea.site_updates_per_s": ("1/s", "higher", "glass ops_per_s"),
    "experiments.ea.sites_labelled_per_s.open": ("1/s", "higher", "glass ops_per_s"),
    "experiments.ea.sites_labelled_per_s.periodic": ("1/s", "higher", "glass ops_per_s"),
    "experiments.ea.tau_max": ("sweeps", "lower", "glass ops_per_s, through the sweeps per sample"),
    "experiments.ea.gap": ("sweeps", "lower", "glass ops_per_s, through the sweeps per sample"),
    "trace.ops_per_s_delta": ("1/s", "higher", "traced minus untraced ops_per_s on the same operations"),
    "trace.overhead": ("ratio", "lower", "traced time over untraced time, minus one"),
    "trace.span_coverage": ("ratio", "higher", "share of operation time inside recorded spans"),
    "trace.targets_missing": ("count", "lower", "wrapped names not found in the program"),
}

MOVES = {
    "percolation.integrated_rc": "ops_per_s and op_ms_* on sweep and ibar, not mc or glass",
    "percolation._integrated_rc_binary": "ibar (the 7-site chain) only",
    "percolation._slice_pattern_terms": "ops_per_s and op_ms_* on sweep and ibar",
    "twocopy.symmetrized_spec": "ops_per_s and op_ms_* on sweep and ibar, not mc or glass",
    "rcr.monotone_base": "ops_per_s and op_ms_* on sweep and ibar, not mc or glass",
    "percolation.sigma_connection_profile": "ibar only",
    "percolation.regions_connected": "mc and ibar, a little of sweep",
    "percolation.chain_components": "mc and ibar, a little of sweep",
    "experiments.examples.check_model_bounds": "sweep only (event and covariance maximisation)",
    "gibbs.gibbs_measure": "setup_s, a little of sweep",
    "sampling.heat_bath_chain": "mc only",
    "sampling.mc_connection_probability": "mc only (coins and bookkeeping)",
    "experiments.ea.ea_mns_percolation": "glass only (driver bookkeeping)",
    "experiments.ea.heat_bath_sweeps": "glass only",
    "experiments.ea._cluster_stats.open": "glass only",
    "experiments.ea._cluster_stats.periodic": "glass only",
    "experiments.ea.sample_blue_red": "glass (under 1%)",
    "experiments.ea.bond_energy": "glass (under 1%)",
}


def per_layer_metrics() -> list[tuple[str, str, str, str]]:
    """Every per-layer metric as (name, unit, better, what it should move)."""
    out = []
    for span in SPANS:
        out.append((f"{span}.calls", "count", "lower", MOVES[span]))
        out.append((f"{span}.self_s", "s", "lower", MOVES[span]))
    out.extend((name, *spec) for name, spec in DERIVED.items())
    return out


def layer_values(tracer, z_max: float, overhead: dict) -> dict:
    """Values for every per-layer metric from one traced pass."""
    st = tracer.self_times()
    c = tracer.counters
    vals = {}
    for span in SPANS:
        calls, _, own = st.get(span, (0, 0.0, 0.0))
        vals[f"{span}.calls"] = calls
        vals[f"{span}.self_s"] = own

    def rate(work, span):
        busy = st.get(span, (0, 0.0, 0.0))[1]
        return work / busy if busy else 0.0

    visited = c["percolation.slices_visited"]
    vals.update({
        "percolation.slices_visited": int(visited),
        "percolation.slices_positive": int(c["percolation.slices_positive"]),
        "percolation.slice_yield": c["percolation.slices_positive"] / visited if visited else 0.0,
        "percolation.patterns_kept": int(c["percolation.patterns_kept"]),
        "experiments.examples.support_pairs": int(c["experiments.examples.support_pairs"]),
        "gibbs.states_enumerated": int(c["gibbs.states_enumerated"]),
        "sampling.site_updates_per_s": rate(c["sampling.site_updates"], "sampling.heat_bath_chain"),
        "sampling.mc_z_max": z_max,
        "experiments.ea.site_updates_per_s": rate(c["experiments.ea.site_updates"], "experiments.ea.heat_bath_sweeps"),
        "experiments.ea.tau_max": c["experiments.ea.tau_max"],
        "experiments.ea.gap": c["experiments.ea.gap"],
        "trace.targets_missing": len(tracer.missing),
        **overhead,
    })
    for bc in ("open", "periodic"):
        vals[f"experiments.ea.sites_labelled_per_s.{bc}"] = rate(
            c[f"experiments.ea.sites_labelled.{bc}"], f"experiments.ea._cluster_stats.{bc}"
        )
    return vals
