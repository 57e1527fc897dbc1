"""Every metric the benchmark reports, with its unit and direction.

Per-layer metrics also say which end-to-end metric they should move, on
which workload, and where they should stay flat; ``README.md`` renders this
table and ``selftest.py`` checks it against ``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass

HOM, WIDE, GRID = "hom_corpus", "wide_blocks", "family_grid"


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    what: str


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    moves: tuple[str, ...]
    on: tuple[str, ...]
    flat_on: tuple[str, ...]
    what: str


END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "median time to generate and write one pass's inputs, over repeats "
             "spread through the run"),
    EndToEnd("ops_per_s", "1/s", "higher", 0.25,
             "operations completed per second of the timed run"),
    EndToEnd("op_p50_ms", "ms", "lower", 0.25, "median operation latency"),
    EndToEnd("op_tail_ms", "ms", "lower", 0.25,
             "latency at the highest percentile leaving at least 10 operations "
             "of a pass above it"),
    EndToEnd("ok_ratio", "ratio", "higher", 0.01,
             "operations that passed every check over operations attempted "
             "(1 - fail ratio)"),
    EndToEnd("decided_ratio", "ratio", "higher", 0.1,
             "decided verdicts over the four asked per operation"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.1,
             "peak resident memory of the process after the timed run"),
)

_SEARCH = (("ops_per_s", "op_tail_ms"), (HOM,), (WIDE,))
_PHASES = (("op_tail_ms", "ops_per_s"), (HOM,), (WIDE,))
_NORMAL = (("op_p50_ms", "ops_per_s", "peak_rss_mb"), (WIDE,), (HOM, GRID))
_HNF = (("op_p50_ms",), (WIDE, HOM), ())
_FORGE = (("op_tail_ms", "ops_per_s"), (GRID,), (HOM, WIDE))
_MODEL = (("op_p50_ms",), (GRID, HOM), ())
_NONE = ((), (HOM, WIDE, GRID), ())


def _l(name, unit, better, mapping, what):
    return Layer(name, unit, better, *mapping, what)


LAYERS = (
    _l("intmatrix.rank_calls", "count", "lower", _SEARCH, "calls of rank"),
    _l("intmatrix.rank_s", "s", "lower", _SEARCH, "time in rank"),
    _l("intmatrix.rank_distinct_ratio", "ratio", "higher", _SEARCH,
       "distinct rank arguments within an operation over rank calls"),
    _l("analyzer.normalize_calls", "count", "lower", _SEARCH, "calls of normalize"),
    _l("analyzer.deficiency_calls", "count", "lower", _SEARCH,
       "calls of deficiency_profile"),
    _l("analyzer.betti_calls", "count", "lower", _SEARCH, "calls of betti_kernel"),
    _l("analyzer.deficiency_s", "s", "lower", _PHASES, "time in deficiency_profile"),
    _l("analyzer.splitting_s", "s", "lower", _PHASES, "time in splitting_search"),
    _l("analyzer.irreducibility_s", "s", "lower", _PHASES,
       "self time of irreducibility"),
    _l("analyzer.subdirectness_s", "s", "lower", _PHASES, "time in subdirectness"),
    _l("analyzer.finiteness_s", "s", "lower", _PHASES, "time in finiteness_type"),
    _l("intmatrix.snf_calls", "count", "lower", _NORMAL, "calls of smith_normal_form"),
    _l("intmatrix.snf_s", "s", "lower", _NORMAL, "time in smith_normal_form"),
    _l("intmatrix.peak_bits", "bits", "lower", _NORMAL,
       "largest bit-length of an entry of any HNF or SNF result, transforms "
       "included"),
    _l("analyzer.betti_s", "s", "lower", _NORMAL, "time in betti_kernel"),
    _l("analyzer.kahler_s", "s", "lower", _NORMAL, "time in kahler_verdict"),
    _l("intmatrix.hnf_calls", "count", "lower", _HNF, "calls of hermite_normal_form"),
    _l("intmatrix.hnf_s", "s", "lower", _HNF, "time in hermite_normal_form"),
    _l("analyzer.normalize_s", "s", "lower", _HNF, "time in normalize"),
    _l("lattice.calls", "count", "lower", _HNF, "calls of lattice functions"),
    _l("lattice.self_s", "s", "lower", _HNF, "self time of lattice functions"),
    _l("lattice.preimage_calls", "count", "lower", _HNF, "calls of preimage_lattice"),
    _l("lattice.intersection_calls", "count", "lower", _HNF,
       "calls of lattice_intersection"),
    _l("forge.generate_s", "s", "lower", _FORGE, "time in forge functions"),
    _l("forge.det_calls", "count", "lower", _FORGE, "det calls made under forge"),
    _l("forge.dets_per_vector", "ratio", "lower", _FORGE,
       "det calls under forge per vector returned by generate_P_prime"),
    _l("intmatrix.det_calls", "count", "lower", _FORGE, "calls of det"),
    _l("intmatrix.det_s", "s", "lower", _FORGE, "time in det"),
    _l("model.parse_s", "s", "lower", _MODEL, "time parsing documents"),
    _l("model.build_s", "s", "lower", _MODEL, "time in build_hom_from_family"),
    _l("model.serialize_s", "s", "lower", _MODEL, "time serializing families and homs"),
    _l("model.property_check_s", "s", "lower", _MODEL,
       "time in check_property_P and check_property_P_prime"),
    _l("cli.self_s", "s", "lower", _MODEL, "self time of cli functions"),
    _l("oracle.check_s", "s", "lower", _NONE,
       "wall time of the benchmark's independent verdict check, off the user path"),
    _l("trace.overhead_ratio", "ratio", "higher", _NONE,
       "traced over untraced ops_per_s on the same pass"),
)

# Span-name groups whose outermost spans give an inclusive time; "forge."
# stands for every traced function of forge.
GROUPS = {
    "analyzer.normalize": ("analyzer.normalize",),
    "analyzer.deficiency": ("analyzer.deficiency_profile",),
    "analyzer.splitting": ("analyzer.splitting_search",),
    "analyzer.subdirectness": ("analyzer.subdirectness",),
    "analyzer.finiteness": ("analyzer.finiteness_type",),
    "analyzer.betti": ("analyzer.betti_kernel",),
    "analyzer.kahler": ("analyzer.kahler_verdict",),
    "intmatrix.rank": ("intmatrix.rank",),
    "intmatrix.hnf": ("intmatrix.hermite_normal_form",),
    "intmatrix.snf": ("intmatrix.smith_normal_form",),
    "intmatrix.det": ("intmatrix.det",),
    "model.parse": ("model.parse_document", "model.parse_hom", "model.parse_family",
                    "model.hom_from_dict", "model.family_from_dict"),
    "model.build": ("model.build_hom_from_family",),
    "model.serialize": ("model.serialize_family", "model.serialize_hom",
                        "model.family_to_dict", "model.hom_to_dict"),
    "model.property_check": ("model.check_property_P", "model.check_property_P_prime"),
    "forge": ("forge.",),
}


def layer_values(summary, tracer, check_s: float, overhead_ratio: float) -> dict:
    """Per-layer metric values from one traced pass."""
    s = summary
    rank_calls = s.calls("intmatrix.rank")
    forge_dets = s.under("forge", "intmatrix.det")
    return {
        "intmatrix.rank_calls": rank_calls,
        "intmatrix.rank_s": s.group_s("intmatrix.rank"),
        "intmatrix.rank_distinct_ratio": (tracer.rank_distinct / rank_calls
                                          if rank_calls else 0.0),
        "analyzer.normalize_calls": s.calls("analyzer.normalize"),
        "analyzer.deficiency_calls": s.calls("analyzer.deficiency_profile"),
        "analyzer.betti_calls": s.calls("analyzer.betti_kernel"),
        "analyzer.deficiency_s": s.group_s("analyzer.deficiency"),
        "analyzer.splitting_s": s.group_s("analyzer.splitting"),
        "analyzer.irreducibility_s": s.self_s("analyzer.irreducibility"),
        "analyzer.subdirectness_s": s.group_s("analyzer.subdirectness"),
        "analyzer.finiteness_s": s.group_s("analyzer.finiteness"),
        "intmatrix.snf_calls": s.calls("intmatrix.smith_normal_form"),
        "intmatrix.snf_s": s.group_s("intmatrix.snf"),
        "intmatrix.peak_bits": tracer.peak_bits,
        "analyzer.betti_s": s.group_s("analyzer.betti"),
        "analyzer.kahler_s": s.group_s("analyzer.kahler"),
        "intmatrix.hnf_calls": s.calls("intmatrix.hermite_normal_form"),
        "intmatrix.hnf_s": s.group_s("intmatrix.hnf"),
        "analyzer.normalize_s": s.group_s("analyzer.normalize"),
        "lattice.calls": s.layer_calls("lattice"),
        "lattice.self_s": s.self_s(layer="lattice"),
        "lattice.preimage_calls": s.calls("lattice.preimage_lattice"),
        "lattice.intersection_calls": s.calls("lattice.lattice_intersection"),
        "forge.generate_s": s.group_s("forge"),
        "forge.det_calls": forge_dets,
        "forge.dets_per_vector": (forge_dets / tracer.p_prime_vectors
                                  if tracer.p_prime_vectors else 0.0),
        "intmatrix.det_calls": s.calls("intmatrix.det"),
        "intmatrix.det_s": s.group_s("intmatrix.det"),
        "model.parse_s": s.group_s("model.parse"),
        "model.build_s": s.group_s("model.build"),
        "model.serialize_s": s.group_s("model.serialize"),
        "model.property_check_s": s.group_s("model.property_check"),
        "cli.self_s": s.self_s(layer="cli"),
        "oracle.check_s": check_s,
        "trace.overhead_ratio": overhead_ratio,
    }
