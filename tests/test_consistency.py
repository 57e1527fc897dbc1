"""No report contradicts itself: rules that tie the verdicts of one report
together, checked on every golden report and on mutated family documents."""

import copy
import json
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from coabelian.analyzer import analyze
from coabelian.forge import make_extended_family, make_generic_family
from coabelian.model import build_hom_from_family, family_from_dict, family_to_dict

REPORTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "reports")


def contradictions(report: dict) -> list[str]:
    """The rules a report breaks, read off its JSON form:
    - Kahler needs type at least F_2 (a Kaehler group is finitely
      presented), an even effective rank and a first Betti number not odd;
    - Irreducible is certified only for an exact type F_m with m >= 2;
    - NotFinitelyGenerated holds exactly when the largest deficient set
      has r - 1 factors."""
    fin = report["finiteness"]
    exact_m = fin["m"] if fin["kind"] == "ExactType" else 0
    found = []
    if report["kahler"]["kind"] == "Kahler":
        if fin["kind"] != "F_infinity" and exact_m < 2:
            found.append(f"Kahler at finiteness {fin}")
        if report["effective_rank"] % 2:
            found.append("Kahler with an odd effective rank")
        if report["betti"].get("value", 0) % 2:
            found.append("Kahler with an odd first Betti number")
    if report["irreducibility"]["kind"] == "Irreducible" and exact_m < 2:
        found.append(f"Irreducible at finiteness {fin}")
    r = len(report["subdirectness"])
    if (fin["kind"] == "NotFinitelyGenerated") != (report["max_deficient_size"] == r - 1):
        found.append(f"{fin['kind']} with max deficient size "
                     f"{report['max_deficient_size']} of r = {r}")
    return found


def test_golden_reports_are_consistent():
    found = {}
    for name in sorted(os.listdir(REPORTS)):
        with open(os.path.join(REPORTS, name), encoding="utf-8") as fh:
            problems = contradictions(json.load(fh))
        if problems:
            found[name] = problems
    assert len(os.listdir(REPORTS)) >= 60 and found == {}


_BASES = ([family_to_dict(make_generic_family(k, r)) for r in range(3, 7)
           for k in range(1, r - 1)]
          + [family_to_dict(make_generic_family(1, 4, subdirect_variant=True))]
          + [family_to_dict(make_extended_family(m, r)) for r in range(4, 7)
             for m in range(1, r - 2)])


@st.composite
def mutated_families(draw) -> dict:
    """A valid generic or extended family document with one change: r cut,
    k (generic) or m (extended) moved by one, or one cover flag flipped."""
    doc = copy.deepcopy(draw(st.sampled_from(_BASES)))
    change = draw(st.sampled_from(["cut", "move", "flag"]))
    if change == "cut":
        r = draw(st.integers(1, doc["r"] - 1))
        doc.update(r=r, vectors=doc["vectors"][:r], covers=doc["covers"][:r])
    elif change == "move":
        step = draw(st.sampled_from([-1, 1]))
        if "m" in doc:
            doc["m"] += step
        else:  # the vectors follow k: a last coordinate dropped, or a zero one added
            doc["k"] += step
            doc["vectors"] = [v[:-1] if step < 0 else v + [0] for v in doc["vectors"]]
    else:
        cover = doc["covers"][draw(st.integers(0, doc["r"] - 1))]
        cover["pi1_surjective"] = not cover["pi1_surjective"]
    return doc


@settings(max_examples=150, deadline=None)
@given(mutated_families())
def test_accepted_family_mutants_give_consistent_reports(doc):
    try:  # what analyze on the command line does with the document
        spec = family_from_dict(doc)
        h = build_hom_from_family(spec)
    except ValueError:  # refused: an input error, exit 1
        return
    assert contradictions(analyze(h, spec).to_json_dict()) == []
