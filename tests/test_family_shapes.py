"""One family shape: iid, compact with an empty window and constant periodic
configs describe the same measure and must give byte-identical results."""

import pytest

from ergolab import bernoulli as bn
from ergolab.reporting import render_report
from ergolab.runner import build_system, run

BASE = ["2/3", "1/3"]

BERNOULLI_SHAPES = {
    "iid": {"type": "bernoulli", "kind": "iid", "base": BASE},
    "compact_empty": {"type": "bernoulli", "kind": "compact", "base": BASE, "window": {}},
    "constant_periodic": {"type": "bernoulli", "kind": "periodic", "sites": [BASE, BASE, BASE]},
}

BERNOULLI_OPS = [
    {"name": "kakutani_sum", "horizon": 50},
    {"name": "uniformity_constant", "horizon": 3},
    {"name": "cocycle_fuzz", "cases": 50, "span": 6},
    {"name": "homoclinic_scan", "radius_max": 2, "n_max": 3},
    {"name": "conservativity_probe", "horizon": 256},
    {"name": "dual_series", "horizon": 256, "f": [{"coef": "1", "word": [1, 2], "left": 0}]},
]

ZD_SHAPES = {
    "iid": {"type": "zd", "kind": "iid", "dimension": 2, "base": BASE},
    "compact_empty": {"type": "zd", "kind": "compact", "dimension": 2, "base": BASE, "window": {}},
}

ZD_OPS = [
    {"name": "kakutani_generator", "axis": 1, "horizon": 8},
    {"name": "zd_cocycle_fuzz", "cases": 20, "span": 3},
    {"name": "box_ratio_average", "n_max": 6},
]


def results_text(system, op):
    report = run({"schema": "v1", "seed": "11", "system": system, "operation": op})
    return render_report(report["results"])


@pytest.mark.parametrize("op", BERNOULLI_OPS, ids=lambda op: op["name"])
def test_bernoulli_shapes_agree(op):
    texts = {name: results_text(system, op) for name, system in BERNOULLI_SHAPES.items()}
    assert texts["compact_empty"] == texts["iid"]
    assert texts["constant_periodic"] == texts["iid"]


@pytest.mark.parametrize("op", ZD_OPS, ids=lambda op: op["name"])
def test_zd_shapes_agree(op):
    texts = {name: results_text(system, op) for name, system in ZD_SHAPES.items()}
    assert texts["compact_empty"] == texts["iid"]


def test_constant_periodic_normalises_to_compact():
    for system in BERNOULLI_SHAPES.values():
        family = build_system(system)
        assert isinstance(family, bn.CompactFamily) and family.window == {}


def test_periodic_family_holds_only_unequal_sites():
    tilted = bn.SiteMeasure.of(["3/4", "1/4"])
    with pytest.raises(ValueError):
        bn.PeriodicFamily([tilted, tilted])
    flipped = bn.SiteMeasure.of(["1/4", "3/4"])
    assert isinstance(bn.periodic_family([tilted, flipped]), bn.PeriodicFamily)
