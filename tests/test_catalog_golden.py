"""Byte-level regression gate for the built-in experiment catalog.

Each catalog report, rendered by ``render_report`` without its
``wall_time_s`` line, must hash to the digest recorded here.  A change that
alters any reported number, verdict or field fails this test; such a change
must say which fields moved and why, and record the new digests.
"""

import hashlib
import json
import re

import pytest

from ergolab.cli import main
from ergolab.experiments import CATALOG
from ergolab.reporting import render_report
from ergolab.runner import run

_WALL_TIME = re.compile(r',\n  "wall_time_s": [^\n]*')

GOLDEN = {
    "bernoulli-cocycle": "a1d9137c4fdf508af666b5aa72519befcd1d4460690dbc63ea3225129f900259",
    "bernoulli-kakutani": "1c799d2a7d1cc0ad8fd63bc6d5d41d6e6b90be3e1fb5e3ff98805d20682496b2",
    "bernoulli-homoclinic-bounds": "006544e239cb3e9a9122362289217e9bc29702cc2f175b828d7a9d9efab5cd6e",
    "poisson-mixing-gap": "0317250ab02a802c6ac8271d43264a512cbcb08af71d66593b5ec5230a8afe25",
    "poisson-variance-decay": "3b2ce03dcd923d8165c3ccdd69b11316c21eafc34c8f64b912c5dfd5d4d766f2",
    "ergodicity-probe-iid": "abb3691414b2f808ed815508294c0dde2e9ffa379ce6b986998857e05c56f40d",
    "ergodicity-probe-poisson": "e969bef73d0db5bb6660e5c69962e79a3937234193c19c952a9add2f0ddf0eda",
    "markov-coupling": "142c761fce4612d4249d70c63d5ecf3de8df1ac197914948ef1bf002030a5953",
    "markov-martingale": "ba4507f13997e0a52540c9ba0238ac985849a3722243a6b7443eb326ae45347d",
    "hurewicz-sanity": "79efceabb28ceca6dad2eac2f49e705e157f2a23961d341895339fee547925cd",
    "zd-box-average": "c7e6327a87bfc0d3e04dc874e2218b9a82c0f89927d264a930fe486e9509024a",
    "determinism-audit": "83e7ea26d67316a21af8303cbead8fb2077b0344492ac64eebfff727c8f363f3",
}


def test_golden_covers_the_catalog():
    assert set(GOLDEN) == set(CATALOG)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_catalog_report_digest(name):
    text = render_report(run(CATALOG[name]["config"]))
    digest = hashlib.sha256(_WALL_TIME.sub("", text).encode()).hexdigest()
    assert digest == GOLDEN[name]


# --- summable families -----------------------------------------------------------
#
# No catalog entry uses a summable family, so these reports pin the bytes of
# every operation that reads one, at two seeds.  Each digest hashes the
# seed-0 and seed-7 reports of one (family, operation), joined in that order.

_SUMMABLE = {
    "c1/9-r1/2": {"type": "bernoulli", "kind": "summable", "c": "1/9", "r": "1/2"},
    "c1/10-r9/10": {"type": "bernoulli", "kind": "summable", "c": "1/10", "r": "9/10"},
}
_LETTER = [{"coef": "1", "word": [1], "left": 0}]
_SUMMABLE_OPERATIONS = {
    "conservativity_probe": {"horizon": 2048},
    "cocycle_fuzz": {"cases": 8, "span": 8},
    "dual_series": {"f": _LETTER, "horizon": 4096},
    "rn_derivative": {"n": 5},
    "kakutani_sum": {"horizon": 300},
    "uniformity_constant": {"horizon": 60},
    "homoclinic_scan": {"radius_max": 1, "n_max": 3},
    "maximal_inequality": {"f": _LETTER, "t": "0.75", "runs": 64, "horizon": 48},
}

SUMMABLE_GOLDEN = {
    "c1/10-r9/10/cocycle_fuzz": "42a8b6cb0af80864957365db62a90a9d8ecaa0b28c8bebe117bdc19816493174",
    "c1/10-r9/10/conservativity_probe": "94617f535bf44e6ee77b544b7f3fa4d1a0fdac383f61dc7a29cc8d1be9ae646f",
    "c1/10-r9/10/dual_series": "8727ab8bd169b7716364250475581399bcbbfabf87fa7f6853d6d07f07e27c76",
    "c1/10-r9/10/homoclinic_scan": "7b56210a78e82cbe6bc0eafcac461880ee7e97a588259e05f2cebd791b544776",
    "c1/10-r9/10/kakutani_sum": "497456c16a14ad3327ca409f5dbcc6eedf5df58270064196a9f4412213fda97d",
    "c1/10-r9/10/maximal_inequality": "f2254a0bb42182e0e7d814bb3fd31b7fe6be04a687568a8120979d306e03cd10",
    "c1/10-r9/10/rn_derivative": "788acb26f340af6dfca77ae5a49b9014f2f615578dc533d5ea8ab4332e89b1a1",
    "c1/10-r9/10/uniformity_constant": "f742d7cd346531fa60d9201c7d4a95db7a6108f262ef488538616b43e6de2c00",
    "c1/9-r1/2/cocycle_fuzz": "ee218a2fd28d98def1af2e9bbbaef30f45a9d860ce2a18e66ca08c4b453876a4",
    "c1/9-r1/2/conservativity_probe": "66521639d4d187aa8e150d8551b55418d02d50e8215c2483c4ce416e6c0642b9",
    "c1/9-r1/2/dual_series": "c973dbc6ed2c797bf0f293050f846e65e462bc8dfb691e06d43bafb622f22ad3",
    "c1/9-r1/2/homoclinic_scan": "21f937a448e32fcfab02b153e60f8c40371cd324afa8899487108cb456f5c2e2",
    "c1/9-r1/2/kakutani_sum": "48e671b9f9a1f18f50e582b63acec055e4ef588ed76b6e7e5f7c60c9f892748a",
    "c1/9-r1/2/maximal_inequality": "e0871f352916add7c92c4af84823293e8309cb5b26194d23dc252b659e9750e2",
    "c1/9-r1/2/rn_derivative": "68774b87a0b842635a9f2958d8f9ca9b5dfcd54ef3a3da037dff4d6b5b5bbe82",
    "c1/9-r1/2/uniformity_constant": "7c8698a194933284baf0823857b3ab60adf34c348e8cf132542723ad0c28c44a",
}


@pytest.mark.parametrize("family", sorted(_SUMMABLE))
@pytest.mark.parametrize("operation", sorted(_SUMMABLE_OPERATIONS))
def test_summable_report_digest(family, operation):
    texts = []
    for seed in (0, 7):
        config = {
            "schema": "v1",
            "seed": seed,
            "system": _SUMMABLE[family],
            "operation": {"name": operation, **_SUMMABLE_OPERATIONS[operation]},
        }
        texts.append(_WALL_TIME.sub("", render_report(run(config))))
    digest = hashlib.sha256("".join(texts).encode()).hexdigest()
    assert digest == SUMMABLE_GOLDEN[f"{family}/{operation}"]


# --- per-shape reports -----------------------------------------------------------
#
# No catalog entry or benchmark workload runs a periodic family's
# certificates, nor a window with sites beyond the horizon, so these pin the
# bytes of every operation that a family shape answers itself, at two seeds:
# the digest of the seed-0 and seed-7 reports joined in that order, or, for a
# family the operation refuses, the exit code and stderr line of each seed.

_SHAPES = {
    "compact-window": {
        "type": "bernoulli",
        "kind": "compact",
        "base": ["2/3", "1/3"],
        "window": {"-3": ["1/4", "3/4"], "0": ["3/5", "2/5"], "2": ["1/2", "1/2"], "400": ["1/3", "2/3"]},
    },
    "periodic": {
        "type": "bernoulli",
        "kind": "periodic",
        "sites": [["3/4", "1/4"], ["1/3", "2/3"], ["1/2", "1/2"]],
    },
    "zd-compact-window": {
        "type": "zd",
        "kind": "compact",
        "dimension": 2,
        "base": ["2/3", "1/3"],
        "window": {"0,0": ["1/4", "3/4"], "2,-1": ["3/5", "2/5"], "9,3": ["1/2", "1/2"]},
    },
    "zd-alternating": {"type": "zd", "kind": "alternating", "dimension": 2, "axis": 1},
    "zd-alternating-3d": {"type": "zd", "kind": "alternating", "dimension": 3, "axis": 2},
}
_SHAPE_OPERATIONS = {
    "bernoulli": {
        "kakutani_sum": {"horizon": 300},
        "uniformity_constant": {"horizon": 60},
        "rn_derivative": {"n": 5},
        "conservativity_probe": {"horizon": 2048},
        "cocycle_fuzz": {"cases": 8, "span": 8},
        "homoclinic_scan": {"radius_max": 1, "n_max": 3},
    },
    "zd": {
        "kakutani_generator-axis0": {"axis": 0, "horizon": 4},
        "kakutani_generator-axis1": {"axis": 1, "horizon": 4},
        "zd_cocycle_fuzz": {"cases": 20, "span": 3},
        "box_ratio_average": {"n_max": 6},
    },
}
_SHAPE_CASES = [
    (family, operation)
    for family, system in sorted(_SHAPES.items())
    for operation in sorted(_SHAPE_OPERATIONS[system["type"]])
]

SHAPE_GOLDEN = {
    "compact-window/cocycle_fuzz": "006c4cd3e93d9619ff61014678c4de2e09a6107b32b76db94653694457f4af5f",
    "compact-window/conservativity_probe": "8fe212ca58a33ba2da3c2b5628afd7f59ff5ff461cefe2325f6eb1a0cf8709db",
    "compact-window/homoclinic_scan": "e46bb6d37f60f572f5212d7bb2ad8756ece1982e2c16863bd52d910e8c9364f5",
    "compact-window/kakutani_sum": "5c119137aabe4bf361e21eb55027a427f97794e67809f7f9ce84ee8515e0e083",
    "compact-window/rn_derivative": "b84e664cfd587f13abb5ab080be9d62724d3f74372d0796dd1b56ae81aa06cd8",
    "compact-window/uniformity_constant": "3bf98a1c9af2dc955dfbe0c643938dd2b545e00c2ab16132531c0fe702719d8e",
    "periodic/kakutani_sum": "8bb5ca4099c0ab2c226314b6b83312be8c141dfaa4c69de6baebb62e79de75a1",
    "periodic/uniformity_constant": "2ed198346f02e74e440772dc76ec49513772c59c84d74c3ae1ee03bf9769d3b4",
    "zd-alternating-3d/kakutani_generator-axis0": "bf94a91c479ee6913e3037859e6e7e1aff3b16f01a5ab7fb0d124969df0f217e",
    "zd-alternating-3d/kakutani_generator-axis1": "2595735850d1edf6c646c2e776a24593ea2edfcbfa7bba75445c21792622c8d6",
    "zd-alternating/kakutani_generator-axis0": "c9e24cc184d8e2ad49288cf97e2b4f2776458327ee9746dbf268b3fbd593ceb7",
    "zd-alternating/kakutani_generator-axis1": "c9aef637d8edf70b0deedf8926fd444ff2c9e29b95a212f8b6b0a59d3d6d8c20",
    "zd-compact-window/box_ratio_average": "619823fa83cbe85da497c49aa0484826233c61793d2c293b31a0dbb94265e816",
    "zd-compact-window/kakutani_generator-axis0": "5ce8b8516c4e594ccdb73ed43a4ad8c28c557a55c8d47ed9cf5c1a8f481e8a7a",
    "zd-compact-window/kakutani_generator-axis1": "cda3a4e27705ef80fdb5b5951c71b964d6cdaeaefbe43358fc90b750afc7a887",
    "zd-compact-window/zd_cocycle_fuzz": "943fe5ab60276e54c3a66db5e0ff35dcb90e2da02aa35d942b45a9c02ec3b87b",
}

_SINGULAR = "exit 2: invalid input: periodic family with unequal sites has a divergent Kakutani sum\n"
_SINGULAR_BOXES = "exit 2: invalid input: periodic lattice family is singular under some box translation\n"

SHAPE_REFUSED = {
    "periodic/cocycle_fuzz": [_SINGULAR] * 2,
    "periodic/conservativity_probe": [_SINGULAR] * 2,
    "periodic/homoclinic_scan": [_SINGULAR] * 2,
    "periodic/rn_derivative": [_SINGULAR] * 2,
    "zd-alternating-3d/box_ratio_average": [_SINGULAR_BOXES] * 2,
    "zd-alternating-3d/zd_cocycle_fuzz": [
        "exit 2: invalid input: periodic lattice family is singular under translation by (2, 1, -1)\n",
        "exit 2: invalid input: periodic lattice family is singular under translation by (0, 3, -5)\n",
    ],
    "zd-alternating/box_ratio_average": [_SINGULAR_BOXES] * 2,
    "zd-alternating/zd_cocycle_fuzz": [
        "exit 2: invalid input: periodic lattice family is singular under translation by (2, 1)\n",
        "exit 2: invalid input: periodic lattice family is singular under translation by (0, 3)\n",
    ],
}


def _shape_outcome(tmp_path, capsys, family, operation, seed):
    """The report without its wall time, or the exit code and stderr line."""
    keys = _SHAPE_OPERATIONS[_SHAPES[family]["type"]][operation]
    config = {
        "schema": "v1",
        "seed": seed,
        "system": _SHAPES[family],
        "operation": {"name": operation.split("-")[0], **keys},
    }
    path = tmp_path / f"{seed}.json"
    path.write_text(json.dumps(config))
    code = main(["--config", str(path)])
    out, err = capsys.readouterr()
    return _WALL_TIME.sub("", out) if code == 0 else f"exit {code}: {err}"


@pytest.mark.parametrize("family, operation", _SHAPE_CASES, ids=[f"{f}/{o}" for f, o in _SHAPE_CASES])
def test_shape_report_digest(tmp_path, capsys, family, operation):
    key = f"{family}/{operation}"
    outcomes = [_shape_outcome(tmp_path, capsys, family, operation, seed) for seed in (0, 7)]
    if key in SHAPE_REFUSED:
        assert outcomes == SHAPE_REFUSED[key]
    else:
        assert hashlib.sha256("".join(outcomes).encode()).hexdigest() == SHAPE_GOLDEN[key]
