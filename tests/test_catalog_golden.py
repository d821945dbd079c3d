"""Byte-level regression gate for the built-in experiment catalog.

Each catalog report, rendered by ``render_report`` without its
``wall_time_s`` line, must hash to the digest recorded here.  A change that
alters any reported number, verdict or field fails this test; such a change
must say which fields moved and why, and record the new digests.
"""

import hashlib
import re

import pytest

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
