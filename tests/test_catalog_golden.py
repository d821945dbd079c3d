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
