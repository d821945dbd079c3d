"""Kernel table: the layer numbers of ROADMAP's Baseline, measured by calling
the public functions directly with the Baseline's sizes.

Each entry is timed with the tracer uninstalled.  Entries under a few
milliseconds are repeated and reported as the median per call.  An entry
whose call no longer exists or fails raises, and so fails the run: a
missing number must not read as a fast one.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

from ergolab import averages, lattice, markov_sft, poisson, seeding
from ergolab.bernoulli import CompactFamily, SiteMeasure
from ergolab.shift_core import Cylinder, LazyTail

SEED = 20260809
F = Fraction
HALF = [F(1, 2), F(1, 2)]


def _timed(fn, repeats: int = 1) -> float:
    """Median wall time of ``repeats`` calls of ``fn``."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def uniform01_vec_ns_per_key():
    keys = np.arange(10**6, dtype=np.uint64)
    return _timed(lambda: seeding.uniform01_vec(SEED, (seeding.TAG_SYMBOL,), keys), 5) / len(keys) * 1e9


def uniform01_ns_per_key():
    n = 20000
    return _timed(lambda: [seeding.uniform01(SEED, 7, k) for k in range(n)], 3) / n * 1e9


def lazy_tail_block_1e7_s():
    tail = LazyTail.constant(SEED, HALF)
    return _timed(lambda: tail.block(0, 10**7 - 1))


def sample_count_grid_1e4x2560_s():
    gs = poisson.integer_translation(1)
    return _timed(lambda: poisson.sample_count_grid(gs, SEED, 10**4, range(2560)))


def markov_cylinder_measure_us():
    golden = markov_sft.MarkovFamily(
        markov_sft.golden_mean(), [[F(3, 4), F(1, 4)], [F(1), F(0)]], [F(4, 5), F(1, 5)]
    )
    word = Cylinder.of([1, 2, 1, 1, 2, 1, 1, 1, 2], -4)
    calls = 200
    return _timed(lambda: [markov_sft.markov_cylinder_measure(golden, word) for _ in range(calls)], 5) / calls * 1e6


def couple_cylinders_ms_per_pair():
    full = markov_sft.MarkovFamily(
        markov_sft.full_shift(3),
        [[F(1, 2), F(1, 4), F(1, 4)], [F(1, 3), F(1, 3), F(1, 3)], [F(1, 4), F(1, 4), F(1, 2)]],
    )
    # a fixed sample of the 59,049 pairs of the n=2 scan
    words = list(full.sft.words(5))
    pairs = [
        (Cylinder(-2, 2, words[i]), Cylinder(-2, 2, words[(37 * i) % len(words)]))
        for i in range(0, len(words), 9)
    ]
    return _timed(lambda: [markov_sft.couple_cylinders(full, b, c) for b, c in pairs], 3) / len(pairs) * 1e3


def _find_null(count: int):
    def kernel():
        gs = poisson.integer_translation(1)
        return _timed(lambda: poisson.find_null_subsequence(gs, [list(range(10))], count, 10**6))

    return kernel


def event_probability_29_29_ms():
    gs = poisson.integer_translation(1)
    event = poisson.PoissonEvent.of([(range(0, 30), 29), (range(14, 44), 29)])
    return _timed(lambda: poisson.event_probability(gs, event), 5) * 1e3


def maximal_inequality_1e4_s():
    system = averages.BernoulliSystem(CompactFamily(SiteMeasure.of(HALF), {}))
    indicator = averages.Observable.indicator(Cylinder.of([1], 0))
    return _timed(lambda: averages.maximal_inequality_probe(system, indicator, 0.75, 10**4, 128, SEED))


def box_ratio_average_d3_n64_s():
    cube = lattice.LatticeCompact(3, SiteMeasure.of(HALF), {})
    x = cube.run_configuration(SEED, 0)
    return _timed(lambda: lattice.box_ratio_average(cube, [(1.0, {(0, 0, 0): 1})], x, 64))


KERNELS = {
    "kernel.uniform01_vec_ns_per_key": uniform01_vec_ns_per_key,
    "kernel.uniform01_ns_per_key": uniform01_ns_per_key,
    "kernel.lazy_tail_block_1e7_s": lazy_tail_block_1e7_s,
    "kernel.sample_count_grid_1e4x2560_s": sample_count_grid_1e4x2560_s,
    "kernel.markov_cylinder_measure_us": markov_cylinder_measure_us,
    "kernel.couple_cylinders_ms_per_pair": couple_cylinders_ms_per_pair,
    "kernel.find_null_subsequence_256_s": _find_null(256),
    "kernel.find_null_subsequence_512_s": _find_null(512),
    "kernel.event_probability_29_29_ms": event_probability_29_29_ms,
    "kernel.maximal_inequality_1e4_s": maximal_inequality_1e4_s,
    "kernel.box_ratio_average_d3_n64_s": box_ratio_average_d3_n64_s,
}


def kernel_table() -> dict[str, float]:
    return {name: kernel() for name, kernel in KERNELS.items()}
