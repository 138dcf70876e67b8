"""Shared cached builders so repeated model construction stays cheap."""

from functools import lru_cache

from mpmath import mp, workdps

import bcft.report
from bcft.characters import characters_for
from bcft.fusion import verlinde
from bcft.hp import num_str
from bcft.modular_data import build_minimal, build_su2


@lru_cache(maxsize=None)
def su2(k: int, precision: int = 50):
    return build_su2(k, precision)


@lru_cache(maxsize=None)
def minimal(p: int, pp: int, precision: int = 50):
    return build_minimal(p, pp, precision)


@lru_cache(maxsize=None)
def fusion_su2(k: int):
    return verlinde(su2(k))


@lru_cache(maxsize=None)
def fusion_minimal(p: int, pp: int):
    return verlinde(minimal(p, pp))


def all_coprime_pairs(p_max: int):
    """(p, p') with 2 <= p' < p <= p_max, gcd 1."""
    import math

    return [
        (p, pp)
        for p in range(3, p_max + 1)
        for pp in range(2, p)
        if math.gcd(p, pp) == 1
    ]


def su3_level1_document():
    """Explicit-S su(3) level 1: S_ab = omega^(ab) / sqrt(3), omega = e^(2 pi i/3),
    h = (0, 1/3, 1/3), c = 2; the only builder-less model with complex S."""
    with workdps(70):
        S = [[mp.expjpi(mp.mpf(2 * a * b) / 3) / mp.sqrt(3) for b in range(3)]
             for a in range(3)]
        rows = [[num_str(x, 60) for x in row] for row in S]
    return {
        "format": "bcft-model/1",
        "name": "su3_k1",
        "c": "2",
        "sectors": [{"name": "1", "h": "0"}, {"name": "3", "h": "1/3"},
                    {"name": "3bar", "h": "1/3"}],
        "S": rows,
    }


def count_table_builds(monkeypatch):
    """The orders of the character tables bcft.report builds from now on."""
    builds = []

    def counting(md, order):
        builds.append(order)
        return characters_for(md, order)

    monkeypatch.setattr(bcft.report, "characters_for", counting)
    return builds
