"""Multiplication tables for the table-fsz workload, relabelled by a seed.

Relabelling by a bijection gives an isomorphic table: class sizes,
centralizer sizes and power-map fibres are unchanged, so the scan does
the same work for every seed while the indices it sees differ.
"""

from __future__ import annotations

import json

import numpy as np


def cyclic(n: int) -> np.ndarray:
    a = np.arange(n)
    return (a[:, None] + a[None, :]) % n


def dihedral(n: int) -> np.ndarray:
    """Dihedral group of order 2n; index f*n + r encodes s^f r^r."""
    idx = np.arange(2 * n)
    f, r = np.divmod(idx, n)
    fi, ri, fk, rk = f[:, None], r[:, None], f[None, :], r[None, :]
    rot = np.where(fk == 1, rk - ri, ri + rk) % n
    return ((fi + fk) % 2) * n + rot


def direct_product(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    n2 = len(t2)
    return (t1[:, None, :, None] * n2 + t2[None, :, None, :]).reshape(
        len(t1) * n2, len(t1) * n2
    )


def relabel(table: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """The table with every element x renamed perm[x]."""
    out = np.empty_like(table)
    out[np.ix_(perm, perm)] = perm[table]
    return out


# name -> table constructor.  One order is under the exhaustive-
# associativity limit of validate_table (512); the other is above it and
# takes the sampled branch.
GROUPS = {
    "D12xC20": lambda: direct_product(dihedral(12), cyclic(20)),
    "D60xC12": lambda: direct_product(dihedral(60), cyclic(12)),
}


def write_table(path: str, name: str, table: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"name": name, "order": len(table), "table": table.tolist()}, fh)
