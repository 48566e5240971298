"""The benchmark corpus: frozen generators, product bases and the workloads.

The two random generators are frozen copies of the numeric part of the test
suite's ``random_valid_tree`` and ``random_witness_measurement``. They live
here so that edits to the tests cannot shift the corpus; ``corpus.json`` pins
every generated instance by its ``io.measurement_digest``.

Nothing in this module is timed. It only decides which documents exist and
which CLI invocations a pass replays, with the answer each one must give.
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import pathlib

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
MANIFEST = HERE / "corpus.json"


# ---------------------------------------------------------------- generators

def _psd_sqrt(m):
    w, u = np.linalg.eigh((m + m.conj().T) / 2.0)
    return (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T


def _random_psd(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return a @ a.conj().T


def _random_pd(rng, d):
    return _random_psd(rng, d) + 0.2 * np.eye(d)


def _split_pd(rng, value, k):
    """Split a positive definite matrix into k positive definite summands."""
    d = value.shape[0]
    vh = _psd_sqrt(value)
    ms = [_random_pd(rng, d) for _ in range(k)]
    s = sum(ms)
    w, u = np.linalg.eigh((s + s.conj().T) / 2)
    s_isqrt = (u / np.sqrt(w)) @ u.conj().T
    return [vh @ s_isqrt @ mi @ s_isqrt @ vh for mi in ms]


def random_tree_parts(rng, max_parties=3, max_dim=3, depth=3):
    """Per-leaf local parts of a random LOCC tree with every root pinned to
    the identity, so the measurement is LOCC by construction.

    Draws exactly the random numbers of the test suite's random_valid_tree
    with the same arguments, in the same order.
    """
    P = int(rng.integers(2, max_parties + 1))
    dims = [int(rng.integers(2, max_dim + 1)) for _ in range(P)]

    def gen_children(values, budget, parent_party):
        if budget == 0 or rng.random() < 0.25:
            return []
        if rng.random() < 0.3:
            psi = parent_party
        else:
            psi = int(rng.integers(P))
        r = rng.random()
        k = 1 if r < 0.15 else (2 if r < 0.7 else 3)
        vals = _split_pd(rng, values[psi], k)
        if k >= 2 and rng.random() < 0.35:
            pooled = vals[0] + vals[1]
            a = 0.3 + 0.4 * rng.random()
            vals[0], vals[1] = a * pooled, (1 - a) * pooled
        kids = []
        for v in vals:
            nv = dict(values)
            nv[psi] = v
            kids.append({"values": nv,
                         "kids": gen_children(nv, budget - 1, psi)})
        return kids

    trunk = int(rng.integers(P))
    base = {a: np.eye(dims[a], dtype=complex) for a in range(P)}
    kids = []
    while not kids:
        kids = gen_children(base, depth, trunk)

    ops = []

    def collect(n):
        if not n["kids"]:
            ops.append([n["values"][a] for a in range(P)])
        for c in n["kids"]:
            collect(c)

    collect({"values": base, "kids": kids})
    return ops


def random_witness_parts(rng):
    """Three complete two-qubit operators built to carry a singular extreme
    pair on operator 0 (and with it, a partition witness)."""
    u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    u = u / np.linalg.norm(u)
    u_perp = np.array([-np.conj(u[1]), np.conj(u[0])])
    w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    w = w / np.linalg.norm(w)
    pu = np.outer(u, u.conj())
    pu_perp = np.outer(u_perp, u_perp.conj())
    pw = np.outer(w, w.conj())
    a = 0.55 + 0.4 * rng.random()
    b = 0.05 + rng.random() * (a - 0.15)
    eye = np.eye(2)
    return [
        [pu, eye - a * pw],
        [pu_perp, eye - b * pw],
        [a * pu + b * pu_perp, pw],
    ]


def product_basis_parts(dims):
    """The computational product basis of the given local dimensions."""
    projs = [[np.diag(np.eye(d)[i]).astype(complex) for i in range(d)]
             for d in dims]
    return [list(combo) for combo in itertools.product(*projs)]


# -------------------------------------------------------------- instances

def load_manifest():
    return json.loads(MANIFEST.read_text())


def instance_parts(source):
    """The local parts a generated instance of the manifest describes."""
    kind = source["generator"]
    if kind == "product_basis":
        return product_basis_parts(source["dims"])
    rng = np.random.default_rng(source["seed"])
    if kind == "random_valid_tree":
        return random_tree_parts(rng, **source["args"])
    if kind == "random_witness_measurement":
        return random_witness_parts(rng)
    raise ValueError(f"unknown generator {kind!r}")


@dataclasses.dataclass(frozen=True)
class Invocation:
    """One CLI call of a pass and the answer it must give.

    ``expect`` is the answer of a correct program: ``Protocol`` or
    ``ProvedImpossible`` for synthesize, ``witness`` or ``no-witness`` for
    check-nogo, ``error`` for a document the CLI must reject with exit 1.
    ``lift`` adds a ``lift`` call on the protocol the synthesis saved.
    """

    key: str
    command: str
    instance: str
    expect: str
    flags: tuple = ()
    lift: bool = False


def invocations(manifest, workload):
    spec = manifest["workloads"][workload]
    return [Invocation(f"{workload}/{inv['instance']}", spec["command"],
                       inv["instance"], inv["expect"], tuple(spec["flags"]),
                       inv.get("lift", False))
            for inv in spec["invocations"]]
