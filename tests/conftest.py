import itertools
import pathlib

import numpy as np
import pytest

from loccforge import parse_measurement
from loccforge.hermitian import psd_sqrt
from loccforge.measurement import measurement_from_parts, validate
from loccforge.tree import Node, ProtocolTree, Term

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

SEED = 20260816


def load_fixture(name):
    return parse_measurement((FIXTURE_DIR / f"{name}.json").read_text())


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


def product_basis(*dims):
    """The computational product basis of the given local dimensions."""
    projs = [[np.diag(np.eye(d)[i]) for i in range(d)] for d in dims]
    return measurement_from_parts([list(c) for c in itertools.product(*projs)])


def with_basis(m, *dims):
    """Each operator of m tensored with every outcome of the computational
    product basis of dims, on new parties after m's."""
    basis = product_basis(*dims)
    return measurement_from_parts([
        [m.part(j, a) for a in range(m.P)] + [basis.part(k, c) for c in range(basis.P)]
        for j in range(len(m)) for k in range(len(basis))])


def random_complex(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def random_hermitian(rng, d):
    a = random_complex(rng, d)
    return (a + a.conj().T) / 2


def random_psd(rng, d, rank=None):
    r = rank or d
    a = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    return a @ a.conj().T


def random_pd(rng, d):
    return random_psd(rng, d) + 0.2 * np.eye(d)


def _split_pd(rng, value, k):
    """Split a positive definite matrix into k positive definite summands."""
    d = value.shape[0]
    vh = psd_sqrt(value)
    ms = [random_pd(rng, d) for _ in range(k)]
    s = sum(ms)
    w, u = np.linalg.eigh((s + s.conj().T) / 2)
    s_isqrt = (u / np.sqrt(w)) @ u.conj().T
    return [vh @ s_isqrt @ mi @ s_isqrt @ vh for mi in ms]


def random_valid_tree(rng, max_parties=3, max_dim=3, depth=3):
    """A random protocol tree, its one-op-per-leaf measurement, and the
    all-ones assignment that makes it validate (roots pinned to identities).

    Deliberately injects single-child rounds, same-party chains, and
    proportional sibling pairs so the normalization passes have work to do.
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
            kids.append({"party": psi, "value": v, "values": nv,
                         "kids": gen_children(nv, budget - 1, psi)})
        return kids

    trunk = int(rng.integers(P))
    base = {a: np.eye(dims[a], dtype=complex) for a in range(P)}
    kids = []
    while not kids:
        kids = gen_children(base, depth, trunk)
    numeric_root = {"party": trunk, "value": base[trunk], "values": base,
                    "kids": kids}

    ops = []

    def collect(n):
        if not n["kids"]:
            n["op"] = len(ops)
            ops.append([n["values"][a] for a in range(P)])
        for c in n["kids"]:
            collect(c)

    collect(numeric_root)
    m = measurement_from_parts(ops)

    vc = itertools.count()

    def group_from(built_kids, numeric_kids, psi):
        # a group whose value equals the carried psi-value entering this list
        if built_kids[0].party == psi:
            return tuple(t for k in built_kids for t in k.groups[0])
        if not built_kids[0].children:
            return (Term(numeric_kids[0]["op"], next(vc), 1.0),)
        return group_from(built_kids[0].children, numeric_kids[0]["kids"], psi)

    def build(n):
        if not n["kids"]:
            return Node(n["party"], ((Term(n["op"], next(vc), 1.0),),), ())
        built = tuple(build(c) for c in n["kids"])
        g = group_from(built, n["kids"], n["party"])
        return Node(n["party"], (g,), built)

    trunk_root = build(numeric_root)
    roots = []
    for a in range(P):
        if a == trunk:
            roots.append(trunk_root)
        else:
            roots.append(Node(a, (group_from(trunk_root.children,
                                             numeric_root["kids"], a),), ()))

    def levels(n):
        return 0 if not n.children else 1 + max(levels(c) for c in n.children)

    nvars = next(vc)
    t = ProtocolTree(P, tuple(roots), nvars, levels(trunk_root))
    return t, m, np.ones(nvars)


def locc_random_measurements():
    """The measurements of random_valid_tree(max_parties=3, max_dim=3,
    depth=4) over seeds 0..59 that pass validation, by seed. Each is LOCC
    by construction."""
    out = {}
    for s in range(60):
        _, m, _ = random_valid_tree(np.random.default_rng(s), max_parties=3,
                                    max_dim=3, depth=4)
        if not validate(m):
            out[s] = m
    return out


def random_witness_measurement(rng):
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
    parts = [
        [pu, eye - a * pw],
        [pu_perp, eye - b * pw],
        [a * pu + b * pu_perp, pw],
    ]
    return measurement_from_parts(parts)
