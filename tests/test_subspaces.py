import numpy as np
import pytest

from conftest import SVDCounter, conj_matrix, intersect_oracle, split_projection_oracle, sx_oracle
from qsiegel import RealSubspace, build_kernel_params, complement_wrt, derive_spaces, kernel_of_form, standard_model
from qsiegel import creal
from qsiegel.catalog import catalog_get, catalog_list
from qsiegel.errors import NotALinearSpace, NotInLambda
from qsiegel.kernels import classify_lambda, frame_w_subspace
from qsiegel.subspaces import basic_spaces, complement_bases, radical_on, span_bases

MF_ENTRIES = [
    ("heisenberg-rank1", "full"),
    ("heisenberg-rank1", "real"),
    ("diag2", "full"),
    ("diag2", "realform"),
    ("diag2", "phase"),
    ("sym2", "full"),
    ("sym2", "realform"),
    ("sym2", "frame"),
    ("herm2", "full"),
    ("herm2", "frame"),
]


def mf_models():
    for name, var in MF_ENTRIES:
        entry = catalog_get(name)
        alg, _, q_map = entry.model()
        yield name, var, alg, q_map, entry.variant(var).subspace(q_map.n)


def catalog_mf_models():
    """Every catalog variant whose frozen verdict is multiplicity-free."""
    for name in catalog_list():
        entry = catalog_get(name)
        alg, _, q_map = entry.model()
        for v in entry.variants:
            if v.expected_mf:
                yield name, v.name, alg, q_map, v.subspace(q_map.n)


def interior_and_boundary(alg, rng, count=2):
    """e, ``count`` random interior points and the frame-boundary points
    c_1 and c_1 + ... + c_(r-1)."""
    frame = alg.standard_frame()
    xs = [alg.unit] + [alg.exp(0.6 * rng.standard_normal(alg.dim)) for _ in range(count)]
    return xs + [frame[0], sum(frame[:-1]) if alg.rank > 1 else 0.0 * frame[0]]


# -- canonical form and complements ------------------------------------------------


def test_from_spanning_canonicalizes():
    sub = RealSubspace.from_spanning(np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]]))
    assert sub.dim == 1
    assert sub.contains_vector(np.array([1.0, 0.0, 1.0]))


def test_intersect_matches_the_null_space_oracle():
    # intersect is the identity-form complement of [A | -B]^T: the same cutoff
    # TOL_RANK * max(s[0], 1) on the same matrix, so the bases are equal, also
    # when B holds A's vectors moved by up to 1e-6 and the rank is near the cutoff
    rng = np.random.default_rng(41)
    for trial in range(400):
        m = int(rng.integers(2, 9))
        a = RealSubspace.from_spanning(rng.standard_normal((m, int(rng.integers(1, m + 1)))))
        shared = a.basis @ rng.standard_normal((a.dim, int(rng.integers(1, a.dim + 1))))
        shared += rng.choice([0.0, 1e-12, 1e-10, 1e-9, 1e-8, 1e-6]) * rng.standard_normal(shared.shape)
        b = RealSubspace.from_spanning(np.hstack([shared, rng.standard_normal((m, int(rng.integers(0, m))))]))
        got, want = a.intersect(b), intersect_oracle(a, b)
        assert np.array_equal(got.basis, want.basis), f"trial {trial}"
    for name, var, alg, q_map, w in mf_models():
        jw = w.j_image(q_map.n)
        assert np.array_equal(w.intersect(jw).basis, intersect_oracle(w, jw).basis), f"{name}/{var}"


def test_equality_by_projector_distance():
    a = RealSubspace.from_spanning(np.array([[1.0, 1.0], [1.0, -1.0]]))
    b = RealSubspace.full(2)
    assert a.equals(b)
    assert a.distance(b) <= 1e-12


def test_complement_wrt_examples():
    w = RealSubspace(np.array([[1.0], [0.0]]))
    c = complement_wrt(np.eye(2), w)
    assert c.equals(RealSubspace(np.array([[0.0], [1.0]])))
    everything = complement_wrt(np.zeros((2, 2)), w)
    assert everything.dim == 2


def test_stacked_rank_decisions_match_one_matrix_case():
    # ranks differ inside both stacks; the masked columns are zero, so each
    # member spans and projects as the one-matrix call does
    rng = np.random.default_rng(33)
    m = 6
    scales = [[1, 1, 1, 1], [1, 1, 0, 0], [0, 0, 0, 0], [1, 1e-12, 1, 0]]
    vecs = np.stack([rng.standard_normal((m, 4)) * d for d in np.array(scales, dtype=float)])
    bases = span_bases(vecs)
    subs = [RealSubspace.from_spanning(v) for v in vecs]
    assert bases.shape == (4, m, 4) and [one.dim for one in subs] == [4, 2, 0, 2]
    for basis, one in zip(bases, subs):
        assert np.array_equal(basis[:, : one.dim], one.basis) and not np.any(basis[:, one.dim :])
    halves = [rng.standard_normal((m, k)) for k in (6, 3, 6, 1)]
    forms = np.stack([h @ h.T for h in halves])
    comps = complement_bases(forms, bases)
    for form, comp, one in zip(forms, comps, subs):
        want = complement_wrt(form, one)
        assert np.linalg.norm(comp @ comp.T - want.projector()) <= 1e-12
        assert np.sum(np.any(comp, axis=0)) == want.dim
        assert np.max(np.abs(comp.T @ form @ one.basis), initial=0.0) <= 1e-12


def test_complement_wrt_g1_rank1(rank1):
    _, _, q_map = rank1
    w = RealSubspace(np.array([[0.0], [1.0]]))  # the imaginary axis
    c = complement_wrt(q_map.g_matrix(np.array([1.0])), w)
    assert c.equals(RealSubspace(np.array([[1.0], [0.0]])))


def test_complement_dimension_for_nondegenerate_forms():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = rng.standard_normal((6, 6))
        b = m + m.T + 6.0 * np.eye(6)
        w = RealSubspace.from_spanning(rng.standard_normal((6, 3)))
        c = complement_wrt(b, w)
        assert c.dim == 3
        assert np.max(np.abs(w.basis.T @ b @ c.basis)) <= 1e-9


def test_intersect_and_add():
    a = RealSubspace.from_spanning(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    b = RealSubspace.from_spanning(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    inter = a.intersect(b)
    assert inter.dim == 1
    assert inter.contains_vector(np.array([0.0, 1.0, 0.0]))
    assert a.add(b).dim == 3


def test_radical_rejects_indefinite():
    p = RealSubspace.full(2)
    with pytest.raises(NotALinearSpace):
        radical_on(np.diag([1.0, -1.0]), p, 1.0)


# -- derived spaces ------------------------------------------------------------------


def test_derived_spaces_rank1_real_form(rank1):
    _, _, q_map = rank1
    w = RealSubspace(np.array([[1.0], [0.0]]))
    d = derive_spaces(q_map, w, np.array([1.0]))
    assert d.p.dim == 0
    assert d.s.equals(w)
    assert d.ker_gx.dim == 0
    assert d.s_x.equals(w)
    assert d.n_x.dim == 0
    assert d.s_x_complement.equals(w)
    assert np.allclose(d.proj_sx, np.eye(2), atol=1e-12)


def test_derived_spaces_full_w(models):
    for alg, _, q_map in models.values():
        w = RealSubspace.full(2 * q_map.n)
        rng = np.random.default_rng(1)
        x = alg.exp(rng.standard_normal(alg.dim))  # nondegenerate
        d = derive_spaces(q_map, w, x)
        assert d.s.dim == 0
        assert d.p.equals(w)
        assert d.s_x.dim == 0


def test_derived_spaces_sym2_frame_construction(sym2):
    _, _, q_map = sym2
    w = catalog_get("sym2").variant("frame").subspace(2)
    x = np.zeros(3)
    x[0] = 1.0  # the first diagonal frame idempotent
    d = derive_spaces(q_map, w, x)
    p_expected = RealSubspace(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
    s_expected = RealSubspace(np.array([[1.0], [0.0], [0.0], [0.0]]))
    assert d.p.equals(p_expected)
    assert d.s.equals(s_expected)
    # a classification reads P alone: S is left to derive_spaces
    assert basic_spaces(q_map, w, x).s is None


def test_ker_g_equals_kernel_of_r(models):
    # v in ker(g_x) iff R_x v = 0
    for alg, rep, q_map in models.values():
        rng = np.random.default_rng(2)
        frame = alg.standard_frame()
        for x in [frame[0], rng.standard_normal(alg.dim), np.zeros(alg.dim)]:
            k1 = kernel_of_form(q_map.g_matrix(x))
            k2 = kernel_of_form(creal.realify(rep.r_op(x)).T @ creal.realify(rep.r_op(x)))
            assert k1.equals(k2)


# -- the triple complement identity ---------------------------------------------------


@pytest.mark.parametrize("kind", ["rank1", "diagonal", "sym_real", "herm_complex"])
def test_triple_complement_identity(models, kind):
    alg, _, q_map = models[kind]
    rng = np.random.default_rng(3)
    n2 = 2 * q_map.n
    for trial in range(100):
        w = RealSubspace.from_spanning(rng.standard_normal((n2, rng.integers(0, n2 + 1))))
        x = rng.standard_normal(alg.dim)
        base = rng.standard_normal(alg.dim)
        dec = alg.spectral_decompose(base)
        signs = rng.choice([-1.0, 1.0], size=len(dec.idempotents))
        y = sum(
            s * np.exp(np.clip(l, -1, 1)) * c
            for s, l, c in zip(signs, dec.eigenvalues, dec.idempotents)
        )
        lhs = complement_wrt(
            q_map.g_matrix(x),
            complement_wrt(q_map.g_matrix(y), complement_wrt(q_map.g_matrix(x), w)),
        )
        rhs = complement_wrt(q_map.g_matrix(alg.quad_rep(x) @ alg.invert(y)), w)
        assert lhs.distance(rhs) <= 1e-7, f"trial {trial}"


# -- propagation of the vanishing condition --------------------------------------------


def test_imq_propagates_to_all_parameters():
    for name, var, alg, q_map, w in mf_models():
        rng = np.random.default_rng(4)
        for _ in range(50):
            x = rng.standard_normal(alg.dim)
            comp = complement_wrt(q_map.g_matrix(x), w)
            worst = 0.0
            for i in range(comp.dim):
                a = creal.re_to_cx(comp.basis[:, i])
                for j in range(i, comp.dim):
                    b = creal.re_to_cx(comp.basis[:, j])
                    worst = max(worst, abs(np.dot(x, np.imag(q_map.q_eval(a, b)))))
            assert worst <= 1e-8, f"{name}/{var}"


# -- conjugation has a preimage under R_x ------------------------------------------------


def test_conjugate_preimage():
    for name, var, alg, q_map, w in mf_models():
        s = w.j_image(q_map.n).perp()
        if s.dim == 0:
            continue
        js = s.j_image(q_map.n)
        s_js = s.add(js)
        conj = conj_matrix(s, q_map.n)
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.standard_normal(alg.dim)
            rx = creal.realify(q_map.rep.r_op(x))
            # sample v with R_x v inside S + jS
            outside = s_js.perp()
            if outside.dim:
                constraint = outside.basis.T @ rx
                _, sv, vt = np.linalg.svd(constraint, full_matrices=True)
                null = vt[int(np.sum(sv > 1e-10 * max(sv[0], 1e-300))) :].T
            else:
                null = np.eye(2 * q_map.n)
            if null.shape[1] == 0:
                continue
            v = null @ rng.standard_normal(null.shape[1])
            target = conj @ (rx @ v)
            west, *_ = np.linalg.lstsq(rx, target, rcond=None)
            assert np.linalg.norm(rx @ west - target) <= 1e-8, f"{name}/{var}"


# -- decompositions at admissible parameters ----------------------------------------------


def admissible_samples(alg, q_map, w, rng, count=10):
    xs = [alg.exp(0.6 * rng.standard_normal(alg.dim)) for _ in range(count)]
    frame = alg.standard_frame()
    xs.append(frame[0])
    xs.append(sum(frame[:-1]) if alg.rank > 1 else frame[0])
    return [x for x in xs if classify_lambda(q_map, w, x) is not None]


def test_w_splits_at_admissible_parameters():
    for name, var, alg, q_map, w in mf_models():
        rng = np.random.default_rng(6)
        for x in admissible_samples(alg, q_map, w, rng):
            d = derive_spaces(q_map, w, x)
            # W = P + S_x
            assert w.distance(d.p.add(d.s_x)) <= 1e-8, f"{name}/{var}"
            # S_x meets j S_x exactly in N_x
            assert d.s_x.intersect(d.s_x.j_image(q_map.n)).distance(d.n_x) <= 1e-7
            # W = P^x + S_x = P + S^x as direct sums, with P^x = N_x^perp meet P
            p_x = d.n_x.perp().intersect(d.p)
            assert w.distance(p_x.add(d.s_x)) <= 1e-8
            assert w.distance(d.p.add(d.s_x_complement)) <= 1e-8
            assert d.p.intersect(d.s_x_complement).dim == 0


def test_kernel_split_is_a_basis_of_v_when_derive_spaces_succeeds():
    # V = P + S^x + jS^x with S^x inside W forces W + jW = V, so S meets jS
    # only in (W + jW)^perp = 0 and [P | S | jS] is square and invertible
    for name, var, alg, q_map, w in mf_models():
        rng = np.random.default_rng(8)
        for x in admissible_samples(alg, q_map, w, rng, count=5):
            split = derive_spaces(q_map, w, x).split_matrix
            assert split.shape == (2 * q_map.n, 2 * q_map.n), f"{name}/{var}"
            assert np.linalg.matrix_rank(split, tol=1e-10) == 2 * q_map.n, f"{name}/{var}"


def test_split_projection_matches_the_inverse_oracle():
    # one SVD of [P | S^x | jS^x] decides the split and gives the rows of its
    # inverse; p^x agrees with the matrix_rank + inv construction it replaced
    for name, var, alg, q_map, w in mf_models():
        rng = np.random.default_rng(6)
        for x in admissible_samples(alg, q_map, w, rng):
            d = derive_spaces(q_map, w, x)
            want = split_projection_oracle(d, q_map.n)
            assert want is not None, f"{name}/{var}"
            assert np.max(np.abs(d.proj_sx - want)) <= 1e-12, f"{name}/{var}"


def test_split_is_decided_and_inverted_by_one_svd(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("derive_spaces factors the split once, by its SVD")

    monkeypatch.setattr(np.linalg, "inv", refuse)
    monkeypatch.setattr(np.linalg, "matrix_rank", refuse)
    counter = SVDCounter(monkeypatch)
    for name, var, alg, q_map, w in mf_models():
        for x in admissible_samples(alg, q_map, w, np.random.default_rng(6), count=3):
            counter.reset()
            derive_spaces(q_map, w, x)
            assert counter.callers.count("derive_spaces") == 1, f"{name}/{var}"


def test_derive_spaces_factors_g_x_once(monkeypatch):
    # one eigh of 2R_x gives |g_x|_2 and ker g_x, so g_x itself goes to no
    # SVD and no 2-norm
    entry = catalog_get("sym3")
    alg, _, q_map = entry.model()
    w = entry.variant("frame").subspace(q_map.n)
    calls = []

    def counting(name, original):
        def call(a, *args, **kwargs):
            for label, target in (("g_x", gx), ("2R_x", two_r)):
                if np.shape(a) == target.shape and np.allclose(a, target):
                    calls.append(f"{name} of {label}")
            return original(a, *args, **kwargs)

        return call

    for name in ("svd", "norm", "eigh"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    for x in (alg.unit, alg.standard_frame()[1]):
        gx, two_r = q_map.g_matrix(x), alg.to_matrix(x)
        calls.clear()
        derive_spaces(q_map, w, x)
        assert calls == ["eigh of 2R_x"]


def test_kernel_params_take_at_most_seven_svds(monkeypatch):
    # S_x is one complement of omega_x on W and S^x one complement inside
    # S_x (none when N_x = 0); the route through the g_x-complement of jW
    # and two intersections took 11 to 16 per parameter and 7 to 9 per
    # classification.  A classification takes jW and P and leaves
    # S = (jW)^perp to derive_spaces: it took 3 to 4 while it spanned S too
    counter = SVDCounter(monkeypatch)
    for name, var, alg, q_map, w in catalog_mf_models():
        for x in interior_and_boundary(alg, np.random.default_rng(9)):
            counter.reset()
            admissible = classify_lambda(q_map, w, x) is not None
            assert counter.calls <= 3, f"{name}/{var}: {counter.callers}"
            counter.reset()
            try:
                build_kernel_params(q_map, w, x)
            except NotInLambda:
                assert not admissible
            assert counter.calls <= 7, f"{name}/{var}: {counter.callers}"


def frame_models():
    for kind, size in (("sym_real", 4), ("herm_complex", 3), ("herm_complex", 4)):
        alg, _, q_map = standard_model(kind, size)
        w, _, _ = frame_w_subspace(alg, q_map, alg.standard_frame()[0])
        yield kind, f"frame{size}", alg, q_map, w


def test_s_x_and_its_complement_match_the_intersection_oracle():
    # the radical of omega_x on W against the g_x-complement of jW met with W
    checked = 0
    for name, var, alg, q_map, w in list(catalog_mf_models()) + list(frame_models()):
        for x in interior_and_boundary(alg, np.random.default_rng(10)):
            if classify_lambda(q_map, w, x) is None:
                continue
            d = derive_spaces(q_map, w, x)
            s_x, s_x_complement = sx_oracle(q_map, d)
            assert d.s_x.distance(s_x) <= 1e-10, f"{name}/{var}"
            assert d.s_x_complement.distance(s_x_complement) <= 1e-10, f"{name}/{var}"
            checked += 1
    assert checked >= 40


def test_derive_spaces_rejects_inadmissible(diag2):
    _, _, q_map = diag2
    w = RealSubspace.full(4)
    with pytest.raises(NotInLambda):
        derive_spaces(q_map, w, np.array([1.0, -1.0]))


def test_projection_is_complex_linear_and_idempotent():
    for name, var, alg, q_map, w in mf_models():
        rng = np.random.default_rng(7)
        for x in admissible_samples(alg, q_map, w, rng, count=5):
            d = derive_spaces(q_map, w, x)
            p = d.proj_sx
            assert np.linalg.norm(p @ p - p) <= 1e-9
            j = creal.j_matrix(q_map.n)
            assert np.linalg.norm(p @ j - j @ p) <= 1e-9
