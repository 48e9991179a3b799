"""Smith normal form, homology tables, Euler characteristics, dga oracle."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dga import two_color_unknot_dga
from helpers import (
    dense_rank_over_q,
    determinantal_factors,
    int_matrix,
    random_module_complex,
    reference_dd_is_zero,
    reference_homology_table,
    reference_smith_normal_form,
)
from spinhom.cob import AlphaPoly
from spinhom.errors import IntegrityError
from spinhom.homology import (
    IntMatrix,
    ModuleComplex,
    euler_characteristic,
    homology_table,
    in_column_lattice,
    rank_over_q,
    smith_normal_form,
)
from spinhom.laurent import LaurentPoly


def test_snf_examples():
    assert smith_normal_form(int_matrix([[1, 0], [0, 2]])) == [1, 2]
    assert smith_normal_form(int_matrix([[2]])) == [2]
    assert smith_normal_form(IntMatrix(3, 2, {})) == []
    assert smith_normal_form(int_matrix([[2, 0], [0, 3]])) == [1, 6]
    assert smith_normal_form(int_matrix([[-4, 6], [6, -4]])) == [2, 10]


def test_snf_entry_growth_stays_bounded():
    # A dense elimination that builds the unimodular transforms did not
    # finish on this matrix in 300 s, its entries passing 4,300 digits.
    # The determinantal divisors give [1] * 7 + [471888].
    M = int_matrix([
        [0, 0, 0, -1, 9, 0, -2, 0], [0, 9, 0, -6, -3, 6, 6, 1],
        [-3, 0, 0, 0, 6, -3, 0, 9], [-3, 0, 3, -2, -4, 0, 0, 0],
        [1, 0, 0, 0, -6, 0, 0, 0], [0, -1, 3, 1, 0, 0, -3, 9],
        [0, 0, 3, 0, 0, -4, -3, 1], [3, 0, 0, 0, 2, 9, -6, 0],
    ])
    t0 = time.perf_counter()
    assert smith_normal_form(M) == [1] * 7 + [471888]
    assert time.perf_counter() - t0 < 1.0


def test_snf_random_properties():
    rng = random.Random(8)
    for _ in range(120):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        M = IntMatrix(
            r, c,
            {
                (i, j): rng.randint(-5, 5)
                for i in range(r)
                for j in range(c)
                if rng.random() < 0.6
            },
        )
        f = smith_normal_form(M)
        assert all(d > 0 for d in f)
        for i in range(len(f) - 1):
            assert f[i + 1] % f[i] == 0
        assert len(f) == dense_rank_over_q(M)


@pytest.mark.parametrize("rows, factors", [
    # no unit until fill-in: clearing row 1's unit leaves a -1 in row 0,
    # which the pass has walked already, so a second pass pivots on it
    ([[3, 2], [1, 1]], [1, 1]),
    ([[1, 1], [1, -1]], [1, 2]),
    # a -1 pivot: the multiplier that clears its column carries its sign
    ([[-1, 1], [1, 1]], [1, 2]),
    # torsion survives the unit phase
    ([[1, 0, 0], [0, 2, 0], [0, 0, 4]], [1, 2, 4]),
    ([[0, 0], [0, 0]], []),
    ([], []),
])
def test_snf_unit_phase_edges(rows, factors):
    assert smith_normal_form(int_matrix(rows)) == factors


def test_solve_integer():
    M = int_matrix([[2, 0], [0, 3]])
    assert in_column_lattice(M, [4, 9])
    assert not in_column_lattice(M, [1, 0])
    assert in_column_lattice(int_matrix([[1, 1], [0, 0]]), [5, 0])
    assert in_column_lattice(IntMatrix(0, 3), [])
    assert in_column_lattice(IntMatrix(2, 0), [0, 0])
    assert not in_column_lattice(IntMatrix(2, 0), [0, 1])


@pytest.mark.parametrize(
    "rows, b, solvable",
    [
        # rows > cols
        ([[1, 2], [3, 4], [5, 6]], [3, 7, 11], True),
        ([[1, 2], [3, 4], [5, 6]], [3, 7, 12], False),
        ([[2], [4], [0]], [6, 12, 0], True),
        ([[2], [4], [0]], [3, 6, 0], False),  # solvable over Q only
        # rows < cols
        ([[1, 2, 3], [0, 2, 4]], [6, 6], True),
        ([[2, 4, 6], [0, 2, 4]], [3, 2], False),
        ([[6, 10, 15]], [1], True),
        ([[0, 0, 0]], [1], False),
    ],
)
def test_solve_integer_non_square(rows, b, solvable):
    assert in_column_lattice(int_matrix(rows), b) == solvable


def _module_complex_from_int(mats: dict[int, list[list[int]]], qdeg=0) -> ModuleComplex:
    gens = {}
    diff = {}
    degs = set()
    for k, M in mats.items():
        degs.add(k)
        degs.add(k + 1)
    for k, M in mats.items():
        rows = len(M)
        cols = len(M[0]) if rows else 0
        gens.setdefault(k, [qdeg] * cols)
        gens.setdefault(k + 1, [qdeg] * rows)
        diff[k] = {
            (r, c): AlphaPoly({0: M[r][c]})
            for r in range(rows)
            for c in range(cols)
            if M[r][c]
        }
    return ModuleComplex(gens, diff)


def test_homology_table_basic():
    # 0 -> Z --2--> Z -> 0
    M = _module_complex_from_int({0: [[2]]})
    T = homology_table(M, "alpha0")
    assert T.entries[(1, 0)] == (0, (2,))
    assert (0, 0) not in T.entries  # rank 0, no torsion
    # zero differential: free ranks equal generator counts
    M2 = _module_complex_from_int({})
    M2.gens = {0: [-1, 1]}
    T2 = homology_table(M2, "alpha0")
    assert T2.rank(0, -1) == 1 and T2.rank(0, 1) == 1


def test_homology_alpha1():
    M = _module_complex_from_int({0: [[2]]})
    T = homology_table(M, "alpha1")
    # over Q the torsion dies
    assert not T.nonzero()


def test_d_squared_guard():
    bad = ModuleComplex(
        {0: [0], 1: [0], 2: [0]},
        {
            0: {(0, 0): AlphaPoly({0: 1})},
            1: {(0, 0): AlphaPoly({0: 1})},
        },
    )
    with pytest.raises(Exception):
        bad.check()


def _square(d1_last: int, base: int = 3) -> ModuleComplex:
    """x(q=8) -> y1(q=4), y2(q=8) -> z(q=0) in degrees base..base+2.  The
    one entry of d.d is alpha * alpha + d1_last * alpha^2: two terms at the
    same alpha exponent, which cancel for d1_last = -1."""
    return ModuleComplex(
        {
            base: [8],
            base + 1: [4, 8],
            base + 2: [0],
        },
        {
            base: {(0, 0): AlphaPoly({1: 1}), (1, 0): AlphaPoly({0: 1})},
            base + 1: {(0, 0): AlphaPoly({1: 1}), (0, 1): AlphaPoly({2: d1_last})},
        },
    )


def test_check_terms_cancelling_in_one_alpha_exponent_pass():
    _square(-1).check()
    assert homology_table(_square(-1)).nonzero()


def test_check_leftover_term_names_degrees():
    with pytest.raises(IntegrityError, match=r"^d\.d != 0 between degrees 3 and 5$"):
        _square(-2).check()
    with pytest.raises(IntegrityError, match=r"^d\.d != 0 between degrees -2 and 0$"):
        homology_table(_square(1, base=-2))


def test_check_rejects_non_homogeneous_entry():
    C = _square(-1)
    C.diff[4][(0, 1)] = AlphaPoly({1: -1})  # y2 (q=8) -> z (q=0) needs alpha^2
    with pytest.raises(IntegrityError, match=r"^differential entry not q-homogeneous at degree 4$"):
        C.check()


def test_check_rejects_a_two_exponent_entry():
    C = _square(-1)
    C.diff[4][(0, 1)] = AlphaPoly({2: -1, 1: 1})  # only alpha^2 is homogeneous there
    with pytest.raises(IntegrityError, match=r"^differential entry not q-homogeneous at degree 4$"):
        C.check()


def test_check_skips_zero_entries():
    # a stored zero has no exponent: it is homogeneous and adds nothing to d.d
    C = ModuleComplex(
        {3: [8], 4: [4, 8, 0], 5: [0]},
        {
            3: {(0, 0): AlphaPoly({1: 1}), (1, 0): AlphaPoly({0: 1}), (2, 0): LaurentPoly()},
            4: {(0, 0): AlphaPoly({1: 1}), (0, 1): AlphaPoly({2: -1}), (0, 2): LaurentPoly()},
        },
    )
    C.check()
    nonzero = {k: {rc: p for rc, p in mat.items() if p} for k, mat in C.diff.items()}
    assert homology_table(C).entries == homology_table(ModuleComplex(C.gens, nonzero)).entries


def _fan(coeffs: list[int]) -> ModuleComplex:
    """x(q=8) -> y_i(q=8-4i) -> z(q=0), i = 0, 1, 2: each path through y_i
    is alpha^2 times coeffs[i], so d.d = 0 exactly when they sum to 0."""
    return ModuleComplex(
        {0: [8], 1: [8, 4, 0], 2: [0]},
        {
            0: {(i, 0): AlphaPoly({i: 1}) for i in range(3)},
            1: {(0, i): AlphaPoly({2 - i: c}) for i, c in enumerate(coeffs)},
        },
    )


@pytest.mark.parametrize("coeffs", [[1, 1, -2], [3, -5, 2], [0, 1, -1], [1, 1, -1], [2, -1, 0]])
def test_check_sums_the_products_of_each_entry(coeffs):
    # the three paths carry alpha^i . alpha^(2-i): one exponent, summed as integers
    if sum(coeffs):
        with pytest.raises(IntegrityError, match=r"^d\.d != 0 between degrees 0 and 2$"):
            _fan(coeffs).check()
    else:
        _fan(coeffs).check()


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([1, -1, 2, 3]))
def test_check_matches_reference_on_perturbed_complexes(rng, factor):
    # Scaling one entry keeps d q-homogeneous but may break d.d = 0.
    C = random_module_complex(rng)
    cells = [(k, rc) for k, mat in C.diff.items() for rc in mat]
    if cells:
        k, rc = rng.choice(cells)
        C.diff[k][rc] = C.diff[k][rc] * factor
    if reference_dd_is_zero(C):
        C.check()
    else:
        with pytest.raises(IntegrityError, match=r"^d\.d != 0 between degrees"):
            C.check()


def test_euler_and_poincare():
    M = ModuleComplex(
        {0: [1, -1], 1: [3]},
        {},
    )
    chi = euler_characteristic(M)
    assert chi == LaurentPoly({1: 1, -1: 1, 3: -1})
    T = homology_table(M, "alpha0")
    assert T.poincare() == chi


def test_dga_oracle_structure():
    dga = two_color_unknot_dga()
    H = dga.bigraded_homology_ranks(-8, 0, 0, 20)
    assert H[(0, 0)] == 1
    assert H[(0, 2)] == 1
    assert H.get((0, 4), 0) == 0  # x0^2 bounds
    assert H[(-2, 4)] == 1  # x1
    assert H[(-3, 8)] == 1  # x0 y1 - 2 x1 y0 class
    assert H[(-4, 8)] == 1  # x1^2
    assert (-1, 4) not in H


def test_dga_leibniz_signs():
    dga = two_color_unknot_dga()
    # d is a differential: d(d(m)) = 0 on products of odd generators
    m = ((0, 0), (0, 1))  # y0 y1
    out = {}
    for c, mono in dga.d_monomial(m):
        for c2, mono2 in dga.d_monomial(mono):
            out[mono2] = out.get(mono2, 0) + c * c2
    assert all(v == 0 for v in out.values())


def test_euler_poincare_agreement_on_computed_complexes():
    # Euler-Poincare: alternating chain ranks equal alternating homology
    # ranks, graded, for honest module complexes from the pipeline
    from spinhom import expr as ex
    from spinhom import projector as pj
    from spinhom.complexes import Window

    M = pj.hom_of_networks(ex.Proj(2), ex.Proj(2), Window(-6, 0))
    chi = euler_characteristic(M)
    T = homology_table(M, "alpha0")
    assert T.poincare() == chi


# ---------------------------------------------------------------------------
# Differential tests against the dense reference algorithms in helpers.py

ENTRIES = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -2, 3, -3, 6])


@st.composite
def int_matrices(draw, max_dim: int = 8, entries=ENTRIES) -> IntMatrix:
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    vals = draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))
    dead_rows = draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=2))
    dead_cols = draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=2))
    return IntMatrix(rows, cols, {
        (i // cols, i % cols): v
        for i, v in enumerate(vals)
        if i // cols not in dead_rows and i % cols not in dead_cols
    })


@st.composite
def low_rank_products(draw, max_dim: int = 14) -> IntMatrix:
    inner = draw(st.integers(0, 5))
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    A = draw(st.lists(st.lists(ENTRIES, min_size=inner, max_size=inner),
                      min_size=rows, max_size=rows))
    B = draw(st.lists(st.lists(ENTRIES, min_size=cols, max_size=cols),
                      min_size=inner, max_size=inner))
    return IntMatrix(rows, cols, {
        (r, c): sum(A[r][i] * B[i][c] for i in range(inner))
        for r in range(rows) for c in range(cols)
    })


@settings(max_examples=300, deadline=None)
@given(st.one_of(int_matrices(), int_matrices(max_dim=16), low_rank_products()))
def test_rank_matches_dense_bareiss(M):
    rank = rank_over_q(M)
    assert rank == dense_rank_over_q(M)
    assert rank == rank_over_q(M.transpose())
    assert rank <= min(M.rows, M.cols)
    # the invariant factors: positive, a divisibility chain, one per rank
    f = smith_normal_form(M)
    assert all(d > 0 for d in f)
    assert all(f[i + 1] % f[i] == 0 for i in range(len(f) - 1))
    assert len(f) == rank


@settings(max_examples=200, deadline=None)
@given(int_matrices(max_dim=6))
def test_snf_matches_determinantal_divisors(M):
    assert smith_normal_form(M) == determinantal_factors(M)


# mostly +-1, dense enough that clearing a unit column fills other rows
UNIT_HEAVY = st.sampled_from([0, 0, 0, 1, -1, 1, -1, 1, -1, 2, -2, 3])
NO_UNIT = st.sampled_from([0, 0, 0, 2, -2, 3, -3, 4, -4, 6, -6])


@settings(max_examples=150, deadline=None)
@given(int_matrices(24, UNIT_HEAVY))
def test_snf_matches_reference_on_unit_heavy_matrices(M):
    assert smith_normal_form(M) == reference_smith_normal_form(M)


@settings(max_examples=150, deadline=None)
@given(int_matrices(10, NO_UNIT))
def test_snf_matches_reference_without_units(M):
    assert smith_normal_form(M) == reference_smith_normal_form(M)


@pytest.mark.parametrize("n,depth", [(2, 8), (3, 5)])
def test_snf_matches_reference_on_hom_complexes(n, depth):
    from spinhom import complexes as cx
    from spinhom import projector as pj
    from spinhom.complexes import Window

    P = pj.build_projector(n, Window(-depth, 0)).complex
    C = cx.hom_complex(P, P)
    matrices = [M for k in C.diff for M in C.blocks_at_alpha0(k).values()]
    matrices += [C.matrix_at_alpha1(k) for k in C.diff]
    assert sum(len(M.entries) for M in matrices) > 1000
    for M in matrices:
        assert smith_normal_form(M) == reference_smith_normal_form(M)


@settings(max_examples=200, deadline=None)
@given(st.one_of(int_matrices(), low_rank_products()), st.data())
def test_column_lattice_membership(M, data):
    x = data.draw(st.lists(st.integers(-9, 9), min_size=M.cols, max_size=M.cols))
    Mx = [sum(M[(r, c)] * x[c] for c in range(M.cols)) for r in range(M.rows)]
    assert in_column_lattice(M, Mx)
    # a b outside M's column space over Q is outside its column lattice
    b = data.draw(st.lists(st.integers(-9, 9), min_size=M.rows, max_size=M.rows))
    with_b = IntMatrix(M.rows, M.cols + 1, {
        **M.entries, **{(r, M.cols): v for r, v in enumerate(b)}
    })
    if rank_over_q(with_b) > rank_over_q(M):
        assert not in_column_lattice(M, b)


def test_rank_edge_shapes():
    assert rank_over_q(IntMatrix(0, 5)) == 0
    assert rank_over_q(IntMatrix(5, 0)) == 0
    assert rank_over_q(IntMatrix(3, 3)) == 0
    # content removal must not lose the row: 2*3 and 6 share the factor 6
    assert rank_over_q(int_matrix([[2, 3, 0], [3, 0, 6], [6, 6, 6]])) == 3
    assert rank_over_q(int_matrix([[2, 4], [3, 6], [6, 12]])) == 1


def test_random_module_complexes_cover_the_hard_cases():
    # The generator behind the table test must produce what that test claims.
    seen = set()
    for seed in range(300):
        C = random_module_complex(random.Random(seed))
        degs = C.degrees()
        if degs and len(degs) != degs[-1] - degs[0] + 1:
            seen.add("gap")
        if any(set(C.qdegs(k)) - set(C.qdegs(k + 1)) and k + 1 in C.gens for k in degs):
            seen.add("q missing next door")
        if any(tors for _, tors in homology_table(C).entries.values()):
            seen.add("torsion")
        if C.reliable != (float("-inf"), float("inf")) and homology_table(C).unreliable:
            seen.add("unreliable")
        if any(len(p.coeffs) == 1 and next(iter(p.coeffs)) > 0
               for mat in C.diff.values() for p in mat.values()):
            seen.add("alpha entries")
    assert seen == {"gap", "q missing next door", "torsion", "unreliable", "alpha entries"}


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_homology_table_matches_per_bidegree_reference(rng):
    C = random_module_complex(rng)
    for spec in ("alpha0", "alpha1"):
        assert homology_table(C, spec) == reference_homology_table(C, spec)


def test_homology_table_matches_reference_on_hom_complex():
    from spinhom import expr as ex
    from spinhom import projector as pj
    from spinhom.complexes import Window

    M = pj.hom_of_networks(ex.Proj(2), ex.Proj(2), Window(-6, 0))
    for spec in ("alpha0", "alpha1"):
        T = homology_table(M, spec)
        assert T == reference_homology_table(M, spec)
        assert T.nonzero()
