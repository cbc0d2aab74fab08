"""Entropy constructors: Shannon marginals, von Neumann reductions, snapping."""

import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from quantoid import entropic
from quantoid.entropic import (
    ApproxSetFunction,
    JointDistribution,
    PureState,
    _entropies,
    is_approx_polymatroid,
    is_approx_polyquantoid,
    reduced_spectrum,
    shannon_entropy_function,
    snap_to_rational,
    von_neumann_entropy_function,
)
from quantoid.errors import (
    DimensionMismatch,
    DuplicateLabel,
    InvalidDistribution,
    NotNormalized,
    SnapFailed,
)
from quantoid.setfn import GroundSet

from helpers import (
    bell,
    complex_spectrum,
    complex_tensor,
    ghz3,
    is_approx_polymatroid_all_pairs,
    is_approx_polyquantoid_all_pairs,
    labels_for,
    shannon_entropy_function_dfs,
    shannon_entropy_function_loops,
    von_neumann_entropy_function_loops,
)

TOL = 1e-9
INV_SQRT2 = 2 ** -0.5

# hand-computed binary entropies, frozen
H_03 = 0.8812908992306927  # -0.3*log2(0.3) - 0.7*log2(0.7)
H_W = 0.9182958340544896   # log2(3) - 2/3, one-party entropy of the W state


def two_parties():
    return GroundSet(("1", "2"))


def three_parties():
    return GroundSet(("1", "2", "3"))


def bell_state():
    return PureState(two_parties(), (2, 2), (INV_SQRT2, 0, 0, INV_SQRT2))


def ghz_state():
    return PureState(three_parties(), (2, 2, 2),
                     (INV_SQRT2, 0, 0, 0, 0, 0, 0, INV_SQRT2))


def w_state():
    a = 3 ** -0.5
    return PureState(three_parties(), (2, 2, 2), (0, a, a, 0, a, 0, 0, 0))


# -- Shannon --------------------------------------------------------------------

def test_shared_fair_bit():
    dist = JointDistribution(two_parties(), (2, 2), (0.5, 0, 0, 0.5))
    f = shannon_entropy_function(dist)
    assert f.values == pytest.approx((0, 1, 1, 1), abs=TOL)
    assert f.values[0] == 0
    assert is_approx_polymatroid(f)


def test_independent_fair_bits():
    dist = JointDistribution(two_parties(), (2, 2), (0.25,) * 4)
    f = shannon_entropy_function(dist)
    assert f.values == pytest.approx((0, 1, 1, 2), abs=TOL)


def test_point_mass_has_zero_entropy():
    dist = JointDistribution(two_parties(), (2, 2), (1.0, 0, 0, 0))
    f = shannon_entropy_function(dist)
    assert f.values == (0.0, 0.0, 0.0, 0.0)


def test_biased_coin_entropy():
    dist = JointDistribution(GroundSet(("1",)), (2,), (0.3, 0.7))
    f = shannon_entropy_function(dist)
    assert f.values[1] == pytest.approx(H_03, abs=TOL)


def test_natural_log_base():
    dist = JointDistribution(two_parties(), (2, 2), (0.5, 0, 0, 0.5))
    f = shannon_entropy_function(dist, base=math.e)
    assert f.values[1] == pytest.approx(math.log(2), abs=TOL)


def test_invalid_distributions():
    with pytest.raises(InvalidDistribution):
        JointDistribution(two_parties(), (2, 2), (0.6, 0.5, 0, 0))
    with pytest.raises(InvalidDistribution):
        JointDistribution(two_parties(), (2, 2), (1.2, -0.2, 0, 0))
    with pytest.raises(InvalidDistribution):
        JointDistribution(two_parties(), (2, 2), (0.5, 0.5))


# -- von Neumann ------------------------------------------------------------------

def test_bell_entropy_function():
    f = von_neumann_entropy_function(bell_state())
    assert f.values == pytest.approx((0, 1, 1, 0), abs=TOL)


def test_ghz_entropy_function():
    f = von_neumann_entropy_function(ghz_state())
    assert f.values == pytest.approx((0, 1, 1, 1, 1, 1, 1, 0), abs=TOL)


def test_product_state_entropy_is_zero():
    f = von_neumann_entropy_function(
        PureState(two_parties(), (2, 2), (1, 0, 0, 0)))
    assert f.values == pytest.approx((0, 0, 0, 0), abs=TOL)


def test_w_state_single_party_entropy():
    f = von_neumann_entropy_function(w_state())
    for mask in (1, 2, 4):
        assert f.values[mask] == pytest.approx(H_W, abs=TOL)


def test_reduced_spectrum_contract():
    spectrum = reduced_spectrum(ghz_state(), ["1"])
    assert spectrum == pytest.approx((0.5, 0.5), abs=TOL)
    pair = reduced_spectrum(ghz_state(), ["1", "2"])
    assert sum(pair) == pytest.approx(1.0, abs=TOL)
    assert all(lam >= -TOL for lam in pair)


def test_reduced_spectrum_rejects_a_repeated_label():
    with pytest.raises(DuplicateLabel):
        reduced_spectrum(bell_state(), ["1", "1"])


def test_reduced_spectrum_rejects_a_bare_string():
    state = bell_state()
    assert reduced_spectrum(state, ["1"]) == pytest.approx((0.5, 0.5))
    with pytest.raises(TypeError, match="'12'"):
        reduced_spectrum(state, "12")


@pytest.mark.parametrize("probabilities", [[], [0.0, 0.0]], ids=["empty", "zeros"])
def test_entropy_of_no_mass_is_positive_zero(probabilities):
    (h,) = _entropies([np.array(probabilities)], math.log(2))
    assert h == 0.0 and math.copysign(1.0, h) == 1.0


def test_state_validation():
    with pytest.raises(NotNormalized):
        PureState(two_parties(), (2, 2), (1, 0, 0, 1))
    with pytest.raises(DimensionMismatch):
        PureState(two_parties(), (2, 2), (1, 0, 0))


def test_pure_state_axioms_on_random_states():
    rng = np.random.default_rng(20120912)
    parties = three_parties()
    for _ in range(20):
        raw = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps = tuple(raw / np.linalg.norm(raw))
        f = von_neumann_entropy_function(PureState(parties, (2, 2, 2), amps))
        assert is_approx_polyquantoid(f)
        for mask in range(8):
            spectrum = reduced_spectrum(PureState(parties, (2, 2, 2), amps),
                                        parties.members(mask))
            assert sum(spectrum) == pytest.approx(1.0, abs=TOL)
            assert all(-TOL <= lam <= 1 + TOL for lam in spectrum)


# -- snapping ----------------------------------------------------------------------

def test_snap_bell_to_exact_polyquantoid():
    snapped = snap_to_rational(von_neumann_entropy_function(bell_state()), 1)
    assert snapped.values == bell().values


def test_snap_ghz_to_exact_quantoid():
    snapped = snap_to_rational(von_neumann_entropy_function(ghz_state()), 1)
    assert snapped.values == ghz3().values


def test_snap_biased_coin_fails():
    dist = JointDistribution(GroundSet(("1",)), (2,), (0.3, 0.7))
    with pytest.raises(SnapFailed):
        snap_to_rational(shannon_entropy_function(dist), 4)


def test_snap_half_integers():
    f = ApproxSetFunction(GroundSet(("1",)), (0.0, 0.5 + 1e-12))
    snapped = snap_to_rational(f, 2)
    assert snapped.values == (Fraction(0), Fraction(1, 2))


def test_snap_rejects_bad_denominator():
    f = ApproxSetFunction(GroundSet(("1",)), (0.0, 0.5))
    with pytest.raises(SnapFailed):
        snap_to_rational(f, 0)


@pytest.mark.parametrize("flag", [False, np.bool_(True)], ids=["bool", "bool_"])
def test_approx_set_function_rejects_booleans(flag):
    with pytest.raises(InvalidDistribution):
        ApproxSetFunction(GroundSet(("1",)), (0.0, flag))


# -- approximate checks --------------------------------------------------------------

CHECKS = [(is_approx_polymatroid, is_approx_polymatroid_all_pairs),
          (is_approx_polyquantoid, is_approx_polyquantoid_all_pairs)]
MARGIN = 1e-12  # rounding on values of at most 8 bits is ~1e-14, far below TOL


def random_distribution(rng, n, product=False):
    if product:  # independent parties: every submodular inequality is tight
        probs = np.ones(1)
        for _ in range(n):
            p = rng.random()
            probs = np.kron(probs, (p, 1 - p))
    else:
        probs = rng.random(1 << n) ** 3
        probs /= probs.sum()
    return JointDistribution(GroundSet(labels_for(n)), (2,) * n, tuple(probs))


def random_state(rng, n, product=False):
    if product:  # no entanglement: every entropy is 0
        amps = np.ones(1)
        for _ in range(n):
            q = rng.normal(size=2) + 1j * rng.normal(size=2)
            amps = np.kron(amps, q / np.linalg.norm(q))
    else:
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        amps /= np.linalg.norm(amps)
    return PureState(GroundSet(labels_for(n)), (2,) * n, tuple(amps))


def entropy_functions():
    """Seeded Shannon (n <= 8) and von Neumann (n <= 6) functions, the
    inputs of the other tests in this file, and n = 0 and n = 1 tables."""
    rng = np.random.default_rng(20121018)
    fns = [shannon_entropy_function(random_distribution(rng, n, product))
           for n in range(9) for product in (False, True)]
    fns += [von_neumann_entropy_function(random_state(rng, n, product))
            for n in range(7) for product in (False, True)]
    dists = [(two_parties(), (2, 2), p) for p in
             [(0.5, 0, 0, 0.5), (0.25,) * 4, (1.0, 0, 0, 0)]]
    dists.append((GroundSet(("1",)), (2,), (0.3, 0.7)))
    fns += [shannon_entropy_function(JointDistribution(*d)) for d in dists]
    states = [bell_state(), ghz_state(), w_state(),
              PureState(two_parties(), (2, 2), (1, 0, 0, 0))]
    old = np.random.default_rng(20120912)  # test_pure_state_axioms_on_random_states
    for _ in range(20):
        raw = old.normal(size=8) + 1j * old.normal(size=8)
        states.append(PureState(three_parties(), (2, 2, 2), tuple(raw / np.linalg.norm(raw))))
    fns += [von_neumann_entropy_function(state) for state in states]
    fns += [ApproxSetFunction(GroundSet(()), (x,)) for x in (0.0, 1.0)]
    fns += [ApproxSetFunction(GroundSet(("1",)), v)
            for v in [(0.0, 0.0), (0.0, 1.0), (0.0, -1.0), (1.0, 1.0)]]
    return fns


def perturbed(f):
    """Copies of f with one axiom moved by step = 0.9 * tol (within tol) or
    2 * tol (past it).  The last two add a supermodular bump, plain or
    symmetric under complement, whose two-point gap is step when one of
    the two elements is in the low half of the ground set and one in the
    high half, and 0 otherwise."""
    n, v = f.n, np.array(f.values)
    full = len(v) - 1
    a, b = n // 2, n - n // 2
    low = (1 << a) - 1
    x = np.array([(m & low).bit_count() for m in range(full + 1)])
    y = np.array([(m >> a).bit_count() for m in range(full + 1)])
    plain = x * y
    symmetric = (x * y + (a - x) * (b - y) - a * b) / 2
    top = max((v[full ^ 1 << i] for i in range(n)), default=v[0])
    for step in (0.9 * f.tol, 2 * f.tol):
        empty, below, above = v.copy(), v.copy(), v.copy()
        empty[0] += step          # normalized
        below[full] = top - step  # nondecreasing at N
        above[full] += step       # complementary at N
        for w in (empty, below, above, v + step * plain, v + step * symmetric):
            yield ApproxSetFunction(f.ground, tuple(w))


def test_approx_checks_equal_all_pairs_oracle_on_entropy_functions():
    seen = set()
    for f in entropy_functions():
        for check, oracle in CHECKS:
            verdict = check(f)
            assert type(verdict) is bool
            assert verdict == oracle(f), (check.__name__, f)
            seen.add((check.__name__, verdict))
    assert len(seen) == 4


def test_approx_checks_bound_all_pairs_oracle_on_perturbed_functions():
    # oracle at tol => check at tol => oracle at floor(n/2) * ceil(n/2) * tol;
    # the normalized, monotone and complement tests are the same in both,
    # so for n < 2 the bound is tol
    seen = set()
    for f in entropy_functions():
        bound = max(1, (f.n // 2) * ((f.n + 1) // 2)) * f.tol
        for p in perturbed(f):
            for check, oracle in CHECKS:
                verdict, exact = check(p), oracle(p)
                if exact:
                    assert check(replace(p, tol=p.tol + MARGIN)), (check.__name__, p)
                if verdict:
                    assert oracle(replace(p, tol=bound + MARGIN)), (check.__name__, p)
                seen.add((check.__name__, verdict, exact))
    for check, _ in CHECKS:
        assert {(check.__name__, v, v) for v in (True, False)} <= seen
        assert (check.__name__, True, False) in seen  # the verdict the local test changes


def test_approx_submodular_pair_bound_example():
    # |S| + 0.9 tol |S & {1,2}| |S & {3,4}|: every two-point gap is 0.9 tol,
    # the pair ({1,2}, {3,4}) is off by 3.6 tol, within 2 * 2 * tol
    values = tuple(m.bit_count() + 0.9 * TOL * (m & 3).bit_count() * (m >> 2).bit_count()
                   for m in range(16))
    f = ApproxSetFunction(GroundSet(labels_for(4)), values)
    assert not is_approx_polymatroid_all_pairs(f)
    assert is_approx_polymatroid(f)
    assert is_approx_polymatroid_all_pairs(replace(f, tol=4 * TOL))


def test_approx_checks_at_sixteen_elements():
    u = ApproxSetFunction(GroundSet(labels_for(16)),
                          tuple(float(min(m.bit_count(), 8)) for m in range(1 << 16)))
    q = ApproxSetFunction(u.ground, tuple(min(u[m], u[m ^ 0xFFFF]) for m in range(1 << 16)))
    assert is_approx_polymatroid(u) and not is_approx_polyquantoid(u)
    assert is_approx_polyquantoid(q) and not is_approx_polymatroid(q)


# -- constructors against their per-mask oracles ------------------------------------

MIXED_SIZES = [(1,), (3,), (3, 1), (1, 2, 3), (3, 2, 1, 3), (2, 3, 1, 1, 3)]
ORACLE_TOL = 1e-10


def distribution_on(rng, sizes, kind):
    """A seeded distribution on parties of the given alphabet sizes: dense,
    sparse (about half the outcomes impossible) or a product of marginals."""
    if kind == "product":
        probs = np.ones(1)
        for s in sizes:
            p = rng.random(s)
            probs = np.kron(probs, p / p.sum())
    else:
        probs = rng.random(math.prod(sizes)) ** 3
        if kind == "sparse":
            probs[1:] *= rng.random(probs.size - 1) < 0.5
        probs /= probs.sum()
    return JointDistribution(GroundSet(labels_for(len(sizes))), sizes, tuple(probs))


def state_on(rng, dims, kind="complex"):
    """A seeded unit vector on parties of the given dimensions: random
    complex or real, a product of one complex vector per party, GHZ (the
    sum of |k, k, ..., k> over the levels every party has) or Bell pairs
    (a seeded pairing of the parties, each pair in the sum of |k, k> over
    the levels both have, and a lone last party in |0>)."""
    size, n = math.prod(dims), len(dims)
    if kind == "product":
        amps = np.ones(1)
        for d in dims:
            q = rng.normal(size=d) + 1j * rng.normal(size=d)
            amps = np.kron(amps, q / np.linalg.norm(q))
    elif kind == "ghz":
        amps = np.zeros(dims)
        for k in range(min(dims, default=1)):
            amps[(k,) * n] = 1
    elif kind == "bell":
        order = [int(x) for x in rng.permutation(n)]
        amps = np.ones(1)
        for j in range(0, n - 1, 2):
            pair = np.eye(dims[order[j]], dims[order[j + 1]])
            amps = np.kron(amps, pair.ravel())
        if n % 2:
            amps = np.kron(amps, np.eye(dims[order[-1]])[0])
        amps = amps.reshape([dims[i] for i in order]).transpose(np.argsort(order))
    else:
        amps = rng.normal(size=size) + (1j * rng.normal(size=size) if kind == "complex" else 0)
    amps = np.ravel(amps) / np.linalg.norm(amps)
    return PureState(GroundSet(labels_for(n)), dims, tuple(amps.tolist()))


def test_shannon_equals_per_mask_oracle():
    rng = np.random.default_rng(20121019)
    shapes = [(2,) * n for n in range(8)] + MIXED_SIZES
    for sizes in shapes:
        for kind in ("dense", "sparse", "product"):
            dist = distribution_on(rng, sizes, kind)
            f, oracle = shannon_entropy_function(dist), shannon_entropy_function_loops(dist)
            assert f.values[0] == 0.0 and f.ground == oracle.ground
            assert np.allclose(f.values, oracle.values, rtol=0, atol=ORACLE_TOL), (sizes, kind)
    dist = JointDistribution(two_parties(), (2, 2), (0.5, 0, 0, 0.5))
    assert shannon_entropy_function(dist, base=math.e).values == pytest.approx(
        shannon_entropy_function_loops(dist, base=math.e).values, abs=ORACLE_TOL)


# alphabets around the low block's bound of 243 extended cells, first and last,
# and runs of alphabet-1 parties, which the block takes 7 at a time
BLOCK_SIZES = [(2, 300), (300, 2), (242,), (243,), (2, 80), (80, 2), (3, 3, 3, 3, 3, 2),
               (1,) * 9, (7, 1, 1, 1, 1, 1, 1, 1), (1, 2, 1, 1, 3, 1, 2)]


def test_shannon_equals_depth_first_and_per_mask_oracles():
    rng = np.random.default_rng(20121024)
    shapes = [(2,) * n for n in range(11)] + MIXED_SIZES + BLOCK_SIZES
    dists = [distribution_on(rng, sizes, kind)
             for sizes in shapes for kind in ("dense", "sparse", "product")]
    tiny = 5e-324  # the least subnormal, the only mass of party 3's second letter
    dists.append(JointDistribution(three_parties(), (2, 2, 2), (1.0, tiny, 0, 0, 0, 0, 0, 0)))
    for dist in dists:
        f = shannon_entropy_function(dist)
        assert f.values[0] == 0.0 and math.copysign(1.0, f.values[0]) == 1.0
        assert not any(v == 0 and math.copysign(1.0, v) < 0 for v in f.values)  # no -0.0
        for oracle in (shannon_entropy_function_dfs, shannon_entropy_function_loops):
            assert np.allclose(f.values, oracle(dist).values, rtol=0, atol=ORACLE_TOL), (
                dist.alphabet_sizes, oracle.__name__)
    assert f.values[4] > 0  # f({3}) is the subnormal mass's own entropy, not 0 or nan


@pytest.mark.parametrize("n", [12, 13])
def test_shannon_peak_memory_stays_near_the_depth_first_walk(n):
    # the product's row chunks keep each chunk no larger than the table
    dist = distribution_on(np.random.default_rng(20121025), (2,) * n, "dense")
    peaks = []
    for constructor in (shannon_entropy_function, shannon_entropy_function_dfs):
        tracemalloc.start()
        try:
            constructor(dist)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 3 * peaks[1], peaks


STATE_KINDS = ("complex", "real", "product", "ghz", "bell")


def test_von_neumann_equals_per_mask_oracle_and_is_complement_symmetric():
    rng = np.random.default_rng(20121020)
    shapes = [(2,) * n for n in range(13)] + MIXED_SIZES + [(2, 3, 4), (5, 1, 2)]
    for dims in shapes:
        for kind in STATE_KINDS:
            state = state_on(rng, dims, kind)
            f, oracle = von_neumann_entropy_function(state), von_neumann_entropy_function_loops(state)
            full = len(f.values) - 1
            assert f.values[0] == 0.0 and f.values[full] == 0.0
            assert all(f.values[m] == f.values[full ^ m] for m in range(full + 1)), dims
            assert not any(v == 0 and math.copysign(1.0, v) < 0 for v in f.values)  # no -0.0
            assert np.allclose(f.values, oracle.values, rtol=0, atol=ORACLE_TOL), (dims, kind)
    state = ghz_state()
    assert von_neumann_entropy_function(state, base=math.e).values == pytest.approx(
        von_neumann_entropy_function_loops(state, base=math.e).values, abs=ORACLE_TOL)


def test_reduced_spectrum_has_one_value_per_kept_basis_state():
    rng = np.random.default_rng(20121021)
    for dims in [(2, 2, 2), (3, 2, 1, 3)]:
        for kind in ("complex", "real"):  # a real state is solved in real arithmetic
            state = state_on(rng, dims, kind)
            for mask in range(1 << len(dims)):
                kept = math.prod(d for i, d in enumerate(dims) if mask >> i & 1)
                spectrum = reduced_spectrum(state, state.parties.members(mask))
                assert len(spectrum) == kept
                assert list(spectrum) == sorted(spectrum)
                assert sum(spectrum) == pytest.approx(1.0, abs=TOL)
                assert np.allclose(spectrum, complex_spectrum(complex_tensor(state), mask),
                                   rtol=0, atol=ORACLE_TOL), (dims, kind, mask)


def test_von_neumann_sums_spectra_in_batches(monkeypatch):
    # each spectrum's entropy is its own segment of the sum, so the batch
    # size cannot change a value; past 10 qubits a call sums several batches
    rng = np.random.default_rng(20121026)
    states = [state_on(rng, dims, kind) for dims, kind in
              [((2,) * 9, "complex"), ((2,) * 8, "real"), ((3, 2, 1, 3), "complex")]]
    whole = [von_neumann_entropy_function(state).values for state in states]
    for batch in (1, 100):
        monkeypatch.setattr(entropic, "SPECTRUM_BATCH", batch)
        assert [von_neumann_entropy_function(state).values for state in states] == whole


def test_one_eigensolve_per_complementary_pair_on_the_smaller_side(monkeypatch):
    sides = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        sides.append(a.shape[-1])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    rng = np.random.default_rng(20121022)
    for dims in [(), (2,), (3,), (2, 3), (3, 1, 2, 3, 2), (2,) * 10]:
        state = state_on(rng, dims)
        sides.clear()
        von_neumann_entropy_function(state)
        n, full = len(dims), (1 << len(dims)) - 1

        def dim(mask):
            return math.prod(d for i, d in enumerate(dims) if mask >> i & 1)

        expected = [min(dim(m), dim(full ^ m)) for m in range(1, full) if m < full ^ m]
        assert len(sides) == max(0, (1 << n >> 1) - 1)
        assert sorted(sides) == sorted(expected), dims
    assert max(sides) == 32  # ten qubits: never a side of more than five


def test_twelve_qubit_bell_pairs_snap_to_split_pair_counts():
    # six Bell pairs over a seeded pairing: S(A) is the number of pairs A splits
    n = 12
    order = [int(x) for x in np.random.default_rng(20121023).permutation(n)]
    pairs = [(order[2 * j], order[2 * j + 1]) for j in range(n // 2)]
    psi = np.zeros(1 << n)
    for choice in range(1 << len(pairs)):
        index = sum((1 << n - 1 - a) | (1 << n - 1 - b)  # party 1 is the slowest index
                    for j, (a, b) in enumerate(pairs) if choice >> j & 1)
        psi[index] = 1
    psi /= math.sqrt(1 << len(pairs))
    state = PureState(GroundSet(labels_for(n)), (2,) * n, tuple(psi))
    snapped = snap_to_rational(von_neumann_entropy_function(state), 1)
    assert snapped.values == tuple(
        Fraction(sum((m >> a & 1) != (m >> b & 1) for a, b in pairs)) for m in range(1 << n))


# -- one reader for float values, probabilities and amplitudes -------------------------

NOT_NUMBERS = [  # (value, the number float() or complex() would read it as)
    pytest.param(None, 0.0, id="None"),
    pytest.param(object(), 0.0, id="object"),
    pytest.param("x", 0.0, id="str"),
    pytest.param("0.5", 0.5, id="numeric-str"),
    pytest.param(True, 1.0, id="True"),
    pytest.param(False, 0.0, id="False"),
    pytest.param(np.True_, 1.0, id="bool_"),
]
NOT_REAL = NOT_NUMBERS + [pytest.param(0.5 + 0j, 0.5, id="complex")]
ONE = GroundSet(("1",))


@pytest.mark.parametrize("value,reads_as", NOT_REAL)
def test_approx_set_function_reads_only_real_numbers(value, reads_as):
    with pytest.raises(InvalidDistribution):
        ApproxSetFunction(ONE, (0.0, value))


@pytest.mark.parametrize("value,reads_as", NOT_REAL)
def test_distribution_reads_only_real_numbers(value, reads_as):
    # the other probability makes the total 1 if value were read as reads_as
    with pytest.raises(InvalidDistribution):
        JointDistribution(ONE, (2,), (value, 1.0 - reads_as))


@pytest.mark.parametrize("value,reads_as", NOT_NUMBERS)
def test_pure_state_reads_only_complex_numbers(value, reads_as):
    # the other amplitude makes the norm 1 if value were read as reads_as
    with pytest.raises(NotNormalized):
        PureState(ONE, (2,), (value, math.sqrt(1.0 - reads_as ** 2)))


def test_readers_accept_numbers_of_any_numeric_type():
    f = ApproxSetFunction(ONE, (0, Fraction(1, 2)))
    assert f.values == (0.0, 0.5) and all(type(v) is float for v in f.values)
    dist = JointDistribution(ONE, (2,), (np.float32(0.25), Fraction(3, 4)))
    assert dist.probs == (0.25, 0.75)
    state = PureState(ONE, (2,), (np.complex64(1), np.int64(0)))
    assert state.amplitudes == (1 + 0j, 0j) and all(type(a) is complex for a in state.amplitudes)


@pytest.mark.parametrize("tol", [0, -1, math.nan, "x", None, math.inf, True],
                         ids=["zero", "negative", "nan", "str", "None", "inf", "True"])
def test_tolerance_is_a_finite_positive_real_number(tol):
    # with tol = inf or True, snap_to_rational(f, 1) would snap 0.3 to 0
    with pytest.raises(InvalidDistribution, match="tol"):
        ApproxSetFunction(ONE, (0.0, 0.3), tol)


def test_readers_reject_numbers_beyond_the_float_range():
    with pytest.raises(InvalidDistribution, match="non-finite value"):
        ApproxSetFunction(ONE, (0.0, 10**400))
    with pytest.raises(InvalidDistribution, match="non-finite tol"):
        ApproxSetFunction(ONE, (0.0, 0.3), 10**400)
    with pytest.raises(InvalidDistribution, match="non-finite probability"):
        JointDistribution(ONE, (2,), (10**400, 0))
    with pytest.raises(NotNormalized, match="non-finite amplitude"):
        PureState(ONE, (2,), (10**400, 0))


def test_finite_numbers_whose_total_passes_the_float_range_are_rejected():
    # each number is finite, but 1e200 ** 2 and 1e308 + 1e308 are past the range
    with pytest.raises(InvalidDistribution, match=r"^total mass inf is not 1$"):
        JointDistribution(two_parties(), (2, 2), (1e308, 1e308, 0, 0))
    with pytest.raises(NotNormalized, match=r"^squared norm inf is not 1$"):
        PureState(ONE, (2,), (1e200, 0))
    with pytest.raises(NotNormalized, match=r"^squared norm inf is not 1$"):
        PureState(ONE, (2,), (1e154 + 1e154j, 0))


def test_snap_failure_names_first_value_and_worst_residual():
    f = ApproxSetFunction(two_parties(), (0.0, 0.1, 0.4, 1.0))
    with pytest.raises(SnapFailed) as info:
        snap_to_rational(f, 1)
    message = str(info.value)
    assert message.startswith("{1}: 0.1 is not within 1e-09 of a rational with denominator <= 1")
    assert message.endswith("worst residual 0.4 at {2}")
    assert "\n" not in message


@pytest.mark.parametrize("count", [0, 1, 3])
def test_approx_set_function_needs_one_value_per_subset(count):
    with pytest.raises(DimensionMismatch, match=f"expected 2 values, got {count}"):
        ApproxSetFunction(GroundSet(("1",)), (0.0,) * count)


def test_snap_message_obeys_the_digit_limit():
    f = ApproxSetFunction(GroundSet(("1",)), (0.0, 0.5))
    with pytest.raises(SnapFailed, match="^max_denominator <a value past the 4300-digit"):
        snap_to_rational(f, -10**4400)


BAD_BASES = [0, -2, 1, 1.0, math.nan, math.inf, -math.inf, True, np.True_, "2", None, 2j]


@pytest.mark.parametrize("base", BAD_BASES, ids=repr)
def test_entropy_base_is_a_finite_positive_real_other_than_one(base):
    dist = JointDistribution(two_parties(), (2, 2), (0.5, 0, 0, 0.5))
    for constructor, source in [(shannon_entropy_function, dist),
                                (von_neumann_entropy_function, bell_state())]:
        with pytest.raises(InvalidDistribution, match="base"):
            constructor(source, base=base)


def test_entropy_base_below_one_and_of_any_real_type():
    dist = JointDistribution(two_parties(), (2, 2), (0.5, 0, 0, 0.5))
    assert shannon_entropy_function(dist, base=Fraction(1, 2)).values == (0.0, -1.0, -1.0, -1.0)
    assert von_neumann_entropy_function(bell_state(), base=np.float32(4)).values == pytest.approx(
        (0, 0.5, 0.5, 0), abs=TOL)


@pytest.mark.parametrize("cap", [2.5, math.inf, math.nan, True, np.True_, "3", None, Fraction(2)],
                         ids=repr)
def test_snap_denominator_is_an_integer(cap):
    f = ApproxSetFunction(ONE, (0.0, 0.5))
    with pytest.raises(SnapFailed, match=r"^max_denominator .* is not an integer$"):
        snap_to_rational(f, cap)


def test_snap_denominator_of_any_integer_type():
    f = ApproxSetFunction(ONE, (0.0, 0.5))
    assert snap_to_rational(f, np.int64(2)).values == (Fraction(0), Fraction(1, 2))
    with pytest.raises(SnapFailed, match=r"^max_denominator 0 is not at least 1$"):
        snap_to_rational(f, np.int64(0))


def test_snap_finds_each_distinct_value_once(monkeypatch):
    calls = []
    limit = Fraction.limit_denominator

    def counted(self, *args):
        calls.append(self)
        return limit(self, *args)

    monkeypatch.setattr(Fraction, "limit_denominator", counted)
    f = ApproxSetFunction(two_parties(), (0.0, 0.5 + 1e-12, 0.5 + 1e-12, 1.0))
    assert snap_to_rational(f, 2).values == (0, Fraction(1, 2), Fraction(1, 2), 1)
    assert len(calls) == 3
