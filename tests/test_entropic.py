"""Entropy constructors: Shannon marginals, von Neumann reductions, snapping."""

import math
from fractions import Fraction

import numpy as np
import pytest

from quantoid.entropic import (
    ApproxSetFunction,
    JointDistribution,
    PureState,
    is_approx_polymatroid,
    is_approx_polyquantoid,
    reduced_spectrum,
    shannon_entropy_function,
    snap_to_rational,
    von_neumann_entropy_function,
)
from quantoid.errors import (
    DimensionMismatch,
    InvalidDistribution,
    NotNormalized,
    SnapFailed,
)
from quantoid.setfn import GroundSet

from helpers import bell, ghz3

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
