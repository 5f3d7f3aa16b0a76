"""Construction and validation of the bundled cavity models."""

import numpy as np
import pytest

from qsdecert import (
    InvalidDimensionError,
    InvalidParameterError,
    SlhModel,
    UnsupportedModelError,
    atom_cavity,
    kerr_cavity,
    kerr_family,
    model_from_json,
    model_to_json,
    truncate,
)

from qsdecert.models import SELF_ADJOINT_TOL, UNITARY_TOL

LAM, DELTA, CHI = 25.0, 50.0, -50.0 / 60.0


def test_kerr_hamiltonian_diagonal():
    m = kerr_cavity(LAM, DELTA, CHI, 2)
    np.testing.assert_allclose(
        np.diag(m.H).real, [0.0, 50.0, 98.33333333333333], atol=1e-12
    )
    assert np.all(m.H == np.diag(np.diag(m.H)))


def test_kerr_coupling_is_scaled_annihilation():
    m = kerr_cavity(LAM, DELTA, CHI, 3)
    expected = np.zeros((4, 4), dtype=complex)
    for n in range(1, 4):
        expected[n - 1, n] = np.sqrt(LAM) * np.sqrt(n)
    np.testing.assert_allclose(m.L[0], expected, atol=1e-12)
    assert m.m == 1
    assert m.scattering_is_identity()
    assert m.params["family"] == "kerr"
    assert m.params["k"] == 3


def test_kerr_validation():
    with pytest.raises(InvalidParameterError):
        kerr_cavity(0.0, DELTA, CHI, 3)
    with pytest.raises(InvalidParameterError):
        kerr_cavity(LAM, DELTA, CHI, 0)


def test_atom_cavity_structure():
    lam, chi, k = 4.0, 1.5, 2
    m = atom_cavity(lam, chi, k)
    assert m.dim == 3 * (k + 1)
    assert m.factor_dims == (3, k + 1)
    # H = i chi (|e><+| x a - |+><e| x a*); atomic order is (e, +, -)
    df = k + 1
    expected = np.zeros((m.dim, m.dim), dtype=complex)
    for n in range(1, df):
        expected[n - 1, df + n] = 1j * chi * np.sqrt(n)
        expected[df + n, n - 1] = -1j * chi * np.sqrt(n)
    np.testing.assert_allclose(m.H, expected, atol=1e-12)
    np.testing.assert_allclose(m.H, m.H.conj().T, atol=1e-14)
    with pytest.raises(InvalidParameterError):
        atom_cavity(-1.0, chi, k)
    with pytest.raises(InvalidParameterError):
        atom_cavity(lam, chi, 0)


def test_slh_model_validation():
    eye = np.eye(2)
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    # non-self-adjoint Hamiltonian
    with pytest.raises(InvalidParameterError):
        SlhModel("bad", ((eye,),), (a,), a)
    # non-unitary scattering
    with pytest.raises(InvalidParameterError):
        SlhModel("bad", ((2.0 * eye,),), (a,), np.zeros((2, 2)))
    # coupling operator shape mismatch
    with pytest.raises(InvalidDimensionError):
        SlhModel("bad", ((eye,),), (np.zeros((3, 3)),), np.zeros((2, 2)))
    # declared factor dimensions must multiply out to dim
    with pytest.raises(InvalidDimensionError):
        SlhModel("bad", ((eye,),), (a,), np.zeros((2, 2)), factor_dims=(3, 2))
    # non-square Hamiltonian
    with pytest.raises(InvalidDimensionError):
        SlhModel("bad", ((eye,),), (a,), np.zeros((2, 3)))
    # non-finite entries in any operator
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidParameterError):
            SlhModel("bad", ((eye,),), (a,), np.diag([0.0, bad]))
        with pytest.raises(InvalidParameterError):
            SlhModel("bad", ((eye,),), (np.array([[0.0, bad], [0.0, 0.0]]),),
                     np.zeros((2, 2)))
        with pytest.raises(InvalidParameterError):
            SlhModel("bad", ((np.diag([1.0, bad]),),), (a,), np.zeros((2, 2)))


@pytest.mark.parametrize("S, L, H, error", [
    ([[np.eye(1)]], [np.eye(1)], 1.0, InvalidDimensionError),
    ([], [np.eye(2)], np.eye(2), InvalidDimensionError),
    ([[np.eye(2), np.eye(2)]], [np.eye(2)], np.eye(2), InvalidDimensionError),
    ([[np.eye(2)]], [np.eye(2)], [["a", "b"], ["c", "d"]], InvalidParameterError),
], ids=["scalar-H", "empty-S", "two-block-S-row", "string-H"])
def test_slh_model_blocks_follow_the_operator_rule(S, L, H, error):
    # errors.as_operators: these raised IndexError, a builtin ValueError, or
    # (the two-block row) built a model that ignored the second block.
    with pytest.raises(error):
        SlhModel("bad", S, L, H)


@pytest.mark.parametrize("scale, passes", [(0.5, True), (2.0, False)])
def test_validation_tolerance_boundaries(scale, passes):
    eye = np.eye(2)
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    # H - H^dag = 2c [[0, 1], [-1, 0]] has norm 2c = scale * tol, and ||H|| < 1.
    c = 0.5 * scale * SELF_ADJOINT_TOL
    H = 0.5 * eye + c * np.array([[0.0, 1.0], [-1.0, 0.0]])
    # S S^dag - I = ((1 + e)^2 - 1) I has norm about 2e = scale * tol.
    S = (1.0 + 0.5 * scale * UNITARY_TOL) * eye
    for args in (((eye,),), (a,), H), (((S,),), (a,), 0.5 * eye):
        if passes:
            SlhModel("near", *args)
        else:
            with pytest.raises(InvalidParameterError):
                SlhModel("near", *args)


def test_truncate_matches_direct_construction():
    big = kerr_cavity(LAM, DELTA, CHI, 5)
    cut = truncate(big, 2)
    ref = kerr_cavity(LAM, DELTA, CHI, 2)
    np.testing.assert_array_equal(cut.H, ref.H)
    np.testing.assert_array_equal(cut.L[0], ref.L[0])
    assert cut.params["k"] == 2
    assert cut.label.endswith("|truncated(k=2)")


def test_truncate_validation():
    big = kerr_cavity(LAM, DELTA, CHI, 5)
    with pytest.raises(InvalidParameterError):
        truncate(big, 0)
    with pytest.raises(InvalidParameterError):
        truncate(big, 5)  # must be strictly smaller
    # non-identity scattering has no canonical compression here
    flip = SlhModel(
        "flip",
        ((-np.eye(3),),),
        (np.zeros((3, 3)),),
        np.zeros((3, 3)),
    )
    with pytest.raises(UnsupportedModelError):
        truncate(flip, 2)


def test_families_cache_instances():
    fam = kerr_family(LAM, DELTA, CHI)
    assert fam(3) is fam(3)
    assert fam(3).params["k"] == 3


def test_model_json_round_trip():
    m = atom_cavity(4.0, 1.5, 2)
    data = model_to_json(m)
    back = model_from_json(data)
    assert back.label == m.label
    assert back.factor_dims == m.factor_dims
    assert back.params == m.params
    np.testing.assert_array_equal(back.H, m.H)
    for lj, lk in zip(back.L, m.L):
        np.testing.assert_array_equal(lj, lk)
    np.testing.assert_array_equal(back.S[0][0], m.S[0][0])


def test_model_json_rejects_nonfinite_entries():
    for key in ("H", "L"):
        data = model_to_json(kerr_cavity(LAM, DELTA, CHI, 2))
        target = data["H"] if key == "H" else data["L"][0]
        target[0][1][1] = float("nan")
        with pytest.raises(InvalidParameterError):
            model_from_json(data)


def test_model_json_rejects_corrupt_dim():
    data = model_to_json(kerr_cavity(LAM, DELTA, CHI, 2))
    data["dim"] = 7
    with pytest.raises(InvalidDimensionError):
        model_from_json(data)


def test_model_json_rejects_missing_keys_and_bad_entries():
    good = model_to_json(kerr_cavity(LAM, DELTA, CHI, 2))
    for key in ("m", "S", "L", "H", "dim"):
        data = {k: v for k, v in good.items() if k != key}
        with pytest.raises(InvalidParameterError, match=key):
            model_from_json(data)
    for entry in ([0.0], [0.0, 1.0, 2.0], 0.5, [None, 0.0]):
        data = model_to_json(kerr_cavity(LAM, DELTA, CHI, 2))
        data["H"][1][0] = entry
        with pytest.raises(InvalidParameterError):
            model_from_json(data)
    data = model_to_json(kerr_cavity(LAM, DELTA, CHI, 2))
    data["m"] = 2  # S has one row of blocks
    with pytest.raises(InvalidParameterError):
        model_from_json(data)
    data = model_to_json(kerr_cavity(LAM, DELTA, CHI, 2))
    data["L"] = data["L"] * 2  # two coupling operators for one channel
    with pytest.raises(InvalidParameterError, match="channels"):
        model_from_json(data)
