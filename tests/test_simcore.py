"""State-vector and density-matrix plumbing, and the tests' density-matrix reference engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lossguard.simcore import (
    DensityMatrix,
    Gate,
    ImpossibleBranchError,
    MeasurementRecord,
    PureState,
    fidelity,
    partial_trace,
    random_state,
    run_circuit,
)
from reference import apply_gate, apply_gate_dm, embed, project, pure_from_density, tensor

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def test_basis_state_uses_first_qubit_as_msb():
    # |0110> on four qubits is computational index 6
    state = PureState.basis("0110")
    assert state.amplitudes[6] == 1.0
    assert np.count_nonzero(state.amplitudes) == 1


def test_basis_rejects_bad_strings():
    with pytest.raises(ValueError):
        PureState.basis("01a0")
    with pytest.raises(ValueError):
        PureState.basis("")


def test_purestate_requires_normalization():
    with pytest.raises(ValueError):
        PureState(1, np.array([1.0, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_purestate_rejects_non_finite_amplitudes(bad):
    with pytest.raises(ValueError):
        PureState(1, [bad, 0.0])
    with pytest.raises(ValueError):
        PureState(2, [0.5, 0.5, 0.5, bad])


def test_purestate_amplitudes_are_read_only():
    state = PureState.basis("0")
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


def test_register_size_capped():
    with pytest.raises(ValueError):
        PureState(9, np.zeros(512))


def test_hadamard_on_zero():
    out = apply_gate(PureState.basis("0"), Gate("H", (0,)))
    assert np.allclose(out.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_x_and_z_on_basis():
    one = apply_gate(PureState.basis("0"), Gate("X", (0,)))
    assert np.allclose(one.amplitudes, [0, 1])
    minus = apply_gate(one, Gate("Z", (0,)))
    assert np.allclose(minus.amplitudes, [0, -1])


def test_cnot_control_is_first_target():
    # control 0, target 1: |10> -> |11>, |01> untouched
    flipped = apply_gate(PureState.basis("10"), Gate("CNOT", (0, 1)))
    assert np.allclose(flipped.amplitudes, PureState.basis("11").amplitudes)
    idle = apply_gate(PureState.basis("01"), Gate("CNOT", (0, 1)))
    assert np.allclose(idle.amplitudes, PureState.basis("01").amplitudes)


def test_cz_phases_only_the_11_component():
    plus = apply_gate(PureState.basis("11"), Gate("CZ", (0, 1)))
    assert np.allclose(plus.amplitudes, -PureState.basis("11").amplitudes)
    for bits in ("00", "01", "10"):
        out = apply_gate(PureState.basis(bits), Gate("CZ", (0, 1)))
        assert np.allclose(out.amplitudes, PureState.basis(bits).amplitudes)


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("CNOT", (1, 1))
    with pytest.raises(ValueError):
        Gate("H", (0, 1))
    with pytest.raises(ValueError):
        Gate("SWAP", (0, 1))
    with pytest.raises(ValueError):
        apply_gate(PureState.basis("0"), Gate("X", (3,)))


# values that are not an index, though int() or a comparison would take each
NOT_AN_INDEX = [True, 1.0, 2.7, "1", -1]


@pytest.mark.parametrize("bad", NOT_AN_INDEX + [2.0], ids=repr)
def test_register_size_is_an_integer(bad):
    with pytest.raises(ValueError, match="register size"):
        PureState(bad, [1.0, 0.0])
    with pytest.raises(ValueError, match="register size"):
        DensityMatrix(bad, np.diag([1.0, 0.0]))
    with pytest.raises(ValueError, match="register size"):
        random_state(bad, np.random.default_rng(0))


@pytest.mark.parametrize("targets", [(bad,) for bad in NOT_AN_INDEX] + [(0, 2.9)], ids=repr)
def test_gate_targets_are_integers(targets):
    kind = "H" if len(targets) == 1 else "CNOT"
    with pytest.raises(ValueError, match="gate target"):
        Gate(kind, targets)


@pytest.mark.parametrize("bad", NOT_AN_INDEX + [1.5], ids=repr)
def test_partial_trace_qubit_is_an_integer(bad):
    rho = PureState.basis("00").to_density_matrix()
    with pytest.raises(ValueError, match="qubit"):
        partial_trace(rho, bad)


def test_numpy_integers_are_indices():
    two, one = np.int64(2), np.int64(1)
    state = PureState(two, [1.0, 0.0, 0.0, 0.0])
    assert DensityMatrix(two, np.diag([1.0, 0.0, 0.0, 0.0])).num_qubits == 2
    assert random_state(two, np.random.default_rng(0)).num_qubits == 2
    assert Gate("CNOT", (np.int64(0), one)) == Gate("CNOT", (0, 1))
    assert partial_trace(state.to_density_matrix(), one).num_qubits == 1


def _bit_rule(kind, targets, num_qubits, index):
    """The image of basis state `index` under the gate, from the bit rules alone."""
    masks = [1 << (num_qubits - 1 - t) for t in targets]
    image = np.zeros(1 << num_qubits, dtype=complex)
    if kind in ("CNOT", "CZ") and not index & masks[0]:
        image[index] = 1.0
    elif kind in ("X", "CNOT"):
        image[index ^ masks[-1]] = 1.0
    elif kind in ("Z", "CZ"):
        image[index] = -1.0 if index & masks[-1] else 1.0
    else:  # H
        image[index & ~masks[0]] = 1 / np.sqrt(2)
        image[index | masks[0]] = -1 / np.sqrt(2) if index & masks[0] else 1 / np.sqrt(2)
    return image


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
def test_every_gate_maps_basis_states_by_its_bit_rule(num_qubits):
    # every wire for H, X, Z and every ordered (control, target) pair for CNOT, CZ,
    # so control > target and non-adjacent wires are covered
    dim = 1 << num_qubits
    wires = range(num_qubits)
    gates = [Gate(kind, (q,)) for kind in ("H", "X", "Z") for q in wires]
    gates += [Gate(kind, (c, t)) for kind in ("CNOT", "CZ") for c in wires for t in wires if c != t]
    for gate in gates:
        images = run_circuit([gate], np.eye(dim))
        for index in range(dim):
            expected = _bit_rule(gate.kind, gate.targets, num_qubits, index)
            assert np.array_equal(images[index], expected), (gate, index)


@settings(max_examples=40, deadline=None)
@given(seeds, st.sampled_from(["H", "X", "Z", "CNOT", "CZ"]))
def test_every_gate_is_self_inverse(seed, kind):
    rng = np.random.default_rng(seed)
    state = random_state(3, rng)
    targets = (0,) if kind in ("H", "X", "Z") else (0, 2)
    gate = Gate(kind, targets)
    back = apply_gate(apply_gate(state, gate), gate)
    assert fidelity(back, state) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_gate_action_commutes_with_density_lift(seed):
    rng = np.random.default_rng(seed)
    state = random_state(2, rng)
    gate = Gate("CNOT", (1, 0))
    lifted = apply_gate_dm(state.to_density_matrix(), gate)
    direct = apply_gate(state, gate).to_density_matrix()
    assert np.allclose(lifted.matrix, direct.matrix, atol=1e-12)


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(1, np.array([[0.5, 1.0], [0.0, 0.5]]))  # not hermitian
    with pytest.raises(ValueError):
        DensityMatrix(1, np.eye(2))  # trace 2
    bad = np.array([[1.5, 0.0], [0.0, -0.5]])
    with pytest.raises(ValueError):
        DensityMatrix(1, bad)  # negative eigenvalue


@pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0)])
def test_density_matrix_rejects_nan_entries(entry):
    mat = np.eye(2, dtype=complex) / 2
    mat[entry] = np.nan
    with pytest.raises(ValueError):
        DensityMatrix(1, mat)


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_partial_trace_of_product_state(seed):
    rng = np.random.default_rng(seed)
    left = random_state(2, rng)
    right = random_state(1, rng)
    joint = tensor(left, right).to_density_matrix()
    reduced = partial_trace(joint, 2)
    assert np.allclose(reduced.matrix, left.to_density_matrix().matrix, atol=1e-12)
    # tracing an inner qubit keeps the outer order
    joint2 = tensor(tensor(right, left), right).to_density_matrix()
    mid = partial_trace(partial_trace(joint2, 3), 0)
    assert np.allclose(mid.matrix, left.to_density_matrix().matrix, atol=1e-12)


def test_partial_trace_range_checks():
    rho = PureState.basis("00").to_density_matrix()
    with pytest.raises(ValueError):
        partial_trace(rho, 2)
    single = PureState.basis("0").to_density_matrix()
    with pytest.raises(ValueError):
        partial_trace(single, 0)


@settings(max_examples=25, deadline=None)
@given(seeds, st.integers(min_value=0, max_value=3))
def test_embed_inverts_partial_trace(seed, position):
    rng = np.random.default_rng(seed)
    rest = random_state(3, rng)
    full = embed(rest.to_density_matrix(), PureState.basis("0"), position)
    assert full.num_qubits == 4
    back = partial_trace(full, position)
    assert np.allclose(back.matrix, rest.to_density_matrix().matrix, atol=1e-12)


def test_embed_position_semantics():
    psi = random_state(1, np.random.default_rng(5))
    at_front = embed(psi.to_density_matrix(), PureState.basis("0"), 0)
    expected = tensor(PureState.basis("0"), psi).to_density_matrix()
    assert np.allclose(at_front.matrix, expected.matrix, atol=1e-12)
    at_back = embed(psi.to_density_matrix(), PureState.basis("0"), 1)
    expected = tensor(psi, PureState.basis("0")).to_density_matrix()
    assert np.allclose(at_back.matrix, expected.matrix, atol=1e-12)


def test_project_renormalizes_and_records():
    bell = apply_gate(
        apply_gate(PureState.basis("00"), Gate("H", (0,))), Gate("CNOT", (0, 1))
    ).to_density_matrix()
    record, post = project(bell, (0,), "0")
    assert record.outcome_probability == pytest.approx(0.5, abs=1e-12)
    assert record.outcome_bits == (0,)
    assert np.allclose(
        post.matrix, PureState.basis("00").to_density_matrix().matrix, atol=1e-12
    )


def test_project_impossible_branch_raises():
    bell = apply_gate(
        apply_gate(PureState.basis("00"), Gate("H", (0,))), Gate("CNOT", (0, 1))
    ).to_density_matrix()
    with pytest.raises(ImpossibleBranchError):
        project(bell, (0, 1), "01")


@pytest.mark.parametrize(
    "qubits, bits",
    [((2.7, True), (0, 1)), ((1, 1), (0, 1)), ((0,), (True,)), ((0,), (1.0,))],
    ids=["non-integer-qubits", "repeated-qubit", "boolean-bit", "float-bit"],
)
def test_measurement_record_indices_and_bits_are_integers(qubits, bits):
    with pytest.raises(ValueError):
        MeasurementRecord(qubits, bits, 0.5)


def test_measurement_record_stores_numpy_integers_as_ints():
    record = MeasurementRecord((np.int64(4), np.int32(5)), (np.int64(1), 0), 0.25)
    assert record.qubit_indices == (4, 5) and record.outcome_bits == (1, 0)
    assert all(type(v) is int for v in record.qubit_indices + record.outcome_bits)


def test_measurement_record_validation():
    with pytest.raises(ValueError):
        MeasurementRecord((0, 1), (0,), 0.5)
    with pytest.raises(ValueError):
        MeasurementRecord((0,), (2,), 0.5)
    with pytest.raises(ValueError):
        MeasurementRecord((0,), (0,), 1.5)


def test_fidelity_ignores_global_phase():
    psi = random_state(2, np.random.default_rng(2))
    rotated = PureState(2, np.exp(0.7j) * psi.amplitudes)
    assert fidelity(psi, rotated) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        fidelity(psi, PureState.basis("0"))


def test_tensor_concatenates_bit_strings():
    joint = tensor(PureState.basis("01"), PureState.basis("1"))
    assert np.allclose(joint.amplitudes, PureState.basis("011").amplitudes)


@settings(max_examples=25, deadline=None)
@given(seeds, st.integers(min_value=1, max_value=4))
def test_random_state_is_normalized(seed, n):
    state = random_state(n, np.random.default_rng(seed))
    assert np.sum(np.abs(state.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_pure_from_density_round_trip(seed):
    psi = random_state(3, np.random.default_rng(seed))
    recovered = pure_from_density(psi.to_density_matrix())
    assert fidelity(recovered, psi) == pytest.approx(1.0, abs=1e-12)


def test_pure_from_density_rejects_mixed_states():
    mixed = DensityMatrix(1, np.eye(2) / 2)
    with pytest.raises(ValueError):
        pure_from_density(mixed)
