"""Encoding, heralded-loss recovery, and correction-table derivation."""

import numpy as np
import pytest

from lossguard import losscode
from lossguard.losscode import (
    ANCILLA_QUBITS,
    OUTCOMES,
    RECOVERY_GATES,
    CodeSpaceError,
    CorrectionTable,
    RecoveryError,
)
from lossguard.simcore import (
    DensityMatrix,
    PureState,
    apply_gate_dm,
    embed,
    fidelity,
    partial_trace,
    project,
    pure_from_density,
    random_state,
)

EXPECTED_TABLE = {"00": "I", "01": "X", "10": "Z", "11": "XZ"}


def ket(*terms: str, signs=None) -> np.ndarray:
    """Equal-weight superposition of basis kets, e.g. ket("0110", "1001")."""
    signs = signs or [1.0] * len(terms)
    vec = sum(
        s * PureState.basis(bits).amplitudes for s, bits in zip(signs, terms)
    )
    return vec / np.linalg.norm(vec)


def mixture(*pairs) -> np.ndarray:
    """Density matrix of a {(vector, weight)} ensemble."""
    dim = len(pairs[0][0])
    rho = np.zeros((dim, dim), dtype=complex)
    for vec, weight in pairs:
        rho += weight * np.outer(vec, vec.conj())
    return rho


# ---------------------------------------------------------------------------
# encoding


def test_codeword_truth_table():
    expected = {
        "00": ket("0000", "1111"),
        "01": ket("0110", "1001"),
        "10": ket("1010", "0101"),
        "11": ket("1100", "0011"),
    }
    for bits, target in expected.items():
        encoded = losscode.encode(PureState.basis(bits))
        assert np.allclose(encoded.amplitudes, target, atol=1e-12), bits


def test_encode_is_linear_on_superpositions():
    rng = np.random.default_rng(31)
    logical = random_state(2, rng)
    encoded = losscode.encode(logical)
    stacked = sum(
        logical.amplitudes[int(bits, 2)] * losscode.encode(PureState.basis(bits)).amplitudes
        for bits in ("00", "01", "10", "11")
    )
    assert np.allclose(encoded.amplitudes, stacked, atol=1e-12)


def test_decode_inverts_encode():
    rng = np.random.default_rng(7)
    for _ in range(20):
        logical = random_state(2, rng)
        round_trip = losscode.decode(losscode.encode(logical))
        assert fidelity(round_trip, logical) == pytest.approx(1.0, abs=1e-12)


def test_decode_rejects_states_outside_the_code():
    with pytest.raises(CodeSpaceError):
        losscode.decode(PureState.basis("0001"))
    assert not losscode.in_code_space(PureState.basis("0001"))
    assert losscode.in_code_space(losscode.encode(PureState.basis("10")))


def test_in_code_space_honours_tol():
    # a small admixture of |0001> leaks about 1e-8 of the weight
    amps = losscode.encode(PureState.basis("10")).amplitudes.copy()
    amps[int("0001", 2)] += 1e-4
    state = PureState(4, amps / np.linalg.norm(amps))
    assert losscode.in_code_space(state, tol=1e-6)
    assert not losscode.in_code_space(state)


def test_encode_requires_two_qubits():
    with pytest.raises(ValueError):
        losscode.encode(PureState.basis("0"))


# ---------------------------------------------------------------------------
# recovery walkthrough for one codeword, loss on the last rail


def test_recovery_walkthrough_states():
    codeword = losscode.encode(PureState.basis("01"))
    assert np.allclose(codeword.amplitudes, ket("0110", "1001"), atol=1e-12)

    after_loss = partial_trace(codeword.to_density_matrix(), 3)
    assert np.allclose(
        after_loss.matrix,
        mixture((ket("011"), 0.5), (ket("100"), 0.5)),
        atol=1e-12,
    )

    after_substitution = embed(after_loss, PureState.basis("0"), 3)
    assert np.allclose(
        after_substitution.matrix,
        mixture((ket("0110"), 0.5), (ket("1000"), 0.5)),
        atol=1e-12,
    )

    with_ancillas = embed(
        embed(after_substitution, PureState.basis("0"), 4), PureState.basis("0"), 5
    )
    assert np.allclose(
        with_ancillas.matrix,
        mixture((ket("011000"), 0.5), (ket("100000"), 0.5)),
        atol=1e-12,
    )

    after_hadamards = with_ancillas
    for gate in RECOVERY_GATES[:2]:
        after_hadamards = apply_gate_dm(after_hadamards, gate)
    spread = ket("011000", "011001", "011010", "011011")
    spread_b = ket("100000", "100001", "100010", "100011")
    assert np.allclose(
        after_hadamards.matrix, mixture((spread, 0.5), (spread_b, 0.5)), atol=1e-12
    )

    before_measurement = after_hadamards
    for gate in RECOVERY_GATES[2:]:
        before_measurement = apply_gate_dm(before_measurement, gate)
    # both ensemble members written out: data (+/-) pairs tagged by the ancillas
    branch_a = (
        PureState.basis("011000").amplitudes
        + PureState.basis("100100").amplitudes
        + PureState.basis("011010").amplitudes
        - PureState.basis("100110").amplitudes
    ) / 2.0
    branch_b = (
        PureState.basis("100001").amplitudes
        + PureState.basis("011101").amplitudes
        + PureState.basis("100011").amplitudes
        - PureState.basis("011111").amplitudes
    ) / 2.0
    assert np.allclose(
        before_measurement.matrix,
        mixture((branch_a, 0.5), (branch_b, 0.5)),
        atol=1e-12,
    )

    # each ancilla readout leaves the data rails in a known pure state
    projected = {
        "00": ket("0110", "1001"),
        "01": ket("1000", "0111"),
        "10": ket("0110", "1001", signs=[1, -1]),
        "11": ket("1000", "0111", signs=[1, -1]),
    }
    for outcome, expected in projected.items():
        record, post = project(before_measurement, ANCILLA_QUBITS, outcome)
        assert record.outcome_probability == pytest.approx(0.25, abs=1e-12)
        data = pure_from_density(partial_trace(partial_trace(post, 5), 4))
        overlap = abs(np.vdot(data.amplitudes, expected)) ** 2
        assert overlap == pytest.approx(1.0, abs=1e-12)


def test_last_rail_correction_table_entries():
    table = losscode.derive_correction_table(3)
    assert table.entries == EXPECTED_TABLE


def test_walkthrough_corrections_restore_the_codeword():
    codeword = losscode.encode(PureState.basis("01"))
    damaged = partial_trace(codeword.to_density_matrix(), 3)
    for outcome, word in EXPECTED_TABLE.items():
        branch = losscode.recover_forced(damaged, 3, outcome)
        assert branch.applied_correction == word
        assert fidelity(branch.corrected_state, codeword) == pytest.approx(
            1.0, abs=1e-12
        )


# ---------------------------------------------------------------------------
# the general property: any input, any rail, any readout


def test_every_position_derives_the_same_table():
    for position in range(4):
        assert losscode.derive_correction_table(position).entries == EXPECTED_TABLE


@pytest.mark.parametrize("position", range(4))
def test_recovery_round_trip_random_states(position):
    rng = np.random.default_rng(1000 + position)
    for _ in range(12):
        encoded = losscode.encode(random_state(2, rng))
        damaged = partial_trace(encoded.to_density_matrix(), position)
        probs = losscode.outcome_probabilities(damaged, position)
        assert np.allclose(probs, 0.25, atol=1e-12)
        for branch in losscode.recovery_branches(damaged, position):
            fid = fidelity(branch.corrected_state, encoded)
            assert fid >= 1.0 - 1e-10
            assert branch.measurement.outcome_probability == pytest.approx(
                0.25, abs=1e-12
            )


def test_branch_maps_match_density_matrix_reference():
    # reference: the recovery circuit run step by step on the six-qubit
    # density matrix, then the table's correction on the substituted rail
    rng = np.random.default_rng(4242)
    for _ in range(20):
        encoded = losscode.encode(random_state(2, rng))
        for position in range(4):
            damaged = partial_trace(encoded.to_density_matrix(), position)
            rho = embed(damaged, PureState.basis("0"), position)
            rho = embed(embed(rho, PureState.basis("0"), 4), PureState.basis("0"), 5)
            for gate in RECOVERY_GATES:
                rho = apply_gate_dm(rho, gate)
            maps = losscode.branch_maps(position)
            for m, outcome in enumerate(OUTCOMES):
                record, post = project(rho, ANCILLA_QUBITS, outcome)
                reference = losscode.apply_pauli_word(
                    pure_from_density(partial_trace(partial_trace(post, 5), 4)),
                    EXPECTED_TABLE[outcome],
                    position,
                )
                sigma = maps[m] @ damaged.matrix @ maps[m].conj().T
                prob = float(np.real(np.trace(sigma)))
                overlap = np.vdot(reference.amplitudes, sigma @ reference.amplitudes)
                assert prob == pytest.approx(record.outcome_probability, abs=1e-12)
                assert float(np.real(overlap)) / prob == pytest.approx(1.0, abs=1e-12)
                assert fidelity(reference, encoded) == pytest.approx(1.0, abs=1e-12)


def test_recover_samples_branches_reproducibly():
    encoded = losscode.encode(random_state(2, np.random.default_rng(5)))
    damaged = partial_trace(encoded.to_density_matrix(), 1)
    picks = {
        losscode.recover(damaged, 1, np.random.default_rng(s)).measurement.outcome_bits
        for s in range(40)
    }
    assert len(picks) == 4  # all four readouts occur
    again = losscode.recover(damaged, 1, np.random.default_rng(11))
    first = losscode.recover(damaged, 1, np.random.default_rng(11))
    assert again.measurement.outcome_bits == first.measurement.outcome_bits


def test_recover_checks_expected_state():
    encoded = losscode.encode(PureState.basis("00"))
    other = losscode.encode(PureState.basis("11"))
    damaged = partial_trace(encoded.to_density_matrix(), 0)
    with pytest.raises(RecoveryError):
        losscode.recover(damaged, 0, np.random.default_rng(0), expected=other)
    branch = losscode.recover(damaged, 0, np.random.default_rng(0), expected=encoded)
    assert fidelity(branch.corrected_state, encoded) >= 1.0 - 1e-10


def test_recover_forced_validates_arguments():
    encoded = losscode.encode(PureState.basis("00"))
    damaged = partial_trace(encoded.to_density_matrix(), 0)
    with pytest.raises(ValueError):
        losscode.recover_forced(damaged, 0, "02")
    with pytest.raises(ValueError):
        losscode.recover_forced(damaged, 5, "00")


def test_recovery_rejects_wrong_register_size():
    wrong = PureState.basis("00").to_density_matrix()
    with pytest.raises(ValueError):
        losscode.recovery_branches(wrong, 0)


# ---------------------------------------------------------------------------
# supporting pieces


def test_apply_pauli_word_order():
    # rightmost letter acts first: "XZ" maps |1> -> -|0>
    one = PureState.basis("1")
    out = losscode.apply_pauli_word(one, "XZ", 0)
    assert np.allclose(out.amplitudes, [-1.0, 0.0], atol=1e-12)
    out = losscode.apply_pauli_word(one, "I", 0)
    assert np.allclose(out.amplitudes, one.amplitudes, atol=1e-12)


def test_correction_table_validation():
    with pytest.raises(ValueError):
        CorrectionTable(0, {"00": "I"})
    with pytest.raises(ValueError):
        CorrectionTable(0, {"00": "I", "01": "Y", "10": "Z", "11": "XZ"})


def test_correction_table_records_schema():
    records = losscode.derive_correction_table(2).to_records()
    assert len(records) == 4
    assert records[1] == {"loss_position": 2, "outcome_bits": "01", "pauli_word": "X"}


def test_outcome_probabilities_uniform_even_for_mixed_logical_inputs():
    # a classical mixture of codewords still reads out flat
    a = losscode.encode(PureState.basis("00")).to_density_matrix().matrix
    b = losscode.encode(PureState.basis("11")).to_density_matrix().matrix
    rho = DensityMatrix(4, 0.5 * a + 0.5 * b)
    probs = losscode.outcome_probabilities(partial_trace(rho, 2), 2)
    assert np.allclose(probs, 0.25, atol=1e-12)
