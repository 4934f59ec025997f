"""Encoding, heralded-loss recovery, and correction-table derivation."""

import math
import re
import warnings

import numpy as np
import pytest

from lossguard import losscode
from lossguard.losscode import (
    ANCILLA_QUBITS,
    OUTCOMES,
    RECOVERY_GATES,
    RECOVERY_TOL,
    CodeSpaceError,
    CorrectionTable,
    RecoveryError,
)
from lossguard.simcore import (
    DensityMatrix,
    Gate,
    ImpossibleBranchError,
    PureState,
    fidelity,
    partial_trace,
    random_state,
    run_circuit,
)
from reference import (
    apply_gate,
    apply_gate_dm,
    apply_pauli_word,
    embed,
    project,
    pure_from_density,
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


def readout_probabilities(damaged: DensityMatrix, position: int) -> np.ndarray:
    """P(m) = tr(A_m rho A_m^dagger) over the compiled maps of one loss position."""
    maps = losscode.branch_maps(position)
    return np.array([np.trace(a @ damaged.matrix @ a.conj().T).real for a in maps])


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


def test_decode_rejects_nan_amplitudes():
    with pytest.raises(CodeSpaceError):
        losscode.decode_amplitudes(np.full((1, 16), np.nan))


def test_decode_rejects_a_zero_row():
    # it leaks nothing, but there is no logical state to normalize
    with pytest.raises(CodeSpaceError):
        losscode.decode_amplitudes(np.zeros((1, 16), complex))


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


@pytest.mark.parametrize("bad", [True, 1.0, 2.7, "1", -1, 4], ids=repr)
def test_loss_position_is_an_integer_even_once_cached(bad):
    damaged = partial_trace(losscode.codewords()[1].state.to_density_matrix(), 1)
    losscode.derive_correction_table(1)
    losscode.branch_maps(1)
    with pytest.raises(ValueError):
        losscode.derive_correction_table(bad)
    with pytest.raises(ValueError):
        losscode.branch_maps(bad)
    with pytest.raises(ValueError):
        losscode.recover_forced(damaged, bad, "01")
    # the cache is keyed on the checked Python int: with positions 0..3 warm,
    # a numpy position takes no entry of its own and evicts nothing
    for position in range(4):
        losscode.derive_correction_table(position)
        losscode.branch_maps(position)
    before = losscode._compile.cache_info()
    one = np.int64(1)
    assert losscode.derive_correction_table(one).entries == EXPECTED_TABLE
    assert np.array_equal(losscode.branch_maps(one), losscode.branch_maps(1))
    branch = losscode.recover_forced(damaged, one, "01")
    assert fidelity(branch.corrected_state, losscode.codewords()[1].state) == pytest.approx(1.0)
    losscode.derive_correction_table(0)
    losscode.branch_maps(0)
    after = losscode._compile.cache_info()
    assert after.misses == before.misses and after.hits > before.hits and after.currsize == 4


@pytest.mark.parametrize("bad", [True, 1.0, 2.7, "1", -1, 4, 99], ids=repr)
def test_correction_table_position_is_a_data_qubit(bad):
    with pytest.raises(ValueError, match="loss position"):
        CorrectionTable(bad, EXPECTED_TABLE)
    assert CorrectionTable(np.int64(1), EXPECTED_TABLE).loss_position == 1


def test_branch_maps_reuse_the_maps_that_table_derivation_built():
    # the first recovery after set-up only multiplies cached maps, so its time
    # matches a warm one
    losscode.all_correction_tables()
    before = losscode._compile.cache_info()
    for position in range(4):
        assert np.array_equal(losscode._compile.__wrapped__(position)[1], losscode.branch_maps(position))
    after = losscode._compile.cache_info()
    assert (after.hits, after.misses) == (before.hits + 4, before.misses)


def test_table_derivation_builds_no_density_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("table derivation built a DensityMatrix or drew random numbers")

    monkeypatch.setattr(DensityMatrix, "__post_init__", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    for position in range(4):
        table, _ = losscode._compile.__wrapped__(position)
        assert table.entries == EXPECTED_TABLE


@pytest.mark.parametrize("position", range(4))
def test_restores_refuses_a_map_that_flips_one_codeword(position):
    # the corrected maps send each code block back to itself; composing one
    # with I - 2 c3 c3^dagger flips the sign of the last codeword only, which
    # every codeword on its own survives up to a phase, but superpositions do not
    c3 = losscode.codewords()[3].state.amplitudes
    flip = np.eye(16) - 2.0 * np.outer(c3, c3.conj())
    for corrected in losscode.branch_maps(position):
        assert losscode._restores(corrected, position)
        assert not losscode._restores(flip @ corrected, position)
        assert not losscode._restores(np.zeros_like(corrected), position)


@pytest.mark.parametrize("position", range(4))
def test_recovery_round_trip_random_states(position):
    rng = np.random.default_rng(1000 + position)
    for _ in range(12):
        encoded = losscode.encode(random_state(2, rng))
        damaged = partial_trace(encoded.to_density_matrix(), position)
        assert np.allclose(readout_probabilities(damaged, position), 0.25, atol=1e-12)
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
                reference = apply_pauli_word(
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


def test_recovery_api_refuses_an_impossible_readout():
    # |000> lost at rail 0: readouts 01 and 11 have probability 0, and their kept image is 0/0
    damaged = PureState.basis("000").to_density_matrix()
    for refused in (lambda: losscode.recover_forced(damaged, 0, "01"),
                    lambda: losscode.recovery_branches(damaged, 0)):
        with pytest.raises(ImpossibleBranchError, match=re.escape("readout has probability 0.0") + "$"):
            refused()
    assert losscode.recover_forced(damaged, 0, "00").measurement.outcome_probability == 0.49999999999999967


def test_recovery_rejects_wrong_register_size():
    wrong = PureState.basis("00").to_density_matrix()
    with pytest.raises(ValueError):
        losscode.recovery_branches(wrong, 0)


# ---------------------------------------------------------------------------
# the recovery kernel: recovery_images, corrected_block, draw_readout


def test_draw_readout_picks_the_interval_of_the_uniform():
    for u in (0.0, 0.1, 0.3, 0.49, 0.6, 0.8, 0.99):
        assert losscode.draw_readout([0.25] * 4, u) == math.floor(4 * u)
    # a uniform exactly on a bound belongs to the interval on its right
    for m, u in enumerate((0.25, 0.5, 0.75), start=1):
        assert losscode.draw_readout([0.25] * 4, u) == m


def test_draw_readout_reads_the_last_bound_as_one():
    # the normalized cumulative sum of these ends at 1 - 2**-53, the largest
    # uniform there is; the last readout must still take it
    probs, top = [0.1, 0.1, 0.6], math.nextafter(1.0, 0.0)
    assert sum(p / sum(probs) for p in probs) == top
    assert losscode.draw_readout(probs, top) == 2


@pytest.mark.parametrize("probs", [[0, 0.5, 0.5, 0], [0.5, 0, 0, 0.5], [0, 0, 1.0, 0]])
def test_draw_readout_never_draws_a_zero_weight_readout(probs):
    uniforms = [0.0, 0.25, 0.5, 0.75, 1.0 - 1e-12, math.nextafter(1.0, 0.0)]
    drawn = {losscode.draw_readout(probs, u) for u in uniforms}
    assert all(probs[m] > 0 for m in drawn)


@pytest.mark.parametrize("position", range(4))
def test_recovery_images_weights_are_the_squared_column_norms(position):
    rng = np.random.default_rng(70 + position)
    columns = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
    images, weights = losscode.recovery_images(columns, position)
    maps = losscode.branch_maps(position)
    for m in range(len(OUTCOMES)):
        for j in range(columns.shape[1]):
            image = maps[m] @ columns[:, j]
            assert np.allclose(images[m][:, j], image, rtol=0.0, atol=1e-14)
            assert weights[m][j] == pytest.approx(np.linalg.norm(image) ** 2, rel=1e-12)
    # a code block loses nothing: the four readouts share all of its weight
    encoded = losscode.encode(random_state(2, rng))
    _, weights = losscode.recovery_images(encoded.amplitudes[losscode.SPLITS[position]], position)
    assert sum(map(sum, weights)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("position", range(4))
def test_recovery_images_is_bit_equal_to_the_per_readout_products(position):
    # every map row has at most one nonzero entry, so each image entry is one rounded
    # product plus exact zeros, whatever order a product sums in
    maps = losscode.branch_maps(position)
    assert np.all(np.count_nonzero(maps, axis=-1) <= 1)
    rng = np.random.default_rng(90 + position)
    # one block's split columns, verify's stack of blocks, and _recover's square factor
    for shape in [(8, 2), (1024, 8, 2), (8, 8)]:
        columns = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        images, _ = losscode.recovery_images(columns, position)
        assert images.shape == shape[:-2] + (4, 16, shape[-1])
        for m in range(len(OUTCOMES)):
            assert np.array_equal(images[..., m, :, :], maps[m] @ columns)


def test_corrected_block_keeps_the_normalized_image_of_parallel_columns():
    v = ket("0000", "1111")
    images = np.outer(3.0 * v, [0.6, 0.8])
    weights = [float(np.linalg.norm(images[:, j]) ** 2) for j in range(2)]
    assert np.allclose(losscode.corrected_block(images, weights), v, rtol=0.0, atol=1e-15)


def test_corrected_block_refuses_a_mixed_image():
    images = np.eye(16)[:, :2].astype(complex)
    with pytest.raises(RecoveryError):
        losscode.corrected_block(images, [1.0, 1.0])


def test_corrected_block_refuses_nan():
    nan = float("nan")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for weight in (nan, 0.0):
            with pytest.raises(ImpossibleBranchError):
                losscode.corrected_block(np.full((16, 2), weight + 0j), [weight, weight])
    # finite weights, but the column that is not kept is NaN
    images = np.stack([ket("0000", "1111"), np.full(16, nan)], axis=1)
    with pytest.raises(RecoveryError):
        losscode.corrected_block(images, [0.9, 0.1])


def test_stacked_kernel_is_bit_equal_to_the_per_block_path():
    rng = np.random.default_rng(2021)
    encoded = np.stack([losscode.encode(random_state(2, rng)).amplitudes for _ in range(200)])
    for position in range(4):
        maps = losscode.branch_maps(position)
        images, weights = losscode.recovery_images(encoded[:, losscode.SPLITS[position]], position)
        kept, mixed = losscode.corrected_blocks(images, weights)
        assert images.shape == (200, 4, 16, 2) and weights.shape == (200, 4, 2)
        assert np.all(mixed <= RECOVERY_TOL)
        for i, block in enumerate(encoded):
            one_images, one_weights = losscode.recovery_images(block[losscode.SPLITS[position]], position)
            assert np.array_equal(images[i], one_images) and np.array_equal(weights[i], one_weights)
            for m in range(len(OUTCOMES)):
                image = maps[m] @ block[losscode.SPLITS[position]]
                assert np.array_equal(images[i, m], image)
                assert np.array_equal(weights[i, m], (image * image.conj()).real.sum(axis=0))
                expected = losscode.corrected_block(image, weights[i, m].tolist())
                assert np.array_equal(kept[i, m], expected)


def test_both_kernels_flag_a_mixed_stack_alike():
    v, u = ket("0000", "1111"), ket("0110", "1001")
    # the second column leans off the first by a growing angle; the first is pure
    images = np.stack([np.stack([0.8 * v, 0.3 * (math.cos(t) * v + math.sin(t) * u)], axis=1)
                       for t in (0.0, 0.2, 0.7, 1.3)])
    weights = (images * images.conj()).real.sum(axis=-2)
    kept, mixed = losscode.corrected_blocks(images, weights)
    assert mixed[0] <= RECOVERY_TOL
    assert np.array_equal(kept[0], losscode.corrected_block(images[0], weights[0].tolist()))
    for block, block_weights, fraction in zip(images[1:], weights[1:], mixed[1:]):
        assert not fraction <= RECOVERY_TOL
        with pytest.raises(RecoveryError, match=re.escape(f"mixed weight {fraction:.3g}") + "$"):
            losscode.corrected_block(block, block_weights.tolist())


def test_stacked_kernel_keeps_the_first_of_equal_images_and_fails_nan_quietly():
    v = ket("1010", "0101")
    images = np.stack([v, 1j * v], axis=1)[None]
    kept, mixed = losscode.corrected_blocks(images, np.array([[1.0, 1.0]]))
    assert np.array_equal(kept[0], v) and mixed[0] <= RECOVERY_TOL
    nan = float("nan")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, mixed = losscode.corrected_blocks(
            np.stack([images[0], np.full((16, 2), nan + 0j), np.zeros((16, 2), complex)]),
            np.array([[1.0, 1.0], [nan, nan], [0.0, 0.0]]))
    assert np.isnan(mixed[1:]).all() and mixed[0] <= RECOVERY_TOL


# ---------------------------------------------------------------------------
# supporting pieces


@pytest.mark.parametrize(
    "gates, num_qubits",
    [(losscode.ENCODING_GATES, 4), (RECOVERY_GATES, 6), ((Gate("Z", (2,)), Gate("X", (2,))), 4)],
    ids=["encoding", "recovery", "pauli-XZ"],
)
def test_run_circuit_is_bit_equal_to_gate_by_gate(gates, num_qubits):
    # one matvec per row per gate: a stacked matmul leaves ~1e-19 where these give 0
    rows = run_circuit(gates, np.eye(1 << num_qubits))
    for i, row in enumerate(rows):
        state = PureState.basis(format(i, f"0{num_qubits}b"))
        for gate in gates:
            state = apply_gate(state, gate)
        assert np.array_equal(row, state.amplitudes)


def test_apply_pauli_word_order():
    # rightmost letter acts first: "XZ" maps |1> -> -|0>
    one = PureState.basis("1")
    out = apply_pauli_word(one, "XZ", 0)
    assert np.allclose(out.amplitudes, [-1.0, 0.0], atol=1e-12)
    out = apply_pauli_word(one, "I", 0)
    assert np.allclose(out.amplitudes, one.amplitudes, atol=1e-12)


def test_correction_table_validation():
    with pytest.raises(ValueError):
        CorrectionTable(0, {"00": "I"})
    with pytest.raises(ValueError):
        CorrectionTable(0, {"00": "I", "01": "Y", "10": "Z", "11": "XZ"})


def test_correction_table_entries_are_read_only():
    # derive_correction_table hands every caller the one cached table
    with pytest.raises(TypeError):
        losscode.derive_correction_table(0).entries["00"] = "X"
    assert losscode.derive_correction_table(0).entries == EXPECTED_TABLE
    words = dict(EXPECTED_TABLE)
    table = CorrectionTable(0, words)
    words["00"] = "X"
    assert table.entries == EXPECTED_TABLE


def test_correction_table_records_schema():
    records = losscode.derive_correction_table(2).to_records()
    assert len(records) == 4
    assert records[1] == {"loss_position": 2, "outcome_bits": "01", "pauli_word": "X"}


def test_outcome_probabilities_uniform_even_for_mixed_logical_inputs():
    # a classical mixture of codewords still reads out flat, but no readout
    # leaves a pure block, so recovery refuses it
    a = losscode.encode(PureState.basis("00")).to_density_matrix().matrix
    b = losscode.encode(PureState.basis("11")).to_density_matrix().matrix
    damaged = partial_trace(DensityMatrix(4, 0.5 * a + 0.5 * b), 2)
    assert np.linalg.matrix_rank(damaged.matrix, tol=1e-10) == 4
    assert np.allclose(readout_probabilities(damaged, 2), 0.25, atol=1e-12)
    with pytest.raises(RecoveryError):
        losscode.recovery_branches(damaged, 2)
    for outcome in OUTCOMES:
        with pytest.raises(RecoveryError):
            losscode.recover_forced(damaged, 2, outcome)
