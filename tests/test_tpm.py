import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from neurokey.tpm import (
    BitKey,
    KeyMaterialError,
    Tpm,
    TpmParams,
    bits_to_weights,
    evaluate,
    hebbian_step,
    random_input,
    weight_overlap,
    weights_to_bits,
)


def shapes(max_k=4, max_n=6, max_l=4):
    return st.builds(
        TpmParams,
        K=st.integers(1, max_k),
        N=st.integers(1, max_n),
        L=st.integers(1, max_l),
    )


def machine_and_inputs(n_inputs):
    def build(params, seed):
        rng = np.random.default_rng(seed)
        tpm = Tpm.random(params, rng)
        xs = [random_input(params, rng) for _ in range(n_inputs)]
        return tpm, xs

    return st.builds(build, shapes(), st.integers(0, 2**32 - 1))


class TestParams:
    def test_rejects_nonpositive(self):
        for bad in ({"K": 0}, {"N": 0}, {"L": 0}, {"K": -3}):
            kwargs = {"K": 2, "N": 3, "L": 2, **bad}
            with pytest.raises(ValueError):
                TpmParams(**kwargs)

    def test_alphabet_and_chunk_width(self):
        assert TpmParams(1, 1, 2).alphabet_size == 5
        assert TpmParams(1, 1, 2).bits_per_weight == 3
        assert TpmParams(1, 1, 1).bits_per_weight == 2
        assert TpmParams(10, 25, 2).key_bits == 750


class TestEvaluate:
    def test_zero_weights_sign_of_zero_is_minus_one(self):
        params = TpmParams(K=2, N=3, L=1)
        tpm = Tpm(params, np.zeros((2, 3), dtype=int))
        x = np.ones((2, 3), dtype=int)
        result = evaluate(tpm, x)
        assert result.sigma.tolist() == [-1, -1]
        assert result.tau == 1

    def test_hand_computed_example(self):
        params = TpmParams(K=2, N=2, L=2)
        tpm = Tpm(params, [[2, -1], [1, 1]])
        result = evaluate(tpm, [[1, 1], [-1, 1]])
        assert result.sigma.tolist() == [1, -1]
        assert result.tau == -1

    def test_all_positive(self):
        params = TpmParams(K=3, N=3, L=1)
        result = evaluate(Tpm(params, np.ones((3, 3), dtype=int)), np.ones((3, 3), dtype=int))
        assert result.sigma.tolist() == [1, 1, 1]
        assert result.tau == 1

    def test_shape_mismatch(self):
        params = TpmParams(K=2, N=2, L=1)
        tpm = Tpm(params, np.zeros((2, 2), dtype=int))
        with pytest.raises(ValueError):
            evaluate(tpm, np.ones((2, 3), dtype=int))

    def test_rejects_non_pm_one_entries(self):
        params = TpmParams(K=1, N=2, L=1)
        with pytest.raises(ValueError):
            evaluate(Tpm(params, [[0, 0]]), np.array([[1, 0]]))

    @given(machine_and_inputs(1))
    def test_deterministic_and_tau_is_sigma_product(self, built):
        tpm, (x,) = built
        first = evaluate(tpm, x)
        second = evaluate(tpm, x)
        assert first.tau in (-1, 1)
        assert np.array_equal(first.sigma, second.sigma) and first.tau == second.tau
        assert first.tau == int(np.prod(first.sigma))


class TestHebbianStep:
    def test_row_with_differing_sign_is_unchanged(self):
        # row 0 field > 0 (sigma +1), row 1 field < 0 (sigma -1) -> tau -1
        params = TpmParams(K=2, N=2, L=2)
        tpm = Tpm(params, [[2, 1], [-2, -1]])
        x = np.ones((2, 2), dtype=int)
        own = evaluate(tpm, x)
        assert own.sigma.tolist() == [1, -1] and own.tau == -1
        updated = hebbian_step(tpm, x, own, partner_tau=-1)
        assert updated.weights[0].tolist() == [2, 1]  # sigma != tau: frozen
        assert updated.weights[1].tolist() == [-2, -2]  # moved and clamped

    def test_increment_and_clamp(self):
        params = TpmParams(K=1, N=1, L=2)
        x = np.array([[1]])
        for start, expected in ((1, 2), (2, 2)):
            tpm = Tpm(params, [[start]])
            own = evaluate(tpm, x)
            assert own.sigma.tolist() == [1] and own.tau == 1
            assert hebbian_step(tpm, x, own, 1).weights[0, 0] == expected

    def test_partner_disagreement_is_a_contract_violation(self):
        params = TpmParams(K=1, N=1, L=1)
        tpm = Tpm(params, [[1]])
        own = evaluate(tpm, np.array([[1]]))
        with pytest.raises(ValueError):
            hebbian_step(tpm, np.array([[1]]), own, partner_tau=-own.tau)

    def test_does_not_mutate_input_machine(self):
        params = TpmParams(K=1, N=1, L=2)
        tpm = Tpm(params, [[1]])
        own = evaluate(tpm, np.array([[1]]))
        hebbian_step(tpm, np.array([[1]]), own, 1)
        assert tpm.weights[0, 0] == 1

    @given(machine_and_inputs(30))
    @settings(max_examples=60)
    def test_weights_stay_bounded_under_fuzzed_updates(self, built):
        tpm, xs = built
        bound = tpm.params.L
        for x in xs:
            own = evaluate(tpm, x)
            tpm = hebbian_step(tpm, x, own, own.tau)
            assert int(np.abs(tpm.weights).max()) <= bound

    @given(machine_and_inputs(25))
    @settings(max_examples=60)
    def test_identical_machines_stay_identical(self, built):
        tpm, xs = built
        twin = tpm.copy()
        for x in xs:
            a_eval = evaluate(tpm, x)
            b_eval = evaluate(twin, x)
            assert a_eval.tau == b_eval.tau
            tpm = hebbian_step(tpm, x, a_eval, b_eval.tau)
            twin = hebbian_step(twin, x, b_eval, a_eval.tau)
            assert tpm == twin


class TestCodec:
    @pytest.mark.parametrize(
        "chunk,weight", [("000", -2), ("110", -1), ("100", 2), ("011", 1), ("101", -2)]
    )
    def test_chunk_mapping_l2(self, chunk, weight):
        params = TpmParams(K=1, N=1, L=2)
        assert bits_to_weights(BitKey.from_string(chunk), params).weights[0, 0] == weight

    @pytest.mark.parametrize("weight,chunk", [(-2, "000"), (2, "100"), (0, "010")])
    def test_weight_emission_l2(self, weight, chunk):
        params = TpmParams(K=1, N=1, L=2)
        assert weights_to_bits(Tpm(params, [[weight]])).to01() == chunk

    def test_too_short_key(self):
        with pytest.raises(KeyMaterialError):
            bits_to_weights(BitKey.from_string("0" * 749), TpmParams(10, 25, 2))

    def test_row_major_order_and_truncation(self):
        params = TpmParams(K=2, N=2, L=2)
        key = BitKey.from_string("000" + "001" + "010" + "100" + "1101")
        tpm = bits_to_weights(key, params)
        assert tpm.weights.tolist() == [[-2, -1], [0, 2]]

    @given(shapes(), st.integers(0, 2**32 - 1))
    def test_weights_to_bits_then_back_is_identity(self, params, seed):
        tpm = Tpm.random(params, np.random.default_rng(seed))
        assert bits_to_weights(weights_to_bits(tpm), params) == tpm

    @given(shapes(), st.integers(0, 2**32 - 1))
    def test_canonical_bits_round_trip(self, params, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, params.alphabet_size, size=params.weight_count)
        b = params.bits_per_weight
        bits = ((values[:, None] >> np.arange(b - 1, -1, -1)) & 1).reshape(-1)
        key = BitKey(bits)
        assert weights_to_bits(bits_to_weights(key, params)) == key

    @given(shapes(), st.integers(0, 2**32 - 1), st.data())
    def test_single_bit_flip_changes_at_most_one_weight(self, params, seed, data):
        key = BitKey.random(params.key_bits, np.random.default_rng(seed))
        flip_at = data.draw(st.integers(0, params.key_bits - 1))
        flipped_bits = key.bits.copy()
        flipped_bits[flip_at] ^= 1
        a = bits_to_weights(key, params).weights
        b = bits_to_weights(BitKey(flipped_bits), params).weights
        assert int((a != b).sum()) <= 1


class TestOverlap:
    def test_examples(self):
        params = TpmParams(K=1, N=4, L=2)
        a = Tpm(params, [[0, 0, 0, 0]])
        assert weight_overlap(a, a.copy()) == 1.0
        assert weight_overlap(a, Tpm(params, [[0, 0, 0, 1]])) == 0.75
        assert weight_overlap(a, Tpm(params, [[1, 1, 1, 1]])) == 0.0

    def test_shape_mismatch(self):
        a = Tpm(TpmParams(1, 4, 2), [[0, 0, 0, 0]])
        b = Tpm(TpmParams(2, 2, 2), [[0, 0], [0, 0]])
        with pytest.raises(ValueError):
            weight_overlap(a, b)


class TestBitKey:
    def test_validation(self):
        with pytest.raises(ValueError):
            BitKey(np.array([0, 1, 2]))
        with pytest.raises(ValueError):
            BitKey(np.zeros((2, 2)))

    def test_equality_and_xor(self):
        a = BitKey.from_string("0110")
        b = BitKey.from_string("0110")
        c = BitKey.from_string("1110")
        assert a == b and a != c
        assert (a ^ c).to01() == "1000"

    def test_value_semantics(self):
        raw = np.array([0, 1, 1], dtype=np.uint8)
        key = BitKey(raw)
        raw[0] = 1
        assert key.to01() == "011"

    def test_without(self):
        key = BitKey.from_string("10110")
        assert key.without(np.array([0, 3])).to01() == "010"
