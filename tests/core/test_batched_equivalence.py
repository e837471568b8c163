"""Property-style equivalence tests for the batched recall engine.

The contract of :meth:`AssociativeMemoryModule.recognise_batch` is that
sample ``i`` of a batch equals ``recognise`` called in a loop over the
same inputs, *including* the consumption of every random stream (input
variation noise, latch offsets), so batched and per-sample paths can be
interleaved freely:

* on the ideal solve path (``include_parasitics=False``), with or
  without input variation, every field of every
  :class:`RecognitionResult` is **bit-identical** — winner, DOM code,
  tie flag, event counters, column currents and static power;
* on the parasitic path the batched engine replaces the per-sample
  sparse solve with a Woodbury update of one factorised network: all
  discrete fields stay identical and the analog fields agree to solver
  precision.
"""

import numpy as np
import pytest

from repro.core.amm import AssociativeMemoryModule, InputDacBank
from repro.core.wta import SpinCmosWta
from repro.crossbar.array import ResistiveCrossbar
from repro.crossbar.solver import CrossbarSolver

FEATURES = 32
TEMPLATES = 6

MODES = {
    "ideal": dict(include_parasitics=False),
    "noisy": dict(include_parasitics=False, input_variation=0.05),
    "parasitic": dict(include_parasitics=True),
    "noisy-parasitic": dict(include_parasitics=True, input_variation=0.05),
}
#: Modes in which the batched path shares the scalar arithmetic exactly.
BITWISE_MODES = ("ideal", "noisy")


def template_codes(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 32, size=(FEATURES, TEMPLATES))


def input_codes(seed: int, batch: int) -> np.ndarray:
    rng = np.random.default_rng(seed + 1000)
    return rng.integers(0, 32, size=(batch, FEATURES))


def build(seed: int, **kwargs) -> AssociativeMemoryModule:
    return AssociativeMemoryModule.from_templates(
        template_codes(seed), seed=seed, **kwargs
    )


def assert_equivalent(loop_results, batch_result, exact_analog: bool) -> None:
    assert len(batch_result) == len(loop_results)
    for index, scalar in enumerate(loop_results):
        sample = batch_result[index]
        assert sample.winner_column == scalar.winner_column
        assert sample.winner == scalar.winner
        assert sample.dom_code == scalar.dom_code
        assert sample.accepted == scalar.accepted
        assert sample.tie == scalar.tie
        assert np.array_equal(sample.codes, scalar.codes)
        assert sample.events == scalar.events
        if exact_analog:
            assert np.array_equal(sample.column_currents, scalar.column_currents)
            assert sample.static_power == scalar.static_power
        else:
            # Tolerant: the per-sample reference is the sparse MNA solve.
            np.testing.assert_allclose(
                sample.column_currents, scalar.column_currents, rtol=1e-6
            )
            np.testing.assert_allclose(
                sample.static_power, scalar.static_power, rtol=1e-9
            )


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("batch", [1, 7, 64])
@pytest.mark.parametrize("mode", sorted(MODES))
def test_recognise_batch_matches_per_sample_loop(seed, batch, mode):
    inputs = input_codes(seed, batch)
    loop_amm = build(seed, **MODES[mode])
    batch_amm = build(seed, **MODES[mode])
    loop_results = [loop_amm.recognise(sample) for sample in inputs]
    batch_result = batch_amm.recognise_batch(inputs)
    assert_equivalent(loop_results, batch_result, exact_analog=mode in BITWISE_MODES)


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("batch", [1, 7, 64])
def test_recognise_ideal_batch_bit_identical(seed, batch):
    inputs = input_codes(seed, batch)
    loop_amm = build(seed)
    batch_amm = build(seed)
    loop_results = [loop_amm.recognise_ideal(sample) for sample in inputs]
    batch_result = batch_amm.recognise_ideal_batch(inputs)
    assert_equivalent(loop_results, batch_result, exact_analog=True)


@pytest.mark.parametrize("mode", ["ideal", "noisy", "parasitic"])
def test_random_streams_stay_in_lockstep(mode):
    """A batch must advance all generators exactly as the loop would.

    After recalling the same inputs batched on one module and looped on
    its twin, one further *scalar* recall on each must still agree in
    every discrete field — proving the latch/noise streams were consumed
    identically.
    """
    inputs = input_codes(29, 9)
    loop_amm = build(29, **MODES[mode])
    batch_amm = build(29, **MODES[mode])
    for sample in inputs:
        loop_amm.recognise(sample)
    batch_amm.recognise_batch(inputs)
    after_loop = loop_amm.recognise(inputs[0])
    after_batch = batch_amm.recognise(inputs[0])
    assert after_loop.winner_column == after_batch.winner_column
    assert after_loop.dom_code == after_batch.dom_code
    assert after_loop.tie == after_batch.tie
    assert after_loop.events == after_batch.events
    assert np.array_equal(after_loop.codes, after_batch.codes)


def test_stochastic_neurons_fall_back_to_exact_loop():
    """With stochastic DWN switching the batch defers to per-sample
    conversions, so equivalence is exact in every field by construction."""
    inputs = input_codes(7, 12)
    loop_amm = build(7, stochastic_dwn=True, include_parasitics=False)
    batch_amm = build(7, stochastic_dwn=True, include_parasitics=False)
    loop_results = [loop_amm.recognise(sample) for sample in inputs]
    batch_result = batch_amm.recognise_batch(inputs)
    assert_equivalent(loop_results, batch_result, exact_analog=True)


def test_wta_convert_batch_preserves_neuron_bookkeeping():
    """Switch counters and final neuron states match the scalar loop."""
    rng = np.random.default_rng(17)
    currents = rng.uniform(0.0, 32e-6, size=(11, 5))
    loop_wta = SpinCmosWta(columns=5, seed=101)
    batch_wta = SpinCmosWta(columns=5, seed=101)
    loop_results = [loop_wta.convert(sample) for sample in currents]
    batch_result = batch_wta.convert_batch(currents)
    for index, scalar in enumerate(loop_results):
        assert batch_result.result(index).winner == scalar.winner
        assert np.array_equal(batch_result.codes[index], scalar.codes)
        assert batch_result.events[index] == scalar.events
    for loop_neuron, batch_neuron in zip(loop_wta.neurons, batch_wta.neurons):
        assert loop_neuron.switch_count == batch_neuron.switch_count
        assert loop_neuron.state == batch_neuron.state


def test_wta_ideal_batch_matches_scalar_ideal():
    rng = np.random.default_rng(23)
    currents = rng.uniform(0.0, 32e-6, size=(13, 8))
    batch = SpinCmosWta.ideal_batch(currents, 5, 32e-6)
    for index, sample in enumerate(currents):
        scalar = SpinCmosWta.ideal(sample, 5, 32e-6)
        assert batch.result(index).winner == scalar.winner
        assert batch.result(index).dom_code == scalar.dom_code
        assert bool(batch.tie[index]) == scalar.tie
        assert np.array_equal(batch.codes[index], scalar.codes)
        assert np.array_equal(batch.survivors[index], scalar.survivors)


def test_input_dac_bank_batch_conversion_bit_identical():
    bank = InputDacBank(rows=16, bits=5, unit_conductance=1e-6, mismatch_sigma=0.1, seed=4)
    rng = np.random.default_rng(5)
    codes = rng.integers(0, 32, size=(9, 16))
    batched = bank.conductances(codes)
    assert batched.shape == (9, 16)
    for index in range(9):
        assert np.array_equal(batched[index], bank.conductances(codes[index]))


def test_input_dac_bank_batch_validation():
    bank = InputDacBank(rows=4, bits=5, unit_conductance=1e-6)
    with pytest.raises(ValueError):
        bank.conductances(np.zeros((3, 5), dtype=int))
    with pytest.raises(ValueError):
        bank.conductances(np.full((2, 4), 32))


class TestSolverBatch:
    def make_solver(self, seed: int) -> CrossbarSolver:
        rng = np.random.default_rng(seed)
        conductances = rng.uniform(1e-6, 1e-4, size=(12, 5))
        crossbar = ResistiveCrossbar(conductances, dummy_conductances=rng.uniform(0, 1e-5, size=12))
        return CrossbarSolver(crossbar)

    def test_ideal_batch_bit_identical_to_scalar(self):
        solver = self.make_solver(31)
        rng = np.random.default_rng(32)
        dacs = rng.uniform(0.0, 1e-5, size=(6, 12))
        batch = solver.solve_batch(dacs, include_parasitics=False)
        for index in range(6):
            scalar = solver.solve(dacs[index], include_parasitics=False)
            assert np.array_equal(batch.column_currents[index], scalar.column_currents)
            assert batch.supply_current[index] == scalar.supply_current
            assert batch.static_power[index] == scalar.static_power

    def test_parasitic_batch_matches_sparse_solve(self):
        solver = self.make_solver(41)
        rng = np.random.default_rng(42)
        dacs = rng.uniform(0.0, 1e-5, size=(6, 12))
        batch = solver.solve_batch(dacs, include_parasitics=True)
        for index in range(6):
            scalar = solver.solve(dacs[index], include_parasitics=True)
            # Tolerant: Woodbury against the sparse MNA solve, two algorithms.
            np.testing.assert_allclose(
                batch.column_currents[index], scalar.column_currents, rtol=1e-8
            )
            np.testing.assert_allclose(
                batch.supply_current[index], scalar.supply_current, rtol=1e-10
            )

    def test_batch_shape_validation(self):
        solver = self.make_solver(51)
        with pytest.raises(ValueError):
            solver.solve_batch(np.zeros((3, 11)))
        with pytest.raises(ValueError):
            solver.solve_batch(np.full((2, 12), -1.0))
