"""Registry, EngineSpec and capability-surface tests."""

from __future__ import annotations

import dataclasses
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import (
    BackendCapabilities,
    EngineSpec,
    RecallBackend,
    SerialBackend,
    backend_names,
    create_backend,
    register_backend,
    resolve_backend,
)
from repro.backends import registry as registry_module
from repro.core.config import default_parameters
from repro.crossbar import batched
from repro.crossbar.batched import concatenate_batch_solutions
from tests.backends.strategies import MAX_CODE, build_test_amm


class TestRegistry:
    def test_builtin_names_registered(self):
        names = backend_names()
        for name in ("serial", "threads", "processes", "auto"):
            assert name in names

    def test_create_unknown_backend_raises(self, backend_amm):
        with pytest.raises(ValueError, match="unknown backend"):
            create_backend("bogus", backend_amm)

    def test_unknown_backend_is_keyerror_listing_names(self, backend_amm):
        """Regression: a typo'd backend name raises a KeyError (it is a
        failed registry lookup) whose message lists every registered
        name — while staying a ValueError for historical callers."""
        from repro.backends import UnknownBackendError

        with pytest.raises(KeyError) as excinfo:
            create_backend("prcoesses", backend_amm)  # the classic typo
        assert isinstance(excinfo.value, UnknownBackendError)
        assert isinstance(excinfo.value, ValueError)
        message = str(excinfo.value)
        for name in ("serial", "threads", "processes", "remote"):
            assert name in message
        # KeyError.__str__ would repr() the message into quoted noise;
        # the subclass must read as a sentence.
        assert not message.startswith('"') and not message.startswith("'")

    def test_remote_registered(self):
        assert "remote" in backend_names()

    def test_create_builds_requested_type(self, backend_amm):
        backend = create_backend("serial", backend_amm)
        assert isinstance(backend, SerialBackend)
        backend.close()

    def test_resolve_none_uses_default(self, backend_amm):
        backend, owned = resolve_backend(None, backend_amm)
        try:
            assert backend.capabilities().name == registry_module.DEFAULT_BACKEND
            assert owned is True
        finally:
            backend.close()

    def test_resolve_instance_passthrough(self, backend_amm):
        instance = SerialBackend(backend_amm)
        resolved, owned = resolve_backend(instance, backend_amm)
        assert resolved is instance
        assert owned is False
        instance.close()

    def test_resolve_rejects_other_types(self, backend_amm):
        with pytest.raises(TypeError):
            resolve_backend(42, backend_amm)

    def test_custom_backend_registration(self, backend_amm, request_codes, request_seeds):
        class RecordingBackend(SerialBackend):
            name = "recording"
            calls = 0

            def recall_batch_seeded(self, codes_batch, request_seeds):
                type(self).calls += 1
                return super().recall_batch_seeded(codes_batch, request_seeds)

        register_backend("recording", RecordingBackend)
        try:
            assert "recording" in backend_names()
            backend = create_backend("recording", backend_amm)
            try:
                backend.recall_batch_seeded(request_codes[:2], request_seeds[:2])
                assert RecordingBackend.calls == 1
            finally:
                backend.close()
        finally:
            registry_module._REGISTRY.pop("recording", None)

    def test_register_rejects_bad_names(self):
        with pytest.raises(ValueError):
            register_backend("", SerialBackend)


class TestEngineSpec:
    def test_spec_pickles_without_factorisation(self, backend_amm):
        # Force a factorised engine into the module's solver first.
        backend_amm.solver.batch_engine.prepare(True)
        spec = EngineSpec.from_module(backend_amm)
        clone = pickle.loads(pickle.dumps(spec))
        engine = clone.build_engine(prepare=False)
        assert not engine.prepared  # the factorisation never crossed the pickle
        engine.prepare(True)
        assert engine.prepared

    def test_rebuilt_engine_matches(self, backend_amm, request_codes, request_seeds):
        spec = pickle.loads(pickle.dumps(EngineSpec.from_module(backend_amm)))
        engine = spec.build_engine()
        rebuilt = spec.module.recognise_batch_seeded(
            request_codes, request_seeds, engine=engine
        )
        reference = backend_amm.recognise_batch_seeded(request_codes, request_seeds)
        assert np.array_equal(rebuilt.winner_column, reference.winner_column)
        assert np.array_equal(rebuilt.codes, reference.codes)
        assert np.array_equal(rebuilt.column_currents, reference.column_currents)

    def test_engine_getstate_drops_woodbury(self, backend_amm):
        engine = backend_amm.solver.batch_engine.prepare(True)
        state = engine.__getstate__()
        assert state["_woodbury_ready"] is False
        for key in ("_w_matrix", "_z_outputs", "_identity", "_g_term"):
            assert key not in state


@st.composite
def parasitic_split_cases(draw):
    """A random parasitic module, a DAC batch and contiguous split points."""
    amm = build_test_amm(
        draw(st.integers(min_value=4, max_value=48)),
        draw(st.integers(min_value=2, max_value=8)),
        draw(st.integers(min_value=0, max_value=2**16)),
        include_parasitics=True,
        parameters=dataclasses.replace(
            default_parameters(),
            wire_resistance_per_um=draw(st.floats(min_value=0.1, max_value=100.0)),
        ),
    )
    batch = draw(st.integers(min_value=1, max_value=80))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**16)))
    codes = rng.integers(0, MAX_CODE + 1, size=(batch, amm.crossbar.rows))
    cuts = draw(st.sets(st.integers(min_value=1, max_value=batch), max_size=6))
    bounds = [0, *sorted(cuts - {batch}), batch]
    chunk = draw(st.integers(min_value=1, max_value=batch))
    return amm, amm.input_dacs.conductances(codes), bounds, chunk


class TestChunkTuning:
    """How a parasitic batch is cut — by the engine's memory-bounded
    chunk, a backend's shards or the serving micro-batcher — is invisible
    in every output bit."""

    @settings(max_examples=25, deadline=None)
    @given(case=parasitic_split_cases())
    def test_chunk_size_never_changes_outcomes(self, case):
        amm, dac, bounds, chunk = case
        assert amm.crossbar.parasitics.segment_resistance > 0.0
        engine = EngineSpec.from_module(amm).build_engine()
        whole = engine.solve_batch(dac)
        split = concatenate_batch_solutions(
            [engine.solve_batch(dac[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
        )
        assert np.array_equal(whole.column_currents, split.column_currents)
        assert np.array_equal(whole.supply_current, split.supply_current)
        stack_bytes = 8 * amm.crossbar.rows**2 * chunk
        with mock.patch.object(batched, "STACK_BYTES", stack_bytes):
            chunked = engine.solve_batch(dac)
        assert np.array_equal(whole.column_currents, chunked.column_currents)
        assert np.array_equal(whole.supply_current, chunked.supply_current)


class TestCapabilities:
    def test_capability_shapes(self, backend_amm, process_pool):
        serial = SerialBackend(backend_amm)
        capabilities = serial.capabilities()
        assert capabilities == BackendCapabilities(
            name="serial", workers=1, shards_batches=False, escapes_gil=False
        )
        serial.close()
        processes = process_pool.capabilities()
        assert processes.name == "processes"
        assert processes.workers == 2
        assert processes.escapes_gil

    def test_backend_is_abstract(self):
        with pytest.raises(TypeError):
            RecallBackend()
