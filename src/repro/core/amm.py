"""The spin-CMOS associative memory module (AMM).

This is the top-level hardware model of Section 4: a programmed resistive
crossbar whose rows are driven by binary-weighted DTCS DACs and whose
columns feed the domain-wall-neuron SAR winner-take-all.  A single call to
:meth:`AssociativeMemoryModule.recognise` performs what one 10 ns input
period performs in the hardware: input conversion, current-mode
correlation, DOM digitisation and winner tracking.

The module also exposes an *ideal* evaluation path (pure digital dot
product and ideal detection) used as the accuracy reference, and static
power accounting hooks consumed by :mod:`repro.core.power`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.config import DesignParameters, default_parameters
from repro.core.wta import BatchWtaResult, SpinCmosWta, WtaResult
from repro.crossbar.array import ResistiveCrossbar
from repro.crossbar.batched import BatchCrossbarSolution
from repro.crossbar.programming import TemplateProgrammer
from repro.crossbar.solver import CrossbarSolution, CrossbarSolver
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import check_integer, check_positive, check_shape


class InputDacBank:
    """One binary-weighted DTCS DAC per crossbar row.

    Each row's DAC has independently drawn per-bit conductance mismatch;
    the bank exposes a vectorised code→conductance conversion so a full
    128-row input vector is converted in one call.

    Parameters
    ----------
    rows:
        Number of crossbar rows (input vector length).
    bits:
        DAC resolution (5 for the reference design).
    unit_conductance:
        LSB conductance (S) of every DAC.
    mismatch_sigma:
        One-sigma relative mismatch of each binary-weighted device.
    seed:
        Seed or generator for the mismatch draws.
    """

    def __init__(
        self,
        rows: int,
        bits: int,
        unit_conductance: float,
        mismatch_sigma: float = 0.0,
        seed: RandomState = None,
    ) -> None:
        check_integer("rows", rows, minimum=1)
        check_integer("bits", bits, minimum=1)
        check_positive("unit_conductance", unit_conductance)
        if mismatch_sigma < 0 or mismatch_sigma > 0.5:
            raise ValueError(f"mismatch_sigma must be in [0, 0.5], got {mismatch_sigma}")
        self.rows = rows
        self.bits = bits
        self.unit_conductance = unit_conductance
        self.mismatch_sigma = mismatch_sigma
        rng = ensure_rng(seed)
        weights = 2.0 ** np.arange(bits)
        nominal = unit_conductance * weights
        if mismatch_sigma > 0.0:
            errors = rng.normal(0.0, mismatch_sigma, size=(rows, bits))
        else:
            errors = np.zeros((rows, bits))
        #: Per-row, per-bit conductances (S), shape ``(rows, bits)``.
        self.bit_conductances = nominal[None, :] * (1.0 + errors)

    @property
    def max_code(self) -> int:
        """Largest input code."""
        return 2**self.bits - 1

    def conductances(self, codes: np.ndarray) -> np.ndarray:
        """Per-row DAC conductances (S) for integer input codes.

        Accepts a single ``(rows,)`` code vector or a batch of shape
        ``(B, rows)``; the returned array has the same shape.  The batched
        conversion is element-wise identical to converting each sample
        separately.
        """
        codes = np.asarray(codes, dtype=np.int64)
        if codes.ndim == 2:
            if codes.shape[1] != self.rows:
                raise ValueError(
                    f"codes must have shape (B, {self.rows}), got {codes.shape}"
                )
            if np.any(codes < 0) or np.any(codes > self.max_code):
                raise ValueError(f"codes must be in [0, {self.max_code}]")
            masks = ((codes[:, :, None] >> np.arange(self.bits)) & 1).astype(float)
            return np.sum(masks * self.bit_conductances[None, :, :], axis=2)
        check_shape("codes", codes, (self.rows,))
        if np.any(codes < 0) or np.any(codes > self.max_code):
            raise ValueError(f"codes must be in [0, {self.max_code}]")
        masks = ((codes[:, None] >> np.arange(self.bits)) & 1).astype(float)
        return np.sum(masks * self.bit_conductances, axis=1)

    def full_scale_conductance(self) -> float:
        """Nominal conductance at the maximum code (S)."""
        return self.unit_conductance * float(2**self.bits - 1)

    def rescaled(self, factor: float) -> "InputDacBank":
        """Return a bank with all conductances scaled by ``factor`` (calibration)."""
        check_positive("factor", factor)
        bank = InputDacBank.__new__(InputDacBank)
        bank.rows = self.rows
        bank.bits = self.bits
        bank.unit_conductance = self.unit_conductance * factor
        bank.mismatch_sigma = self.mismatch_sigma
        bank.bit_conductances = self.bit_conductances * factor
        return bank


@dataclass(frozen=True)
class RecognitionResult:
    """Outcome of one associative-memory evaluation.

    Attributes
    ----------
    winner_column:
        Index of the winning crossbar column.
    winner:
        Class label associated with the winning column (equals the column
        index when no label mapping was supplied).
    dom_code:
        Digitised degree of match of the winner.
    accepted:
        True when the DOM clears the acceptance threshold; False signals
        "input not in the stored set".
    tie:
        True when the WTA could not separate two or more columns at its
        resolution.
    codes:
        DOM codes of every column.
    column_currents:
        Analog column currents (A) that entered the WTA.
    static_power:
        Static power (W) drawn from the ΔV supply during this evaluation.
    events:
        Switching-activity counters from the WTA conversion.
    """

    winner_column: int
    winner: int
    dom_code: int
    accepted: bool
    tie: bool
    codes: np.ndarray
    column_currents: np.ndarray
    static_power: float
    events: Dict[str, int]


@dataclass(frozen=True)
class BatchRecognitionResult:
    """Vectorised outcome of a batch of associative-memory evaluations.

    Field names match :class:`RecognitionResult` with a leading batch
    axis: ``winner_column``/``winner``/``dom_code``/``accepted``/``tie``/
    ``static_power`` have shape ``(B,)``, ``codes`` and
    ``column_currents`` have shape ``(B, columns)`` and ``events`` holds
    one counter dictionary per sample.  Indexing recovers the scalar
    :class:`RecognitionResult` of one sample.
    """

    winner_column: np.ndarray
    winner: np.ndarray
    dom_code: np.ndarray
    accepted: np.ndarray
    tie: np.ndarray
    codes: np.ndarray
    column_currents: np.ndarray
    static_power: np.ndarray
    events: list

    def __len__(self) -> int:
        return self.codes.shape[0]

    def __getitem__(self, index: int) -> RecognitionResult:
        return RecognitionResult(
            winner_column=int(self.winner_column[index]),
            winner=int(self.winner[index]),
            dom_code=int(self.dom_code[index]),
            accepted=bool(self.accepted[index]),
            tie=bool(self.tie[index]),
            codes=self.codes[index],
            column_currents=self.column_currents[index],
            static_power=float(self.static_power[index]),
            events=self.events[index],
        )

    def __iter__(self):
        return (self[index] for index in range(len(self)))


def concatenate_batch_results(chunks) -> BatchRecognitionResult:
    """Stitch contiguous :class:`BatchRecognitionResult` chunks back together.

    The single concatenation used wherever a batch is recalled in pieces —
    pipeline chunking and the sharded execution backends — so shard
    boundaries can never change how results are reassembled.
    """
    chunks = list(chunks)
    if not chunks:
        raise ValueError("chunks must not be empty")
    return BatchRecognitionResult(
        winner_column=np.concatenate([c.winner_column for c in chunks]),
        winner=np.concatenate([c.winner for c in chunks]),
        dom_code=np.concatenate([c.dom_code for c in chunks]),
        accepted=np.concatenate([c.accepted for c in chunks]),
        tie=np.concatenate([c.tie for c in chunks]),
        codes=np.concatenate([c.codes for c in chunks]),
        column_currents=np.concatenate([c.column_currents for c in chunks]),
        static_power=np.concatenate([c.static_power for c in chunks]),
        events=[events for c in chunks for events in c.events],
    )


class AssociativeMemoryModule:
    """RCM + DTCS DACs + spin-neuron WTA: the complete AMM of the paper.

    Most users should construct the module through
    :meth:`AssociativeMemoryModule.from_templates`, which programs the
    crossbar, calibrates the input-DAC scale against the stored templates
    and wires up the WTA from a :class:`~repro.core.config.DesignParameters`
    object.

    Parameters
    ----------
    crossbar:
        Programmed resistive crossbar (rows = features, columns = templates).
    input_dacs:
        Per-row input DAC bank.
    wta:
        The spin-CMOS winner-take-all.
    parameters:
        Design parameters (ΔV, clock, thresholds).
    column_labels:
        Class label of each crossbar column; defaults to the column index.
    include_parasitics:
        Whether recognitions solve the full parasitic network (True) or the
        ideal crossbar equations (False).
    input_variation:
        One-sigma relative variation applied to the input DAC conductances
        on every evaluation (models input-source noise/variation).
    seed:
        Seed or generator for the per-evaluation input variation.
    """

    def __init__(
        self,
        crossbar: ResistiveCrossbar,
        input_dacs: InputDacBank,
        wta: SpinCmosWta,
        parameters: Optional[DesignParameters] = None,
        column_labels: Optional[Sequence[int]] = None,
        include_parasitics: bool = True,
        input_variation: float = 0.0,
        seed: RandomState = None,
    ) -> None:
        self.parameters = parameters or default_parameters()
        if crossbar.columns != wta.columns:
            raise ValueError(
                f"crossbar has {crossbar.columns} columns but the WTA expects {wta.columns}"
            )
        if input_dacs.rows != crossbar.rows:
            raise ValueError(
                f"DAC bank has {input_dacs.rows} rows but the crossbar has {crossbar.rows}"
            )
        if input_variation < 0 or input_variation > 0.5:
            raise ValueError(f"input_variation must be in [0, 0.5], got {input_variation}")
        self.crossbar = crossbar
        self.input_dacs = input_dacs
        self.wta = wta
        self.include_parasitics = include_parasitics
        self.input_variation = input_variation
        if column_labels is None:
            column_labels = list(range(crossbar.columns))
        if len(column_labels) != crossbar.columns:
            raise ValueError(
                f"column_labels must have {crossbar.columns} entries, got {len(column_labels)}"
            )
        self.column_labels = np.asarray(column_labels, dtype=np.int64)
        self.solver = CrossbarSolver(
            crossbar,
            delta_v=self.parameters.delta_v,
            termination_resistance=wta.dwn_config.device_resistance,
        )
        self._rng = ensure_rng(seed)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_templates(
        cls,
        template_codes: np.ndarray,
        parameters: Optional[DesignParameters] = None,
        column_labels: Optional[Sequence[int]] = None,
        include_parasitics: bool = True,
        input_variation: float = 0.0,
        dac_mismatch_sigma: float = 0.0,
        stochastic_dwn: bool = False,
        seed: RandomState = None,
    ) -> "AssociativeMemoryModule":
        """Program a crossbar from template codes and build the full AMM.

        Parameters
        ----------
        template_codes:
            Integer template matrix, shape ``(features, templates)``;
            each column is one stored pattern.
        parameters:
            Design parameters; defaults to the reference design.
        column_labels:
            Class label per column.
        include_parasitics, input_variation, dac_mismatch_sigma,
        stochastic_dwn:
            Non-ideality switches forwarded to the sub-models.
        seed:
            Master seed for programming, mismatch and evaluation noise.
        """
        parameters = parameters or default_parameters()
        rng = ensure_rng(seed)
        template_codes = np.asarray(template_codes)
        if template_codes.ndim != 2:
            raise ValueError("template_codes must be 2-D (features x templates)")
        rows, columns = template_codes.shape
        if columns != parameters.num_templates:
            parameters = dataclasses.replace(parameters, num_templates=columns)
        programmer = TemplateProgrammer(
            memristor=parameters.memristor_model(seed=rng),
            bits=parameters.template_bits,
        )
        programmed = programmer.program(template_codes)
        crossbar = ResistiveCrossbar.from_programmed(
            programmed, parasitics=parameters.wire_parasitics()
        )

        input_dacs = cls._calibrated_dac_bank(
            crossbar,
            parameters,
            dac_mismatch_sigma,
            rng,
            include_parasitics=include_parasitics,
        )

        wta = SpinCmosWta(
            columns=columns,
            resolution_bits=parameters.wta_resolution_bits,
            full_scale_current=parameters.wta_full_scale_current,
            dwn_config=parameters.dwn_config(stochastic=stochastic_dwn),
            dac_gain_sigma=dac_mismatch_sigma,
            mtj=parameters.mtj(),
            seed=rng,
        )
        return cls(
            crossbar=crossbar,
            input_dacs=input_dacs,
            wta=wta,
            parameters=parameters,
            column_labels=column_labels,
            include_parasitics=include_parasitics,
            input_variation=input_variation,
            seed=rng,
        )

    @staticmethod
    def _calibrated_dac_bank(
        crossbar: ResistiveCrossbar,
        parameters: DesignParameters,
        dac_mismatch_sigma: float,
        rng: np.random.Generator,
        include_parasitics: bool = True,
        target_fraction: float = 0.95,
        iterations: int = 4,
    ) -> InputDacBank:
        """Size the input DACs so the best-match current fills the WTA range.

        The paper chooses the DAC output range so that the maximum
        dot-product current slightly exceeds the WTA full scale (32 µA for
        5 bits with a 1 µA threshold).  Here the self-correlation of the
        strongest stored template is used as the calibration input, the
        crossbar is solved through the *same* path used during recognition
        (including wire parasitics and the spin-neuron termination when
        enabled) and the DAC unit conductance is fixed-point iterated until
        the peak column current reaches ``target_fraction`` of full scale.
        """
        rows = crossbar.rows
        bits = parameters.input_bits
        # Initial guess: full-scale DAC conductance equal to 2 % of G_TS.
        unit_guess = 0.02 * crossbar.nominal_row_conductance() / (2**bits - 1)
        bank = InputDacBank(
            rows=rows,
            bits=bits,
            unit_conductance=unit_guess,
            mismatch_sigma=dac_mismatch_sigma,
            seed=rng,
        )
        # Calibration input: the stored pattern with the largest ideal
        # self-correlation, reconstructed as input codes from the programmed
        # conductances.
        memristor = parameters.memristor_model()
        values = memristor.conductance_to_value(crossbar.conductances)
        conductance_matrix = crossbar.conductances
        self_correlations = np.einsum("ij,ij->j", values, conductance_matrix)
        best_column = int(np.argmax(self_correlations))
        max_code = 2**bits - 1
        calibration_codes = np.rint(values[:, best_column] * max_code).astype(np.int64)

        solver = CrossbarSolver(
            crossbar,
            delta_v=parameters.delta_v,
            termination_resistance=parameters.dwn_config().device_resistance,
        )
        target_current = target_fraction * parameters.wta_full_scale_current
        for _ in range(iterations):
            dac_conductances = bank.conductances(calibration_codes)
            solution = solver.solve(
                dac_conductances, include_parasitics=include_parasitics
            )
            peak = float(solution.column_currents.max())
            if peak <= 0:
                break
            scale = target_current / peak
            if abs(scale - 1.0) < 1e-3:
                break
            bank = bank.rescaled(scale)
        return bank

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    @property
    def dom_threshold_code(self) -> int:
        """DOM acceptance threshold expressed as a code."""
        return int(
            round(self.parameters.dom_threshold_fraction * (self.wta.levels - 1))
        )

    def _varied_conductances(
        self, conductances: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """One evaluation's input-variation draw applied to a ``(rows,)`` vector.

        The single definition of the noise model shared by the sequential
        scalar/batch paths (drawing from the module's stream) and the
        seeded serving path (drawing from a per-request substream), so the
        paths cannot drift apart.
        """
        noise = rng.normal(0.0, self.input_variation, size=conductances.shape)
        return np.clip(conductances * (1.0 + noise), 0.0, None)

    def column_solution(self, input_codes: np.ndarray) -> CrossbarSolution:
        """Solve the crossbar for an input-code vector (no WTA)."""
        input_codes = np.asarray(input_codes, dtype=np.int64)
        check_shape("input_codes", input_codes, (self.crossbar.rows,))
        conductances = self.input_dacs.conductances(input_codes)
        if self.input_variation > 0.0:
            conductances = self._varied_conductances(conductances, self._rng)
        return self.solver.solve(
            conductances, include_parasitics=self.include_parasitics
        )

    def column_solution_batch(
        self,
        input_codes_batch: np.ndarray,
        include_parasitics: Optional[bool] = None,
    ) -> BatchCrossbarSolution:
        """Solve the crossbar for a ``(B, features)`` code batch (no WTA).

        The batch counterpart of :meth:`column_solution`: DAC conversion
        and per-evaluation input variation are applied sample by sample in
        batch order (consuming the module's noise stream exactly as a
        scalar loop would) and the whole batch goes through the amortised
        crossbar engine.  ``include_parasitics`` overrides the module
        setting for this call only, without mutating the module — used by
        the analysis layer to compare parasitic and ideal solves of the
        same inputs.
        """
        input_codes_batch = np.asarray(input_codes_batch, dtype=np.int64)
        if input_codes_batch.ndim != 2:
            raise ValueError("input_codes_batch must be 2-D (B x features)")
        conductances = self._batch_input_conductances(input_codes_batch)
        if include_parasitics is None:
            include_parasitics = self.include_parasitics
        return self.solver.solve_batch(
            conductances, include_parasitics=include_parasitics
        )

    def recognise(self, input_codes: np.ndarray) -> RecognitionResult:
        """Full associative recall of one input feature vector."""
        solution = self.column_solution(input_codes)
        wta_result = self.wta.convert(solution.column_currents)
        return self._package(solution, wta_result)

    def recognise_ideal(self, input_codes: np.ndarray) -> RecognitionResult:
        """Reference recall: ideal dot product and ideal detection.

        Bypasses DAC non-linearity, parasitics and device non-idealities;
        used by the accuracy analyses as the "ideal comparison" baseline.
        """
        input_codes = np.asarray(input_codes, dtype=np.int64)
        check_shape("input_codes", input_codes, (self.crossbar.rows,))
        values = input_codes.astype(float) / self.input_dacs.max_code
        currents = self.crossbar.ideal_dot_product(values)
        scale = self.parameters.wta_full_scale_current / max(currents.max(), 1e-30)
        currents = currents * scale * 0.95
        wta_result = SpinCmosWta.ideal(
            currents,
            self.parameters.wta_resolution_bits,
            self.parameters.wta_full_scale_current,
        )
        solution = CrossbarSolution(
            column_currents=currents,
            row_voltages=np.zeros((self.crossbar.rows, self.crossbar.columns)),
            column_voltages=np.zeros((self.crossbar.rows, self.crossbar.columns)),
            supply_current=0.0,
            delta_v=self.parameters.delta_v,
        )
        return self._package(solution, wta_result)

    def _package(
        self, solution: CrossbarSolution, wta_result: WtaResult
    ) -> RecognitionResult:
        winner_column = wta_result.winner
        return RecognitionResult(
            winner_column=winner_column,
            winner=int(self.column_labels[winner_column]),
            dom_code=wta_result.dom_code,
            accepted=wta_result.accepted(self.dom_threshold_code),
            tie=wta_result.tie,
            codes=wta_result.codes,
            column_currents=solution.column_currents,
            static_power=solution.static_power,
            events=wta_result.events,
        )

    # ------------------------------------------------------------------ #
    # Batch evaluation
    # ------------------------------------------------------------------ #
    def _batch_input_conductances(self, input_codes_batch: np.ndarray) -> np.ndarray:
        """DAC conductances for a code batch, with per-evaluation variation.

        The variation noise is drawn sample by sample, in batch order,
        from the same generator :meth:`column_solution` uses — so a batch
        consumes the random stream exactly as a per-sample loop would.
        """
        conductances = self.input_dacs.conductances(input_codes_batch)
        if self.input_variation > 0.0:
            for index in range(conductances.shape[0]):
                conductances[index] = self._varied_conductances(
                    conductances[index], self._rng
                )
        return conductances

    def recognise_batch(self, input_codes_batch: np.ndarray) -> BatchRecognitionResult:
        """Full associative recall of a ``(B, features)`` code batch.

        Solves the whole batch through the crossbar's batched engine
        (:meth:`~repro.crossbar.solver.CrossbarSolver.solve_batch`) and a
        vectorised WTA conversion.  Sample ``i`` of the result matches
        ``recognise(input_codes_batch[i])`` called in a loop: discrete
        outputs (winner, DOM code, acceptance, tie, events) are identical,
        analog outputs are bit-identical on the ideal path and agree to
        solver precision (~1e-12 relative) on the parasitic path, and all
        random streams advance exactly as the loop would advance them.
        """
        input_codes_batch = np.asarray(input_codes_batch, dtype=np.int64)
        if input_codes_batch.ndim != 2:
            raise ValueError("input_codes_batch must be 2-D (B x features)")
        if input_codes_batch.shape[0] == 0:
            raise ValueError("input_codes_batch must not be empty")
        conductances = self._batch_input_conductances(input_codes_batch)
        solution = self.solver.solve_batch(
            conductances, include_parasitics=self.include_parasitics
        )
        wta_result = self.wta.convert_batch(solution.column_currents)
        return self._package_batch(solution, wta_result)

    #: Spawn key of the per-request input-variation substream used by
    #: :meth:`recognise_batch_seeded` (the latch-offset substream of
    #: :meth:`~repro.core.wta.SpinCmosWta.convert_batch_seeded` uses spawn
    #: key 1 of the same request seed).
    INPUT_STREAM_KEY = 0

    def recognise_batch_seeded(
        self,
        input_codes_batch: np.ndarray,
        request_seeds: np.ndarray,
        engine=None,
    ) -> BatchRecognitionResult:
        """Arrival-order-invariant recall of a ``(B, features)`` code batch.

        The serving layer (:mod:`repro.serving`) coalesces independent
        recall requests into micro-batches whose composition depends on
        traffic timing and worker count.  This entry point makes sample
        ``i``'s result a pure function of ``(module, codes, seed)``:

        * input-variation noise is drawn from a per-request substream
          seeded by ``request_seeds[i]`` (spawn key 0) instead of the
          module's sequential stream;
        * the WTA conversion draws its latch offsets from the matching
          per-request substream (spawn key 1) and leaves the neurons'
          magnetic state and switch counters untouched;
        * no module state whatsoever is advanced, so replicas built from
          the same construction seed return identical results regardless
          of their request history.

        ``engine`` optionally supplies a caller-owned pre-factorised
        :class:`~repro.crossbar.batched.BatchedCrossbarEngine` replica
        (one per serving worker); the module's own engine is used when
        omitted.  Requires deterministic neurons (``stochastic_dwn``
        off) — see :meth:`SpinCmosWta.convert_batch_seeded`.
        """
        input_codes_batch = np.asarray(input_codes_batch, dtype=np.int64)
        if input_codes_batch.ndim != 2:
            raise ValueError("input_codes_batch must be 2-D (B x features)")
        if input_codes_batch.shape[0] == 0:
            raise ValueError("input_codes_batch must not be empty")
        seeds = np.asarray(request_seeds, dtype=np.int64)
        if seeds.shape != (input_codes_batch.shape[0],):
            raise ValueError(
                f"request_seeds must have shape ({input_codes_batch.shape[0]},), "
                f"got {seeds.shape}"
            )
        if np.any(seeds < 0):
            raise ValueError("request_seeds must be non-negative")
        conductances = self.input_dacs.conductances(input_codes_batch)
        if self.input_variation > 0.0:
            for index in range(conductances.shape[0]):
                rng = np.random.default_rng(
                    np.random.SeedSequence(
                        entropy=int(seeds[index]),
                        spawn_key=(self.INPUT_STREAM_KEY,),
                    )
                )
                conductances[index] = self._varied_conductances(
                    conductances[index], rng
                )
        if engine is None:
            engine = self.solver.batch_engine
        solution = engine.solve_batch(
            conductances, include_parasitics=self.include_parasitics
        )
        wta_result = self.wta.convert_batch_seeded(solution.column_currents, seeds)
        return self._package_batch(solution, wta_result)

    def recognise_ideal_batch(
        self, input_codes_batch: np.ndarray
    ) -> BatchRecognitionResult:
        """Batched reference recall: ideal dot products and ideal detection.

        Vectorised counterpart of :meth:`recognise_ideal`; each sample is
        bit-identical to the scalar call (the dot product and peak
        normalisation are evaluated per sample with the same operations).
        """
        input_codes_batch = np.asarray(input_codes_batch, dtype=np.int64)
        if input_codes_batch.ndim != 2:
            raise ValueError("input_codes_batch must be 2-D (B x features)")
        if input_codes_batch.shape[0] == 0:
            raise ValueError("input_codes_batch must not be empty")
        batch = input_codes_batch.shape[0]
        currents = np.empty((batch, self.crossbar.columns))
        for index in range(batch):
            values = input_codes_batch[index].astype(float) / self.input_dacs.max_code
            sample = self.crossbar.ideal_dot_product(values)
            scale = self.parameters.wta_full_scale_current / max(sample.max(), 1e-30)
            currents[index] = sample * scale * 0.95
        wta_result = SpinCmosWta.ideal_batch(
            currents,
            self.parameters.wta_resolution_bits,
            self.parameters.wta_full_scale_current,
        )
        solution = BatchCrossbarSolution(
            column_currents=currents,
            supply_current=np.zeros(batch),
            delta_v=self.parameters.delta_v,
        )
        return self._package_batch(solution, wta_result)

    def _package_batch(
        self, solution: BatchCrossbarSolution, wta_result: BatchWtaResult
    ) -> BatchRecognitionResult:
        winner_column = wta_result.winner
        return BatchRecognitionResult(
            winner_column=winner_column,
            winner=self.column_labels[winner_column],
            dom_code=wta_result.dom_code,
            accepted=wta_result.dom_code >= self.dom_threshold_code,
            tie=wta_result.tie,
            codes=wta_result.codes,
            column_currents=solution.column_currents,
            static_power=solution.static_power,
            events=wta_result.events,
        )

    def evaluate(
        self,
        input_codes_batch: np.ndarray,
        labels: np.ndarray,
        batch_size: Optional[int] = None,
        backend=None,
        workers: int = 1,
        base_seed: int = 0,
    ) -> Dict[str, float]:
        """Classify a batch and report accuracy statistics.

        Parameters
        ----------
        input_codes_batch:
            Integer feature vectors, shape ``(n, features)``.
        labels:
            True class labels, shape ``(n,)``.
        batch_size:
            Recall granularity.  ``None`` (default) solves everything in
            one batched pass; larger inputs can be chunked with any other
            value.  ``batch_size=1`` runs the legacy per-sample
            :meth:`recognise` loop — the reference the batched engine is
            benchmarked and regression-tested against.
        backend, workers, base_seed:
            Optional execution backend (a registry name such as
            ``"threads"``/``"processes"``, or a prepared
            :class:`~repro.backends.base.RecallBackend`) the recalls run
            on; see :meth:`recall_arrays`.

        Returns
        -------
        A dictionary with ``accuracy``, ``acceptance_rate``, ``tie_rate``
        and ``mean_static_power``.
        """
        input_codes_batch = np.asarray(input_codes_batch)
        labels = np.asarray(labels)
        if input_codes_batch.ndim != 2:
            raise ValueError("input_codes_batch must be 2-D (n x features)")
        if labels.shape[0] != input_codes_batch.shape[0]:
            raise ValueError("labels and inputs must have the same length")
        count = input_codes_batch.shape[0]
        if batch_size is not None:
            check_integer("batch_size", batch_size, minimum=1)
        winners, accepted, ties, static_power = self.recall_arrays(
            input_codes_batch,
            batch_size,
            backend=backend,
            workers=workers,
            base_seed=base_seed,
        )
        return {
            "accuracy": float(np.count_nonzero(winners == labels)) / count,
            "acceptance_rate": float(np.count_nonzero(accepted)) / count,
            "tie_rate": float(np.count_nonzero(ties)) / count,
            "mean_static_power": float(np.sum(static_power)) / count,
        }

    def recall_arrays(
        self,
        input_codes_batch: np.ndarray,
        batch_size: Optional[int] = None,
        backend=None,
        workers: int = 1,
        base_seed: int = 0,
    ) -> tuple:
        """Winner/accepted/tie/static-power arrays for a code batch.

        The one place recall chunking is implemented: ``batch_size=None``
        recalls everything in one batched pass, other values chunk it,
        and ``batch_size=1`` runs the legacy per-sample :meth:`recognise`
        loop.  Shared by :meth:`evaluate` and
        :meth:`~repro.core.pipeline.FaceRecognitionPipeline.evaluate` so
        the per-sample and batched paths aggregate through identical
        code.  Returns ``(winners, accepted, ties, static_power)``
        arrays of length ``B``.

        ``backend`` selects an execution strategy from
        :mod:`repro.backends` (a registry name, resolved with ``workers``
        execution units and closed afterwards, or an already-prepared
        :class:`~repro.backends.base.RecallBackend`, left open).  Backend
        recalls run the *seeded* path: sample ``i`` draws its noise from
        the ``base_seed + i`` substream instead of the module's sequential
        stream, so the discrete arrays (winners, acceptance, ties) are
        identical for every backend choice, worker count, shard boundary
        and ``batch_size``, and so is the analog ``static_power``, bit for
        bit (the engine solves every row independently of its batch).
        Both differ from the default (module-stream) path whenever the
        module draws per-evaluation noise.
        """
        if backend is None and (workers != 1 or base_seed != 0):
            # Silently ignoring these would also silently keep the
            # module-stream RNG semantics; make the dependency explicit.
            raise ValueError(
                "workers and base_seed only apply to backend recalls; "
                "pass backend='serial'/'threads'/'processes' (or an instance)"
            )
        count = input_codes_batch.shape[0]
        winners = np.empty(count, dtype=np.int64)
        accepted = np.empty(count, dtype=bool)
        ties = np.empty(count, dtype=bool)
        static_power = np.empty(count)
        if backend is not None:
            from repro.backends.registry import resolve_backend

            resolved, owned = resolve_backend(backend, self, workers=workers)
            seeds = base_seed + np.arange(count, dtype=np.int64)
            try:
                resolved.prepare()
                step = count if batch_size is None else max(batch_size, 1)
                for start in range(0, count, step):
                    stop = min(start + step, count)
                    chunk = resolved.recall_batch_seeded(
                        input_codes_batch[start:stop], seeds[start:stop]
                    )
                    winners[start:stop] = chunk.winner
                    accepted[start:stop] = chunk.accepted
                    ties[start:stop] = chunk.tie
                    static_power[start:stop] = chunk.static_power
            finally:
                if owned:
                    resolved.close()
            return winners, accepted, ties, static_power
        if batch_size == 1:
            for index in range(count):
                result = self.recognise(input_codes_batch[index])
                winners[index] = result.winner
                accepted[index] = result.accepted
                ties[index] = result.tie
                static_power[index] = result.static_power
            return winners, accepted, ties, static_power
        step = count if batch_size is None else batch_size
        for start in range(0, count, step):
            chunk = self.recognise_batch(input_codes_batch[start : start + step])
            stop = start + len(chunk)
            winners[start:stop] = chunk.winner
            accepted[start:stop] = chunk.accepted
            ties[start:stop] = chunk.tie
            static_power[start:stop] = chunk.static_power
        return winners, accepted, ties, static_power
