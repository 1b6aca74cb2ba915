import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import (
    array_shapes,
    arrays,
    byte_string_dtypes,
    scalar_dtypes,
    unicode_string_dtypes,
)
from numpy.testing import assert_allclose

from conftest import desk_setup, toy_setup
from reference import DESK_PLAN, passband_outcome, passband_plan
from wptsim import (
    ConfigurationError,
    NumericalError,
    PhaseWord,
    ReceiverPosition,
    ToneSet,
    brute_force_grid,
    decode_particle,
    element_positions,
    evaluate_batch,
    evaluate_solution,
    particle_bounds,
    pso_run,
    run_chain,
)
import wptsim.signal_chain
import wptsim.simulation
from wptsim.channel import ChannelMatrix, beamformed_received, build_channel_matrix
from wptsim.power_model import total_power
from wptsim.rectenna import harvest_from_signal
from wptsim.signal_chain import (
    MAX_BITS,
    amplify_envelope,
    band_bins,
    complex_envelope,
    lowpass_filter,
    quantize_dac,
    synthesize_multitone,
)

SPACING = 1.25e6


class TestRunChain:
    def test_stage_domains_rates_and_lengths(self):
        # one period at each rate: 100 MHz / 1.25 MHz baseband samples, then
        # 48 envelope samples per tone; the passband reference at 225 MHz
        setup = desk_setup()
        system = setup.system
        stages = run_chain(setup.tones, setup.phase_word, system)
        plan = passband_plan(system, *DESK_PLAN)
        assert (system.n_dac, system.n_env, plan.n_sim, plan.carrier_bin) == (80, 384, 180, 64)
        for stage in (stages.digital, stages.dac, stages.lpf):
            assert stage.dtype == complex
            assert stage.shape == (80,)
        for stage in (stages.mixer, stages.hpa, stages.received):
            assert stage.dtype == complex
            assert stage.shape == (384,)
        reference = passband_outcome(setup.tones, setup.phase_word, system, plan)
        for stage in (reference.mixer, reference.hpa, reference.received):
            assert stage.dtype == float
            assert stage.shape == (180,)

    def test_matches_hand_composition(self):
        # recompute every stage by direct calls to the public operations
        setup = desk_setup()
        system, tones = setup.system, setup.tones
        chain = system.chain
        # every level, so a wrong sign or scale of the beam gain shows
        word = PhaseWord(np.arange(system.element_count) % 2**chain.ps_bits, chain.ps_bits)
        stages = run_chain(tones, word, system)
        digital = synthesize_multitone(tones.amplitudes, tones.phases, 80)
        dac = quantize_dac(digital, chain.dac_bits, chain.dac_range)
        lpf = lowpass_filter(dac, 8)
        mixer = complex_envelope(dac, 8, 384)
        hpa, p_in, p_out = amplify_envelope(
            mixer, chain.hpa_gain, chain.hpa_saturation, chain.hpa_smoothness
        )
        received = beamformed_received(
            np.fft.fft(hpa)[band_bins(8, 384)],
            word.angles(),
            chain.ps_insertion_loss,
            system.band_coefficients,
            384,
        )
        assert np.array_equal(stages.digital, digital)
        assert np.array_equal(stages.dac, dac)
        assert np.array_equal(stages.lpf, lpf)
        assert np.array_equal(stages.mixer, mixer)
        assert np.array_equal(stages.hpa, hpa)
        assert np.array_equal(stages.received, received)
        assert (stages.hpa_input_power, stages.hpa_output_power) == (p_in, p_out)
        # the envelope is the filter's output resampled: built from the LPF
        # output it is the same period
        assert_allclose(complex_envelope(lpf, 8, 384), mixer, rtol=0, atol=1e-15)
        # the explicit N element envelopes through the per-element channel
        branches = (
            np.exp(-1j * word.angles())[:, None] * hpa
            / np.sqrt(chain.ps_insertion_loss * system.element_count)
        )
        bins = np.arange(-8, 9) % 384
        parts = np.zeros((system.element_count, 384), dtype=complex)
        parts[:, bins] = system.band_coefficients * np.fft.fft(branches, axis=1)[:, bins]
        explicit = np.fft.ifft(parts, axis=1).sum(axis=0)
        assert_allclose(
            stages.received, explicit, rtol=0, atol=1e-12 * np.max(np.abs(explicit))
        )

    def test_stages_consistent_across_simulation_rates(self):
        # the chain reads no passband rate: the chain's sim_sample_rate, which
        # only the benchmark harness reads, at twice the desk reference's rate
        # and below its Nyquist rate changes no stage, no result and no trace
        setup = desk_setup()
        expected = evaluate_solution(setup.tones, setup.phase_word, setup.system)
        swarm = dataclasses.replace(setup.swarm, particles=6, iterations=3)
        trace = pso_run(setup.system, swarm).fitness_trace
        for rate in (360 * SPACING, 100e6):
            chain = dataclasses.replace(setup.system.chain, sim_sample_rate=rate)
            other = dataclasses.replace(setup.system, chain=chain)
            outcome = evaluate_solution(setup.tones, setup.phase_word, other)
            for name in ("digital", "dac", "mixer", "hpa", "received"):
                assert np.array_equal(
                    getattr(outcome.stages, name), getattr(expected.stages, name)
                )
            for record in ("harvest", "power"):
                got, want = vars(getattr(outcome, record)), vars(getattr(expected, record))
                assert np.array_equal(list(got.values()), list(want.values()))
            assert np.array_equal(pso_run(other, swarm).fitness_trace, trace)

    def test_received_power_below_radiated_power(self):
        setup = desk_setup()
        stages = run_chain(setup.tones, setup.phase_word, setup.system)
        loss = setup.system.chain.ps_insertion_loss
        # N branches of |hpa|^2 / (L N) each: the radiated envelope power
        radiated = np.mean(np.abs(stages.hpa) ** 2) / loss
        received = np.mean(np.abs(stages.received) ** 2)
        assert received < 1e-3 * radiated

    def test_waveform_mismatch_rejected(self):
        setup = desk_setup()
        bad_tones = ToneSet(np.ones(4), np.zeros(4), SPACING)
        with pytest.raises(ConfigurationError):
            run_chain(bad_tones, setup.phase_word, setup.system)
        bad_word = PhaseWord(np.zeros(4, dtype=int), 3)
        with pytest.raises(ConfigurationError):
            run_chain(setup.tones, bad_word, setup.system)


class TestEvaluateSolution:
    def test_matches_component_recomputation(self):
        setup = desk_setup()
        outcome = evaluate_solution(setup.tones, setup.phase_word, setup.system)
        stages = run_chain(setup.tones, setup.phase_word, setup.system)
        harvest = harvest_from_signal(stages.received, setup.system.rectenna)
        power = total_power(
            setup.tones.amplitudes,
            np.mean(np.abs(stages.mixer) ** 2) / 2,
            stages.hpa_output_power,
            setup.system.chain.dac_bits,
            setup.system.chain.dac_sample_rate,
            setup.system.power,
        )
        assert outcome.harvest.p_out_dc == harvest.p_out_dc
        assert outcome.power.p_total == power.p_total

    def test_deterministic(self):
        setup = desk_setup()
        a = evaluate_solution(setup.tones, setup.phase_word, setup.system)
        b = evaluate_solution(setup.tones, setup.phase_word, setup.system)
        assert a.harvest.v_out_dc == b.harvest.v_out_dc
        assert a.power.p_total == b.power.p_total

    def test_sampling_plan_not_rechecked_per_evaluation(self, monkeypatch):
        # SystemModel checks the rates against the tone spacing once; the
        # stages take its sizes and plan arrays and check no rate again
        setup = desk_setup()
        calls = []
        original = wptsim.signal_chain._as_multiple

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(wptsim.signal_chain, "_as_multiple", counting)
        monkeypatch.setattr(wptsim.simulation, "_as_multiple", counting)
        evaluate_solution(setup.tones, setup.phase_word, setup.system)
        assert calls == []

    def test_channel_not_recomputed_per_evaluation(self, monkeypatch):
        # the receive band's channel is computed once, by SystemModel
        setup = desk_setup()
        calls = []
        original = ChannelMatrix.coefficients_at

        def counting(channel, frequencies):
            calls.append(frequencies)
            return original(channel, frequencies)

        monkeypatch.setattr(ChannelMatrix, "coefficients_at", counting)
        evaluate_solution(setup.tones, setup.phase_word, setup.system)
        assert calls == []

    def test_numerical_failures_carry_stage_tag(self, monkeypatch):
        setup = desk_setup()

        def explode(*args, **kwargs):
            raise FloatingPointError("synthetic overflow")

        monkeypatch.setattr(wptsim.simulation, "amplify_envelope", explode)
        with pytest.raises(NumericalError, match="hpa stage"):
            run_chain(setup.tones, setup.phase_word, setup.system)

    def test_all_outputs_finite(self):
        setup = desk_setup()
        outcome = evaluate_solution(setup.tones, setup.phase_word, setup.system)
        for value in (
            outcome.harvest.v_out_dc,
            outcome.harvest.p_out_dc,
            outcome.harvest.rhs_log,
            outcome.power.p_total,
        ):
            assert np.isfinite(value)


_SYSTEMS = {"desk": desk_setup().system, "toy": toy_setup().system}


def _batch(system, count, rng):
    """count candidates at per-row amplitude scales from 0 to 1000 V: row 0
    all zero, the last row (when count > 1) at 1000 V, and every phase level
    present."""
    tones, elements, bits = system.tone_count, system.element_count, system.chain.ps_bits
    scales = rng.choice([0.0, 1e-3, 1.0, 30.0, 300.0, 1000.0], count)
    amplitudes = rng.uniform(0.0, 1.0, (count, tones)) * scales[:, None]
    amplitudes[0] = 0.0
    if count > 1:
        amplitudes[-1] = 1000.0
    phases = rng.uniform(0.0, 2.0 * np.pi, (count, tones))
    levels = rng.permutation(np.arange(count * elements) % 2**bits).reshape(count, elements)
    return amplitudes, phases, levels


class TestEvaluateBatch:
    @settings(max_examples=30, deadline=None)
    @given(
        profile=st.sampled_from(sorted(_SYSTEMS)),
        count=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_equal_single_evaluations(self, profile, count, seed):
        system = _SYSTEMS[profile]
        amplitudes, phases, levels = _batch(system, count, np.random.default_rng(seed))
        harvest, power = evaluate_batch(amplitudes, phases, levels, system)
        for p in range(count):
            tones = ToneSet(amplitudes[p], phases[p], system.tone_spacing)
            word = PhaseWord(levels[p], system.chain.ps_bits)
            outcome = evaluate_solution(tones, word, system)
            for batch, single in ((harvest, outcome.harvest), (power, outcome.power)):
                for field in dataclasses.fields(single):
                    values = getattr(batch, field.name)
                    assert values.shape == (count,)
                    assert np.array_equal(values[p], getattr(single, field.name)), field.name

    def test_batch_checked_at_the_boundary(self):
        system = _SYSTEMS["toy"]
        amplitudes, phases, levels = _batch(system, 3, np.random.default_rng(1))
        evaluate_batch(amplitudes, phases, levels, system)
        bad = [
            (amplitudes[0], phases[0], levels[0]),  # one candidate, not a batch
            (amplitudes, phases[:2], levels),
            (amplitudes, phases, levels[:, :1]),
            (np.hstack([amplitudes, amplitudes]), np.hstack([phases, phases]), levels),
            (-amplitudes - 1.0, phases, levels),
            (amplitudes, phases + 2.0 * np.pi, levels),
            (amplitudes, phases, levels + 2),
        ]
        for case in bad:
            with pytest.raises(ConfigurationError):
                evaluate_batch(*case, system)
        # an empty batch is a batch: every field is a (0,) array
        harvest, power = evaluate_batch(amplitudes[:0], phases[:0], levels[:0], system)
        for record in (harvest, power):
            for field, values in vars(record).items():
                assert values.shape == (0,), field

    def test_overflow_in_any_row_fails_the_batch_as_its_stage(self):
        # a zero row is fine at any gain; one driven row overflows the drive.
        # The overflow must raise in its stage, not pass as a numpy warning
        # (which this suite's warning filter would turn into an error there)
        system = desk_setup(chain={"hpa_gain": 1e308, "hpa_saturation": 1e-3}).system
        amplitudes, phases, levels = _batch(system, 2, np.random.default_rng(2))
        evaluate_batch(amplitudes[:1], phases[:1], levels[:1], system)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(NumericalError, match="hpa stage failed: overflow"):
                evaluate_batch(amplitudes, phases, levels, system)


@pytest.mark.parametrize(
    ("sample", "message"),
    [
        (np.nan, "invalid value encountered in cast"),
        (np.inf, "invalid value encountered in subtract"),
        (1e300, "overflow encountered in multiply"),
    ],
)
def test_a_non_finite_or_huge_received_sample_fails_as_the_rectenna(sample, message):
    # the rectenna reads I0 from a table by a clipped gather; a sample it
    # cannot place must fail before the gather, never read a clipped entry
    system = _SYSTEMS["desk"]
    received = np.full((2, system.n_env), 0.1 + 0.0j)
    received[1, 7] = sample
    amplitudes = np.zeros((2, system.tone_count))
    # under the error state every entry point sets
    with np.errstate(over="raise", invalid="raise"):
        with pytest.raises(NumericalError, match=f"rectenna stage failed: {message}"):
            wptsim.simulation._harvest_and_power(received, amplitudes, 0.0, 0.0, system)


def test_a_desk_batch_peaks_below_twelve_sample_arrays():
    # traced memory of one evaluate_batch at P = 30, counted in float (P, M)
    # arrays (1 474 560 bytes on desk): 9.5 of them. The amplifier reads its
    # zone table one coefficient row at a time, and the batch frees its
    # mixer and amplifier periods before the receive; a gather of the whole
    # (4, 2, P, M) table at once, or those periods kept through the receive
    # (13.2), would cross the bound. A count of allocations, not a timing.
    system = _SYSTEMS["desk"]
    particles = 30
    batch = _batch(system, particles, np.random.default_rng(30))
    evaluate_batch(*batch, system)  # the zone table is built at the first evaluation
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        evaluate_batch(*batch, system)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert peak <= 12 * particles * system.n_env * np.dtype(float).itemsize


class TestSystemModelValidation:
    # The passband reference's plan rules: the library has no plan, and
    # tests/reference.py refuses to sample these. Six rules, one test each:
    # the carrier bin's whole number, the strict Nyquist rule, and the four
    # rows of test_the_reference_refuses_the_passband_plan.
    def test_non_commensurate_carrier_rejected(self):
        with pytest.raises(ConfigurationError, match="carrier_bin"):
            passband_plan(desk_setup().system, 80.3e6 / SPACING, 180)

    def test_nyquist_violation_rejected(self):
        system = desk_setup().system
        with pytest.raises(ConfigurationError, match="Nyquist"):
            passband_plan(system, 64, 80)
        # strict: at 2 (carrier + BW) the top receive bin is the Nyquist bin
        with pytest.raises(ConfigurationError, match="Nyquist"):
            passband_plan(system, 64, 144)
        assert passband_plan(system, 64, 145).band.size == 17

    @pytest.mark.parametrize(
        "chain, plan, message",
        [
            ({}, (64, 225.3e6 / SPACING), "n_sim = 180.24"),
            ({"dac_sample_rate": 1.0e9}, DESK_PLAN, "must not be below the DAC period 800"),
            ({}, (64, 2**20 + 1), "at most 1048576 are simulated"),
            ({}, (8, 180), "carrier_bin 8 must exceed the tone count 8"),
        ],
        ids=["rate-off-the-grid", "dac-rate-above-sim-rate", "period-bound", "carrier-in-band"],
    )
    def test_the_reference_refuses_the_passband_plan(self, chain, plan, message):
        system = desk_setup(chain=chain).system
        with pytest.raises(ConfigurationError, match=message):
            passband_plan(system, *plan)

    def test_dac_period_bound(self):
        # the DAC period has its own bound, named by the tone spacing that sets it
        assert desk_setup(chain={"dac_sample_rate": 2**20 * SPACING}).system.n_dac == 2**20
        with pytest.raises(ConfigurationError, match="waveform.tone_spacing"):
            desk_setup(chain={"dac_sample_rate": (2**20 + 1) * SPACING})

    @pytest.mark.parametrize("plan", [(64, 180 + 5e-7), (64 - 5e-7, 180)])
    def test_rate_within_the_multiple_slack_keeps_the_whole_band(self, plan):
        # 180 + 5e-7 and 64 - 5e-7 tone spacings: the same plan as the exact
        # multiples, so the same 17 bins and the same reference harvest
        setup = desk_setup()
        exact, off = passband_plan(setup.system, *DESK_PLAN), passband_plan(setup.system, *plan)
        assert (off.carrier_bin, off.n_sim) == DESK_PLAN
        assert np.array_equal(off.band, exact.band)
        assert off.band.size == 17
        outcomes = [
            passband_outcome(setup.tones, setup.phase_word, setup.system, p) for p in (exact, off)
        ]
        assert outcomes[1].p_out_dc == outcomes[0].p_out_dc

    def test_dac_rate_below_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            desk_setup(chain={"dac_sample_rate": 10e6})

    def test_receiver_on_element_rejected(self):
        with pytest.raises(ConfigurationError):
            desk_setup(receiver={"position": [0.0, 0.0, 0.0]})

    def test_boresight_exponent_must_give_a_normalized_pattern(self):
        # at b <= -1 the gain 2(b + 1) cos^b is not positive: the channel came
        # out NaN and the evaluation failed as a numerical error
        for value in (-1.0, -3.0):
            with pytest.raises(ConfigurationError, match="boresight_exponent"):
                desk_setup(channel={"boresight_exponent": value})
        system = desk_setup().system
        for value in (np.nan, np.inf):
            with pytest.raises(ConfigurationError, match="boresight_exponent"):
                dataclasses.replace(system, boresight_exponent=value)
        desk_setup(channel={"boresight_exponent": -0.5})

    def test_paper_profile_agrees_with_desk_scale(self):
        # desk is an alias of paper, so harvest and amplifier power are those
        # of the faithful 5.18 GHz configuration, to the last bit
        from wptsim.config import build_setup, load_config

        paper = build_setup(load_config(profile="paper"))
        desk = desk_setup()
        assert paper.system.chain.sim_sample_rate == 10380 * SPACING
        full = evaluate_solution(paper.tones, paper.phase_word, paper.system)
        fast = evaluate_solution(desk.tones, desk.phase_word, desk.system)
        assert fast.harvest.p_out_dc == full.harvest.p_out_dc
        assert fast.power.p_hpa == full.power.p_hpa

    def test_desk_profile_keeps_rf_wavelengths(self):
        # the one carrier, channel.rf_carrier, is the paper's 5.18 GHz on the alias
        setup = desk_setup()
        assert not hasattr(setup.system.chain, "carrier")
        assert setup.system.geometry.carrier == 5.18e9
        assert setup.raw["channel"]["rf_carrier"] == 5.18e9
        system = setup.system
        channel = build_channel_matrix(system.geometry, system.receiver, system.boresight_exponent)
        assert channel.carrier == 5.18e9
        # channel magnitudes match the faithful 5.18 GHz path loss
        tones = channel.coefficients_at(5.18e9 + np.arange(8) * SPACING)
        assert_allclose(np.abs(tones).max(), 3.761e-3, rtol=2e-3)


_DESK = desk_setup()


def _replace(record, **fields):
    return lambda: dataclasses.replace(record, **fields)


def _evaluate_batch(amplitudes, phases, levels):
    return lambda: evaluate_batch(amplitudes, phases, levels, _DESK.system)


_K, _N = _DESK.system.tone_count, _DESK.system.element_count
_CHAIN, _POWER, _RECTENNA = _DESK.system.chain, _DESK.system.power, _DESK.system.rectenna

# Every argument check the stage kernels made on each evaluation, as the row
# "<kernel>.<what it checked>", with a bad value and the boundary constructor
# or call that rejects it before any stage runs. Two kernel checks have no
# row because no input reaches them: the envelope the phase shifters take is
# always complex, and SystemModel's n_env = 48 max(K, 4) always exceeds 2K + 1;
# first_zone's rule sizes come from _zone_table, 80 * 2^k.
BOUNDARY = {
    "quantize_dac.bits": _replace(_CHAIN, dac_bits=0),
    "dac_power.bits": _replace(_CHAIN, dac_bits=0),
    "quantize_dac.full_scale": _replace(_CHAIN, dac_range=0.0),
    "amplify_envelope.smoothness": _replace(_CHAIN, hpa_smoothness=0.5),
    "amplify_envelope.gain": _replace(_CHAIN, hpa_gain=0.0),
    "amplify_envelope.saturation": _replace(_CHAIN, hpa_saturation=-1.0),
    "beamformed_received.insertion_loss": _replace(_CHAIN, ps_insertion_loss_db=-0.5),
    "beamformed_received.elements": (
        lambda: evaluate_solution(_DESK.tones, PhaseWord([0] * (_N + 1), 3), _DESK.system)
    ),
    "beamformed_received.elements_of_a_batch": (
        _evaluate_batch(np.ones((2, _K)), np.zeros((2, _K)), np.zeros((2, _N + 1), int))
    ),
    "beamformed_received.beams_per_period": (
        _evaluate_batch(np.ones((2, _K)), np.zeros((2, _K)), np.zeros((1, _N), int))
    ),
    "beamformed_received.ndim": _evaluate_batch(np.ones(_K), np.zeros(_K), np.zeros(_N, int)),
    "hpa_power.input_resistance": _replace(_POWER, hpa_input_resistance=0.0),
    "hpa_power.output_resistance": _replace(_POWER, hpa_output_resistance=-1.0),
    "harvested_power.load_resistance": _replace(_RECTENNA, load_resistance=0.0),
    # lambert_w0_log's argument is finite when the tones and the rectenna are
    "lambert_w0_log.finite_tones": lambda: ToneSet([np.inf] * _K, [0.0] * _K, SPACING),
    "lambert_w0_log.finite_rectenna": _replace(_RECTENNA, thermal_voltage=np.nan),
    # the band's lowest frequency is rf_carrier - K tone spacings
    "coefficients_at.positive_frequencies": lambda: desk_setup(channel={"rf_carrier": 5e6}),
}


@pytest.mark.parametrize("check", sorted(BOUNDARY))
def test_the_boundary_rejects_what_the_stage_kernels_trust(check):
    with pytest.raises(ConfigurationError):
        BOUNDARY[check]()


def _float_fields(record):
    fields = dataclasses.fields(record)
    return [f.name for f in fields if isinstance(getattr(record, f.name), float)]


_RECORDS = {
    "ChainConfig": _CHAIN,
    "PowerParams": _POWER,
    "RectennaParams": _RECTENNA,
    "SwarmConfig": _DESK.swarm,
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "name, field", [(name, f) for name, r in _RECORDS.items() for f in _float_fields(r)]
)
def test_records_refuse_non_finite_fields(name, field, value):
    # every comparison with NaN is false, so a range check alone lets it through
    with pytest.raises(ConfigurationError, match=field):
        dataclasses.replace(_RECORDS[name], **{field: value})


_INT_FIELDS = [
    (name, f.name) for name, r in _RECORDS.items() for f in dataclasses.fields(r)
    if f.type is int
]


@pytest.mark.parametrize("value", [1.5, 2.5, np.float64(3.0), True])
@pytest.mark.parametrize("name, field", _INT_FIELDS)
def test_records_refuse_non_integral_int_fields(name, field, value):
    # ChainConfig(ps_bits=1.5) used to build and run a 1.5-bit phase word, and
    # SwarmConfig(particles=4.5) to fail inside numpy with a TypeError
    assert sorted(f for _, f in _INT_FIELDS) == [
        "dac_bits", "iterations", "particles", "ps_bits", "seed"
    ]
    with pytest.raises(ConfigurationError, match=field):
        dataclasses.replace(_RECORDS[name], **{field: value})


@pytest.mark.parametrize(
    "amplitude, phase", [(np.nan, 0.0), (np.inf, 0.0), (-np.inf, 0.0), (1.0, np.nan)]
)
def test_non_finite_tones_rejected_at_both_entry_points(amplitude, phase):
    system = _SYSTEMS["toy"]
    with pytest.raises(ConfigurationError):
        ToneSet([1.0, amplitude], [0.0, phase], SPACING)
    amplitudes, phases, levels = _batch(system, 3, np.random.default_rng(3))
    amplitudes[1, 0], phases[1, 0] = amplitude, phase
    with pytest.raises(ConfigurationError):
        evaluate_batch(amplitudes, phases, levels, system)


@pytest.mark.parametrize(
    "build",
    [
        # 2^64 - 1 used to be stored as level -1, an angle of -3.4e-19 rad
        lambda: PhaseWord([2**64 - 1], 64),
        # used to raise OverflowError converting the level to a C long
        lambda: PhaseWord([2**65 - 1], 65),
        # 2.0**1100 used to overflow in angles()
        lambda: PhaseWord([0, 1], 1100).angles(),
        lambda: PhaseWord([0], 0),
    ],
    ids=["64_bits", "65_bits", "1100_bits", "0_bits"],
)
def test_phase_word_bits_outside_the_chain_range_rejected(build):
    # PhaseWord takes the bits ChainConfig.ps_bits takes, [1, MAX_BITS]
    with pytest.raises(ConfigurationError, match=rf"^bits must lie in \[1, {MAX_BITS}\]$"):
        build()
    with pytest.raises(ConfigurationError, match=rf"^ps_bits must lie in \[1, {MAX_BITS}\]$"):
        dataclasses.replace(_CHAIN, ps_bits=MAX_BITS + 1)
    assert PhaseWord([2**MAX_BITS - 1], MAX_BITS).levels.tolist() == [2**MAX_BITS - 1]


def _batch_of(**values):
    # a toy batch of two candidates with the given arrays in place of its own
    system = _SYSTEMS["toy"]
    batch = _batch(system, 2, np.random.default_rng(5))
    batch = {**dict(zip(("amplitudes", "phases", "levels"), batch)), **values}
    return lambda: evaluate_batch(**batch, system=system)


@pytest.mark.parametrize(
    "build, name",
    [
        # each used to escape as a numpy error, or to drop an imaginary part
        (lambda: PhaseWord(["a"], 3), "levels"),  # UFuncTypeError
        (lambda: PhaseWord(np.array([1], dtype=object), 3), "levels"),
        (lambda: ToneSet([1 + 1j], [0.0], SPACING), "amplitudes"),  # TypeError
        (lambda: ToneSet(["a"], [0.0], SPACING), "amplitudes"),  # ValueError
        (lambda: ToneSet([1.0], ["0.5"], SPACING), "phases"),  # cast to 0.5
        (_batch_of(levels=np.ones((2, 2), dtype=complex)), "levels"),  # TypeError
        (_batch_of(amplitudes=np.ones((2, 1), dtype=complex)), "amplitudes"),  # ComplexWarning
        (_batch_of(phases=np.zeros((2, 1), dtype=object)), "phases"),
    ],
    ids=[
        "word_string", "word_object", "tones_complex", "tones_string", "tones_string_number",
        "batch_complex_levels", "batch_complex_amplitudes", "batch_object_phases",
    ],
)
def test_non_real_free_variables_rejected(build, name):
    with pytest.raises(ConfigurationError, match=f"^{name} must be real numbers"):
        build()


_TOY = toy_setup()


@pytest.mark.parametrize(
    "build, message",
    [
        # each used to escape as a numpy or Python error, or to be accepted
        (lambda: ToneSet([1.0], [0.0], "a"), "tone_spacing"),  # TypeError
        (lambda: ToneSet([1.0], [0.0], float("inf")), "tone_spacing"),  # accepted
        (lambda: ToneSet([[1.0], [1.0, 2.0]], [0.0], SPACING), "amplitudes"),  # ValueError
        (lambda: PhaseWord([[0], [0, 1]], 3), "levels"),  # ValueError
        (_batch_of(amplitudes=[[1.0], [1.0, 2.0]]), "amplitudes"),  # ValueError
        (_batch_of(levels=[[0, 0], [0]]), "levels"),  # ValueError
        (lambda: decode_particle([[1.0], [1.0, 2.0]], 1, SPACING, 1), "position"),
        # 2.5 tones built a 6-column H_band, and True a 1-tone model
        (_replace(_TOY.system, tone_count=2.5), "tone_count"),
        (_replace(_TOY.system, tone_count=True), "tone_count"),
        (_replace(_TOY.system, tone_count="1"), "tone_count"),  # TypeError
        (_replace(_TOY.system, boresight_exponent=None), "boresight_exponent"),  # TypeError
        (lambda: brute_force_grid(2.5, 2, _TOY.system, _TOY.swarm), "grid"),  # TypeError
        (lambda: brute_force_grid("2", 2, _TOY.system, _TOY.swarm), "grid"),  # TypeError
        # 2^B - 1 was formed before any check: OverflowError
        (lambda: decode_particle(np.zeros(3), 1, SPACING, 1100), "ps_bits"),
        (lambda: decode_particle(np.zeros(3), 1, SPACING, 10**5), "ps_bits"),
        (lambda: decode_particle(np.zeros(3), 2.5, SPACING, 1), "tone_count"),
        (lambda: decode_particle(np.zeros(3), "1", SPACING, 1), "tone_count"),  # TypeError
        (lambda: element_positions(2.5, 2, 5.18e9), "rows"),  # TypeError
        (lambda: element_positions("2", 2, 5.18e9), "rows"),  # TypeError
        (lambda: element_positions(2, 2, float("nan")), "carrier"),  # NaN positions
        (lambda: ReceiverPosition("a", 1.0, 0.0), "x"),  # accepted
        (lambda: particle_bounds(2.5, 2, 300.0), "tone_count"),  # TypeError
        (lambda: particle_bounds("1", 2, 300.0), "tone_count"),  # TypeError
        (lambda: particle_bounds(-1, 2, 300.0), "tone_count"),  # ValueError
        (lambda: particle_bounds(1, 0.5, 300.0), "element_count"),  # TypeError
        # counts no SystemModel admits: numpy's ValueError, or arrays sized by them
        (lambda: particle_bounds(2**70, 2, 300.0), "tone_count"),  # ValueError
        (lambda: particle_bounds(21846, 1, 1.0), "tone_count"),  # accepted
        (lambda: particle_bounds(1, 2**21, 1.0), "element_count"),  # accepted
        (lambda: particle_bounds(1, 2, float("nan")), "amplitude_max"),  # accepted
        (lambda: particle_bounds(1, 2, float("inf")), "amplitude_max"),  # accepted
        (lambda: particle_bounds(1, 2, "300"), "amplitude_max"),  # accepted, string bounds
        (lambda: particle_bounds(1, 2, 0.0), "amplitude_max"),  # accepted
        # the decode's cast warned first: a RuntimeWarning under the suite's filter
        (lambda: decode_particle([np.nan] * 3, 1, SPACING, 1), "position"),
        (lambda: decode_particle([1.0, 0.0, np.inf], 1, SPACING, 1), "position"),
        # refused after the decode, as ToneSet's amplitudes
        (lambda: decode_particle([-np.inf, 0.0, 0.5], 1, SPACING, 1), "position"),
    ],
    ids=[
        "spacing_string", "spacing_inf", "tones_ragged", "word_ragged",
        "batch_ragged_amplitudes", "batch_ragged_levels", "particle_ragged",
        "tone_count_fraction", "tone_count_bool", "tone_count_string",
        "boresight_exponent_none", "grid_fraction", "grid_string",
        "particle_1100_bits", "particle_100000_bits", "particle_tone_count_fraction",
        "particle_tone_count_string", "array_rows_fraction", "array_rows_string",
        "array_carrier_nan", "receiver_string", "bounds_tone_count_fraction",
        "bounds_tone_count_string", "bounds_tone_count_negative", "bounds_element_count_fraction",
        "bounds_tone_count_huge", "bounds_tone_count_past_a_period",
        "bounds_element_count_past_the_channel",
        "bounds_amplitude_nan", "bounds_amplitude_inf", "bounds_amplitude_string",
        "bounds_amplitude_zero", "particle_nan", "particle_inf", "particle_negative_inf",
    ],
)
def test_malformed_arguments_rejected_at_the_boundary(build, message):
    with pytest.raises(ConfigurationError, match=f"^{message}"):
        build()


# Python objects, empty, ragged and one-element lists, arrays of narrow
# dtypes and a count past every bound: 22 values, each put into every
# argument slot below with the others valid. No count lies between 10^5 and
# 2^62, and a valid grid is 2 x 2 tone points
_FUZZ_VALUES = [
    None, "a", "1.0", 1j, True, b"1",
    [], [[1.0], [1.0, 2.0]], [[0], [0, 1]],
    [np.nan], [np.inf], [-1.0], [1e308], [1e-320], [-0.0], -0.0,
    np.ones(1, np.float16), np.ones(1, np.int8), np.ones(1, np.uint64),
    {}, object(), 2**70,
]
_FUZZ_SLOTS = {
    "ToneSet.amplitudes": lambda v: ToneSet(v, [0.0], SPACING),
    "ToneSet.phases": lambda v: ToneSet([1.0], v, SPACING),
    "ToneSet.tone_spacing": lambda v: ToneSet([1.0], [0.0], v),
    "PhaseWord.levels": lambda v: PhaseWord(v, 1),
    "PhaseWord.bits": lambda v: PhaseWord([0, 1], v),
    "evaluate_batch.amplitudes": lambda v: evaluate_batch(v, [[0.0]], [[0, 1]], _TOY.system),
    "evaluate_batch.phases": lambda v: evaluate_batch([[1.0]], v, [[0, 1]], _TOY.system),
    "evaluate_batch.levels": lambda v: evaluate_batch([[1.0]], [[0.0]], v, _TOY.system),
    "decode_particle.position": lambda v: decode_particle(v, 1, SPACING, 1),
    "decode_particle.tone_count": lambda v: decode_particle(np.zeros(3), v, SPACING, 1),
    "decode_particle.tone_spacing": lambda v: decode_particle(np.zeros(3), 1, v, 1),
    "decode_particle.ps_bits": lambda v: decode_particle(np.zeros(3), 1, SPACING, v),
    "particle_bounds.tone_count": lambda v: particle_bounds(v, 2, 300.0),
    "particle_bounds.element_count": lambda v: particle_bounds(1, v, 300.0),
    "particle_bounds.amplitude_max": lambda v: particle_bounds(1, 2, v),
    "brute_force_grid.amplitude_points": lambda v: brute_force_grid(v, 2, _TOY.system, _TOY.swarm),
    "brute_force_grid.phase_points": lambda v: brute_force_grid(2, v, _TOY.system, _TOY.swarm),
}
_ANY_ARRAY = arrays(
    st.one_of(scalar_dtypes(), byte_string_dtypes(), unicode_string_dtypes()),
    array_shapes(min_dims=0, max_dims=2, max_side=3),
)


def _accepted_or_refused(slot: str, value) -> None:
    """Call slot's entry point with value; it may succeed, or refuse with a
    ConfigurationError or a NumericalError, and nothing else."""
    try:
        _FUZZ_SLOTS[slot](value)
    except (ConfigurationError, NumericalError):
        pass
    except Exception as exc:  # a numpy warning too, under the suite's filter
        raise AssertionError(f"{slot} = {value!r} escaped as {type(exc).__name__}") from exc


@pytest.mark.parametrize("slot", sorted(_FUZZ_SLOTS))
def test_only_the_two_refusals_escape_the_python_api(slot):
    # every value of the table into this slot, then arrays of every dtype
    for value in _FUZZ_VALUES:
        _accepted_or_refused(slot, value)

    @settings(max_examples=25, deadline=None)
    @given(value=_ANY_ARRAY)
    def drawn(value):
        _accepted_or_refused(slot, value)

    drawn()


def test_fractional_phase_levels_rejected_and_integral_floats_accepted():
    bits = 3
    for levels in ([1.9] * 25, [0.5, 1.0], [np.nan], [np.inf]):
        with pytest.raises(ConfigurationError):
            PhaseWord(levels, bits)
    word = PhaseWord([2.0, 7.0], bits)
    assert word.levels.dtype == int and word.levels.tolist() == [2, 7]
    # every level at 2.7 of 0..7 used to evaluate as level 2
    system = _SYSTEMS["desk"]
    amplitudes, phases, levels = _batch(system, 3, np.random.default_rng(4))
    with pytest.raises(ConfigurationError):
        evaluate_batch(amplitudes, phases, np.full(levels.shape, 2.7), system)
    whole, floats = (
        evaluate_batch(amplitudes, phases, values, system) for values in (levels, levels * 1.0)
    )
    assert np.array_equal(whole[0].p_out_dc, floats[0].p_out_dc)
