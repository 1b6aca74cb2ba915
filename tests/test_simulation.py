import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import desk_setup
from wptsim import (
    BASEBAND,
    PASSBAND,
    ConfigurationError,
    DomainError,
    NumericalError,
    PhaseWord,
    SampledSignal,
    ToneSet,
    apply_phase_shifters,
    evaluate_solution,
    harvest_from_signal,
    lowpass_filter,
    quantize_dac,
    rapp_amplifier,
    received_signal,
    run_chain,
    synthesize_multitone,
    total_power,
    upconvert,
)
import wptsim.simulation

SPACING = 1.25e6


class TestRunChain:
    def test_stage_domains_rates_and_lengths(self):
        setup = desk_setup()
        stages = run_chain(setup.tones, setup.phase_word, setup.system)
        chain = setup.system.chain
        for stage in (stages.digital, stages.dac, stages.lpf):
            assert stage.domain == BASEBAND
            assert stage.sample_rate == chain.dac_sample_rate
            assert stage.samples.size == 80
        for stage in (stages.mixer, stages.hpa, stages.received):
            assert stage.domain == PASSBAND
            assert stage.sample_rate == chain.sim_sample_rate
            assert stage.samples.size == 180
        assert stages.elements.samples.shape == (25, 180)

    def test_matches_hand_composition(self):
        # recompute every stage by direct calls to the public operations
        setup = desk_setup()
        system, tones, word = setup.system, setup.tones, setup.phase_word
        chain = system.chain
        stages = run_chain(tones, word, system)
        digital = synthesize_multitone(tones, chain.dac_sample_rate)
        dac = quantize_dac(digital, chain.dac_bits, chain.dac_range)
        lpf = lowpass_filter(dac, system.bandwidth)
        mixer = upconvert(lpf, chain.carrier, chain.sim_sample_rate, system.bandwidth)
        hpa = rapp_amplifier(mixer, chain.hpa_gain, chain.hpa_saturation, chain.hpa_smoothness)
        elements = apply_phase_shifters(hpa, word, chain.ps_insertion_loss)
        received = received_signal(elements, system.channel, chain.carrier, system.bandwidth)
        assert np.array_equal(stages.digital.samples, digital.samples)
        assert np.array_equal(stages.dac.samples, dac.samples)
        assert np.array_equal(stages.lpf.samples, lpf.samples)
        assert np.array_equal(stages.mixer.samples, mixer.samples)
        assert np.array_equal(stages.hpa.samples, hpa.samples)
        assert np.array_equal(stages.received.samples, received.samples)

    def test_stages_consistent_across_simulation_rates(self):
        # doubling the passband rate must reproduce the coarser run at the
        # shared sample instants: the period is exact at any commensurate rate
        setup = desk_setup()
        fine = desk_setup(chain={"sim_sample_rate": 360 * SPACING})
        coarse_stages = run_chain(setup.tones, setup.phase_word, setup.system)
        fine_stages = run_chain(fine.tones, fine.phase_word, fine.system)
        assert fine_stages.mixer.samples.size == 2 * coarse_stages.mixer.samples.size
        assert_allclose(
            fine_stages.mixer.samples[::2], coarse_stages.mixer.samples, atol=1e-9
        )
        assert_allclose(
            fine_stages.hpa.samples[::2], coarse_stages.hpa.samples, atol=1e-9
        )

    def test_received_power_below_radiated_power(self):
        setup = desk_setup()
        stages = run_chain(setup.tones, setup.phase_word, setup.system)
        radiated = np.sum(np.mean(stages.elements.samples**2, axis=1))
        received = np.mean(stages.received.samples**2)
        assert received < 1e-3 * radiated

    def test_waveform_mismatch_rejected(self):
        setup = desk_setup()
        bad_tones = ToneSet(np.ones(4), np.zeros(4), SPACING)
        with pytest.raises(DomainError):
            run_chain(bad_tones, setup.phase_word, setup.system)
        bad_word = PhaseWord(np.zeros(4, dtype=int), 3)
        with pytest.raises(DomainError):
            run_chain(setup.tones, bad_word, setup.system)


class TestEvaluateSolution:
    def test_matches_component_recomputation(self):
        setup = desk_setup()
        outcome = evaluate_solution(setup.tones, setup.phase_word, setup.system)
        stages = run_chain(setup.tones, setup.phase_word, setup.system)
        harvest = harvest_from_signal(stages.received, setup.system.rectenna)
        power = total_power(
            setup.tones,
            stages.mixer,
            stages.hpa,
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

    def test_one_evaluation_builds_seven_signals(self, monkeypatch):
        # one signal per stage: the 25 element branches travel as one stack
        setup = desk_setup()
        built = []
        original = SampledSignal.__post_init__

        def counting(signal):
            built.append(signal.domain)
            original(signal)

        monkeypatch.setattr(SampledSignal, "__post_init__", counting)
        evaluate_solution(setup.tones, setup.phase_word, setup.system)
        assert len(built) == 7

    def test_numerical_failures_carry_stage_tag(self, monkeypatch):
        setup = desk_setup()

        def explode(*args, **kwargs):
            raise FloatingPointError("synthetic overflow")

        monkeypatch.setattr(wptsim.simulation, "rapp_amplifier", explode)
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


class TestSystemModelValidation:
    def test_non_commensurate_carrier_rejected(self):
        with pytest.raises(ConfigurationError):
            desk_setup(chain={"carrier": 80.3e6})

    def test_nyquist_violation_rejected(self):
        with pytest.raises(ConfigurationError):
            desk_setup(chain={"sim_sample_rate": 100e6})

    def test_dac_rate_below_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            desk_setup(chain={"dac_sample_rate": 10e6})

    def test_receiver_on_element_rejected(self):
        with pytest.raises(ConfigurationError):
            desk_setup(receiver={"position": [0.0, 0.0, 0.0]})

    def test_paper_profile_agrees_with_desk_scale(self):
        # the desk profile snaps the simulated carrier down; harvest and
        # amplifier power must track the faithful 5.18 GHz simulation
        from wptsim.config import build_setup, load_config

        paper = build_setup(load_config(profile="paper"))
        desk = desk_setup()
        assert paper.system.chain.sim_sample_rate == 10380 * SPACING
        full = evaluate_solution(paper.tones, paper.phase_word, paper.system)
        fast = evaluate_solution(desk.tones, desk.phase_word, desk.system)
        assert_allclose(fast.harvest.p_out_dc, full.harvest.p_out_dc, rtol=0.1)
        assert_allclose(fast.power.p_hpa, full.power.p_hpa, rtol=0.01)

    def test_desk_profile_keeps_rf_wavelengths(self):
        setup = desk_setup()
        assert setup.system.chain.carrier == 80e6
        assert setup.system.geometry.carrier == 5.18e9
        assert setup.system.channel.carrier == 5.18e9
        # channel magnitudes match the faithful 5.18 GHz path loss
        assert_allclose(
            np.abs(setup.system.channel.tone_coefficients).max(), 3.761e-3, rtol=2e-3
        )
