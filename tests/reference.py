"""The passband chain, kept as the tests' oversampled reference.

The library runs the chain on the complex envelope: the amplifier's first
zone, one per-bin beam gain and a log-mean of I0 at the rectenna. The tests
check it against the real passband period here, n_sim samples with the
carrier at bin m, where the amplifier's harmonics are present and alias back
into the band by an amount that shrinks as n_sim grows. The library has no
passband plan; each test chooses its own, such as DESK_PLAN or PAPER_PLAN,
and this module alone checks it:

- passband_plan places one period at n_sim samples, the carrier at bin m and
  the band at bins m - K..m + K, and refuses a plan it cannot sample;
  passband_receive_band gives those bins with the channel at them;
- upconvert mixes the filtered baseband onto the carrier, and rapp_amplifier
  amplifies the real passband samples;
- beamformed_received runs the phase shifters and the channel as one per-bin
  beam gain on the passband period, and apply_phase_shifters and
  received_signal form and sum the N element branches explicitly;
- rhs_log_mean and hpa_power take their period means over passband samples;
- gathered_amplify_envelope reads the envelope amplifier's zone table by
  one gather of every coefficient, where the library gathers row by row;
- i0e_rhs_log_mean takes the rectenna's log-mean of I0 over the received
  envelope with scipy's i0e at every sample, where the library reads i0e
  from a cubic table;
- passband_outcome runs the whole chain this way.

It also keeps earlier, plainer forms of library code that the faster forms
must match bit for bit:

- round_half_away rounds DAC codes with fresh temporaries, where the library
  reuses two buffers in place;
- emit_structured, emit_table and render_report format the CLI's reports one
  value at a time through scalar, where the library formats each float array
  in one % pass and builds the simulate table a column at a time.
"""

import io
import json
from dataclasses import dataclass

import numpy as np
from scipy.special import i0e

import wptsim.cli
import wptsim.signal_chain
from wptsim import ConfigurationError, PhaseWord, ToneSet
from wptsim.channel import receive_band
from wptsim.rectenna import RectennaParams, dc_output_voltage, lambert_w0_log
from wptsim.signal_chain import (
    _rapp_compression,
    lowpass_filter,
    quantize_dac,
    synthesize_multitone,
)
from wptsim.simulation import MAX_PERIOD_SAMPLES, SystemModel


# (carrier bin, n_sim) in tone spacings: the plans of the two former
# profiles, 80 MHz in a 225 MHz period and 5.18 GHz in a 12.975 GHz one
DESK_PLAN = (64, 180)
PAPER_PLAN = (4144, 10380)


@dataclass(frozen=True)
class PassbandPlan:
    """One real passband period of n_sim samples, the carrier at bin m, and
    the band, the bins m + k of the offsets k = -K..K."""

    n_sim: int
    carrier_bin: int
    band: np.ndarray


def _whole(value, name: str) -> int:
    """value as a positive whole number, within the 1e-6 slack the library
    allows a rate's multiple of the tone spacing, or a ConfigurationError."""
    whole = round(value) if np.isfinite(value) else 0
    if whole <= 0 or abs(value - whole) > 1e-6:
        raise ConfigurationError(
            f"{name} = {value} is not a positive whole number of tone spacings"
        )
    return whole


def passband_plan(system: SystemModel, carrier_bin: float, n_sim: float) -> PassbandPlan:
    """The passband period of n_sim samples with the carrier at carrier_bin,
    both in tone spacings, for the system's DAC period and tones.

    Refuses, as a ConfigurationError, a bin or a size that is not whole, a
    period shorter than the DAC's or longer than MAX_PERIOD_SAMPLES, a
    carrier within the bandwidth, whose band would reach below DC, and a
    period of at most 2 (m + K) samples: at equality the top band bin is the
    Nyquist bin, which holds no quadrature for the phase shifters to rotate.
    """
    tones = system.tone_count
    m = _whole(carrier_bin, "carrier_bin")
    n_sim = _whole(n_sim, "n_sim")
    if n_sim < system.n_dac:
        raise ConfigurationError(f"n_sim {n_sim} must not be below the DAC period {system.n_dac}")
    if n_sim > MAX_PERIOD_SAMPLES:
        raise ConfigurationError(
            f"n_sim {n_sim:.3g} samples in one period; at most {MAX_PERIOD_SAMPLES} are simulated"
        )
    if m <= tones:
        raise ConfigurationError(f"carrier_bin {m} must exceed the tone count {tones}")
    if n_sim <= 2 * (m + tones):
        raise ConfigurationError(
            f"n_sim {n_sim} must exceed the Nyquist size 2 x (carrier_bin {m} + tones {tones})"
        )
    return PassbandPlan(n_sim, m, m + np.arange(-tones, tones + 1))


def passband_receive_band(channel, carrier_bin: int, tone_count: int, tone_spacing: float):
    """The band's passband bins m + k, k = -K..K, around carrier bin m, and
    the channel at them, H_band (N, 2K+1), as the library takes it."""
    offsets = np.arange(-tone_count, tone_count + 1)
    return carrier_bin + offsets, receive_band(channel, tone_count, tone_spacing)


def lambert_w0(x: float) -> float:
    """Principal-branch Lambert W for nonnegative arguments.

    Satisfies w * exp(w) = x to a relative residual of about 1e-12 over the
    full double range; arguments too large to exponentiate should be passed
    through lambert_w0_log instead.
    """
    x = float(x)
    if x < 0 or np.isnan(x):
        raise ConfigurationError("principal-branch evaluation requires x >= 0")
    if x == 0.0:
        return 0.0
    return lambert_w0_log(np.log(x))


def upconvert(
    baseband: np.ndarray, tone_count: int, carrier_bin: int, n_sim: int
) -> np.ndarray:
    """Mix the baseband period onto carrier bin m of a real n_sim-sample period.

    Offset k = -K..K of the band, the baseband's DFT bin k mod n_dac, is
    written at rfft bin m + k, scaled by n_sim / (2 n_dac); one irfft gives
    Re{z(t) e^{j 2 pi m t / n_sim}} with z the band-limited baseband period
    at n_sim samples. When n_dac = 2K the Nyquist bin stands for both k = +-K
    and is split in half between them. passband_plan keeps the band strictly
    inside (0, n_sim / 2).
    """
    n_dac = baseband.size
    offsets = np.arange(-tone_count, tone_count + 1)
    bins = np.fft.fft(baseband)[offsets % n_dac] * (n_sim / (2 * n_dac))
    if n_dac == 2 * tone_count:
        bins[[0, -1]] *= 0.5
    spectrum = np.zeros(n_sim // 2 + 1, dtype=complex)
    spectrum[carrier_bin + offsets] = bins
    return np.fft.irfft(spectrum, n=n_sim)


def rapp_amplifier(
    x: np.ndarray, gain: float, saturation: float, smoothness: float
) -> np.ndarray:
    """Smooth saturating memoryless amplifier on real passband samples.

    y = G x (1 + (G|x|/A_s)^(2 beta))^(-1/(2 beta)); above the knee the
    compression factor is evaluated in reciprocal form so the power term never
    overflows, and |y| stays strictly below the saturation voltage.
    """
    if np.iscomplexobj(x):
        raise ConfigurationError("the amplifier acts on a real signal")
    if smoothness < 1:
        raise ConfigurationError("smoothness must be >= 1")
    if gain <= 0 or saturation <= 0:
        raise ConfigurationError("gain and saturation must be positive")
    out = gain * x * _rapp_compression(gain * np.abs(x) / saturation, smoothness)
    # the true output is strictly below saturation but deep drives round up to
    # it in double precision; cap one ulp under the rail
    limit = np.nextafter(saturation, 0.0)
    np.clip(out, -limit, limit, out=out)
    return out


def gathered_amplify_envelope(
    envelope: np.ndarray, gain: float, saturation: float, smoothness: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """amplify_envelope with the zone table read by one gather of all its
    pieces, (4, 2, ..., n), and Horner's rule on both functions at once.

    The library reads the table one coefficient row at a time instead, in
    the same order of floating-point operations, and must equal this bit for
    bit. The table is looked up through wptsim.signal_chain, as the library
    does, so a patched _zone_table reaches both.
    """
    table = wptsim.signal_chain._zone_table(float(smoothness))
    intervals = table.shape[-1]
    amplitude = np.abs(envelope)
    drive = gain * amplitude / saturation
    inverse = 1.0 / (1.0 + drive)
    x = drive * inverse
    position = x * intervals
    interval = np.minimum(position.astype(np.intp), intervals - 1)
    t = position - interval
    piece = np.take(table, interval, axis=2)
    scaled = piece[3] * t
    scaled += piece[2]
    scaled *= t
    scaled += piece[1]
    scaled *= t
    scaled += piece[0]
    ratio = gain * scaled[0] * inverse
    x *= x
    n = envelope.shape[-1]
    p_out = saturation**2 * np.vecdot(scaled[1], x) / n
    p_in = 0.5 * np.vecdot(amplitude, amplitude) / n
    return ratio * envelope, p_in, p_out


def i0e_rhs_log_mean(envelope: np.ndarray, params: RectennaParams):
    """The library's rhs_log_mean with I0 from scipy's i0e at every sample:
    log of the period mean of I0(c |b(t)|), c = sqrt(R_s) / (eta V_0), one
    per period along the last axis, evaluated as log I0(z) = z + log i0e(z)
    with each period's largest exponent shifted out."""
    scale = np.sqrt(params.source_resistance) / (params.ideality * params.thermal_voltage)
    exponents = np.abs(envelope)
    exponents *= scale
    shift = exponents.max(axis=-1)
    terms = exponents - shift[..., None]
    np.exp(terms, out=terms)
    terms *= i0e(exponents, out=exponents)
    return shift + np.log(terms.sum(axis=-1) / terms.shape[-1])


def beamformed_received(
    hpa: np.ndarray,
    word: PhaseWord,
    insertion_loss: float,
    band: np.ndarray,
    band_coefficients: np.ndarray,
) -> np.ndarray:
    """The amplified passband period through the phase shifters and the channel.

    Equals forming the N real element branches, each the period rotated by
    theta_i on its analytic envelope, and summing each through the channel
    on the band. The model is linear after the amplifier: inside
    the band, branch i holds s e^{-j theta_i} X[k], with X the rfft of the
    period and s = (insertion_loss N)^-1/2, so the received bins are X[band]
    times the per-bin beam gain g = s e^{-j theta}^T H_band and no branch is
    formed. The band must lie strictly between DC and Nyquist: a real branch
    has no quadrature at either, and a bin index below DC would wrap.
    """
    if np.iscomplexobj(hpa) or hpa.ndim != 1:
        raise ConfigurationError("the phase shifters act on one real passband signal")
    if insertion_loss < 1:
        raise ConfigurationError("insertion loss is a linear power ratio >= 1")
    if band_coefficients.shape[0] != word.count:
        raise ConfigurationError(
            f"expected {band_coefficients.shape[0]} phase levels, got {word.count}"
        )
    n = hpa.size
    if band.size and (band[0] <= 0 or 2 * band[-1] >= n):
        raise ConfigurationError("the receive band must lie strictly between DC and Nyquist")
    scale = 1.0 / np.sqrt(insertion_loss * word.count)
    gain = (scale * np.exp(-1j * word.angles())) @ band_coefficients
    spectrum = np.zeros(n // 2 + 1, dtype=complex)
    spectrum[band] = np.fft.rfft(hpa)[band] * gain
    return np.fft.irfft(spectrum, n=n)


def apply_phase_shifters(x: np.ndarray, word: PhaseWord, insertion_loss: float) -> np.ndarray:
    """Split the amplified passband period across the array through B-bit phase shifters.

    The rotation acts on the analytic envelope (an ideal RF phase shift at the
    carrier); each branch is scaled by 1/sqrt(insertion_loss * N). Returns the
    (N, n) stack of branches, one row per element.
    """
    if np.iscomplexobj(x):
        raise ConfigurationError("phase shifters act on the real passband signal")
    if insertion_loss < 1:
        raise ConfigurationError("insertion loss is a linear power ratio >= 1")
    # Hilbert transform: -j on every positive-frequency bin, none at DC or Nyquist
    spectrum = -1j * np.fft.rfft(x)
    spectrum[0] = 0.0
    if x.size % 2 == 0:
        spectrum[-1] = 0.0
    quadrature = np.fft.irfft(spectrum, n=x.size)
    scale = 1.0 / np.sqrt(insertion_loss * word.count)
    angles = word.angles()
    # Re{(x + j q) e^{-j angle}} = x cos(angle) + q sin(angle)
    return scale * (
        np.cos(angles)[:, None] * x[None, :] + np.sin(angles)[:, None] * quadrature[None, :]
    )


def received_signal(
    elements: np.ndarray, band: np.ndarray, band_coefficients: np.ndarray
) -> np.ndarray:
    """Propagate every element branch to the receiver and sum.

    `elements` is the real (N, n) stack of branches, one row per channel
    entry. Each bin of the receive band (`band` and `band_coefficients`,
    from passband_receive_band) is scaled by the channel at that bin's RF
    frequency; content outside the band is rejected.
    """
    if np.iscomplexobj(elements):
        raise ConfigurationError("received_signal combines real passband branches")
    count = band_coefficients.shape[0]
    if elements.ndim != 2 or elements.shape[0] != count:
        raise ConfigurationError(
            f"expected a stack of {count} element signals, got shape {elements.shape}"
        )
    n = elements.shape[1]
    if band.size and (band[0] < 0 or 2 * band[-1] > n):
        raise ConfigurationError("the receive band must lie between DC and Nyquist")
    bins = np.fft.rfft(elements, axis=1)[:, band]
    spectrum = np.zeros(n // 2 + 1, dtype=complex)
    spectrum[band] = np.sum(band_coefficients * bins, axis=0)
    return np.fft.irfft(spectrum, n=n)


def rhs_log_mean(received: np.ndarray, params: RectennaParams) -> float:
    """Log of the one-period mean of exp(sqrt(R_s) r(t) / (eta V_0)).

    Evaluated with log-sum-exp so hot diode drives stay finite.
    """
    if np.iscomplexobj(received):
        raise ConfigurationError("rectenna input must be a real signal")
    scale = np.sqrt(params.source_resistance) / (params.ideality * params.thermal_voltage)
    exponents = scale * np.asarray(received, dtype=float)
    shift = exponents.max(axis=-1)
    return float(shift + np.log(np.mean(np.exp(exponents - shift[..., None]), axis=-1)))


def hpa_power(
    amplifier_in: np.ndarray,
    amplifier_out: np.ndarray,
    input_resistance: float,
    output_resistance: float,
) -> float:
    """Difference of the period-mean output and input powers of the amplifier.

    A dissipation proxy, not a drain-efficiency model; it can come out
    negative for deeply saturated drives with equal port resistances.
    """
    if input_resistance <= 0 or output_resistance <= 0:
        raise ConfigurationError("port resistances must be positive")
    if amplifier_in.size != amplifier_out.size:
        raise ConfigurationError("amplifier input and output must share length")
    p_in = np.mean(np.abs(amplifier_in) ** 2, axis=-1) / input_resistance
    p_out = np.mean(np.abs(amplifier_out) ** 2, axis=-1) / output_resistance
    return float(p_out - p_in)


@dataclass(frozen=True)
class PassbandOutcome:
    """The passband chain's periods and its harvest and amplifier power."""

    mixer: np.ndarray
    hpa: np.ndarray
    received: np.ndarray
    p_out_dc: float
    p_hpa: float


def passband_outcome(
    tones: ToneSet, word: PhaseWord, system: SystemModel, plan: PassbandPlan
) -> PassbandOutcome:
    """The chain on the real passband period of a passband_plan."""
    chain = system.chain
    digital = synthesize_multitone(tones.amplitudes, tones.phases, system.n_dac)
    lpf = lowpass_filter(quantize_dac(digital, chain.dac_bits, chain.dac_range), system.tone_count)
    mixer = upconvert(lpf, system.tone_count, plan.carrier_bin, plan.n_sim)
    hpa = rapp_amplifier(mixer, chain.hpa_gain, chain.hpa_saturation, chain.hpa_smoothness)
    received = beamformed_received(
        hpa, word, chain.ps_insertion_loss, plan.band, system.band_coefficients
    )
    v_out = dc_output_voltage(rhs_log_mean(received, system.rectenna), system.rectenna)
    power = system.power
    p_hpa = hpa_power(mixer, hpa, power.hpa_input_resistance, power.hpa_output_resistance)
    return PassbandOutcome(
        mixer, hpa, received, v_out * v_out / system.rectenna.load_resistance, p_hpa
    )


def round_half_away(values: np.ndarray) -> np.ndarray:
    """Round half away from zero: the sign times the whole part, plus one
    where the exact fraction |v| - floor(|v|) is at least 0.5."""
    magnitude = np.abs(values)
    whole = np.floor(magnitude)
    return np.sign(values) * (whole + (magnitude - whole >= 0.5))


def scalar(value) -> str:
    """One report value's text, as the CLI printed it value by value."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.9g}"
    if value is None:
        return "null"
    return json.dumps(str(value))


def emit_structured(data: dict, indent: int = 0) -> str:
    """A nested report as YAML-compatible text, each array value through scalar."""
    lines = []
    pad = "  " * indent
    for key, value in data.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(emit_structured(value, indent + 1))
        elif isinstance(value, (list, tuple)) and any(isinstance(v, dict) for v in value):
            lines.append(f"{pad}{key}:")
            for item in value:
                body = emit_structured(item, indent + 2).splitlines()
                lines.append(f"{pad}  - {body[0].strip()}")
                lines.extend(body[1:])
        elif isinstance(value, (list, tuple, np.ndarray)):
            rendered = ", ".join(scalar(v) for v in np.asarray(value).tolist())
            lines.append(f"{pad}{key}: [{rendered}]")
        else:
            lines.append(f"{pad}{key}: {scalar(value)}")
    return "\n".join(lines)


def emit_table(header: list[str], rows: list[list]) -> str:
    """Rows as CSV under a header, each cell through scalar."""
    buffer = io.StringIO()
    buffer.write(",".join(header) + "\n")
    for row in rows:
        cells = []
        for cell in row:
            text = scalar(cell)
            if text.startswith('"') or "," not in text:
                cells.append(text.strip())
            else:
                cells.append(json.dumps(text))
        buffer.write(",".join(cells) + "\n")
    return buffer.getvalue()


def render_report(report: dict, fmt: str) -> str:
    """A CLI report in either format; a simulate table holds one row per
    stage sample and spectrum bin."""
    if fmt == "structured":
        return emit_structured(report) + "\n"
    if report["command"] != "simulate":
        return emit_table(*wptsim.cli._flatten_for_table(report))
    rows = []
    for stage in ("digital", "dac", "lpf", "mixer", "hpa", "received"):
        data = report["stages"][stage]
        rate = data["sample_rate"]
        for series in ("time_real", "time_imag"):
            for i, value in enumerate(np.asarray(data[series])):
                rows.append([stage, series, i, i / rate, value])
        freqs = np.asarray(data["spectrum_frequency"])
        mags = np.asarray(data["spectrum_magnitude"])
        for i, (freq, mag) in enumerate(zip(freqs, mags)):
            rows.append([stage, "spectrum", i, freq, mag])
    return emit_table(["stage", "series", "index", "coordinate", "value"], rows)
