"""Link- and sensing-level figures of merit.

Monte-Carlo bit error rates (with per-trial seed derivation so different
waveforms see identical bitstreams, channel draws and noise shapes), peak-to-
average power statistics and their empirical survivor curves, discrete
ambiguity functions with mainlobe/sidelobe cut metrics, and the closed-form
overhead ratios.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import ChannelConfig, ChannelRealization, apply_channel, noise_shape
from .detection import (
    Constellation,
    bits_for_indices,
    hard_decide,
    map_bits,
    mmse_equalize,
    single_tap_equalize,
    solve_periodic_banded,
)
from .waveforms import (
    ConfigurationError,
    DdamConfig,
    WaveformBundle,
    core_channel,
    ddam_blocks,
    ddam_frame_length,
    effective_channel,
    remove_prefix,
)

SENTINEL_DB = -350.0  # stands in for -inf when a cut has no sidelobe energy
PAPR_MIN_TAIL = 10  # survivor points kept down to this many samples beyond them
PAPR_BLOCK = 2048  # longest time block of a streamed per-branch PAPR (>= 128)
DETECTORS = ("mmse", "single-tap")
AF_CONVENTIONS = ("aperiodic", "cyclic")


def derive_rng(*keys: int) -> np.random.Generator:
    """Counter-based generator keyed on an integer tuple.

    Trial-level streams are derived as (master_seed, trial, stream_id), so
    results are reproducible and independent of scheduling order.
    """
    ss = np.random.SeedSequence([int(k) for k in keys])
    return np.random.Generator(np.random.Philox(ss))


_STREAM_BITS, _STREAM_CHANNEL, _STREAM_NOISE = 0, 1, 2


@dataclass(frozen=True)
class BerPoint:
    snr_db: float
    bit_errors: int
    bits: int

    @property
    def ber(self) -> float:
        return self.bit_errors / self.bits if self.bits else 0.0


def noise_variance(snr_db: float) -> float:
    """Complex noise variance at symbol SNR ``snr_db`` over a unit-energy alphabet."""
    return 10.0 ** (-snr_db / 10.0)


def _ber_trial(
    bundle: WaveformBundle,
    channel_cfg: ChannelConfig,
    constellation: Constellation,
    snr_db_list: tuple,
    detector: str,
    seed: int,
    trial: int,
) -> np.ndarray:
    """Bit errors per SNR point for one trial; shape (n_snr,).

    The noiseless received frame and the unit noise shape are computed once;
    each SNR point scales the shape onto the frame, exactly as
    :func:`apply_channel` adds it.  Frames are modulated with the bundle's
    factored operator.  Block MMSE over a square unitary bundle equalizes
    in the time domain (:func:`time_domain_mmse`) and never builds a dense
    matrix; other bundles and the single-tap detector use the
    modulation-domain channel matrix, which reads the dense reference.
    """
    if detector not in DETECTORS:
        raise ConfigurationError(f"unknown detector {detector!r}")
    k = constellation.bits_per_symbol
    n_bits = bundle.n_symbols * k
    bits = derive_rng(seed, trial, _STREAM_BITS).integers(0, 2, n_bits)
    x = map_bits(bits, constellation)
    frame = bundle.transmit(x)
    real = channel_cfg.realize(
        bundle.geometry.sample_rate_hz,
        sigma2=0.0,
        rng_seed=derive_rng(seed, trial, _STREAM_CHANNEL),
    )
    r0 = apply_channel(frame, real)
    w = noise_shape(frame.size, derive_rng(seed, trial, _STREAM_NOISE))
    sigma2s = [noise_variance(snr_db) for snr_db in snr_db_list]
    received = [r0 + np.sqrt(sigma2 / 2.0) * w for sigma2 in sigma2s]
    if detector == "mmse" and bundle.adjoint_pair:
        soft = time_domain_mmse(bundle, real, received, sigma2s)
        hard = [hard_decide(s, constellation) for s in soft]
    else:
        h_eff = effective_channel(bundle, real)
        equalize = mmse_equalize if detector == "mmse" else single_tap_equalize
        hard = [
            hard_decide(equalize(bundle.receive(r), h_eff, sigma2), constellation)
            for r, sigma2 in zip(received, sigma2s)
        ]
    return np.array(
        [np.sum(bits_for_indices(h, constellation) != bits) for h in hard], dtype=np.int64
    )


def time_domain_mmse(
    bundle: WaveformBundle, real: ChannelRealization, frames, sigma2s
) -> np.ndarray:
    """Block MMSE soft symbols of received frames, one per noise level.

    For a square bundle with a_rx = a_tx^H (unitary), the modulation-domain
    MMSE (H^H H + s I)^{-1} H^H y with H = a_rx C a_tx and y = a_rx r_core
    equals a_rx (C^H C + s I)^{-1} C^H r_core, C the core channel with the
    prefix folded in.  C^H C is periodic-banded, so every noise level costs
    O(L w^2) for channel memory w plus one application of the bundle's
    factored a_rx; no dense matrix is built.  Returns (len(sigma2s), n_symbols).
    """
    core = core_channel(bundle, real)
    r_core = np.stack([remove_prefix(f, bundle.geometry.prefix_len) for f in frames])
    z = solve_periodic_banded(core.gram_band(), sigma2s, core.adjoint(r_core))
    return bundle.operator.rx(z)


def run_ber(
    bundle: WaveformBundle,
    channel_cfg: ChannelConfig,
    detector: str,
    snr_db_list,
    trials: int,
    seed: int,
    constellation: Constellation,
    workers: int = 1,
) -> list[BerPoint]:
    """Monte-Carlo bit error rates over a list of SNR points.

    Each trial derives its bit, channel and noise streams from
    (seed, trial), so every waveform run with the same seed sees the same
    bitstream and channel realization, and the same unit noise shape scaled
    to each SNR.  Error counts are integers summed over trials, making the
    result independent of worker count and scheduling.
    """
    if trials < 1:
        raise ConfigurationError("trials must be >= 1")
    snr_tuple = tuple(float(s) for s in snr_db_list)
    args = [
        (bundle, channel_cfg, constellation, snr_tuple, detector, seed, t)
        for t in range(trials)
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_trial = list(pool.map(_ber_trial_star, args, chunksize=8))
    else:
        per_trial = [_ber_trial_star(a) for a in args]
    totals = np.sum(per_trial, axis=0)
    bits_per_trial = bundle.n_symbols * constellation.bits_per_symbol
    return [
        BerPoint(snr_db=s, bit_errors=int(e), bits=bits_per_trial * trials)
        for s, e in zip(snr_tuple, totals)
    ]


def _ber_trial_star(args):
    return _ber_trial(*args)


def awgn_qpsk_ber(snr_db: float) -> float:
    """Closed-form Gray 4-QAM bit error rate over the pure-noise channel."""
    from math import erfc, sqrt

    snr = 10.0 ** (snr_db / 10.0)
    return 0.5 * erfc(sqrt(snr) / sqrt(2.0))


def papr(signal: np.ndarray) -> float:
    """Peak-to-average power ratio of a sample sequence, in dB.

    Raises ``ValueError`` for an empty, non-finite or zero-power sequence.
    """
    s = np.asarray(signal)
    if s.size == 0:
        raise ValueError("signal must be nonempty")
    power = np.abs(s) ** 2
    return float(_papr_db(power.max(), power.mean()))


def _papr_db(peak, mean):
    """10 log10(peak / mean), refusing non-finite or zero-power inputs.

    The reduced peak and mean are checked rather than the samples: a NaN or
    infinite sample makes its peak non-finite, so no extra pass is needed.
    """
    if not (np.all(np.isfinite(peak)) and np.all(np.isfinite(mean))):
        raise ValueError("signal has a non-finite sample or power")
    if np.any(mean == 0):
        raise ValueError("signal must have nonzero power")
    return 10.0 * np.log10(peak / mean)


def _pairwise_half(n: int) -> int:
    """Length of the first half where numpy's pairwise sum splits n > 128 values."""
    return n // 2 - (n // 2) % 8


def _pairwise_spans(lo: int, hi: int) -> list[tuple[int, int]]:
    """Nodes of the pairwise-sum tree over lo:hi no longer than PAPR_BLOCK, in order."""
    if hi - lo <= PAPR_BLOCK:
        return [(lo, hi)]
    mid = lo + _pairwise_half(hi - lo)
    return _pairwise_spans(lo, mid) + _pairwise_spans(mid, hi)


def _pairwise_total(n: int, node_sums):
    """Sum of n values from the sums of the nodes of :func:`_pairwise_spans`."""
    if n <= PAPR_BLOCK:
        return next(node_sums)
    half = _pairwise_half(n)
    return _pairwise_total(half, node_sums) + _pairwise_total(n - half, node_sums)


def branch_papr(length: int, blocks) -> np.ndarray:
    """Per-branch PAPR in dB of a (branches x length) frame given in time blocks.

    ``blocks(spans)`` yields the frame's columns lo:hi for each (lo, hi) of
    ``spans``, so the whole frame never needs to exist.  The result equals
    ``[papr(row) for row in frame]`` bit for bit: a branch's peak does not
    depend on order, and its mean repeats numpy's pairwise summation of one
    contiguous row.  That sum splits a run of n > 128 values at
    :func:`_pairwise_half` and adds the halves, so the spans are the nodes of
    this tree no longer than ``PAPR_BLOCK``; numpy sums each one exactly as
    inside the row, and the node sums are added back in the tree's order.
    Every span but the last is a multiple of 8 samples long.
    """
    if length < 1:
        raise ValueError("signal must be nonempty")
    peak, sums = None, []
    for block in blocks(_pairwise_spans(0, length)):
        power = np.abs(block) ** 2
        top = power.max(axis=1)
        peak = top if peak is None else np.maximum(peak, top)
        sums.append(power.sum(axis=1))
    mean = _pairwise_total(length, iter(sums)) / length
    return _papr_db(peak, mean)


def papr_samples(frame_source, trials: int, seed: int) -> np.ndarray:
    """Peak-to-average ratios in dB over random frames.

    ``frame_source(rng)`` returns the PAPR samples of one frame: one for a
    single-branch frame, one per branch for a multi-antenna frame (each
    branch being a physically separate amplifier input).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    out = []
    for t in range(trials):
        out.extend(frame_source(derive_rng(seed, t)))
    return np.array(out)


def papr_ccdf(samples: np.ndarray) -> list[tuple[float, float]]:
    """Empirical survivor curve P(PAPR > x) at the observed sample points.

    Points whose survivor probability falls below ``PAPR_MIN_TAIL / n`` are
    dropped rather than extrapolated.
    """
    v = np.sort(np.asarray(samples, dtype=float))
    n = v.size
    if n == 0:
        raise ValueError("no samples")
    floor = PAPR_MIN_TAIL / n
    pts = []
    for i, x in enumerate(v):
        ccdf = (n - i - 1) / n
        if ccdf >= floor:
            pts.append((float(x), float(ccdf)))
    return pts


def papr_at_ccdf(samples: np.ndarray, level: float) -> float:
    """Threshold (dB) exceeded with probability ``level``."""
    v = np.asarray(samples, dtype=float)
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    return float(np.quantile(v, 1.0 - level))


def qam_frame_source(
    bundle: WaveformBundle, constellation: Constellation, n_symbols: int = 1
):
    """PAPR of random-symbol core frames (prefix excluded), one per frame.

    ``n_symbols`` > 1 concatenates that many time-domain symbols per
    realization (a 2D frame already spans ``geometry.n`` symbols, so it is
    repeated ceil(n_symbols / n) times).
    """
    reps = max(1, -(-n_symbols // bundle.geometry.n))

    def source(rng: np.random.Generator) -> np.ndarray:
        idx = rng.integers(0, constellation.order, (bundle.n_symbols, reps))
        x = constellation.points[idx]
        if bundle.real_field:
            x = np.sqrt(2.0) * x.real  # offset-QAM carries one real axis
        # The dense product pins the PAPR bytes; the factored apply differs
        # in last bits, so it waits for a declared numerics move.
        return [papr((bundle.a_tx @ x).T.reshape(-1))]

    return source


def ddam_frame_source(
    channel_cfg: ChannelConfig,
    n_tx: int,
    beamformer: str,
    constellation: Constellation,
    n_samples: int,
    sample_rate_hz: float,
):
    """Per-antenna PAPR of path-precoded multi-antenna frames.

    Per frame: draw the channel realization (delays/Dopplers from the
    channel config), draw independent circular-Gaussian steering vectors for
    its paths, precode a random symbol stream, and return the PAPR of each
    antenna branch.  The (n_tx x time) transmit matrix is streamed in time
    blocks (:func:`branch_papr`), never built whole.
    """

    def source(rng: np.random.Generator) -> np.ndarray:
        real = channel_cfg.realize(sample_rate_hz, sigma2=0.0, rng_seed=rng)
        P = len(real.taps)
        steering = (rng.standard_normal((P, n_tx)) + 1j * rng.standard_normal((P, n_tx)))
        steering /= np.sqrt(2.0)
        cfg = DdamConfig(steering=steering, beamformer=beamformer)
        x = constellation.points[rng.integers(0, constellation.order, n_samples)]
        return branch_papr(
            ddam_frame_length(x.size, real), lambda spans: ddam_blocks(x, cfg, real, spans)
        )

    return source


@dataclass(frozen=True)
class AfGrid:
    """Peak-normalized ambiguity magnitudes on a delay/Doppler grid.

    Axes carry both physical units and normalized copies (delay over the
    reference duration, Doppler over the reference spacing); the convention
    tag records aperiodic vs cyclic evaluation.
    """

    delay_s: np.ndarray
    delay_norm: np.ndarray
    doppler_hz: np.ndarray
    doppler_norm: np.ndarray
    magnitudes: np.ndarray  # (n_doppler, n_delay), peak == 1
    convention: str
    peak_raw: float


def ambiguity_grid(
    a: np.ndarray,
    b: np.ndarray,
    tau_s: np.ndarray,
    nu_hz: np.ndarray,
    sample_rate_hz: float,
    convention: str = "aperiodic",
    doppler_ref_hz: float | None = None,
) -> AfGrid:
    """Discrete-sum ambiguity surface A(tau, nu) = sum_n a[n] b*[n - lag] e^{-2j pi nu n / fs}.

    Delay grid values must land on the sample raster of ``sample_rate_hz``
    (pass oversampled signals for finer lags); Doppler is continuous.  The
    aperiodic convention treats b as zero outside its support, the cyclic
    one wraps it (requiring equal lengths).  Magnitudes are normalized to a
    unit peak; the raw peak is retained.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    tau_s = np.atleast_1d(np.asarray(tau_s, dtype=float))
    nu_hz = np.atleast_1d(np.asarray(nu_hz, dtype=float))
    if tau_s.size == 0 or nu_hz.size == 0:
        raise ValueError("delay and Doppler grids must be nonempty")
    if np.any(np.diff(tau_s) <= 0) or np.any(np.diff(nu_hz) <= 0):
        raise ValueError("grid axes must be strictly increasing")
    if convention not in AF_CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    lags_f = tau_s * sample_rate_hz
    lags = np.round(lags_f).astype(int)
    if np.max(np.abs(lags_f - lags)) > 1e-6:
        raise ValueError("delay grid must align with the sample raster")
    L = a.size
    if convention == "cyclic" and b.size != L:
        raise ValueError("cyclic evaluation needs equal-length signals")
    shifted = np.zeros((lags.size, L), dtype=complex)
    for i, lag in enumerate(lags):
        if convention == "cyclic":
            shifted[i] = np.roll(b, lag)
        else:
            lo, hi = max(0, lag), min(L, b.size + lag)
            if lo < hi:
                shifted[i, lo:hi] = b[lo - lag : hi - lag]
    n = np.arange(L)
    phases = np.exp(-2j * np.pi * np.outer(nu_hz, n) / sample_rate_hz)
    surface = phases @ (a[None, :] * shifted.conj()).T  # (n_nu, n_lags)
    mags = np.abs(surface)
    peak = float(mags.max())
    if peak == 0:
        raise ValueError("ambiguity surface is identically zero")
    delay_ref = L / sample_rate_hz
    doppler_ref = doppler_ref_hz if doppler_ref_hz else sample_rate_hz / L
    return AfGrid(
        delay_s=tau_s,
        delay_norm=tau_s / delay_ref,
        doppler_hz=nu_hz,
        doppler_norm=nu_hz / doppler_ref,
        magnitudes=mags / peak,
        convention=convention,
        peak_raw=peak,
    )


@dataclass(frozen=True)
class AfCutMetrics:
    """Mainlobe and sidelobe statistics of one 1-D ambiguity cut."""

    width_3db: float
    pslr_db: float
    islr_db: float
    no_null: bool
    mainlobe: tuple[int, int]  # inclusive index range around the peak


def af_cut_metrics(cut: np.ndarray, axis: np.ndarray) -> AfCutMetrics:
    """Extract 3-dB width, peak and integrated sidelobe ratios from a cut.

    The mainlobe is the contiguous region around the global peak bounded by
    the first local minima on each side; a cut that decreases monotonically
    to both ends has no bounding null, is flagged, and reports a 0 dB peak
    sidelobe ratio.  The 3-dB width is linearly interpolated.  Ratios use
    amplitude (20 log10) for the peak and energy (10 log10) for the integral;
    cleanly zero sidelobe regions report the finite sentinel -350 dB.
    """
    cut = np.asarray(cut, dtype=float)
    axis = np.asarray(axis, dtype=float)
    if cut.size != axis.size or cut.size < 3:
        raise ValueError("cut and axis must match and hold at least 3 points")
    peak_val = cut.max()
    if peak_val <= 0:
        raise ValueError("cut is identically zero")
    p = int(np.argmax(cut))

    if np.ptp(cut) <= 1e-12 * peak_val:
        # Perfectly flat response: no mainlobe/sidelobe structure at all.
        return AfCutMetrics(width_3db=float(axis[-1] - axis[0]), pslr_db=0.0,
                            islr_db=SENTINEL_DB, no_null=True, mainlobe=(0, cut.size - 1))

    lo = p
    while lo > 0 and cut[lo - 1] < cut[lo]:
        lo -= 1
    hi = p
    while hi < cut.size - 1 and cut[hi + 1] < cut[hi]:
        hi += 1
    no_null = lo == 0 and hi == cut.size - 1

    # 3-dB width by linear interpolation on each flank.
    level = peak_val / np.sqrt(2.0)
    left = axis[0]
    for i in range(p, 0, -1):
        if cut[i - 1] <= level <= cut[i]:
            frac = (cut[i] - level) / (cut[i] - cut[i - 1])
            left = axis[i] - frac * (axis[i] - axis[i - 1])
            break
    right = axis[-1]
    for i in range(p, cut.size - 1):
        if cut[i + 1] <= level <= cut[i]:
            frac = (cut[i] - level) / (cut[i] - cut[i + 1])
            right = axis[i] + frac * (axis[i + 1] - axis[i])
            break
    width = float(right - left)

    if no_null:
        return AfCutMetrics(width_3db=width, pslr_db=0.0, islr_db=SENTINEL_DB,
                            no_null=True, mainlobe=(lo, hi))
    side = np.concatenate([cut[:lo], cut[hi + 1 :]])
    main = cut[lo : hi + 1]
    side_peak = side.max() if side.size else 0.0
    pslr = 20.0 * np.log10(side_peak / peak_val) if side_peak > 0 else SENTINEL_DB
    side_energy = float(np.sum(side**2))
    main_energy = float(np.sum(main**2))
    islr = 10.0 * np.log10(side_energy / main_energy) if side_energy > 0 else SENTINEL_DB
    return AfCutMetrics(
        width_3db=width,
        pslr_db=max(float(pslr), SENTINEL_DB),
        islr_db=max(float(islr), SENTINEL_DB),
        no_null=False,
        mainlobe=(lo, hi),
    )


def cp_overhead(t_cp_s: float, t_sym_s: float) -> float:
    """Guard-interval overhead rho = T_cp / (T_sym + T_cp)."""
    if t_cp_s < 0 or t_sym_s <= 0:
        raise ValueError("need t_cp >= 0 and t_sym > 0")
    return t_cp_s / (t_sym_s + t_cp_s)


def spectral_efficiency(
    pilot_fraction: float,
    order: int,
    subcarriers: int,
    t_sym_s: float,
    t_cp_s: float,
    bandwidth_hz: float,
) -> float:
    """Net bits/s/Hz: (1 - k) log2(Mc) K / ((T_sym + T_cp) B)."""
    if not 0.0 <= pilot_fraction < 1.0:
        raise ValueError("pilot fraction must lie in [0, 1)")
    if order < 2 or subcarriers < 1 or t_sym_s <= 0 or t_cp_s < 0 or bandwidth_hz <= 0:
        raise ValueError("invalid spectral-efficiency inputs")
    return (
        (1.0 - pilot_fraction)
        * np.log2(order)
        * subcarriers
        / ((t_sym_s + t_cp_s) * bandwidth_hz)
    )


def pilot_overhead(
    scheme: str, l_max: int, alpha_max: int, xi_nu: int, grid_size: int
) -> tuple[int, float]:
    """Guard-protected pilot footprint of the chirp- and DD-domain schemes.

    Returns (entries, entries / grid_size).  The chirp-domain scheme needs
    2 (l_max + 1) (2 (alpha_max + xi) + 1) - 1 entries; the DD-domain scheme
    needs (4 (alpha_max + xi) + 1) (2 l_max + 1).
    """
    if min(l_max, alpha_max, xi_nu) < 0 or grid_size < 1:
        raise ValueError("overhead inputs must be nonnegative (grid_size >= 1)")
    key = scheme.lower()
    if key == "afdm":
        count = 2 * (l_max + 1) * (2 * (alpha_max + xi_nu) + 1) - 1
    elif key == "otfs":
        count = (4 * (alpha_max + xi_nu) + 1) * (2 * l_max + 1)
    else:
        raise ValueError(f"pilot overhead defined for 'afdm' and 'otfs', not {scheme!r}")
    return count, count / grid_size
