"""Link- and sensing-level figures of merit.

Monte-Carlo bit error rates (with per-trial seed derivation so different
waveforms see identical bitstreams, channel draws and noise shapes), peak-to-
average power statistics and their empirical survivor curves, the delay and
Doppler cuts of the discrete self-ambiguity with their mainlobe/sidelobe
metrics, and the closed-form overhead ratios.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .channel import ChannelConfig
from .detection import (
    Constellation,
    hard_decide,
    indices_for_bits,
    label_distances,
    mmse_equalize,
    solve_periodic_banded,
)
from .waveforms import (
    ConfigurationError,
    CoreChannel,
    WaveformBundle,
    core_channel,
    ddam_beamformers,
    ddam_blocks,
    ddam_frame_length,
    effective_channel,
)

SENTINEL_DB = -350.0  # stands in for -inf when a cut has no sidelobe energy
PAPR_MIN_TAIL = 10  # survivor points kept down to this many samples beyond them
PAPR_BLOCK = 2048  # longest time block of a streamed per-branch PAPR (>= 128)
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


def noise_shape(length: int, rng: np.random.Generator) -> np.ndarray:
    """Unit noise draw: standard normal real and imaginary parts.

    Scaled by sqrt(sigma2 / 2) it is circular complex Gaussian noise of
    variance sigma2; one draw gives the same shape at every noise level.
    """
    return rng.standard_normal(length) + 1j * rng.standard_normal(length)


def _ber_trial(
    bundles: tuple[WaveformBundle, ...],
    channel_cfg: ChannelConfig,
    constellation: Constellation,
    snr_db_list: tuple,
    seed: int,
    trial: int,
) -> np.ndarray:
    """Bit errors per bundle and SNR point for one trial; shape (n_bundles, n_snr).

    Every bundle draws the trial's bits, channel and unit noise shape from
    the same streams, so each shared input is made once per distinct key:
    the bits' point indices and symbols per bit count, the channel
    realization per sample rate, the unit noise shape per frame length, and
    per group the core channel C.  A group holds the bundles of one (sample
    rate, core length, prefix length, prefix phase), the inputs C is a
    function of.  C, the frame's
    channel with the prefix folded in (:func:`core_channel`), is the only
    channel model of the trial: a bundle's noiseless received core is C
    times its modulated core, and the modulated cores of a group go through
    it in one call.  Each SNR point adds the group's noise core (the frame's
    noise shape after the prefix), scaled to its noise variance; the
    receivers are linear, so each takes the unit noise core once and scales
    it after.  Every bundle is equalized by the block MMSE: the square
    unitary bundles of a group share one time-domain solve
    (:func:`time_domain_mmse`), which never builds a dense matrix;
    non-square bundles use the modulation-domain channel matrix formed from
    C and the factors (:func:`effective_channel`).  A group's soft symbols
    are decided in one call, and its bit errors are read from the table of
    label distances between decided and sent points (:func:`label_distances`).
    """
    sigma2s = np.array([noise_variance(snr_db) for snr_db in snr_db_list])
    errors = np.empty((len(bundles), sigma2s.size), dtype=np.int64)
    distances = label_distances(constellation.order)
    drawn, reals, noises = {}, {}, {}

    def sent_and_symbols(bundle: WaveformBundle) -> tuple[np.ndarray, np.ndarray]:
        """The point indices of the trial's bits for the bundle, and their symbols."""
        n_bits = bundle.n_symbols * constellation.bits_per_symbol
        if n_bits not in drawn:
            bits = derive_rng(seed, trial, _STREAM_BITS).integers(0, 2, n_bits)
            sent = indices_for_bits(bits, constellation)
            drawn[n_bits] = sent, constellation.points[sent]
        return drawn[n_bits]

    def count(members: list[int], soft: np.ndarray) -> None:
        """Bit errors of bundles of one symbol count from their (R, Q, n) soft symbols."""
        flat = hard_decide(soft, constellation)
        flat *= constellation.order
        flat += sent_and_symbols(bundles[members[0]])[0]
        errors[members] = distances[flat].sum(axis=-1)

    scales = np.sqrt(sigma2s / 2.0)  # unit noise to each point's noise variance
    groups = {}  # (sample rate, core length, prefix length, prefix phase) -> bundle indices
    for i, b in enumerate(bundles):
        key = (b.geometry.sample_rate_hz, b.core_len, b.geometry.prefix_len,
               b.prefix_phase.tobytes())
        groups.setdefault(key, []).append(i)
    for (fs, core_len, prefix_len, _), members in groups.items():
        if fs not in reals:
            reals[fs] = channel_cfg.realize(fs, derive_rng(seed, trial, _STREAM_CHANNEL))
        frame_len = core_len + prefix_len
        if frame_len not in noises:
            noises[frame_len] = noise_shape(frame_len, derive_rng(seed, trial, _STREAM_NOISE))
        noise = noises[frame_len][prefix_len:]
        core = core_channel(bundles[members[0]], reals[fs])
        square = []
        for i in members:
            bundle = bundles[i]
            if bundle.adjoint_pair:
                square.append(i)
                continue
            h_eff = effective_channel(bundle, core)
            clean = core.apply(bundle.operator.tx(sent_and_symbols(bundle)[1]))
            y, n = bundle.operator.rx(np.array([clean, noise]))
            count([i], np.array([[mmse_equalize(y + c * n, h_eff, sigma2)
                                  for c, sigma2 in zip(scales, sigma2s)]]))
        if square:
            shared = [bundles[i] for i in square]
            clean = core.apply(np.array([b.operator.tx(sent_and_symbols(b)[1]) for b in shared]))
            count(square, time_domain_mmse(core, shared, clean, noise, sigma2s))
    return errors


def time_domain_mmse(core: CoreChannel, bundles, clean, noise, sigma2s) -> np.ndarray:
    """Block MMSE soft symbols of bundles that share one core channel.

    For a square bundle with a_rx = a_tx^H (unitary), the modulation-domain
    MMSE (H^H H + s I)^{-1} H^H y with H = a_rx C a_tx and y = a_rx r_core
    equals a_rx (C^H C + s I)^{-1} C^H r_core, C the core channel with the
    prefix folded in.  C does not depend on a_tx, so every bundle whose
    core channel is ``core`` solves the same system: its C^H r_core is one
    more right-hand side.  C^H C is periodic-banded, so every noise level
    costs O(L w^2) for channel memory w plus one application of each
    bundle's factored a_rx; no dense matrix is built.

    Bundle r receives r_core = clean[r] + sqrt(s / 2) noise at noise level
    s, ``noise`` the group's one unit noise core (L,): C^H is applied once,
    to the noiseless cores ``clean`` and the noise core together, and the
    right-hand sides are formed after it.  Returns (len(bundles),
    len(sigma2s), n_symbols), written over the solution.
    """
    adj = core.adjoint(np.concatenate([clean, noise[None]]))
    scales = np.sqrt(np.asarray(sigma2s, dtype=float) / 2.0)
    rhs = adj[:-1, None] + scales[:, None] * adj[-1]  # (R, Q, L)
    z = solve_periodic_banded(core.gram_band(), sigma2s, rhs)
    for zr, bundle in zip(z, bundles):
        zr[...] = bundle.operator.rx(zr)
    return z


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_ber(
    bundles: list[WaveformBundle],
    channel_cfg: ChannelConfig,
    snr_db_list,
    trials: int,
    seed: int,
    constellation: Constellation,
    workers: int = 1,
) -> list[list[BerPoint]]:
    """Monte-Carlo bit error rates of each bundle over a list of SNR points.

    Each trial derives its bit, channel and noise streams from
    (seed, trial), so every bundle sees the same bitstream and channel
    realization, and the same unit noise shape scaled to each SNR.  The
    bundles of one trial run together: each shared draw is made once per
    trial and key rather than per bundle, and the square bundles of one
    core-channel key (sample rate, core length, prefix length, prefix
    phase) share one block MMSE solve.  Error counts are integers
    summed over trials, making the result independent of worker count and
    scheduling.  The trials run in min(workers, trials, usable_cpus()) worker
    processes, or in this process when that count is 1.  Returns one list of
    points per bundle, in order.
    """
    if trials < 1:
        raise ConfigurationError("trials must be >= 1")
    bundles = tuple(bundles)
    snr_tuple = tuple(float(s) for s in snr_db_list)
    trial = partial(_ber_trial, bundles, channel_cfg, constellation, snr_tuple, seed)
    # under fork the pool starts every worker up front, so it never asks for
    # more than the trials or the process's CPUs can use
    workers = min(workers, trials, usable_cpus())
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_trial = list(pool.map(trial, range(trials), chunksize=8))
    else:
        per_trial = [trial(t) for t in range(trials)]
    totals = np.sum(per_trial, axis=0)
    bits = [b.n_symbols * constellation.bits_per_symbol * trials for b in bundles]
    return [[BerPoint(snr_db=s, bit_errors=int(e), bits=n) for s, e in zip(snr_tuple, row)]
            for n, row in zip(bits, totals)]


def papr(signal: np.ndarray) -> float:
    """Peak-to-average power ratio of a sample sequence, in dB.

    An array of several axes is read in row-major order: its powers are
    laid out as ``reshape(-1)`` before the mean sums them, so a transposed
    view copies real powers, not complex samples.  Raises ``ValueError``
    for an empty, non-finite or zero-power sequence.
    """
    s = np.asarray(signal)
    if s.size == 0:
        raise ValueError("signal must be nonempty")
    power = np.abs(s)
    np.square(power, out=power)  # what ``** 2`` runs
    power = power.reshape(-1)
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
    Every span but the last is a multiple of 8 samples long.  The powers of
    every block are written into one buffer, sized to the widest span.
    """
    if length < 1:
        raise ValueError("signal must be nonempty")
    spans = _pairwise_spans(0, length)
    widest = max(hi - lo for lo, hi in spans)
    peak, sums, buf = None, [], None
    for block in blocks(spans):
        if buf is None:
            buf = np.empty(block.shape[0] * widest)
        power = buf[: block.size].reshape(block.shape)
        np.abs(block, out=power)
        np.square(power, out=power)  # what ``** 2`` runs
        top = power.max(axis=1)
        peak = top if peak is None else np.maximum(peak, top)
        sums.append(power.sum(axis=1))
    mean = _pairwise_total(length, iter(sums)) / length
    return _papr_db(peak, mean)


def papr_samples(frame_source, trials: int, seed: int, threads: int = 1) -> np.ndarray:
    """Peak-to-average ratios in dB over random frames.

    ``frame_source(rng)`` returns the PAPR samples of one frame: one for a
    single-branch frame, one per branch for a multi-antenna frame (each
    branch being a physically separate amplifier input).  Frame t draws
    from ``derive_rng(seed, t)``; with ``threads`` > 1 the frames run on a
    pool of that many threads, and the samples still come in frame order.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")

    def frame(t: int):
        return frame_source(derive_rng(seed, t))

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_frame = list(pool.map(frame, range(trials)))
    else:
        # on this thread: the benchmark's QAM frame sources read 3 % more
        # wall time and 1-3 % more peak RSS on a one-thread pool (part of
        # the RSS is the pool thread's own malloc arena)
        per_frame = map(frame, range(trials))
    return np.array([v for samples in per_frame for v in samples])


def papr_ccdf(samples: np.ndarray) -> list[tuple[float, float]]:
    """Empirical survivor curve P(PAPR > x) at the observed sample points.

    Points whose survivor probability falls below ``PAPR_MIN_TAIL / n`` are
    dropped rather than extrapolated.
    """
    v = np.sort(np.asarray(samples, dtype=float))
    n = v.size
    if n == 0:
        raise ValueError("no samples")
    ccdf = (n - 1 - np.arange(n)) / n
    keep = ccdf >= PAPR_MIN_TAIL / n
    return list(zip(v[keep].tolist(), ccdf[keep].tolist()))


def qam_frame_source(
    bundle: WaveformBundle, constellation: Constellation, n_symbols: int = 1
):
    """PAPR of random-symbol core frames (prefix excluded), one per frame.

    ``n_symbols`` > 1 concatenates that many time-domain symbols per
    realization (a 2D frame already spans ``geometry.n`` symbols, so it is
    repeated ceil(n_symbols / n) times).
    """
    reps = max(1, -(-n_symbols // bundle.geometry.n))
    real_field = bundle.row.real_field

    def source(rng: np.random.Generator) -> np.ndarray:
        idx = rng.integers(0, constellation.order, (bundle.n_symbols, reps))
        x = constellation.points[idx]
        if real_field:
            x = np.sqrt(2.0) * x.real  # offset-QAM carries one real axis
        # The dense product pins the PAPR bytes; the factored apply differs
        # in last bits, so it waits for a declared numerics move.
        return [papr((bundle.a_tx @ x).T)]

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
    blocks (:func:`branch_papr`), never built whole, and each block's
    product runs in pieces that BLAS keeps on the calling thread
    (:func:`ddam_blocks`), so frames may share the cores.
    """

    def source(rng: np.random.Generator) -> np.ndarray:
        real = channel_cfg.realize(sample_rate_hz, rng)
        P = len(real.taps)
        steering = (rng.standard_normal((P, n_tx)) + 1j * rng.standard_normal((P, n_tx)))
        steering /= np.sqrt(2.0)
        F = ddam_beamformers(steering, beamformer)
        x = constellation.points[rng.integers(0, constellation.order, n_samples)]
        return branch_papr(
            ddam_frame_length(x.size, real),
            lambda spans: ddam_blocks(x, F, real, spans),
        )

    return source


def af_delay_cut(a: np.ndarray, convention: str = "aperiodic") -> np.ndarray:
    """Zero-Doppler cut of the self-ambiguity, sum_n a[n] a*[n - k], k = -(L-1)..L-1.

    The aperiodic convention treats a as zero outside its support, the
    cyclic one wraps it.  One slice product and sum per lag k = 0..L-1: lag
    -k is the conjugate of lag k (the cut is Hermitian), and the cyclic lag
    k adds the aperiodic lag k - L, the conjugate of lag L - k.
    """
    a = np.asarray(a, dtype=complex)
    if convention not in AF_CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    L = a.size
    half = np.array([np.sum(a[k:] * a[: L - k].conj()) for k in range(L)], dtype=complex)
    if convention == "cyclic":
        half[1:] += half[:0:-1].conj()
    return np.concatenate([half[:0:-1].conj(), half])


def af_doppler_cut(a: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Zero-delay cut of the self-ambiguity, sum_n |a[n]|^2 e^{-2j pi nu n}.

    ``nu`` is in cycles per sample; the cut is the same under both
    conventions.  One phase vector and sum per nu: no phase matrix.
    """
    a = np.asarray(a, dtype=complex)
    power = a.real**2 + a.imag**2
    n = np.arange(a.size)
    return np.array([np.sum(power * np.exp(-2j * np.pi * v * n)) for v in np.atleast_1d(nu)])


@dataclass(frozen=True)
class AfCutMetrics:
    """Mainlobe and sidelobe statistics of one 1-D ambiguity cut."""

    width_3db: float
    pslr_db: float
    islr_db: float
    no_null: bool


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
    if not (np.isfinite(cut).all() and np.isfinite(axis).all()):
        raise ValueError("cut and axis must be finite")
    peak_val = cut.max()
    if peak_val <= 0:
        raise ValueError("cut is identically zero")
    p = int(np.argmax(cut))

    if np.ptp(cut) <= 1e-12 * peak_val:
        # Perfectly flat response: no mainlobe/sidelobe structure at all.
        return AfCutMetrics(width_3db=float(axis[-1] - axis[0]), pslr_db=0.0,
                            islr_db=SENTINEL_DB, no_null=True)

    level = peak_val / np.sqrt(2.0)
    down, right = _flank(cut[p:], axis[p:], level)
    up, left = _flank(cut[p::-1], axis[p::-1], level)
    lo, hi = p - up, p + down
    no_null = lo == 0 and hi == cut.size - 1
    width = float(right - left)

    if no_null:
        return AfCutMetrics(width_3db=width, pslr_db=0.0, islr_db=SENTINEL_DB, no_null=True)
    side = np.concatenate([cut[:lo], cut[hi + 1 :]])
    main = cut[lo : hi + 1]
    side_peak = side.max() if side.size else 0.0
    # math.log10, not np.log10: numpy's AVX-512 loop rounds unlike every other host's
    pslr = 20.0 * math.log10(side_peak / peak_val) if side_peak > 0 else SENTINEL_DB
    side_energy = float(np.sum(side**2))
    main_energy = float(np.sum(main**2))
    islr = 10.0 * math.log10(side_energy / main_energy) if side_energy > 0 else SENTINEL_DB
    return AfCutMetrics(
        width_3db=width,
        pslr_db=max(float(pslr), SENTINEL_DB),
        islr_db=max(float(islr), SENTINEL_DB),
        no_null=False,
    )


def _flank(c: np.ndarray, x: np.ndarray, level: float) -> tuple[int, float]:
    """One side of a cut, ``c`` and its axis ``x`` running outward from the peak.

    Returns the steps to the first local minimum (to the end if there is
    none) and the axis point where ``c`` first falls to ``level``, linearly
    interpolated, or ``x[-1]`` if it never does.
    """
    steps = 0
    while steps < c.size - 1 and c[steps + 1] < c[steps]:
        steps += 1
    for i in range(c.size - 1):
        if c[i + 1] <= level <= c[i]:
            return steps, x[i] + (c[i] - level) / (c[i] - c[i + 1]) * (x[i + 1] - x[i])
    return steps, x[-1]


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
