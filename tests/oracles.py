"""Reference implementations that only the tests call.

None of these is on the path of a run: each is the independent construction
or closed form a test holds the program against.
"""

from __future__ import annotations

import itertools
from math import erfc, sqrt

import numpy as np

from mcwave.channel import ChannelRealization, Path, PathSet, tap_columns
from mcwave.detection import Constellation
from mcwave import transforms
from mcwave import waveforms as wf
from mcwave.transforms import _check_size
from mcwave.waveforms import (
    ConfigurationError,
    CoreChannel,
    FrameGeometry,
    WaveformBundle,
    ddam_blocks,
    ddam_frame_length,
)


def philox(seed: int) -> np.random.Generator:
    """The counter-based generator keyed on one integer, as the chanmat runner draws."""
    return np.random.Generator(np.random.Philox(key=seed))


def awgn_qpsk_ber(snr_db: float) -> float:
    """Closed-form Gray 4-QAM bit error rate over the pure-noise channel."""
    snr = 10.0 ** (snr_db / 10.0)
    return 0.5 * erfc(sqrt(snr) / sqrt(2.0))


def single_tap_equalize(y: np.ndarray, h_diag: np.ndarray, sigma2: float) -> np.ndarray:
    """Soft symbols of the per-bin scalar Wiener equalizer (diagonal channel).

    x_hat_k = conj(h_k) y_k / (|h_k|^2 + sigma2), the block MMSE of a
    diagonal channel bin by bin.  ``h_diag`` may be the full matrix, in
    which case it must actually be diagonal.
    """
    y = np.asarray(y, dtype=complex)
    h = np.asarray(h_diag, dtype=complex)
    if h.ndim == 2:
        off = h - np.diag(np.diag(h))
        peak = np.max(np.abs(h)) or 1.0
        if np.max(np.abs(off)) > 1e-9 * peak:
            raise ValueError("effective channel is not diagonal")
        h = np.diag(h)
    return np.conj(h) * y / (np.abs(h) ** 2 + sigma2)


def apply_channel(s: np.ndarray, real: ChannelRealization) -> np.ndarray:
    """Propagate a full (prefixed) frame through the realization, noiselessly.

    output[n] = sum_i h_i * s[n - l_i] * exp(2j*pi*nu_i*n/f_s)

    with s[.] = 0 outside its support; the wideband kind reads the warped
    index of ``tap_columns`` instead of n - l_i.  ``s`` may also be an
    (R, N) stack of frames, one per row: each tap's phase and indices are
    made once, and every row goes through the same operations in the same
    order, so it equals the 1-D call on that row byte for byte.  This is the
    physical frame-level channel that the core channel is checked against.
    """
    s = np.asarray(s, dtype=complex)
    if s.ndim not in (1, 2) or s.size == 0:
        raise ValueError("input must be a nonempty 1-D frame or a 2-D stack of frames")
    L = s.shape[-1]
    n = np.arange(L)
    out = np.zeros(s.shape, dtype=complex)
    for t in real.taps:
        phase = np.exp(2j * np.pi * t.doppler_hz * n / real.sample_rate_hz)
        idx = tap_columns(t, n)
        valid = (idx >= 0) & (idx < L)
        shifted = np.zeros(s.shape, dtype=complex)
        shifted[..., valid] = s[..., idx[valid]]
        out += t.gain * shifted * phase
    return out


def channel_matrix_full(real: ChannelRealization, length: int) -> np.ndarray:
    """Dense linear time-varying matrix H with r = H s.

    Row n accumulates h_i * exp(2j*pi*nu_i*n/f_s) at column n - l_i (or the
    warped index for the wideband kind).  ``apply_channel`` equals H @ s by
    construction.
    """
    length = int(length)
    if length < real.max_delay_samples + 1:
        raise ValueError(
            f"length {length} too small for max delay {real.max_delay_samples}"
        )
    H = np.zeros((length, length), dtype=complex)
    n = np.arange(length)
    for t in real.taps:
        phase = t.gain * np.exp(2j * np.pi * t.doppler_hz * n / real.sample_rate_hz)
        cols = tap_columns(t, n)
        valid = (cols >= 0) & (cols < length)
        H[n[valid], cols[valid]] += phase[valid]
    return H


def core_matrix(core: CoreChannel) -> np.ndarray:
    """Dense L x L core channel, entry by entry: C[n, (n + offsets) % L] = diags."""
    L = core.diags.shape[0]
    n = np.arange(L)[:, None]
    C = np.zeros((L, L), dtype=complex)
    C[n, (n + core.offsets) % L] = core.diags
    return C


def core_channel(bundle: WaveformBundle, real: ChannelRealization) -> CoreChannel:
    """The core channel built tap by tap in one pass, nothing kept between calls.

    The construction ``waveforms.core_channel`` splits into a layout kept per
    frame and taps and the values of a draw; the bundle's checks are not
    repeated here.
    """
    L, L_p = bundle.core_len, bundle.geometry.prefix_len
    n = np.arange(L)
    m = n + L_p  # row of the full frame
    rows, offsets, values = [], [], []
    for t in real.taps:
        phase = t.gain * np.exp(2j * np.pi * t.doppler_hz * m / real.sample_rate_hz)
        cols = tap_columns(t, m)
        valid = (cols >= 0) & (cols < L + L_p)
        cols, phase = cols[valid], phase[valid]
        wrapped = cols < L_p  # lands in the prefix: a copy of the core's tail
        phase[wrapped] *= bundle.prefix_phase[cols[wrapped]]
        core_cols = np.where(wrapped, cols + L - L_p, cols - L_p)
        rows.append(n[valid])
        offsets.append((core_cols - n[valid] + L // 2) % L - L // 2)
        values.append(phase)
    uniq, k = np.unique(np.concatenate(offsets), return_inverse=True)
    diags = np.zeros((L, uniq.size), dtype=complex)
    np.add.at(diags, (np.concatenate(rows), k), np.concatenate(values))
    return CoreChannel(offsets=uniq, diags=diags)


def band_block(band: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Entries A[rows, cols] (broadcast) of a periodic band with 2w + 1 <= L."""
    L, width = band.shape
    w = width // 2
    d = (cols - rows + L // 2) % L - L // 2
    inside = np.abs(d) <= w
    return np.where(inside, band[rows, w + np.where(inside, d, 0)], 0)


def nearest_points(symbols: np.ndarray, constellation: Constellation) -> np.ndarray:
    """Nearest-point indices by the squared distance to every point; ties to the lowest."""
    symbols = np.asarray(symbols, dtype=complex)
    d2 = np.abs(symbols[:, None] - constellation.points[None, :]) ** 2
    return np.argmin(d2, axis=1)


def add_prefix(
    core: np.ndarray, rule: str, prefix_len: int, *, phase: np.ndarray | None = None,
) -> np.ndarray:
    """Prepend a guard prefix to a core frame.

    "cp" copies the last ``prefix_len`` samples verbatim; "cpp" copies them
    times ``phase``, the chirp phase of ``waveforms._cpp_phase`` (a bundle's
    ``WaveformBundle.prefix_phase``), which it requires; that phase is
    exactly 1 (a plain copy) when c1 = k/(2L) with k*L even, L the core
    length.  "none" requires prefix_len = 0.
    """
    core = np.asarray(core)
    L = core.shape[0]
    if prefix_len > L:
        raise ConfigurationError(f"prefix {prefix_len} longer than core {L}")
    if rule not in ("cp", "cpp", "none"):
        raise ConfigurationError(f"unknown prefix rule {rule!r}")
    if rule == "none" and prefix_len:
        raise ConfigurationError("prefix_len must be 0 for rule 'none'")
    if rule == "cpp" and phase is None:
        raise ConfigurationError("a chirp-periodic prefix needs its phase")
    if prefix_len == 0:
        return core.copy()
    if rule == "cp":
        return np.concatenate([core[-prefix_len:], core])
    return np.concatenate([core[L - prefix_len:] * phase, core])


def remove_prefix(frame: np.ndarray, prefix_len: int) -> np.ndarray:
    """Drop the first ``prefix_len`` samples of a frame (or of each row of frames)."""
    frame = np.asarray(frame)
    if prefix_len >= frame.shape[-1]:
        raise ConfigurationError("prefix removal would consume the whole frame")
    return frame[..., prefix_len:]


def transmit(bundle: WaveformBundle, x: np.ndarray) -> np.ndarray:
    """Modulate and attach the bundle's prefix, with its cached phase."""
    return add_prefix(bundle.operator.tx(x), bundle.row.prefix_rule, bundle.geometry.prefix_len,
                      phase=bundle.prefix_phase)


def receive(bundle: WaveformBundle, frame: np.ndarray) -> np.ndarray:
    """Strip the bundle's prefix and demodulate."""
    return bundle.operator.rx(remove_prefix(frame, bundle.geometry.prefix_len))


def implied_path_set(real: ChannelRealization) -> PathSet:
    """The path set a realization implies (delays back on the sample grid)."""
    paths = tuple(
        Path(
            gain=t.gain,
            delay_s=t.delay_samples / real.sample_rate_hz,
            doppler_hz=t.doppler_hz,
            scale=t.scale,
        )
        for t in real.taps
    )
    return PathSet(paths=paths)


def dzt(x: np.ndarray, M: int, N: int, direction: str = "forward") -> np.ndarray:
    """Discrete Zak transform between time samples and a delay-Doppler grid.

    The length-M*N grid vector is laid out column-major with the delay index
    fastest: element ``l + k*M`` holds delay bin l, Doppler bin k.  The
    inverse map synthesizes time samples as

        s[n] = (1/sqrt(N)) * sum_k x[(n mod M) + k*M] * exp(2j*pi*floor(n/M)*k/N)

    and ``direction="forward"`` is its exact inverse.
    """
    x = np.asarray(x, dtype=complex)
    M = _check_size(M)
    N = _check_size(N, "N")
    if x.shape != (M * N,):
        raise ValueError(f"expected a length-{M * N} vector, got shape {x.shape}")
    grid = x.reshape((N, M)).T  # (M, N), delay x Doppler
    k = np.arange(N)
    kernel = np.exp(2j * np.pi * np.outer(k, k) / N) / np.sqrt(N)  # IDFT along Doppler
    if direction == "inverse":
        out = grid @ kernel.T
    elif direction == "forward":
        out = grid @ kernel.conj().T
    else:
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    return out.T.reshape(M * N)


def structured_permutation(kind: str, M: int, N: int) -> np.ndarray:
    """Structured MN x MN permutation matrices used by the 2D waveforms.

    ``kind="oddm"``: [P]_{k,k'} = 1 iff k' = (k mod M)*N + floor(k/M), the
    interleaver that turns delay-major staggered blocks into time order.

    ``kind="shuffle"``: the perfect shuffle, stacked row blocks
    ``I_N kron e_M(m)^T`` for m = 0..M-1; it maps a delay-fastest vector to
    its slot-fastest reordering.
    """
    M = _check_size(M)
    N = _check_size(N, "N")
    L = M * N
    P = np.zeros((L, L))
    if kind == "oddm":
        k = np.arange(L)
        P[k, (k % M) * N + k // M] = 1.0
    elif kind == "shuffle":
        for m in range(M):
            for n in range(N):
                P[m * N + n, n * M + m] = 1.0
    else:
        raise ValueError(f"unknown permutation kind {kind!r}")
    return P


def sequency_walsh(N: int) -> np.ndarray:
    """Sequency-ordered Walsh matrix built from the Sylvester recursion.

    H_2N = [[H_N, H_N], [H_N, -H_N]], then row k of the result is row
    bit-reverse(gray(k)) of H_N, divided by sqrt(N).
    """
    N = _check_size(N, "N")
    H = np.array([[1.0]])
    while H.shape[0] < N:
        H = np.block([[H, H], [H, -H]])
    bits = max(N.bit_length() - 1, 0)
    rows = np.empty(N, dtype=int)
    for k in range(N):
        gray = k ^ (k >> 1)
        rows[k] = int(format(gray, f"0{bits}b")[::-1], 2) if bits else 0
    return H[rows] / np.sqrt(N)


_ML_MAX_SYMBOLS = 8
_ML_MAX_CANDIDATES = 1 << 20


def ml_oracle(
    y: np.ndarray, h_eff: np.ndarray, constellation: Constellation
) -> np.ndarray:
    """Exact maximum-likelihood point indices by exhaustive enumeration.

    Minimizes ||y - H x||^2 over every candidate symbol vector; candidates
    are visited in ascending lexicographic index order so ties resolve to
    the lowest indices.  Refuses instances beyond the enumeration budget.
    """
    y = np.asarray(y, dtype=complex)
    H = np.asarray(h_eff, dtype=complex)
    n = H.shape[1]
    if n > _ML_MAX_SYMBOLS or constellation.order**n > _ML_MAX_CANDIDATES:
        raise ValueError(
            f"instance too large for exhaustive search ({constellation.order}^{n})"
        )
    best = None
    best_metric = np.inf
    pts = constellation.points
    for cand in itertools.product(range(constellation.order), repeat=n):
        x = pts[list(cand)]
        metric = float(np.sum(np.abs(y - H @ x) ** 2))
        if metric < best_metric:  # strict: ties keep the earlier (lower) indices
            best_metric = metric
            best = cand
    return np.array(best, dtype=int)


def ddam_precode(x: np.ndarray, F: np.ndarray, real: ChannelRealization) -> np.ndarray:
    """The whole precoded signal of ``ddam_blocks``, one block spanning the frame."""
    (s,) = ddam_blocks(x, F, real, [(0, ddam_frame_length(np.size(x), real))])
    return s


def ddam_apply_channel(
    s: np.ndarray, steering: np.ndarray, real: ChannelRealization
) -> np.ndarray:
    """Propagate a multi-antenna signal through the per-path vector channel.

    r[n] = sum_i gain_i * (h_i^H s[:, n - l_i]) * exp(2j*pi*nu_i*n/f_s)

    where h_i are the rows of ``steering``, shape (P, n_tx), and gain_i the
    (scalar) tap gains of the realization, normally 1 when the vectors carry
    the gain.
    """
    s = np.asarray(s, dtype=complex)
    steering = np.asarray(steering, dtype=complex)
    n_paths, n_tx = steering.shape
    if s.ndim != 2 or s.shape[0] != n_tx:
        raise ConfigurationError(f"expected ({n_tx}, L) signal, got {s.shape}")
    if n_paths != len(real.taps):
        raise ConfigurationError("steering vector count != channel tap count")
    L = s.shape[1] + real.max_delay_samples
    n = np.arange(L)
    r = np.zeros(L, dtype=complex)
    fs = real.sample_rate_hz
    for h_i, tap in zip(steering, real.taps):
        proj = h_i.conj() @ s  # (L_s,)
        delayed = np.zeros(L, dtype=complex)
        lo = tap.delay_samples
        hi = min(L, lo + proj.size)
        delayed[lo:hi] = proj[: hi - lo]
        r += tap.gain * delayed * np.exp(2j * np.pi * tap.doppler_hz * n / fs)
    return r


def ddam_composite_gain(
    steering: np.ndarray, F: np.ndarray, real: ChannelRealization
) -> complex:
    """Gain of the single aligned tap after precoding with ``F`` and propagation.

    Path i's pre-delayed copy reaches the receiver with the residual constant
    phase exp(2j*pi*nu_i*l_i/f_s) picked up because the Doppler
    pre-compensation is evaluated at transmit rather than receive time.
    """
    g = 0.0 + 0.0j
    fs = real.sample_rate_hz
    for i, tap in enumerate(real.taps):
        phase = np.exp(2j * np.pi * tap.doppler_hz * tap.delay_samples / fs)
        g += (steering[i].conj() @ F[i]) * tap.gain * phase
    return complex(g)


def ddam_receive(
    r: np.ndarray,
    kappa_max: int,
    composite_gain: complex = 1.0,
    n_symbols: int | None = None,
) -> np.ndarray:
    """Align to the common compensated tap and undo the composite gain.

    ``kappa_max`` is the alignment delay in samples (all path copies pile up
    there); with zero-forcing (or spatially orthogonal paths) the output
    equals the transmitted stream exactly in the noiseless case.
    """
    r = np.asarray(r, dtype=complex)
    out = r[kappa_max:] if kappa_max else r.copy()
    if n_symbols is not None:
        out = out[:n_symbols]
    return out / composite_gain


def sparsity_metrics(H: np.ndarray, threshold: float) -> dict:
    """Support statistics of a matrix at a relative magnitude threshold.

    Counts entries with |H_ij| >= threshold * max|H|; returns the fraction of
    all entries in the support and the largest per-row support count.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    mag = np.abs(np.asarray(H))
    peak = mag.max()
    if peak == 0:
        return {"support_fraction": 0.0, "max_row_support": 0}
    mask = mag >= threshold * peak
    return {
        "support_fraction": float(mask.sum() / mag.size),
        "max_row_support": int(mask.sum(axis=1).max()),
    }


def ambiguity_grid(
    a: np.ndarray, b: np.ndarray, lags: np.ndarray, nu: np.ndarray, convention: str = "aperiodic"
) -> np.ndarray:
    """Discrete ambiguity surface A[nu, k] = sum_n a[n] b*[n - k] e^{-2j pi nu n}.

    The whole (n_nu, n_lags) surface from a shifted-copy matrix and a phase
    matrix, the general construction the run's two cuts are checked against.
    Lags are in samples and ``nu`` in cycles per sample.  The aperiodic
    convention treats b as zero outside its support, the cyclic one wraps it
    (requiring equal lengths).
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    L = a.size
    if convention == "cyclic" and b.size != L:
        raise ValueError("cyclic evaluation needs equal-length signals")
    shifted = np.zeros((len(lags), L), dtype=complex)
    for i, lag in enumerate(lags):
        if convention == "cyclic":
            shifted[i] = np.roll(b, lag)
        else:
            lo, hi = max(0, lag), min(L, b.size + lag)
            if lo < hi:
                shifted[i, lo:hi] = b[lo - lag : hi - lag]
    phases = np.exp(-2j * np.pi * np.outer(nu, np.arange(L)))
    return phases @ (a[None, :] * shifted.conj()).T


def daft_matrix(M: int, c1: float, c2: float) -> np.ndarray:
    """Forward discrete affine Fourier transform ``A = L_c2 @ F @ L_c1``, elementwise.

    ``L_c = diag(exp(-2j*pi*c*l^2))`` for l = 0..M-1 (``transforms.daft_chirps``).
    """
    lam1, lam2 = transforms.daft_chirps(M, c1, c2)
    return lam2[:, None] * transforms.dft_matrix(M) * lam1[None, :]


def dfnt_matrix(M: int) -> np.ndarray:
    """Discrete Fresnel transform ``T2 @ F @ T1`` as the GEMM product of its diagonals.

    ``T1 = diag(t1)`` and ``T2 = diag(t2)`` from ``transforms.dfnt_diagonals``.
    """
    t1, t2 = transforms.dfnt_diagonals(M)
    return np.diag(t2) @ transforms.dft_matrix(M) @ np.diag(t1)


def dfrft_matrix(M: int, p: float) -> np.ndarray:
    """Discrete fractional Fourier kernel of order ``p``, entry by entry.

    ``scale * chirp[k] * exp(-2j*pi*k*l/M) * chirp[l]`` from
    ``transforms.dfrft_chirp``, which raises for a degenerate rotation.
    """
    scale, chirp = transforms.dfrft_chirp(M, p)
    k = np.arange(chirp.size)
    return scale * chirp[:, None] * np.exp(-2j * np.pi * np.outer(k, k) / k.size) * chirp[None, :]


def _dense_mc_otfs(geometry: FrameGeometry, params: dict) -> np.ndarray:
    # Delay-fastest vectorization: s = kron(F_N^H, G_tx) x with G = I.
    Fn = transforms.dft_matrix(geometry.n)
    return np.kron(Fn.conj().T, np.eye(geometry.m))


def _dense_dft_s_ofdm(geometry: FrameGeometry, params: dict) -> np.ndarray:
    M = geometry.m
    rows = wf._dfts_rows(geometry, params)
    width = rows.size
    P = np.zeros((M, width), dtype=complex)
    P[rows, np.arange(width)] = 1.0
    return transforms.dft_matrix(M).conj().T @ P @ transforms.dft_matrix(width)


def _dense_ifdm(geometry: FrameGeometry, params: dict) -> np.ndarray:
    # Row indexing instead of the product Pi @ F^H with the 0/1 interleaver
    # Pi; adding 0.0 gives the +0.0 that product gives, as for otsm.
    perm = transforms.random_interleaver(geometry.m, params.get("seed", 0))
    return transforms.dft_matrix(geometry.m).conj().T[perm] + 0.0


def _dense_otsm(geometry: FrameGeometry, params: dict) -> np.ndarray:
    # Column indexing instead of the product with the 0/1 shuffle P; adding
    # 0.0 turns the -0.0 entries of the Kronecker factor into the +0.0 that
    # product gives, so the bytes are those of kron(W, I) @ P.T.
    M = geometry.m
    a_tx = np.kron(wf._walsh(geometry, params), np.eye(M))[:, wf._delay_major(M, geometry.n)]
    return (a_tx + 0.0).astype(complex)


_DENSE = {
    "scm": lambda g, p: np.eye(g.m, dtype=complex),
    "ofdm": lambda g, p: transforms.dft_matrix(g.m).conj().T,
    "dft-s-ofdm": _dense_dft_s_ofdm,
    "frft-ofdm": lambda g, p: dfrft_matrix(g.m, p.get("p", 0.5)).conj().T,
    "ocdm": lambda g, p: dfnt_matrix(g.m).conj().T,
    "ifdm": _dense_ifdm,
    "afdm": lambda g, p: daft_matrix(g.m, *wf._afdm_chirp_rates(g, p)).conj().T,
    "fbmc": lambda g, p: wf.fbmc_synthesis(g),
    "otfs": _dense_mc_otfs,
    "zak-otfs": _dense_mc_otfs,
    # delay-major symbols: symbol l*N + k is the otfs column l + k*M
    "oddm": lambda g, p: _dense_mc_otfs(g, p)[:, wf._delay_major(g.m, g.n)],
    "otsm": _dense_otsm,
}


def dense_a_tx(scheme: str, geometry: FrameGeometry, params: dict | None = None) -> np.ndarray:
    """A scheme's dense modulator a_tx, built from its textbook matrix product.

    Each scheme's matrix is formed directly (transform matrices, Kronecker
    products, row or column selections), apart from the factor chain the
    package composes its ``a_tx`` from; the parameters are read the way
    ``waveforms.build_waveform`` reads them.
    """
    return _DENSE[scheme](geometry, dict(params or {}))


def bundle_dense(bundle: WaveformBundle) -> np.ndarray:
    """:func:`dense_a_tx` for a built bundle."""
    return dense_a_tx(bundle.scheme, bundle.geometry, bundle.params)
