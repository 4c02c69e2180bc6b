"""Waveform bundles: modulation operator chains, core channels and path precoding.

Every scheme is one modulation operator ``a_tx`` (the modulation-domain
symbol vector to core time samples), demodulated by its adjoint
``a_rx = a_tx^H``, plus a prefix rule.  Each scheme describes its operator
once, as a product of factors: FFTs, diagonals, index maps and small dense
matrices (:class:`FactoredOperator`).  The factors are the working path of
modulation, demodulation and the effective channel; the dense ``a_tx`` is
composed from them only on first access.  All bundles are exactly unitary
except the filter-bank scheme, whose orthogonality holds in the real field
only.  2D delay-Doppler grids are vectorized delay-fastest (column-major)
except where a scheme's canonical chain stacks delay blocks; the per-scheme
factor functions note the layout they use.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.polynomial.hermite import hermval

from . import transforms
from .channel import ChannelRealization, tap_columns


class ConfigurationError(ValueError):
    """Raised for inconsistent waveform / frame / channel configurations."""


BEAMFORMERS = ("zf", "mrt")  # path precoding: zero-forcing or matched
DFTS_MAPPINGS = ("block-centered", "dc-centered")


@dataclass(frozen=True)
class FrameGeometry:
    """Frame dimensions shared by every waveform.

    ``m`` subcarriers (or delay bins), ``n`` slots (1 for 1D schemes),
    subcarrier spacing ``delta_f_hz`` and prefix length in samples.  The
    baseband sample rate is m * delta_f and a core frame holds m * n samples.
    """

    m: int
    n: int = 1
    delta_f_hz: float = 15e3
    prefix_len: int = 0

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ConfigurationError("frame dimensions must be >= 1")
        if self.prefix_len < 0:
            raise ConfigurationError("prefix length must be >= 0")
        if self.delta_f_hz <= 0:
            raise ConfigurationError("subcarrier spacing must be positive")

    @property
    def sample_rate_hz(self) -> float:
        return self.m * self.delta_f_hz

    @property
    def core_samples(self) -> int:
        return self.m * self.n


# Factors of an operator.  Each acts along the last axis of a batch of
# vectors; ``apply`` is the factor and ``adjoint`` its conjugate transpose.
# They are plain module-level classes so that a bundle pickles to worker
# processes.


@dataclass(frozen=True, eq=False)
class Diag:
    """Elementwise product with ``d``."""

    d: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.d * x

    def adjoint(self, x: np.ndarray) -> np.ndarray:
        return self.d.conj() * x


@dataclass(frozen=True)
class Dft:
    """Unitary DFT ``F_n kron I_stride`` (``inverse``: ``F_n^H kron I_stride``).

    The transform runs over the first axis of each vector's (n, stride)
    reshape; stride 1 is the plain transform.
    """

    inverse: bool = False
    stride: int = 1

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self._run(x, self.inverse)

    def adjoint(self, x: np.ndarray) -> np.ndarray:
        return self._run(x, not self.inverse)

    def _run(self, x: np.ndarray, inverse: bool) -> np.ndarray:
        fft = np.fft.ifft if inverse else np.fft.fft
        grid = x.reshape(*x.shape[:-1], -1, self.stride)
        return fft(grid, axis=-2, norm="ortho").reshape(x.shape)

    def matrix(self, size: int) -> np.ndarray:
        """The dense factor for vectors of ``size`` entries."""
        f = transforms.dft_matrix(size // self.stride)
        return Dense(np.conj(f, out=f).T if self.inverse else f, self.stride).matrix(size)


@dataclass(frozen=True, eq=False)
class Embed:
    """Input j lands on output ``rows[j]`` of ``size`` (zeros elsewhere).

    A permutation when there are ``size`` rows, a subcarrier map otherwise;
    the adjoint reads the rows back.
    """

    rows: np.ndarray
    size: int

    def apply(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros((*x.shape[:-1], self.size), dtype=x.dtype)
        out[..., self.rows] = x
        return out

    def adjoint(self, x: np.ndarray) -> np.ndarray:
        return x[..., self.rows]


@dataclass(frozen=True, eq=False)
class Dense:
    """A dense matrix ``a kron I_stride``: ``a`` acts like :class:`Dft`'s F."""

    a: np.ndarray
    stride: int = 1

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self._run(self.a, x)

    def adjoint(self, x: np.ndarray) -> np.ndarray:
        return self._run(self.a.conj().T, x)

    def _run(self, a: np.ndarray, x: np.ndarray) -> np.ndarray:
        grid = x.reshape(*x.shape[:-1], -1, self.stride)
        return (a @ grid).reshape(*x.shape[:-1], -1)

    def matrix(self, size: int) -> np.ndarray:
        """The dense factor (``size`` is implied by ``a``)."""
        # no Kronecker product with I_1: it would flip signs of zeros
        return self.a if self.stride == 1 else np.kron(self.a, np.eye(self.stride))


@dataclass(frozen=True)
class FactoredOperator:
    """``a_tx = f_k ... f_1`` for ``factors = (f_1, ..., f_k)``, applied in order.

    ``shape`` is a_tx's (core samples, symbols).  :meth:`tx` applies a_tx and
    :meth:`rx` applies a_rx = a_tx^H (the adjoints in reverse order), both
    along the last axis, so a batch of vectors goes through in one call.
    They are the modulation entry point: a last axis of the wrong length
    raises :class:`ConfigurationError`.
    """

    shape: tuple[int, int]
    factors: tuple = ()

    def tx(self, x: np.ndarray) -> np.ndarray:
        return self._run(x, self.shape[1], [f.apply for f in self.factors])

    def rx(self, r: np.ndarray) -> np.ndarray:
        return self._run(r, self.shape[0], [f.adjoint for f in reversed(self.factors)])

    def _run(self, x: np.ndarray, size: int, steps: list) -> np.ndarray:
        """``steps`` in order on a complex copy of ``x``, whose last axis holds ``size``."""
        x = np.array(x, dtype=complex)
        if x.ndim == 0 or x.shape[-1] != size:
            raise ConfigurationError(f"expected {size} entries on the last axis, got {x.shape}")
        for step in steps:
            x = step(x)
        return x

    def dense(self) -> np.ndarray:
        """The dense a_tx, composed from the factors in application order.

        A leading :class:`Diag` scales the first matrix factor's columns
        (``d[None, :] * A``) and a later one the product's rows
        (``A * d[:, None]``), so a chirped a_tx has the bytes of the
        conjugate transpose of its transform's elementwise product
        ``(d2[:, None] * F) * d1[None, :]``.  An :class:`Embed` places the
        rows into zeros; a :class:`Dft` or :class:`Dense` factor
        left-multiplies.  A scaling is written into the product when this
        method allocated it, never into a :class:`Dense` factor's own
        matrix; it keeps the operand order above, because numpy's complex
        multiply is not bitwise commutative.
        """
        shared = [f.a for f in self.factors if isinstance(f, Dense)]

        def product(x: np.ndarray, y: np.ndarray, a: np.ndarray) -> np.ndarray:
            """``x * y``, written into ``a`` unless it is shared or of another dtype."""
            if any(a is m for m in shared) or np.result_type(x, y) != a.dtype:
                return x * y
            return np.multiply(x, y, out=a)

        a, lead = None, None  # a is None while the product is diag(lead), or I
        for f in self.factors:
            if isinstance(f, Diag):
                if a is None:
                    lead = f.d if lead is None else f.d * lead
                else:
                    a = product(a, f.d[:, None], a)
            elif isinstance(f, Embed):
                if a is None:
                    a = np.eye(self.shape[1]) if lead is None else np.diag(lead)
                placed = np.zeros((f.size, a.shape[1]), dtype=a.dtype)
                placed[f.rows] = a
                a = placed
            elif a is None:
                a = f.matrix(self.shape[1])
                a = a if lead is None else product(lead[None, :], a, a)
            else:
                a = f.matrix(a.shape[0]) @ a
        if a is None:
            a = np.eye(self.shape[0]) if lead is None else np.diag(lead)
        return a.astype(complex, copy=False)


@dataclass(frozen=True)
class WaveformBundle:
    """A scheme, its frame, its operator and its parameters.

    ``operator`` is the factored a_tx: its ``tx`` modulates and its ``rx``
    demodulates.  The prefix rule, the field and the dense override are read
    from the scheme's row (:attr:`row`), the prefix's chirp rate from the
    parameters.  The dense ``a_tx`` is composed on first access and kept.
    """

    scheme: str
    geometry: FrameGeometry
    operator: FactoredOperator
    params: dict = field(default_factory=dict)

    @property
    def row(self) -> Scheme:
        return SCHEMES[self.scheme]

    @property
    def n_symbols(self) -> int:
        return self.operator.shape[1]

    @property
    def core_len(self) -> int:
        return self.operator.shape[0]

    @property
    def adjoint_pair(self) -> bool:
        """Square and unitary in the complex field.

        a_rx is a_tx^H by construction, so a square complex-field bundle is
        a unitary pair without comparing its matrices.
        """
        return not self.row.real_field and self.core_len == self.n_symbols

    @cached_property
    def a_tx(self) -> np.ndarray:
        """Dense modulator (core_len x n_symbols): the row's ``dense`` override, else composed."""
        override = self.row.dense
        return override(self.geometry) if override else self.operator.dense()

    @cached_property
    def prefix_phase(self) -> np.ndarray:
        """Factor on each prefix sample's copy of the core: the chirp phase, else 1.

        The chirp-periodic prefix follows the affine scheme's first chirp
        rate.  Computed once per bundle; the core channel and the grouping
        of the BER loop read it.
        """
        if self.row.prefix_rule == "cpp":
            c1 = _afdm_chirp_rates(self.geometry, self.params)[0]
            return _cpp_phase(self.core_len, self.geometry.prefix_len, c1)
        return np.ones(self.geometry.prefix_len, dtype=complex)


def _cpp_phase(L: int, prefix_len: int, c1: float) -> np.ndarray:
    """Chirp-periodic prefix phase exp(-2j*pi*c1*(L^2 + 2*L*l)), l = -prefix_len..-1.

    The argument is reduced in exact integer arithmetic before the
    exponential: c1 is the binary fraction num/den, so c1*(L^2 + 2*L*l) is
    k half turns plus a rest of at most a quarter turn, and the phase is
    (-1)^k exp(-2j*pi*rest).  It is therefore exactly 1 or -1 whenever 2*L*c1
    is an integer (1 when 2*L*c1*L is even: the prefix is then a cyclic
    prefix), and elsewhere the exponential of a small, exact argument.
    Raises for a non-finite c1.
    """
    if not np.isfinite(c1):
        raise ConfigurationError(f"chirp rate c1 must be finite, got {c1}")
    num, den = float(c1).as_integer_ratio()
    odd, rest = [], []
    for l in range(-prefix_len, 0):
        k, m = divmod(2 * (num * (L * L + 2 * L * l) % den) + den // 2, den)
        odd.append(k % 2)
        rest.append((m - den // 2) / (2 * den))  # turns, in [-1/4, 1/4)
    return np.where(odd, -1.0, 1.0) * np.exp(-2j * np.pi * np.array(rest))


def afdm_default_c1(m: int, alpha_max_int: int) -> float:
    """Default first chirp rate: (2*a + 1) / (2*M) for integer Doppler span a.

    This makes each propagation path occupy a distinct shift in the chirp
    domain, giving the P-entries-per-row effective channel structure.
    """
    if alpha_max_int < 0:
        raise ConfigurationError("alpha_max_int must be >= 0")
    return (2 * alpha_max_int + 1) / (2.0 * m)


def _factor_scm(geometry: FrameGeometry, params: dict):
    return FactoredOperator((geometry.m, geometry.m))


def _chirped_fourier(pre: np.ndarray, post: np.ndarray) -> FactoredOperator:
    """Modulator (diag(post) F diag(pre))^H = diag(pre)^* F^H diag(post)^*."""
    m = pre.size
    return FactoredOperator((m, m), (Diag(post.conj()), Dft(inverse=True), Diag(pre.conj())))


def _factor_ofdm(geometry: FrameGeometry, params: dict):
    return FactoredOperator((geometry.m, geometry.m), (Dft(inverse=True),))


def _factor_frft_ofdm(geometry: FrameGeometry, params: dict):
    # The kernel is scale * chirp E chirp with E = sqrt(m) F.
    scale, chirp = transforms.dfrft_chirp(geometry.m, float(params.get("p", 0.5)))
    return _chirped_fourier(chirp, scale * np.sqrt(geometry.m) * chirp)


def _factor_ocdm(geometry: FrameGeometry, params: dict):
    return _chirped_fourier(*transforms.dfnt_diagonals(geometry.m))


def _ocdm_dense(geometry: FrameGeometry) -> np.ndarray:
    # The unfused Fresnel product rounds unlike the composed factors (by up
    # to 6e-17), and the benchmark's PAPR digests pin the QAM frames made
    # with it; ROADMAP direction 2's declared numerics move removes it.
    f = transforms.dfnt_matrix(geometry.m)
    return np.conj(f, out=f).T


def _dfts_rows(geometry: FrameGeometry, params: dict) -> np.ndarray:
    """The subcarrier each spread output lands on (the columns of P)."""
    M = geometry.m
    width = int(params.get("width", M))
    mapping = params.get("mapping", "block-centered")
    if not 1 <= width <= M:
        raise ConfigurationError(f"width must be in 1..{M}, got {width}")
    if mapping not in DFTS_MAPPINGS:
        raise ConfigurationError(f"unknown mapping {mapping!r}")
    if mapping == "block-centered":
        return (M - width) // 2 + np.arange(width)
    return (np.arange(width) - width // 2) % M


def _factor_dft_s_ofdm(geometry: FrameGeometry, params: dict):
    rows = _dfts_rows(geometry, params)
    return FactoredOperator((geometry.m, rows.size),
                            (Dft(), Embed(rows, geometry.m), Dft(inverse=True)))


def _factor_ifdm(geometry: FrameGeometry, params: dict):
    # Pi x = x[perm]: symbol j lands on row argsort(perm)[j].
    rows = np.argsort(transforms.random_interleaver(geometry.m, int(params.get("seed", 0))))
    return FactoredOperator((geometry.m, geometry.m),
                            (Dft(inverse=True), Embed(rows, geometry.m)))


def _afdm_chirp_rates(geometry: FrameGeometry, params: dict) -> tuple[float, float]:
    # a c1 set from a channel comes from the caller (config.afdm_c1)
    c1 = params["c1"] if "c1" in params else afdm_default_c1(geometry.m, 0)
    return float(c1), float(params.get("c2", 0.0))


def _factor_afdm(geometry: FrameGeometry, params: dict):
    c1, c2 = _afdm_chirp_rates(geometry, params)
    return _chirped_fourier(*transforms.daft_chirps(geometry.m, c1, c2))


def _delay_major(m: int, n: int) -> np.ndarray:
    """Column of the delay-fastest layout (l + k*m) for each delay-major symbol l*n + k."""
    return np.arange(m * n).reshape(n, m).T.ravel()


def _factor_mc_otfs(geometry: FrameGeometry, params: dict):
    L = geometry.m * geometry.n
    return FactoredOperator((L, L), (Dft(inverse=True, stride=geometry.m),))


# Delay-major symbols (delay blocks of Doppler symbols): symbol l*N + k is
# the otfs column l + k*M.
def _factor_oddm(geometry: FrameGeometry, params: dict):
    M, N = geometry.m, geometry.n
    return FactoredOperator((M * N, M * N),
                            (Embed(_delay_major(M, N), M * N), Dft(inverse=True, stride=M)))


def _walsh(geometry: FrameGeometry, params: dict) -> np.ndarray:
    N = geometry.n
    if N & (N - 1) != 0:
        raise ConfigurationError(f"otsm needs a power-of-two slot count, got {N}")
    return transforms.wht_matrix(N)


# Delay-major input x (delay blocks of sequency symbols): the shuffle P.T
# reorders it to slot-fastest, then the Walsh transform acts along slots, so
# a_tx = kron(W, I_M) P^T, whose columns are those of kron(W, I_M) taken in
# delay-major order.
def _factor_otsm(geometry: FrameGeometry, params: dict):
    M, N = geometry.m, geometry.n
    return FactoredOperator((M * N, M * N),
                            (Embed(_delay_major(M, N), M * N), Dense(_walsh(geometry, params), M)))


def _factor_fbmc(geometry: FrameGeometry, params: dict):
    G = fbmc_synthesis(geometry)
    return FactoredOperator(G.shape, (Dense(G),))


@dataclass(frozen=True)
class Scheme:
    """One row of the scheme table.

    ``name`` is the scheme's one name, in configs, output files and
    :func:`build_waveform`; ``dim`` 1 schemes take a one-slot geometry,
    ``dim`` 2 schemes an m x n grid.  ``factor`` maps (geometry, params) to
    the :class:`FactoredOperator` of a_tx; ``dense``, where set, maps the
    geometry to the dense a_tx in place of the composed factors.
    ``config_keys`` pairs each parameter with the config key that sets it,
    the only parameters :func:`build_waveform` takes.
    """

    name: str
    dim: int
    prefix_rule: str  # "cp" | "cpp" | "none"
    factor: Callable
    config_keys: tuple = ()
    real_field: bool = False
    dense: Callable | None = None


# Under the ideal (sample-spaced) pulse the Zak-transform and staggered
# delay-Doppler schemes are the multicarrier one: zak-otfs is the same
# operator and oddm takes its symbols delay-major.
SCHEMES = {s.name: s for s in (
    Scheme("scm", 1, "cp", _factor_scm),
    Scheme("ofdm", 1, "cp", _factor_ofdm),
    Scheme("dft-s-ofdm", 1, "cp", _factor_dft_s_ofdm,
           (("width", "dfts.width"), ("mapping", "dfts.mapping"))),
    Scheme("frft-ofdm", 1, "cp", _factor_frft_ofdm, (("p", "frft.p"),)),
    Scheme("ocdm", 1, "cp", _factor_ocdm, dense=_ocdm_dense),
    Scheme("ifdm", 1, "cp", _factor_ifdm, (("seed", "ifdm.seed"),)),
    Scheme("afdm", 1, "cpp", _factor_afdm, (("c1", "afdm.c1"), ("c2", "afdm.c2"))),
    Scheme("fbmc", 2, "none", _factor_fbmc, real_field=True),
    Scheme("otfs", 2, "cp", _factor_mc_otfs),
    Scheme("zak-otfs", 2, "cp", _factor_mc_otfs),
    Scheme("oddm", 2, "cp", _factor_oddm),
    Scheme("otsm", 2, "cp", _factor_otsm),
)}


def build_waveform(scheme: str, geometry: FrameGeometry, params: dict | None = None) -> WaveformBundle:
    """Assemble the operator bundle for one scheme.

    ``params`` takes exactly the parameters of the scheme row's
    ``config_keys``; any other name raises:

    * ``dft-s-ofdm``: ``width`` (data size <= m, default m) and ``mapping``
      ("block-centered" places the data on the contiguous band starting at
      (m - width) // 2, which is the identity for full allocation;
      "dc-centered" wraps the band around bin 0).
    * ``frft-ofdm``: fractional order ``p``.
    * ``ifdm``: interleaver ``seed``.
    * ``afdm``: chirp rates ``c1`` (default ``afdm_default_c1(m, 0)``) and
      ``c2`` (default 0).

    Rectangular pulses are used throughout (identity pulse matrices); the
    filter-bank scheme's prototype is the one exception, and its bundle is
    orthogonal in the real field only.  Only the factored operator is built
    here; the dense a_tx waits for its first reader.
    """
    params = dict(params or {})
    row = SCHEMES.get(scheme)
    if row is None:
        raise ConfigurationError(f"unknown scheme {scheme!r}")
    if row.dim == 1 and geometry.n != 1:
        raise ConfigurationError(f"{scheme} is a 1D scheme; use n=1 (got n={geometry.n})")
    unknown = set(params) - {p for p, _ in row.config_keys}
    if unknown:
        raise ConfigurationError(f"unknown {scheme} parameters: {sorted(unknown)}")
    return WaveformBundle(scheme, geometry, row.factor(geometry, params), params)


# Hermite-series prototype coefficients (even orders 0..20).
_HERMITE_COEFFS = {
    0: 1.412692577,
    4: -3.0145e-3,
    8: -8.8041e-6,
    12: -2.2611e-9,
    16: -4.4570e-15,
    20: 1.8633e-16,
}


def hermite_prototype(t_over_t0: np.ndarray) -> np.ndarray:
    """Hermite-series prototype filter evaluated at t / T0 (unit T0).

    Real, even, and orthogonal for a time-frequency spacing product of 2 on
    the full lattice; the offset-QAM system halves both spacings.
    """
    t = np.asarray(t_over_t0, dtype=float)
    order = max(_HERMITE_COEFFS) + 1
    coeffs = np.zeros(order)
    for i, a in _HERMITE_COEFFS.items():
        coeffs[i] = a
    return np.exp(-2.0 * np.pi * t**2) * hermval(2.0 * np.sqrt(np.pi) * t, coeffs)


FBMC_OVERLAP = 6


def fbmc_frame_length(m: int, n: int) -> int:
    """Rows of the m x n synthesis matrix: n pulses T0/2 apart and the prototype's tails."""
    return int(round((FBMC_OVERLAP + (n - 1) * 0.5) / (1.0 / m))) + 1


def fbmc_synthesis(geometry: FrameGeometry) -> np.ndarray:
    """Offset-QAM filter-bank synthesis matrix.

    Columns are sampled basis pulses g_{l,k}: the prototype shifted to time
    position k * T0/2 and subcarrier l (spacing 1/T0), with the phase factor
    exp(1j*pi*(l+k)/2).  The prototype is truncated to ±FBMC_OVERLAP*T0/2
    and normalized to unit sampled energy.  G is (samples, m*n); m*n
    real-valued symbols enter per frame.
    """
    M, N = geometry.m, geometry.n
    half = FBMC_OVERLAP / 2.0  # prototype support: |t| <= half * T0
    dt = 1.0 / M  # in units of T0 (critical sampling, f_s = M / T0)
    n_samp = fbmc_frame_length(M, N)
    t = -half + dt * np.arange(n_samp)  # t / T0
    G = np.empty((n_samp, M * N), dtype=complex)
    proto_ref = hermite_prototype(np.arange(-half, half + dt / 2, dt))
    norm = np.sqrt(np.sum(proto_ref**2) * dt)
    for k in range(N):
        tk = t - 0.5 * k
        p = hermite_prototype(tk) / norm
        for l in range(M):
            col = p * np.exp(2j * np.pi * l * tk) * np.exp(1j * np.pi * (l + k) / 2.0)
            G[:, l + k * M] = np.sqrt(dt) * col
    return G


def effective_channel(
    bundle: WaveformBundle, channel: ChannelRealization | CoreChannel
) -> np.ndarray:
    """Modulation-domain channel matrix a_tx^H C a_tx, C the bundle's core channel.

    ``channel`` is a realization, whose core channel is built here, or the
    bundle's core channel of one, already built (:func:`core_channel`).
    The factors modulate, C propagates and the factors demodulate every
    column of the identity in one batch; no dense matrix is built.  The
    result is (n_symbols x n_symbols) and satisfies y = H_eff x + noise
    for the bundle's end-to-end chain.  Raises for a real-field bundle and
    on the checks of :func:`core_channel`.
    """
    if bundle.row.real_field:
        raise ConfigurationError(
            "real-field bundles have no complex modulation-domain channel matrix"
        )
    if not isinstance(channel, CoreChannel):
        channel = core_channel(bundle, channel)
    return bundle.operator.rx(channel.apply(bundle.operator.tx(np.eye(bundle.n_symbols)))).T


@dataclass(frozen=True)
class CoreChannel:
    """Core time-domain channel C with the prefix folded in, by cyclic diagonals.

    ``diags[n, k]`` is C[n, (n + offsets[k]) % L]: received core sample n
    weighs transmitted core sample n + offsets[k], wrapped by the prefix.
    The noiseless chain gives r_core = C @ core; each offset lies in
    [-L/2, L/2) and the offsets are distinct.
    """

    offsets: np.ndarray  # (K,) int
    diags: np.ndarray  # (L, K) complex

    def apply(self, x: np.ndarray) -> np.ndarray:
        """C x along the last axis of ``x``: the received cores of transmitted cores x."""
        out = np.zeros(np.shape(x), dtype=complex)
        for e, diag in zip(self.offsets, self.diags.T):
            out += diag * np.roll(x, -e, axis=-1)
        return out

    def adjoint(self, r: np.ndarray) -> np.ndarray:
        """C^H r along the last axis of ``r``."""
        out = np.zeros(np.shape(r), dtype=complex)
        for e, diag in zip(self.offsets, self.diags.T):
            out += np.roll(diag.conj() * r, e, axis=-1)
        return out

    def gram_band(self) -> np.ndarray:
        """C^H C as a periodic band: A[j, (j + d) % L] = band[j, w + d].

        The half-bandwidth w is the spread of the offsets (the channel
        memory for a non-warped channel); the band has shape (L, 2w + 1),
        and columns whose offsets coincide modulo L add.
        """
        w = int(np.ptp(self.offsets))
        band = np.zeros((self.diags.shape[0], 2 * w + 1), dtype=complex)
        for e, diag in zip(self.offsets, self.diags.T):
            # row n holds C[n, n + e]^* C[n, n + e2]: entry (n + e, n + e2) of A
            band[:, w + self.offsets - e] += np.roll(diag.conj()[:, None] * self.diags, e, axis=0)
        return band


def core_channel(bundle: WaveformBundle, real: ChannelRealization) -> CoreChannel:
    """The bundle's core channel built from the realization's taps in O(L P).

    Row n is row n + Lp of the frame's linear time-varying channel, with the
    columns that land in the prefix folded onto the core's tail (times the
    chirp phase of a "cpp" prefix).  Raises if the realization's sample rate
    is not the bundle's, or if the prefix is shorter than the channel memory
    (the circular structure would be broken) or longer than the core.
    """
    fs = bundle.geometry.sample_rate_hz
    if abs(fs - real.sample_rate_hz) > 1e-6 * fs:
        raise ConfigurationError(
            f"sample rate mismatch: bundle {fs} Hz vs realization {real.sample_rate_hz} Hz"
        )
    L, L_p = bundle.core_len, bundle.geometry.prefix_len
    if L_p < real.max_delay_samples:
        raise ConfigurationError(
            f"prefix {L_p} shorter than channel memory {real.max_delay_samples}"
        )
    if L_p > L:
        raise ConfigurationError(f"prefix {L_p} longer than core {L}")
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


def ddam_beamformers(steering: np.ndarray, beamformer: str) -> np.ndarray:
    """Per-path beamforming vectors, shape (P, n_tx), unit total power.

    ``steering`` holds one channel vector per path, shape (P, n_tx).  MRT
    points each vector along its own path; ZF additionally projects it onto
    the null space of every other path's steering vector so inter-path
    leakage vanishes.  Raises for steering that is not 2-D or has a zero
    row, an unknown beamformer, and when nulling is infeasible (fewer
    antennas than paths, or a path falls inside the span of the others).
    """
    H = np.asarray(steering, dtype=complex)
    if H.ndim != 2:
        raise ConfigurationError("steering must be (paths, n_tx)")
    if beamformer not in BEAMFORMERS:
        raise ConfigurationError(f"unknown beamformer {beamformer!r}")
    if np.any(np.linalg.norm(H, axis=1) == 0):
        raise ConfigurationError("steering vectors must be nonzero")
    P, n_tx = H.shape
    if beamformer == "zf" and n_tx < P:
        raise ConfigurationError(f"zero-forcing needs n_tx >= paths ({n_tx} < {P})")
    F = np.empty_like(H)
    for i in range(P):
        h = H[i]
        if beamformer == "mrt" or P == 1:
            f = h / np.linalg.norm(h)
        else:
            others = np.delete(H, i, axis=0).T  # (n_tx, P-1)
            gram = others.conj().T @ others
            try:
                coef = np.linalg.solve(gram, others.conj().T @ h)
            except np.linalg.LinAlgError as exc:
                raise ConfigurationError(f"rank-deficient steering set: {exc}") from exc
            f = h - others @ coef
            norm = np.linalg.norm(f)
            if norm < 1e-12 * np.linalg.norm(h):
                raise ConfigurationError(f"path {i} lies in the span of the others")
            f = f / norm
        F[i] = f
    return F / np.sqrt(P)  # total transmit power sums to one


def ddam_frame_length(n_symbols: int, real: ChannelRealization) -> int:
    """Samples of a precoded frame: the stream plus the largest pre-delay."""
    return n_symbols + real.max_delay_samples - min(t.delay_samples for t in real.taps)


# Multiply-adds of one precoding product piece.  OpenBLAS keeps a complex
# product of at most about 65 536 multiply-adds on the calling thread and
# threads a larger one itself, which then contends with the frame threads of
# kpi.papr_samples and, on kernels whose threaded ZGEMM splits the sum
# differently, makes the bytes depend on the CPU count.  100 frames of 64
# antennas and 5 paths in blocks of up to 2048 columns (2-vCPU Xeon,
# OpenBLAS 0.3.31): on two threads, pieces of 64 000 multiply-adds 0.65 s,
# of 130 560 1.39-1.46 s, whole blocks 1.18-1.28 s.  Once 8 columns exceed
# the budget (8 * n_tx * n_paths > PRODUCT_MACS, e.g. 911 antennas over 9
# paths) a piece is over it and BLAS may thread it again.
PRODUCT_MACS = 65536


def _product_pieces(width: int, n_tx: int, n_paths: int) -> tuple[int, int]:
    """(step, count): a (n_tx x width) precoding product's leading pieces.

    ``count`` pieces of ``step`` columns, a multiple of 8 and, unless 8
    columns already exceed it, at most ``PRODUCT_MACS`` multiply-adds; the
    rest of the width is one more piece.  That piece is never one column
    wide where a piece precedes it: numpy would send a one-column product
    to ZGEMV, whose bytes differ from the whole product's ZGEMM, so such a
    column joins the piece before it.
    """
    step = 8 * max(1, PRODUCT_MACS // (8 * n_tx * n_paths))
    count = width // step
    if count and width - count * step == 1:
        count -= 1
    return step, count


def _precode(F: np.ndarray, streams: np.ndarray, out: np.ndarray) -> None:
    """``F.T @ streams`` into ``out`` in :func:`_product_pieces`, equal bit for bit.

    The leading pieces go to BLAS in one stacked call, one ZGEMM per piece
    on the calling thread; the rest takes one more call.  Every piece but
    the last is a multiple of 8 columns, so each column goes through the
    same BLAS kernel as in the whole product.
    """
    n_paths, n_tx = F.shape
    step, count = _product_pieces(streams.shape[1], n_tx, n_paths)
    w = step * count
    if count:
        # copy=False: a reshape that copied would leave ``out`` unwritten
        np.matmul(F.T, streams[:, :w].reshape(n_paths, count, step, copy=False)
                  .transpose(1, 0, 2),
                  out=out[:, :w].reshape(n_tx, count, step, copy=False).transpose(1, 0, 2))
    if w < streams.shape[1]:
        np.matmul(F.T, streams[:, w:], out=out[:, w:])


def ddam_blocks(x: np.ndarray, F: np.ndarray, real: ChannelRealization, spans):
    """Per-path delay/Doppler pre-compensated transmit signal, block by block.

    Each path i carries a copy of the stream delayed by kappa_i = l_max - l_i
    samples and pre-rotated by its negated Doppler, beamformed with its own
    vector f_i, row i of ``F`` (:func:`ddam_beamformers`):

        s[:, n] = sum_i f_i * x[n - kappa_i] * exp(-2j*pi*nu_i*n/f_s)

    The full signal is (n_tx, ddam_frame_length(len(x), real)); this yields
    its columns lo:hi, one (n_tx, hi - lo) block per (lo, hi) of ``spans``,
    so the whole signal never needs to exist.  The blocks are views of one
    buffer, sized to the widest span: a block is valid until the next one is
    requested, so keep a copy to hold it longer.  The arguments are checked
    before the first block.  A tap with zero Doppler is not rotated:
    exp(-0j) would change only signs of zeros.
    Each block's product is cut into pieces small enough for BLAS to keep on
    the calling thread (:func:`_precode`), so while 8 columns fit in
    ``PRODUCT_MACS`` its bytes do not depend on the CPU count or on how many
    frames run at once.  Blocks equal the whole signal's columns bit for bit
    when every span but the last is a multiple of 8 samples long: the BLAS
    product computes the last few columns of a block with separate kernels.
    """
    x = np.asarray(x, dtype=complex)
    if x.ndim != 1 or x.size == 0:
        raise ConfigurationError("stream must be a nonempty 1-D sequence")
    n_paths, n_tx = F.shape
    if n_paths != len(real.taps):
        raise ConfigurationError(
            f"{n_paths} steering vectors for {len(real.taps)} channel taps"
        )
    l_max = real.max_delay_samples
    fs = real.sample_rate_hz
    spans = list(spans)

    def blocks():
        buf = np.empty(n_tx * max((hi - lo for lo, hi in spans), default=0), dtype=complex)
        for lo, hi in spans:
            streams = np.zeros((n_paths, hi - lo), dtype=complex)  # shifted copies
            for i, tap in enumerate(real.taps):
                kap = l_max - tap.delay_samples
                a, b = max(lo, kap), min(hi, kap + x.size)
                if a >= b:
                    continue
                seg = x[a - kap : b - kap]
                if tap.doppler_hz != 0:
                    seg = seg * np.exp(-2j * np.pi * tap.doppler_hz * np.arange(a, b) / fs)
                streams[i, a - lo : b - lo] = seg
            block = buf[: n_tx * (hi - lo)].reshape(n_tx, hi - lo)
            _precode(F, streams, block)
            yield block

    return blocks()
