"""Direct pseudospectral simulation with highly-oscillating data.

Every run evolves a real field: the systems are real (``A0``, ``Aj`` and ``B``)
and the datum enters through its real part, so the state lives on the ``rfft``
half spectrum.  Strang splitting on a periodic grid: the stiff linear part
advances exactly per Fourier mode through the precomputed eigendecomposition of
``A0/(i eps) + A(kappa)`` (unitary), and the pointwise quadratic source
advances with classical Runge-Kutta stages on the rows a nonzero triplet of B
writes (2 of 6 on Klein-Gordon, 2 of 3 on three-wave).  Deviation norms from a
reference solution are recorded at most every t_end / RUN_SAMPLES (every step
of the stock runs), reading sup|u| and sup|dev| as max(max, -min).  A run ends
at the first sample by which its growth law is read (t* known and the growth
window closed, holding 3 samples or more), else at t_end or at blow-up: past
that sample a run follows the nonlinear blow-up at ever smaller dt, and its t*
and fitted rate are already read.

A run given neither ``grid_points`` nor ``domain_length`` keeps the spacing of 4096
points on 40 amplitude widths and halves both while the halved domain holds the
run: the datum's radius plus the transport reach on either side of the center,
2 (radius + reach).  The radius is the largest of the gaussian's (where it falls to
2^-52 of its maximum, about 6.0 widths), the perturbation's bump radius and rho; the
reach is the largest |eigenvalue of A1| times the run's ``horizon``.  The stock
three-wave runs take 2048 points on 20 widths, the middle half of the 40-width grid.
A run given either one takes the other's default, 4096 points or 40 widths.

The stepper stores each (row, column) entry of the eigenvectors that is
nonzero at some mode as its own array over the modes (24 of 36 on kg-equal, 5 of
9 on three-wave), and the half-step propagator, cached per step size, the same
way on the entries a product of those entries can make nonzero (18 of 36 and 3
of 9), the only ones a half-step multiplies; both are built a chunk of modes at
a time.  A step starts from the spectrum the last one ended with and overwrites
it, transforming only the rows it reads or changes: the rows B reads, B's RK4
increment on the rows it writes (added to the half-stepped spectrum) and the
rows the second half-step changes.  A frozen row (unit propagator row, not
written by B) skips both half-steps.  That is 12 row transforms a step on
kg-equal, not 18, and 6 on three-wave at c1 = 0 (its pump row frozen), not 9.
Transforms, RK4 stages and source evaluations write into a workspace allocated
once per run, which also holds the datum and, between steps, the deviation
samples; the datum's complex temporaries are freed before the stepper is built,
so a kg-equal run peaks at about 795 bytes per grid point (tracemalloc).
Half-steps are not fused across steps: the dt-halving test reads sup|u| in x
after each step, so fusing saves no transform.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .numeric import (MIN_POINTS_PER_WAVELENGTH, InputError, bump_weight, fit_epsilons,
                      grid_period)
from .system import SystemSpec


# deviation samples recorded over a run, after the initial one
RUN_SAMPLES = 400
# largest step estimate t_end / dt a run may take: the stock kg-equal run at
# eps = 1e-2 takes about 1,830
MAX_RUN_STEPS = 10 ** 6
# the default grid's spacing: DEFAULT_POINTS points on DEFAULT_WIDTHS amplitude widths
DEFAULT_POINTS, DEFAULT_WIDTHS = 4096, 40.0
# the fraction of its maximum past which the datum is rounding: 2^-52
DATUM_EDGE = 2.0 ** -52
# Fourier modes per chunk of the stepper's eigendecomposition and propagator
# build: bounds their temporaries, not the arrays they fill
MODE_CHUNK = 512


@dataclass
class AmplitudeProfile:
    """Slowly varying envelope of the reference solution: a gaussian."""

    center: float = 0.0
    width: float = 1.0

    @property
    def support_radius(self) -> float:
        """Distance from the center past which the gaussian is below DATUM_EDGE of
        its maximum: sqrt(52 ln 2), about 6.0 widths."""
        return self.width * np.sqrt(-np.log(DATUM_EDGE))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):   # a square past the float range: exp(-inf) = 0
            return np.exp(-((x - self.center) / self.width) ** 2)


@dataclass
class AmplitudeNorms:
    a_sup: float
    a_hatL1: float
    x0: float
    edge_value: float
    periodization_warning: bool


def amplitude_norms(a, x) -> AmplitudeNorms:
    """Sup norm, discrete L1 norm of the Fourier transform, and the argmax.

    ``a_hatL1`` approximates the integral of |a_hat| over frequency with
    ``a_hat(kappa_m) = dx * fft(a)`` and mode spacing ``2 pi / L``.  The
    profile must decay at the domain edge, else periodization bias is flagged.
    """
    a = np.asarray(a)
    x = np.asarray(x, dtype=float)
    mags = np.abs(a)
    if not np.any(mags > 0):
        raise InputError("amplitude vanishes identically: no maximum point exists")
    L = grid_period(x)
    dx = L / len(x)
    a_hat = dx * np.fft.fft(a)
    a_hatL1 = float(np.sum(np.abs(a_hat)) * (2 * np.pi / L))
    i0 = int(np.argmax(mags))
    edge = float(max(mags[0], mags[-1]))
    return AmplitudeNorms(a_sup=float(mags[i0]), a_hatL1=a_hatL1, x0=float(x[i0]),
                          edge_value=edge, periodization_warning=bool(edge > 1e-12))


@dataclass
class SimConfig:
    """Run parameters for one instability experiment."""

    spec: SystemSpec
    epsilon: float
    # the grid: given neither, DEFAULT_POINTS on DEFAULT_WIDTHS amplitude widths, both
    # halved while the halved domain holds the run (see the module docstring); given
    # one, the other takes its DEFAULT_ value
    grid_points: int = None
    domain_length: float = None
    t_end: float = None                # default T_obs * sqrt(eps) |log eps| (``horizon``)
    T_obs: float = 2.0                 # observation-time multiplier
    K: float = 3.0
    K_prime: float = 0.5
    amplitude: AmplitudeProfile = dc_field(default_factory=AmplitudeProfile)
    rho: float = None                  # observation ball radius; default width/2
    # resonant perturbation data (from a stability report)
    xi0: float = 0.0
    k: float = 0.0
    e0: np.ndarray = None

    def __post_init__(self):
        if self.spec.d != 1:
            raise InputError("the simulator runs in one spatial dimension (spec.d must be 1)")
        derived = self.grid_points is None and self.domain_length is None
        if self.grid_points is None:
            self.grid_points = DEFAULT_POINTS
        if self.grid_points < 2 or self.grid_points & (self.grid_points - 1):
            raise InputError(f"grid_points (--grid) must be a power of two >= 2, got {self.grid_points}")
        if self.domain_length is None:
            self.domain_length = DEFAULT_WIDTHS * self.amplitude.width
        check_grid_range(self.amplitude.width, self.domain_length, self.grid_points)
        if self.rho is None:
            self.rho = 0.5 * self.amplitude.width
        if not self.epsilon ** self.K_prime > 0:
            raise InputError(f"--Kprime {self.K_prime:g}: the observation size eps^K' underflows "
                             f"to 0 at eps {self.epsilon:g}, so no run reads t*")
        if derived:
            # the datum's support, carried the transport reach to either side of the center
            radius = max(self.amplitude.support_radius, self.phi0_radius, self.rho)
            speed = np.max(np.abs(np.linalg.eigvalsh(self.spec.Aj[0])))
            with np.errstate(over="ignore"):   # an infinite reach: no halving
                held = 2 * (radius + (speed * self.horizon if speed else 0.0))
            while self.domain_length / 2 >= held:
                self.grid_points //= 2
                self.domain_length /= 2
        # the stepper diagonalizes A0/(i eps) + kappa A1 at every wavenumber of the grid
        with np.errstate(over="ignore"):
            top = _wavenumbers(self.x)[-1] * np.max(np.abs(self.spec.Aj[0]))
        if not np.isfinite(top):
            raise InputError(f"--width {self.amplitude.width:g}: {self.grid_points} points on a "
                             f"domain of length {self.domain_length:g} take wavenumbers past "
                             "the float range, where the stepper's symbol is not finite")

    @property
    def phi0_radius(self) -> float:
        """Radius of the perturbation's bump: 2 x amplitude width."""
        return 2.0 * self.amplitude.width

    @property
    def horizon(self) -> float:
        """The run's end time: ``t_end`` when given, else T_obs sqrt(eps) |log eps|."""
        if self.t_end is not None:
            return self.t_end
        return self.T_obs * np.sqrt(self.epsilon) * abs(np.log(self.epsilon))

    @property
    def x(self):
        L = self.domain_length
        return self.amplitude.center - L / 2 + L * np.arange(self.grid_points) / self.grid_points

    def check_resolution(self):
        kmax = max(abs(self.k), abs(self.xi0 + self.k)) / self.epsilon
        if kmax > 0:
            wavelength = 2 * np.pi / kmax
            with np.errstate(over="ignore"):   # a tiny spacing: inf points, which pass
                ppw = wavelength / (self.domain_length / self.grid_points)
            if ppw < MIN_POINTS_PER_WAVELENGTH:
                raise InputError(f"grid resolves {ppw:.1f} points per wavelength; "
                                 f"need >= {MIN_POINTS_PER_WAVELENGTH}")


def check_grid_range(width, length, points):
    """Raise :class:`InputError`, naming ``--width``, when ``points`` on a periodic
    domain of ``length`` put a coordinate offset past the float range."""
    with np.errstate(over="ignore"):
        span = np.float64(length) * (points - 1)
    if not np.isfinite(span):
        raise InputError(f"--width {width:g}: {points} points on a domain of length {length:g} "
                         "put the grid's coordinates past the float range")


def _wavenumbers(x):
    """The wavenumbers of the ``rfft`` half spectrum on the periodic grid ``x``."""
    return 2 * np.pi * np.fft.rfftfreq(len(x), d=grid_period(x) / len(x))


def _runs(rows):
    """Slices over the runs of consecutive indices in the sorted ``rows``: one numpy
    call a run, not a row, keeps a three-wave RK4 stage's call count at the full state's."""
    runs = []
    for i in rows:
        if runs and runs[-1].stop == i:
            runs[-1] = slice(runs[-1].start, i + 1)
        else:
            runs.append(slice(i, i + 1))
    return runs


class _Stepper:
    """Strang splitting of a real field with exact linear half-steps per mode of
    its ``rfft`` half spectrum, from spectrum to spectrum, in a workspace of one
    spectrum, the state, three RK4 arrays and a spectrum row (see the module
    docstring).

    ``evecs`` maps each (row, column) of the eigenvectors V that is nonzero at
    some mode to its values over the modes; an entry left out is 0 at every mode.
    A propagator stores, the same way, the entries (i, j) with V[i, k] V[j, k]
    nonzero at some mode and column k: the others are sums of exact zeros."""

    def __init__(self, spec: SystemSpec, epsilon: float, x: np.ndarray):
        self.n = len(x)
        kappa = _wavenumbers(x)
        self._chunks = [slice(s, s + MODE_CHUNK) for s in range(0, len(kappa), MODE_CHUNK)]
        # H_eps(kappa) = A0/(i eps) + A(kappa); per-mode unitary update e^{-i dt H}
        N = spec.N
        self.evals = np.empty((len(kappa), N))
        evecs = {(i, k): np.empty(len(kappa), dtype=complex) for i in range(N) for k in range(N)}
        reach = np.zeros((N, N), dtype=bool)
        for c in self._chunks:
            Hs = spec.A0[None, :, :] / (1j * epsilon) + kappa[c, None, None] * spec.Aj[0][None, :, :]
            self.evals[c], V = np.linalg.eigh(Hs)
            for (i, k), entry in evecs.items():
                entry[c] = V[:, i, k]
            nonzero = V != 0
            reach |= np.einsum("mik,mjk->ij", nonzero, nonzero)
        self.evecs = {ik: entry for ik, entry in evecs.items() if entry.any()}
        # the propagator's stored entries, row by row, columns ascending
        self._rows = [(i, np.flatnonzero(row).tolist()) for i, row in enumerate(reach)]
        self.source = spec.B.scaled(1 / np.sqrt(epsilon))
        self._touched = {i for (o, l, r, v) in self.source.triplets if v for i in (o, l, r)}
        self._moved = _runs(self.source.rows)
        self._fixed = _runs(sorted(self._touched.difference(self.source.rows)))
        self._h = self._prop = None
        self._hat = np.empty((spec.N, len(kappa)), dtype=complex)
        self._row = np.empty(len(kappa), dtype=complex)
        self._u, *self._rk4 = (np.empty((spec.N, self.n)) for _ in range(4))
        self._ends = [0, -1] if self.n % 2 == 0 else [0]   # DC and Nyquist: irfft reads them real

    def spectrum(self, u, out=None):
        """(N, modes) half spectrum of an (N, points) real state."""
        return np.fft.rfft(u, axis=1, out=out)

    def field(self, u_hat, runs):
        """The workspace state, its rows in ``runs`` (slices) formed from ``u_hat``."""
        for s in runs:
            np.fft.irfft(u_hat[s], n=self.n, axis=1, out=self._u[s])
        return self._u

    def propagator(self, h):
        """V e^{-i (h/2) Lambda} V* as {(i, j): its values over the modes} on the
        stored entries; rebuilt when h changes, a chunk of modes at a time from
        that chunk's dense V; the rows it leaves frozen are found at each build."""
        if h != self._h:
            self._prop = None   # released before the new one is formed: peak memory
            N, modes = self._hat.shape
            P = {(i, j): np.empty(modes, dtype=complex) for i, js in self._rows for j in js}
            for c in self._chunks:
                V = np.zeros((len(self.evals[c]), N, N), dtype=complex)
                for (i, k), entry in self.evecs.items():
                    V[:, i, k] = entry[c]
                ph = np.exp(-1j * (h / 2) * self.evals[c])
                # (V ph) @ V^H, V conjugated in place once V ph is formed: peak memory
                Pc = (V * ph[:, None, :]) @ np.conjugate(V, out=V).transpose(0, 2, 1)
                for (i, j), entry in P.items():
                    entry[c] = Pc[:, i, j]
                del V, Pc   # freed before the next chunk's are formed: peak memory
            frozen = {i for i, js in self._rows if i not in self.source.rows
                      and all(np.all(P[i, j] == (i == j)) for j in js)}
            self._live = [(i, js) for i, js in self._rows if i not in frozen]
            self._read = _runs(sorted(self._touched - frozen))
            self._changed = _runs([i for i, _ in self._live])
            self._h, self._prop = h, P
        return self._prop

    def linear_half(self, prop, u_hat, out, rows):
        """out[i] = sum_j P[i, j] u_hat[j] over the stored js, in j order, for (i, js) in rows."""
        for i, js in rows:
            np.multiply(prop[i, js[0]], u_hat[js[0]], out=out[i])
            for j in js[1:]:
                out[i] += np.multiply(prop[i, j], u_hat[j], out=self._row)
        return out

    def nonlinear(self, u, dt):
        """RK4 on du/dt = B(u, u)/sqrt(eps), pointwise in x, from u (N, points):
        returns the RK4 array whose rows a nonzero triplet of B writes hold the
        increment dt/6 (k1 + 2 k2 + 2 k3 + k4), in that operation order.  The source
        is 0 on the other rows, so every stage reads those B reads from u."""
        acc, w, k = self._rk4
        self.source(u, u, out=k)
        for s in self._fixed:
            np.copyto(w[s], u[s])
        for s in self._moved:
            np.copyto(acc[s], k[s])
        for stage, c in enumerate((0.5 * dt, 0.5 * dt, dt)):
            for s in self._moved:
                np.add(u[s], np.multiply(c, k[s], out=w[s]), out=w[s])
                if stage:   # k holds k2 or k3
                    acc[s] += np.multiply(2, k[s], out=k[s])
            self.source(w, w, out=k)
        for s in self._moved:
            acc[s] += k[s]
            acc[s] *= dt / 6.0
        return acc

    def step(self, u_hat, h):
        """Advance the spectrum ``u_hat`` by h in place.  Returns the state and
        ``u_hat``; the state is the workspace's, overwritten by the next step.  A step
        that builds a propagator transforms every row, forming the frozen rows' x-values."""
        every = h != self._h
        prop = self.propagator(h)
        hat = self.linear_half(prop, u_hat, self._hat, self._rows if every else self._live)
        hat.imag[:, self._ends] = 0.0
        inc = self.nonlinear(self.field(hat, (slice(None),) if every else self._read), h)
        for s in self._moved:   # B's increment, transformed in u_hat: the half-step overwrites it
            hat[s] += self.spectrum(inc[s], out=u_hat[s])
        self.linear_half(prop, hat, u_hat, self._live).imag[:, self._ends] = 0.0
        return self.field(u_hat, self._changed), u_hat


@dataclass
class SimulationRun:
    times: np.ndarray
    norm_total: np.ndarray
    norm_dev: np.ndarray
    norm_dev_ball: np.ndarray
    sup_dev: np.ndarray
    fitted_rate: float
    t_star: float
    verdict: str                 # completed | unbounded
    config: SimConfig = None
    dt_used: float = None
    halvings: int = 0            # dt halvings over the run
    stop_reason: str = "t_end"   # law read | t_end | unbounded
    final_state: np.ndarray = None   # (N, points) real state at times[-1], a copy

    def csv(self) -> str:
        lines = ["t,norm_total,norm_dev,norm_dev_ball,sup_dev"]
        for i in range(len(self.times)):
            lines.append(f"{self.times[i]:.12g},{self.norm_total[i]:.12g},"
                         f"{self.norm_dev[i]:.12g},{self.norm_dev_ball[i]:.12g},"
                         f"{self.sup_dev[i]:.12g}")
        return "\n".join(lines) + "\n"


def _sup(a) -> float:
    """max |a| of a real array as max(max a, -min a): no |a| is formed."""
    return float(max(a.max(), -a.min()))


def _datum(config: SimConfig, reference, perturbation, x) -> np.ndarray:
    """The real part of the perturbed datum, (N, points); its complex temporaries
    are freed on return."""
    u_ref0 = np.asarray(reference(0.0, x))
    if np.any(np.imag(u_ref0) != 0):
        raise InputError("the reference datum reference(0, x) has a nonzero imaginary part: "
                         "the simulator evolves real fields")
    if perturbation is None:
        if config.e0 is None:
            raise InputError("resonant perturbation needs e0 from a stability report")
        # plateau on |x - center| <= r/2, gone beyond r
        phi0 = bump_weight(x - config.amplitude.center, config.phi0_radius / 2, config.phi0_radius)
        osc = np.exp(1j * x * (config.xi0 + config.k) / config.epsilon)
        pert = config.epsilon ** config.K * np.outer(config.e0, phi0 * osc)
    else:
        pert = np.asarray(perturbation(x))
    return np.real(u_ref0) + np.real(pert)   # the real part of the sum, with no complex sum


def _growth_window(n_dev0, eps, K_prime):
    """The (lo, hi) band of deviation norms the growth rate is fitted on: well above
    the initial deviation ``n_dev0``, well below the observation size eps^K'."""
    return 5.0 * max(n_dev0, 1e-300), 0.2 * eps ** K_prime


def _law_read(n_dev, n_ball, window, thresh) -> bool:
    """Whether the samples so far hold all a run reports: the ball norm has reached
    ``thresh`` = eps^K' (t* is known), the latest deviation is at or above the
    window's top (the window has closed) and the window holds 3 samples or more
    (the rate is fitted on it, not on the second-half fallback).  As n_ball <= n_dev
    and thresh > hi, the window has closed at the sample where t* becomes known;
    the second test holds back a run whose deviation falls back into the window."""
    lo, hi = window
    return (n_dev[-1] >= hi and max(n_ball) >= thresh
            and sum(lo < d < hi for d in n_dev) >= 3)


def _check_run_steps(taken, t, t_end, dt, halvings=0, pace=0):
    """Raise :class:`InputError` when the run's step estimate passes ``MAX_RUN_STEPS``:
    up front, t_end / dt; after a halving, the ``taken`` steps plus those to the run's
    end, at t_end or at its 21st halving (a blow-up), whichever comes first, the
    latter at the pace of the last dt level, ``pace`` steps a halving."""
    with np.errstate(over="ignore", divide="ignore"):
        left = (t_end - t) / dt
    if halvings:
        left = min(left, (21 - halvings) * pace)
    steps = taken + left
    if not steps <= MAX_RUN_STEPS:   # nan fails too
        after = f" ({taken} taken, then {halvings} dt halvings at t {t:.3g})" if halvings else ""
        raise InputError(f"the run needs about {steps:.3g} steps of dt {dt:.3g}{after} to "
                         f"t_end {t_end:.3g}, over the limit of {MAX_RUN_STEPS:.0e}")


def run_instability_experiment(config: SimConfig, reference, perturbation=None) -> SimulationRun:
    """Integrate the system from a perturbed reference datum and track deviation.

    ``reference(t, x)`` returns the reference state (N, points), whose datum
    ``reference(0, x)`` must be real (else :class:`InputError`); deviations are
    measured from its real part.  The default perturbation is the resonant
    datum: eps^K times a plateau bump around the amplitude maximum, oscillating
    at (xi0 + k)/eps, pointing along e0.  The run evolves a real field from the
    real part of the perturbed datum.  Integration runs to ``t_end`` when the
    config gives one, else to ``T_obs sqrt(eps) |log eps|``, with the nonlinear-step
    bound on dt, halving adaptively (at most 20 times) before declaring blow-up; a run
    estimated at more than ``MAX_RUN_STEPS`` steps, at the first dt or after any
    halving (see :func:`_check_run_steps`), raises :class:`InputError`.

    The run stops early, ``stop_reason`` "law read", at the first recorded sample
    by which the ball norm has reached eps^K' (t* is known), the latest deviation
    is at or above the growth window's top 0.2 eps^K' and the window holds 3
    samples or more (:func:`_law_read`).  Its samples are the first ones of the run
    to t_end, and t* and the rate are read from them: only a deviation that fell
    back into the window later would move the rate, and none does on the stock
    runs.  A run whose window never opens (5 n_dev(0) >= 0.2 eps^K') runs to t_end
    ("t_end") or to blow-up ("unbounded").
    """
    config.check_resolution()
    spec = config.spec
    eps = config.epsilon
    x = config.x
    dx = config.domain_length / config.grid_points
    ball = np.abs(x - config.amplitude.center) <= config.rho
    datum = _datum(config, reference, perturbation, x)

    t_end = config.horizon
    b_norm = spec.B.norm_bound
    sup = _sup(datum)
    dt = 0.1 * np.sqrt(eps) / max(b_norm * sup, 1e-12)
    dt = min(dt, t_end / 16)
    _check_run_steps(0, 0.0, t_end, dt)

    stepper = _Stepper(spec, eps, x)
    u = stepper._u
    np.copyto(u, datum)
    del datum
    u_hat = stepper.spectrum(u)
    sample_dt = t_end / RUN_SAMPLES
    times, n_tot, n_dev, n_ball, s_dev = [], [], [], [], []
    dev = stepper._rk4[0]   # an RK4 stage array: free between steps

    def record(t, u):
        """Append the norms at t."""
        times.append(t)
        n_tot.append(float(np.sqrt(np.square(u, out=dev).sum() * dx)))
        np.subtract(u, np.asarray(reference(t, x)).real, out=dev)
        s_dev.append(_sup(dev))
        np.square(dev, out=dev)
        n_dev.append(float(np.sqrt(dev.sum() * dx)))
        n_ball.append(float(np.sqrt(dev[:, ball].sum() * dx)))

    t = 0.0
    record(t, u)
    window = _growth_window(n_dev[0], eps, config.K_prime)
    thresh = eps ** config.K_prime
    verdict, stop_reason = "completed", "t_end"
    halvings = taken = level_start = 0   # level_start: the step count at the last halving
    next_sample = sample_dt
    while t < t_end - 1e-14:
        while dt > 0.1 * np.sqrt(eps) / max(b_norm * sup, 1e-12):
            dt *= 0.5
            halvings += 1
            if halvings > 20:
                verdict = "unbounded"
                break
            _check_run_steps(taken, t, t_end, dt, halvings, taken - level_start)
            level_start = taken
        if verdict == "unbounded" or not np.isfinite(sup):
            verdict = stop_reason = "unbounded"
            break
        h = min(dt, t_end - t)
        u, u_hat = stepper.step(u_hat, h)
        t += h
        taken += 1
        if t >= next_sample - 1e-14 or t >= t_end - 1e-14:
            record(t, u)
            next_sample += sample_dt
            if _law_read(n_dev, n_ball, window, thresh):
                stop_reason = "law read"
                break
        sup = _sup(u)

    times = np.array(times)
    n_dev = np.array(n_dev)
    n_ball = np.array(n_ball)

    lo, hi = window
    sel = (n_dev > lo) & (n_dev < hi)
    if sel.sum() >= 3:
        rate = float(np.polyfit(times[sel], np.log(n_dev[sel]), 1)[0])
    elif len(times) > 3:
        half = len(times) // 2
        with np.errstate(divide="ignore"):
            rate = float(np.polyfit(times[half:], np.log(np.maximum(n_dev[half:], 1e-300)), 1)[0])
    else:
        rate = 0.0

    t_star = np.inf
    above = np.nonzero(n_ball >= thresh)[0]
    if len(above):
        i = above[0]
        if i == 0:
            t_star = float(times[0])
        else:
            f0, f1 = n_ball[i - 1], n_ball[i]
            w = (thresh - f0) / (f1 - f0)
            t_star = float(times[i - 1] + w * (times[i] - times[i - 1]))

    return SimulationRun(times=times, norm_total=np.array(n_tot), norm_dev=n_dev,
                         norm_dev_ball=n_ball, sup_dev=np.array(s_dev), fitted_rate=rate,
                         t_star=t_star, verdict=verdict, config=config, dt_used=dt,
                         halvings=halvings, stop_reason=stop_reason, final_state=u.copy())


@dataclass
class SweepReport:
    epsilons: np.ndarray
    t_stars: np.ndarray           # t_stars and rates: in the system's own clock
    rates: np.ndarray
    t_star_ratios: np.ndarray     # t_star / (sqrt(eps) |log eps|), the reduced clock's
    rate_scaled: np.ndarray       # fitted_rate * sqrt(eps), the reduced clock's
    ratio_spread: float           # max/min - 1 over finite ratios
    rate_spread: float
    flags: list

    def csv(self) -> str:
        lines = ["epsilon,t_star,t_star_ratio,fitted_rate,rate_scaled"]
        for i, eps in enumerate(self.epsilons):
            lines.append(f"{eps:.6g},{self.t_stars[i]:.12g},{self.t_star_ratios[i]:.12g},"
                         f"{self.rates[i]:.12g},{self.rate_scaled[i]:.12g}")
        return "\n".join(lines) + "\n"


def epsilon_sweep(run, epsilons, workers=1) -> SweepReport:
    """``run(eps)`` across epsilons, and the amplification law in the reduced clock.

    ``t_star / (sqrt(eps) |log eps|)`` should be constant across the sweep for
    an unstable system, and ``fitted_rate * sqrt(eps)`` should be constant;
    their relative spreads are reported, over three distinct epsilons or more,
    none repeated.  Runs are independent; ``workers`` > 1 executes them in a
    thread pool (results are ordered by epsilon regardless).
    """
    epsilons = fit_epsilons(epsilons, 3, "a sweep")
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            runs = list(pool.map(run, epsilons))
    else:
        runs = [run(eps) for eps in epsilons]

    t_stars = np.array([r.t_star for r in runs])
    rates = np.array([r.fitted_rate for r in runs])
    flags = [(float(eps), r.verdict) for eps, r in zip(epsilons, runs) if r.verdict != "completed"]
    ratios = t_stars / (np.sqrt(epsilons) * np.abs(np.log(epsilons)))
    scaled = rates * np.sqrt(epsilons)
    finite = np.isfinite(ratios)
    ratio_spread = float(ratios[finite].max() / ratios[finite].min() - 1.0) if finite.any() else np.inf
    pos = scaled > 0
    rate_spread = float(scaled[pos].max() / scaled[pos].min() - 1.0) if pos.any() else np.inf
    return SweepReport(epsilons=epsilons, t_stars=t_stars, rates=rates, t_star_ratios=ratios,
                       rate_scaled=scaled, ratio_spread=ratio_spread, rate_spread=rate_spread,
                       flags=flags)


def snapshot_bytes(state, config: SimConfig, t: float) -> bytes:
    """Binary state dump: magic, N, grid points, epsilon, time, raw complex128 field
    (a simulated state is real: its imaginary parts are written as 0)."""
    import struct

    head = struct.pack("<4sIIdd", b"OSC1", config.spec.N, config.grid_points,
                       config.epsilon, t)
    return head + np.ascontiguousarray(state, dtype=np.complex128).tobytes()
