"""Event-driven simulation of the finite population.

N devices contend for M channels under idealized CSMA: sensing is
instantaneous, there are no hidden nodes, and two backoff timers never
expire simultaneously.  Each device carries an always-on Poisson arrival
stream, an exponential backoff clock while waiting, and an exponential
service clock while transmitting.  A backoff expiry samples one channel
uniformly at random: if it is free the device occupies it, otherwise it
stays waiting with a fresh backoff, which by memorylessness realizes the
aggregate access rate w * (1 - gamma * X_S) per waiting device.

Per-device receiver AoI follows the sawtooth: unit growth everywhere,
downward jumps to the delivered packet's age at successful completions.
Statistics exclude a configurable warm-up window.

Randomness contract: every draw is a pure function of
(seed, replication, device, purpose, draw index).  One counter-keyed
generator per (seed, replication, purpose) yields consecutive blocks of
shape (n_devices, BLOCK) with BLOCK = 64; device d consumes row d, so draw
sequences are independent of event interleaving across devices and
replications are reproducible under any parallelism.  BLOCK and the block
shape are part of the contract: changing either changes every draw.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from heapq import heapify, heappop, heappush, heapreplace

import numpy as np

from .core import (FAILURE_TARGET, IDLE, SERVICE, WAITING, AoiError, PolicyScheme, Scheme,
                   SystemParams, validate)


class InvalidConfig(AoiError):
    """The simulation configuration is incomplete or out of range."""


class ChannelAccounting(AoiError):
    """Internal invariant violated: busy channels != devices in service."""


_ARRIVAL, _BACKOFF, _COMPLETE = 0, 1, 2
_P_ARRIVAL, _P_BACKOFF, _P_SERVICE, _P_CHANNEL, _P_SUCCESS = range(5)

_MASK64 = (1 << 64) - 1
_NORMAL_95 = 1.959963984540054


@dataclass(frozen=True)
class SimConfig:
    """One replication's configuration.

    Exactly one of ``stop_arrivals`` (total system-wide packet arrivals) or
    ``stop_time`` must be set.  ``warmup_fraction`` of the horizon is
    excluded from AoI statistics.  ``sample_dt`` enables empirical-measure
    sampling.  ``replication`` indexes the derived random streams.
    """

    params: SystemParams
    ps: PolicyScheme
    seed: int
    stop_arrivals: int | None = None
    stop_time: float | None = None
    warmup_fraction: float = 0.1
    sample_dt: float | None = None
    replication: int = 0


@dataclass(frozen=True)
class SimResult:
    """Per-device AoI averages, event counts, and optional trajectory."""

    avg_aoi_per_device: np.ndarray
    avg_aoi_mean: float
    avg_aoi_stderr: float
    arrivals: int
    delivered: int
    failed: int
    preempted: int
    discarded: int
    effective_k_estimate: float
    measured_time: float
    end_time: float
    n_devices: int
    n_channels: int
    trajectory_times: np.ndarray | None = None
    trajectory_counts: np.ndarray | None = None

    @property
    def trajectory_fractions(self) -> np.ndarray | None:
        if self.trajectory_counts is None:
            return None
        return self.trajectory_counts / float(self.n_devices)


class _Streams:
    """Blocked, counter-addressed random streams per (replication, purpose).

    ``draws[purpose][d]`` holds device ``d``'s unread draws of its current
    block row, reversed, so the next draw is ``draws[purpose][d].pop()``.
    When that list is empty, :meth:`refill` moves the device to its row in
    the next block, generating the block on first use.  The row is taken out
    of its block as it is handed over, so consumed rows are freed during the
    run rather than at its end.
    """

    BLOCK = 64

    def __init__(self, seed: int, replication: int, n: int, m: int,
                 lam: float, w: float, mu: float):
        if replication < 0:
            raise InvalidConfig(f"replication index must be nonnegative, got {replication}")
        self._n = n
        self._m = m
        self._key_hi = seed & _MASK64
        self._rep = replication
        self._scales = {_P_ARRIVAL: 1.0 / lam, _P_BACKOFF: 1.0 / w, _P_SERVICE: 1.0 / mu}
        self._gens: dict[int, np.random.Generator] = {}
        self._blocks: dict[int, list[list[list[float] | None]]] = {p: [] for p in range(5)}
        self._next_row: dict[int, list[int]] = {p: [0] * n for p in range(5)}
        self.draws: list[list[list[float]]] = [[[] for _ in range(n)] for _ in range(5)]

    def _extend(self, purpose: int) -> None:
        gen = self._gens.get(purpose)
        if gen is None:
            key = np.array([self._key_hi, (self._rep << 3) | purpose], dtype=np.uint64)
            gen = np.random.Generator(np.random.Philox(key=key))
            self._gens[purpose] = gen
        shape = (self._n, self.BLOCK)
        if purpose == _P_CHANNEL:
            block = gen.integers(0, self._m, size=shape, dtype=np.int64)
        elif purpose == _P_SUCCESS:
            block = gen.random(size=shape)
        else:
            block = gen.exponential(scale=self._scales[purpose], size=shape)
        self._blocks[purpose].append(block.tolist())

    def refill(self, purpose: int, device: int):
        """Move ``device`` to its next block row and return that row's first draw."""
        next_row = self._next_row[purpose]
        j = next_row[device]
        next_row[device] = j + 1
        blocks = self._blocks[purpose]
        if j == len(blocks):
            self._extend(purpose)
        block = blocks[j]
        row = block[device]
        block[device] = None
        row.reverse()
        self.draws[purpose][device] = row
        return row.pop()


def _check_config(config: SimConfig) -> None:
    p = config.params
    if p.n_devices is None or p.n_channels is None:
        raise InvalidConfig("n_devices and n_channels must both be set for simulation")
    if not (isinstance(p.n_devices, int) and p.n_devices >= 1):
        raise InvalidConfig(f"n_devices must be a positive integer, got {p.n_devices!r}")
    if not (isinstance(p.n_channels, int) and p.n_channels >= 1):
        raise InvalidConfig(f"n_channels must be a positive integer, got {p.n_channels!r}")
    if (config.stop_arrivals is None) == (config.stop_time is None):
        raise InvalidConfig("exactly one of stop_arrivals / stop_time must be set")
    if config.stop_arrivals is not None and config.stop_arrivals < 1:
        raise InvalidConfig(f"stop_arrivals must be >= 1, got {config.stop_arrivals}")
    if config.stop_time is not None and not 0 < config.stop_time < math.inf:
        raise InvalidConfig(f"stop_time must be positive and finite, got {config.stop_time}")
    if not 0.0 <= config.warmup_fraction <= 0.5:
        raise InvalidConfig(f"warmup_fraction must lie in [0, 0.5], got {config.warmup_fraction}")
    if config.sample_dt is not None and not 0 < config.sample_dt < math.inf:
        raise InvalidConfig(f"sample_dt must be positive and finite, got {config.sample_dt}")
    validate(p)


def _check_channels(occupied: list[bool], n_serv: int) -> None:
    busy = sum(occupied)
    if busy != n_serv:
        raise ChannelAccounting(f"{busy} channels busy but {n_serv} devices in service")


def run(config: SimConfig) -> SimResult:
    """Simulate one replication and return its statistics."""
    _check_config(config)
    params = config.params
    n: int = params.n_devices
    m: int = params.n_channels
    w, prob, gamma = params.w, params.p, params.gamma
    fail_to, wp = FAILURE_TARGET[config.ps.policy], config.ps.scheme is Scheme.WP
    streams = _Streams(config.seed, config.replication, n, m, params.lam, w, params.mu)
    refill = streams.refill
    draw_arr, draw_bo, draw_svc, draw_ch, draw_ok = streams.draws  # in _P_* order

    # Device state as parallel lists.  ``stamp`` (the held packet's arrival
    # time) is meaningful only outside Idle and ``chan`` only in Service;
    # ``aoi_time``/``aoi_value`` pin the sawtooth at the last reset (delivery
    # or warm-up boundary) and ``aoi_integral`` accumulates its area.
    mode = [IDLE] * n
    stamp = [0.0] * n
    chan = [-1] * n
    aoi_time = [0.0] * n
    aoi_value = [0.0] * n
    aoi_integral = [0.0] * n
    occupied = [False] * m
    n_idle, n_wait, n_serv = n, 0, 0
    arrivals = delivered = failed = preempted = discarded = 0

    # Run to an arrival count or to a time; the other limit is never reached.
    # ``arrivals`` counts up in steps of 1, so ``==`` finds the first arrival
    # at which ``>=`` holds, and -1 is never reached.
    if config.stop_arrivals is not None:
        a_stop = config.stop_arrivals
        a_warm = math.ceil(config.warmup_fraction * a_stop)
        t_stop = t_warm = math.inf
    else:
        a_stop = a_warm = -1
        t_stop = config.stop_time
        t_warm = config.warmup_fraction * t_stop

    # The integrals accumulate from t = 0 and begin_stats zeroes them.
    # ``t_pending`` is the warm-up boundary while it lies ahead in time, else inf.
    t_pending = t_warm
    stats_t0 = 0.0
    ns_integral = 0.0
    last_t = 0.0

    sampling = config.sample_dt is not None
    sample_dt = config.sample_dt or 0.0
    next_sample = math.inf
    traj_times: list[float] = []
    traj_counts: list[tuple[int, int, int]] = []
    if sampling:
        traj_times.append(0.0)
        traj_counts.append((n_idle, n_wait, n_serv))
        next_sample = sample_dt

    def begin_stats(tb: float) -> None:
        nonlocal t_pending, stats_t0, ns_integral, last_t
        for i in range(n):
            aoi_value[i] += tb - aoi_time[i]
            aoi_time[i] = tb
            aoi_integral[i] = 0.0
        t_pending = math.inf
        stats_t0 = tb
        ns_integral = 0.0
        last_t = tb

    if a_warm == 0:
        begin_stats(0.0)

    # Every draw list starts empty, so each first arrival is a refill.
    heap = [(refill(_P_ARRIVAL, d), d, _ARRIVAL) for d in range(n)]
    heapify(heap)

    # The next event is read from heap[0] and left in place: the first event
    # it schedules replaces it (heapreplace), a second one is pushed, and an
    # event that schedules nothing is popped.  This pops the same sequence as
    # pop-then-push because pending tuples (t, d, kind) are unique -- each
    # device has at most one arrival and one backoff-or-completion pending --
    # so the heap's order is total whatever its internal layout.
    end_time: float | None = None
    while True:
        t, d, kind = heap[0]
        if t > t_stop:
            end_time = t_stop
            break
        if t >= t_pending:
            begin_stats(t_pending)
        ns_integral += n_serv * (t - last_t)
        while next_sample < t:
            _check_channels(occupied, n_serv)
            traj_times.append(next_sample)
            traj_counts.append((n_idle, n_wait, n_serv))
            next_sample += sample_dt
        last_t = t

        if kind == _ARRIVAL:
            arrivals += 1
            q = draw_arr[d]
            heapreplace(heap, (t + (q.pop() if q else refill(_P_ARRIVAL, d)), d, _ARRIVAL))
            md = mode[d]
            if md == IDLE:
                mode[d] = WAITING
                stamp[d] = t
                n_idle -= 1
                n_wait += 1
                q = draw_bo[d]
                heappush(heap, (t + (q.pop() if q else refill(_P_BACKOFF, d)), d, _BACKOFF))
            elif md == WAITING:
                stamp[d] = t
            elif wp:
                stamp[d] = t
                preempted += 1
            else:
                discarded += 1
            if arrivals == a_warm:
                begin_stats(t)
            if arrivals == a_stop:
                end_time = t
                break
        elif kind == _BACKOFF:
            q = draw_ch[d]
            c = q.pop() if q else refill(_P_CHANNEL, d)
            if occupied[c]:
                q = draw_bo[d]
                heapreplace(heap, (t + (q.pop() if q else refill(_P_BACKOFF, d)), d, _BACKOFF))
            else:
                occupied[c] = True
                mode[d] = SERVICE
                chan[d] = c
                n_wait -= 1
                n_serv += 1
                q = draw_svc[d]
                heapreplace(heap, (t + (q.pop() if q else refill(_P_SERVICE, d)), d, _COMPLETE))
        else:  # _COMPLETE
            q = draw_ok[d]
            if (q.pop() if q else refill(_P_SUCCESS, d)) < prob:
                delivered += 1
                heappop(heap)
                dtau = t - aoi_time[d]
                aoi_integral[d] += aoi_value[d] * dtau + 0.5 * dtau * dtau
                aoi_value[d] = t - stamp[d]
                aoi_time[d] = t
                occupied[chan[d]] = False
                mode[d] = IDLE
                n_serv -= 1
                n_idle += 1
            else:
                failed += 1
                if fail_to == SERVICE:
                    q = draw_svc[d]
                    heapreplace(heap, (t + (q.pop() if q else refill(_P_SERVICE, d)), d, _COMPLETE))
                    continue
                occupied[chan[d]] = False
                mode[d] = fail_to
                n_serv -= 1
                if fail_to == IDLE:
                    n_idle += 1
                    heappop(heap)
                else:  # re-contend with the undelivered packet
                    n_wait += 1
                    q = draw_bo[d]
                    heapreplace(heap, (t + (q.pop() if q else refill(_P_BACKOFF, d)), d, _BACKOFF))

    # A time horizon can end before any event reaches the boundary; an
    # arrival horizon has always passed its boundary, as a_warm <= a_stop.
    if t_pending < end_time:
        begin_stats(t_pending)
    measured = end_time - stats_t0
    if measured <= 0.0:
        raise InvalidConfig("horizon too short: no time left after warm-up")

    ns_integral += n_serv * (end_time - last_t)
    if sampling:
        while next_sample <= end_time + 1e-12:
            _check_channels(occupied, n_serv)
            traj_times.append(next_sample)
            traj_counts.append((n_idle, n_wait, n_serv))
            next_sample += sample_dt
    _check_channels(occupied, n_serv)

    avgs = np.empty(n)
    for d in range(n):
        dtau = end_time - aoi_time[d]
        avgs[d] = (aoi_integral[d] + aoi_value[d] * dtau + 0.5 * dtau * dtau) / measured
    mean = float(avgs.mean())
    stderr = float(avgs.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    mean_xs = ns_integral / (measured * n)
    k_est = w * (1.0 - gamma * mean_xs)

    return SimResult(
        avg_aoi_per_device=avgs,
        avg_aoi_mean=mean,
        avg_aoi_stderr=stderr,
        arrivals=arrivals,
        delivered=delivered,
        failed=failed,
        preempted=preempted,
        discarded=discarded,
        effective_k_estimate=k_est,
        measured_time=measured,
        end_time=end_time,
        n_devices=n,
        n_channels=m,
        trajectory_times=np.array(traj_times) if sampling else None,
        trajectory_counts=np.array(traj_counts, dtype=np.int64) if sampling else None,
    )


@dataclass(frozen=True)
class PooledResult:
    """Replications with pooled statistics over their per-replication means."""

    results: tuple[SimResult, ...]
    mean_aoi: float
    stderr: float
    half_width: float

    @property
    def n_reps(self) -> int:
        return len(self.results)


def _run_replication(args: tuple[SimConfig, int]) -> SimResult:
    config, rep = args
    return run(replace(config, replication=rep))


def replicate(config: SimConfig, n_reps: int, parallelism: int = 1) -> PooledResult:
    """Run independent replications with decorrelated deterministic streams.

    Identical (seed, config) reproduces identical pooled output regardless of
    the degree of parallelism; replication j uses stream index
    config.replication + j.
    """
    if n_reps < 1:
        raise InvalidConfig(f"n_reps must be >= 1, got {n_reps}")
    if parallelism < 1:
        raise InvalidConfig(f"parallelism must be >= 1, got {parallelism}")
    jobs = [(config, config.replication + j) for j in range(n_reps)]
    if parallelism == 1 or n_reps == 1:
        results = [_run_replication(job) for job in jobs]
    else:
        chunk = max(1, n_reps // (4 * parallelism))
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            results = list(pool.map(_run_replication, jobs, chunksize=chunk))
    means = np.array([r.avg_aoi_mean for r in results])
    mean = float(means.mean())
    stderr = float(means.std(ddof=1) / math.sqrt(n_reps)) if n_reps > 1 else 0.0
    return PooledResult(
        results=tuple(results),
        mean_aoi=mean,
        stderr=stderr,
        half_width=_NORMAL_95 * stderr,
    )
