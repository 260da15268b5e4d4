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

Events on the heap: each device has exactly one pending event, its next
arrival while idle, its backoff expiry while waiting, or its service
completion while in service.  Two kinds of event that change no state never
reach the heap, and both still consume the same per-device draws:

- Arrivals at a waiting or transmitting device.  Each device's arrival
  times are summed up front from its arrival-stream rows, in the order one
  arrival at a time would add them.  When a device leaves waiting or
  service, and for every device at the end, ``bisect_right`` over its
  times applies the arrivals it skipped: the packet stamp and the
  preempted or discarded count.  The times cost 8 bytes per arrival in the
  horizon (1.6 MB at 200k arrivals), kept as one ``array('d')`` per device.
- Backoff expiries that must find their channel busy.  A backoff's channel
  is drawn when the backoff is scheduled.  While that channel's occupant is
  due to complete after the backoff expires, the expiry would only schedule
  the next backoff, so the next backoff and channel are drawn at once.  A
  retry that might find its channel free is pushed, and its channel is
  checked again when it expires.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from heapq import heapify, heapreplace

import numpy as np

from .core import (FAILURE_TARGET, IDLE, SERVICE, AoiError, PolicyScheme, Scheme,
                   SystemParams, validate)


class InvalidConfig(AoiError):
    """The simulation configuration is incomplete or out of range."""


class ChannelAccounting(AoiError):
    """Internal invariant violated: busy channels != devices in service."""


_ARRIVAL, _BACKOFF, _COMPLETE = 0, 1, 2
_P_ARRIVAL, _P_BACKOFF, _P_SERVICE, _P_CHANNEL, _P_SUCCESS = range(5)

_MASK64 = (1 << 64) - 1
_MAX_SAMPLES = 10_000_000  # trajectory samples per run, as meanfield bounds its steps
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
    trajectory_times: np.ndarray | None = None
    trajectory_counts: np.ndarray | None = None

    @property
    def trajectory_fractions(self) -> np.ndarray | None:
        if self.trajectory_counts is None:
            return None
        return self.trajectory_counts / float(self.n_devices)


BLOCK = 64


def _generator(seed: int, replication: int, purpose: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, (replication << 3) | purpose], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class _Streams:
    """Blocked, counter-addressed random streams per (replication, purpose).

    Serves every purpose but arrivals, whose times :func:`_arrival_times`
    computes up front.  ``draws[purpose][d]`` holds device ``d``'s unread
    draws of its current block row, reversed, so the next draw is
    ``draws[purpose][d].pop()``.  When that list is empty, :meth:`refill`
    moves the device to its row in the next block, generating the block on
    first use.  The row is taken out of its block as it is handed over, so
    consumed rows are freed during the run rather than at its end.
    """

    def __init__(self, seed: int, replication: int, n: int, m: int, w: float, mu: float):
        self._n = n
        self._m = m
        self._seed = seed
        self._rep = replication
        self._scales = {_P_BACKOFF: 1.0 / w, _P_SERVICE: 1.0 / mu}
        self._gens: dict[int, np.random.Generator] = {}
        purposes = (_P_BACKOFF, _P_SERVICE, _P_CHANNEL, _P_SUCCESS)
        self._blocks: dict[int, list[list[list[float] | None]]] = {p: [] for p in purposes}
        self._next_row: dict[int, list[int]] = {p: [0] * n for p in purposes}
        self.draws: dict[int, list[list[float]]] = {p: [[] for _ in range(n)] for p in purposes}

    def _extend(self, purpose: int) -> None:
        gen = self._gens.get(purpose)
        if gen is None:
            gen = self._gens[purpose] = _generator(self._seed, self._rep, purpose)
        shape = (self._n, BLOCK)
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


def _first_blocks(per_device: float) -> int:
    """Arrival blocks to draw at once for a mean of ``per_device`` arrivals per device.

    Six standard deviations above the mean make a shortfall rare, and a
    shortfall only costs a top-up.
    """
    return math.ceil((per_device + 6.0 * math.sqrt(per_device) + 8.0) / BLOCK)


def _arrival_times(config: SimConfig) -> tuple[list[array], int, float, float]:
    """Each device's arrival times up to the end of the run, and the run's limits.

    Device d's inter-arrival draws are row d of the arrival stream's
    consecutive (n, BLOCK) blocks.  Their running sum along the row, carried
    from block to block, adds them in the order of ``t += draw``, so the
    times are bit for bit those of drawing one arrival at a time.  The
    blocks are drawn in one call; while some device's times end before the
    horizon, as many blocks again as drawn so far are added.

    An arrival horizon becomes a time: ``t_stop`` is the time of its
    ``stop_arrivals``-th arrival and ``t_warm`` that of the warm-up's last
    (0 without warm-up).  Each device's row keeps its times up to ``t_stop``
    and ends with ``inf``.  Returns ``(rows, arrivals, t_warm, t_stop)``,
    where ``arrivals`` counts the times up to ``t_stop``.
    """
    n, lam = config.params.n_devices, config.params.lam
    a_stop = config.stop_arrivals
    gen = _generator(config.seed, config.replication, _P_ARRIVAL)
    k = _first_blocks(a_stop / n if a_stop is not None else lam * config.stop_time)
    chunks: list[np.ndarray] = []
    last = 0.0
    while True:
        times = gen.exponential(scale=1.0 / lam, size=(k, n, BLOCK)).transpose(1, 0, 2)
        times = times.reshape(n, k * BLOCK)
        times[:, 0] += last
        np.cumsum(times, axis=1, out=times)
        chunks.append(times)
        last = times[:, -1]
        covered = last.min()  # every arrival up to this time has been drawn
        if a_stop is None:
            if covered >= config.stop_time:
                break
        elif sum(np.count_nonzero(c <= covered) for c in chunks) >= a_stop:
            break
        k = sum(c.shape[1] for c in chunks) // BLOCK
    times = chunks[0] if len(chunks) == 1 else np.concatenate(chunks, axis=1)
    del chunks, last

    if a_stop is None:
        t_stop = config.stop_time
        t_warm = config.warmup_fraction * t_stop
    else:
        a_warm = math.ceil(config.warmup_fraction * a_stop)
        order = np.partition(times, [a_warm - 1, a_stop - 1] if a_warm else a_stop - 1,
                             axis=None)
        t_stop = float(order[a_stop - 1])
        t_warm = float(order[a_warm - 1]) if a_warm else 0.0
        del order
    counts = np.count_nonzero(times <= t_stop, axis=1)
    rows = []
    for row, c in zip(times, counts.tolist()):
        row_times = array("d", row[:c].tobytes())
        row_times.append(math.inf)
        rows.append(row_times)
    return rows, int(counts.sum()), t_warm, t_stop


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
    if config.stop_time is not None:
        _check_samples(config.stop_time, config.sample_dt)
    if config.replication < 0:
        raise InvalidConfig(f"replication index must be nonnegative, got {config.replication}")
    validate(p)


def _check_samples(t_stop: float, sample_dt: float | None) -> None:
    """Refuse a trajectory of more than ``_MAX_SAMPLES`` samples before any is taken."""
    if sample_dt is not None and t_stop / sample_dt > _MAX_SAMPLES:
        raise InvalidConfig(f"sample_dt={sample_dt!r} asks for more than {_MAX_SAMPLES} "
                            "samples over the horizon")


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
    arrival_times, arrivals, t_warm, t_stop = _arrival_times(config)
    _check_samples(t_stop, config.sample_dt)
    streams = _Streams(config.seed, config.replication, n, m, w, params.mu)
    refill = streams.refill
    draw_bo, draw_svc, draw_ch, draw_ok = (streams.draws[p] for p in
                                           (_P_BACKOFF, _P_SERVICE, _P_CHANNEL, _P_SUCCESS))

    # Device state as parallel lists.  ``stamp`` is the held packet's arrival
    # time, up to date at a device's last event; ``applied[d]`` indexes the
    # first arrival of ``arrival_times[d]`` not yet applied to it.  ``chan``
    # is the channel a device holds in service, or will sense when its
    # pending backoff expires.  ``aoi_time``/``aoi_value`` pin the sawtooth
    # at the last reset (delivery or warm-up boundary) and ``aoi_integral``
    # accumulates its area.  ``busy_until[c]`` is the scheduled completion
    # of the device in service on channel ``c``, if ``occupied[c]``.
    stamp = [0.0] * n
    applied = [0] * n
    chan = [-1] * n
    aoi_time = [0.0] * n
    aoi_value = [0.0] * n
    aoi_integral = [0.0] * n
    occupied = [False] * m
    busy_until = [0.0] * m
    n_idle, n_wait, n_serv = n, 0, 0
    delivered = failed = preempted = discarded = 0

    # The integrals accumulate from t = 0 and begin_stats zeroes them.
    # ``t_pending`` is the warm-up boundary while it lies ahead in time, else
    # inf.  ``ns_integral`` integrates ``n_serv`` up to ``last_t``, the time
    # of its last change, and is updated only where it changes.
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

    heap = [(times[0], d, _ARRIVAL) for d, times in enumerate(arrival_times)]
    heapify(heap)

    # Each device has exactly one pending event, so every event replaces
    # itself at the top of the heap (heapreplace) with the device's next
    # one.  Pending tuples (t, d, kind) are unique by device, so the heap
    # pops them in one total order whatever its internal layout.
    while True:
        t, d, kind = heap[0]
        if t > t_stop:
            break
        if t >= t_pending:
            begin_stats(t_pending)
        while next_sample < t:
            _check_channels(occupied, n_serv)
            traj_times.append(next_sample)
            traj_counts.append((n_idle, n_wait, n_serv))
            next_sample += sample_dt

        if kind == _BACKOFF:
            c = chan[d]
            if not occupied[c]:
                times = arrival_times[d]
                i = applied[d]
                j = bisect_right(times, t, i)
                if j > i:  # the newest arrival replaced the waiting packet
                    stamp[d] = times[j - 1]
                    applied[d] = j
                occupied[c] = True
                ns_integral += n_serv * (t - last_t)
                last_t = t
                n_wait -= 1
                n_serv += 1
                q = draw_svc[d]
                t_done = t + (q.pop() if q else refill(_P_SERVICE, d))
                busy_until[c] = t_done
                heapreplace(heap, (t_done, d, _COMPLETE))
                continue
            # the channel is busy: back off again, below
        elif kind == _COMPLETE:
            times = arrival_times[d]
            i = applied[d]
            j = bisect_right(times, t, i)
            if j > i:  # arrivals during service preempt or are discarded
                applied[d] = j
                if wp:
                    stamp[d] = times[j - 1]
                    preempted += j - i
                else:
                    discarded += j - i
            q = draw_ok[d]
            if (q.pop() if q else refill(_P_SUCCESS, d)) < prob:
                delivered += 1
                dtau = t - aoi_time[d]
                aoi_integral[d] += aoi_value[d] * dtau + 0.5 * dtau * dtau
                aoi_value[d] = t - stamp[d]
                aoi_time[d] = t
                next_state = IDLE
            else:
                failed += 1
                next_state = fail_to
                if fail_to == SERVICE:
                    q = draw_svc[d]
                    t_done = t + (q.pop() if q else refill(_P_SERVICE, d))
                    busy_until[chan[d]] = t_done
                    heapreplace(heap, (t_done, d, _COMPLETE))
                    continue
            occupied[chan[d]] = False
            ns_integral += n_serv * (t - last_t)
            last_t = t
            n_serv -= 1
            if next_state == IDLE:
                n_idle += 1
                heapreplace(heap, (times[j], d, _ARRIVAL))
                continue
            n_wait += 1  # re-contend with the undelivered packet
        else:  # _ARRIVAL at an idle device
            stamp[d] = t
            applied[d] += 1
            n_idle -= 1
            n_wait += 1

        # Schedule the next backoff expiry, skipping every one that would
        # sense a channel whose occupant completes only after it.
        q = draw_bo[d]
        t += q.pop() if q else refill(_P_BACKOFF, d)
        q = draw_ch[d]
        c = q.pop() if q else refill(_P_CHANNEL, d)
        while occupied[c] and t < busy_until[c]:
            q = draw_bo[d]
            t += q.pop() if q else refill(_P_BACKOFF, d)
            q = draw_ch[d]
            c = q.pop() if q else refill(_P_CHANNEL, d)
        chan[d] = c
        heapreplace(heap, (t, d, _BACKOFF))

    # A time horizon can end before any event reaches the boundary, and an
    # arrival horizon's boundary can be an arrival at a busy device.
    end_time = t_stop
    if t_pending <= end_time:
        begin_stats(t_pending)
    measured = end_time - stats_t0
    if measured <= 0.0:
        raise InvalidConfig("horizon too short: no time left after warm-up")

    # Devices in service at the end preempt or discard their remaining arrivals.
    for _, d, kind in heap:
        if kind == _COMPLETE:
            skipped = len(arrival_times[d]) - 1 - applied[d]
            if wp:
                preempted += skipped
            else:
                discarded += skipped

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
