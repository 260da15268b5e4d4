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
Statistics exclude a configurable warm-up window: the events run in two
phases, before the warm-up's end and up to the horizon, and each phase
starts its statistics afresh.

The two schemes share one trajectory.  Preemption in service changes only
which packet a completion delivers: service is exponential, so an arrival
in service does not change when the channel frees, and the scheme draws
nothing.  So :func:`run` simulates ``config.ps.policy`` once and keeps a
sawtooth per scheme on it: the WP stamp moves with each arrival in service,
the WOP stamp stays at the packet that entered service.  :func:`run` builds
the WP view and returns its ``as_scheme(config.ps.scheme)``, so WOP - WP,
read with ``as_scheme``, is a difference on one sample path.

Randomness contract: every draw is a pure function of
(seed, replication, device, purpose, draw index).  One counter-keyed
generator per (seed, replication, purpose), held by a ``_Stream``, yields
consecutive blocks of shape (n_devices, BLOCK) with BLOCK = 64; device d
consumes row d, so draw sequences are independent of event interleaving
across devices and replications are reproducible under any parallelism.
BLOCK and the block shape are part of the contract: changing either
changes every draw.  A stream cuts a block into its N rows when it
generates it, each row C values in its own ``array``, and keeps a row only
until its device takes it; a draw becomes a Python number only when it is
read.  The cut goes through one reused buffer per thread, dtype and N, so
a run does not allocate, fault in and free a block-sized temporary for
each block it cuts.

An arrival horizon ends at an order statistic of all devices' arrival
times, found exactly before the run in one pass over the arrival stream.
The pass keeps no more of the stream than a bounded round of blocks and
the drawn times later than the slowest device's last, about
N * sqrt(draws per device) of them.

Events on the heap: each device has exactly one pending event, its next
arrival while idle, its backoff expiry while waiting, or its service
completion while in service, keyed by the device's state (``core.IDLE``,
``WAITING`` or ``SERVICE``).  A channel is its occupant's completion time,
or -1.0 while it is free.  Two kinds of event that change no state never
reach the heap, and both still consume the same per-device draws:

- Arrivals at a waiting or transmitting device.  Each device holds its
  next arrival time, drawn when the device reaches its previous arrival and
  advanced with ``+=``.  When a device leaves waiting or service, and for
  every device held at the end, the arrivals up to that time are drawn
  then: the packet stamp moves and the replaced, preempted or discarded
  count grows.
- Backoff expiries that must find their channel busy.  A backoff's channel
  is drawn when the backoff is scheduled.  While that channel's occupant is
  due to complete after the backoff expires, the expiry would only schedule
  the next backoff, so the next backoff and channel are drawn at once.  A
  retry that might find its channel free is pushed, and its channel is
  checked again when it expires.
"""

from __future__ import annotations

import math
import os
import threading
from array import array
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache
from heapq import heapify, heapreplace

import numpy as np

from .core import (FAILURE_TARGET, IDLE, SERVICE, WAITING, AoiError, PolicyScheme, Scheme,
                   SystemParams)


class InvalidConfig(AoiError):
    """The simulation configuration is incomplete or out of range; ``field``
    names the offending field, or is ``None`` where no one field is at fault."""

    def __init__(self, message: str, field: str | None = None):
        # both arguments go to ``args``, so a pickled copy (an error raised in
        # a worker process) is rebuilt with the same message and field
        super().__init__(message, field)
        self.field = field

    def __str__(self) -> str:
        message, field = self.args
        return message if field is None else f"{field} {message}"


class ChannelAccounting(AoiError):
    """Internal invariant violated: busy channels != devices in service."""


_P_ARRIVAL, _P_BACKOFF, _P_SERVICE, _P_CHANNEL, _P_SUCCESS = range(5)

_MAX_SAMPLES = 10_000_000  # trajectory samples per run, as meanfield bounds its steps
_ROUND_VALUES = 1 << 16  # arrival times drawn at most in one round of an arrival horizon's pass
_NORMAL_95 = 1.959963984540054


@dataclass(frozen=True)
class SimConfig:
    """One replication's configuration.

    Exactly one of ``stop_arrivals`` (total system-wide packet arrivals) or
    ``stop_time`` must be set.  ``warmup_fraction`` of the horizon is
    excluded from AoI statistics.  ``sample_dt`` enables empirical-measure
    sampling.  ``replication`` indexes the derived random streams.  The seed
    and the replication are integers, keying each stream as the two uint64s
    ``(seed, (replication << 3) | purpose)``.  Building a config without N and
    M, or with a value out of range, raises :class:`InvalidConfig`.
    """

    params: SystemParams
    ps: PolicyScheme
    seed: int
    stop_arrivals: int | None = None
    stop_time: float | None = None
    warmup_fraction: float = 0.1
    sample_dt: float | None = None
    replication: int = 0

    def __post_init__(self) -> None:
        if self.params.n_devices is None or self.params.n_channels is None:
            raise InvalidConfig("n_devices and n_channels must both be set for simulation")
        if not isinstance(self.seed, int):
            raise InvalidConfig(f"must be an integer, got {self.seed!r}", "seed")
        if not 0 <= self.seed < 1 << 64:
            raise InvalidConfig(f"must lie in [0, 2**64), got {self.seed}", "seed")
        if (self.stop_arrivals is None) == (self.stop_time is None):
            raise InvalidConfig("exactly one of stop_arrivals / stop_time must be set")
        if self.stop_arrivals is not None:
            if not (isinstance(self.stop_arrivals, int) and self.stop_arrivals >= 1):
                raise InvalidConfig(f"must be an integer >= 1, got {self.stop_arrivals!r}",
                                    "stop_arrivals")
        if self.stop_time is not None and not 0 < self.stop_time < math.inf:
            raise InvalidConfig(f"must be positive and finite, got {self.stop_time}", "stop_time")
        if not 0.0 <= self.warmup_fraction <= 0.5:
            raise InvalidConfig(f"must lie in [0, 0.5], got {self.warmup_fraction}",
                                "warmup_fraction")
        if self.sample_dt is not None and not 0 < self.sample_dt < math.inf:
            raise InvalidConfig(f"must be positive and finite, got {self.sample_dt}", "sample_dt")
        if self.stop_time is not None:
            _check_samples(self.stop_time, self.sample_dt)
        if not (isinstance(self.replication, int) and 0 <= self.replication < 1 << 61):
            raise InvalidConfig(f"must be an integer in [0, 2**61), got {self.replication!r}",
                                "replication")


@dataclass(frozen=True)
class SimResult:
    """Per-device AoI averages, event counts, and optional trajectory.

    Every arrival up to the end ends one way: ``arrivals == delivered +
    failed (policy I only) + preempted + discarded + replaced + held``.
    ``replaced`` counts packets a newer arrival replaced while waiting, and
    ``held`` the devices waiting or in service at the end, one packet each.

    The figures are those of ``scheme``: :func:`run` builds the WP view and
    gives the config's scheme through :meth:`as_scheme`, which reads the
    other scheme's on the same trajectory from ``other_avg_aoi_per_device``.
    """

    avg_aoi_per_device: np.ndarray
    avg_aoi_mean: float
    avg_aoi_stderr: float
    arrivals: int
    delivered: int
    failed: int
    preempted: int
    discarded: int
    replaced: int
    held: int
    effective_k_estimate: float
    measured_time: float
    end_time: float
    n_devices: int
    scheme: Scheme
    other_avg_aoi_per_device: np.ndarray
    trajectory_times: np.ndarray | None = None
    trajectory_counts: np.ndarray | None = None

    @property
    def trajectory_fractions(self) -> np.ndarray | None:
        if self.trajectory_counts is None:
            return None
        return self.trajectory_counts / float(self.n_devices)

    def as_scheme(self, scheme: Scheme) -> SimResult:
        """This run's figures under ``scheme``: the arrivals in service that
        WP counts as preempted, WOP counts as discarded."""
        if scheme is self.scheme:
            return self
        mean, stderr = _mean_stderr(self.other_avg_aoi_per_device)
        return replace(self, scheme=scheme, avg_aoi_per_device=self.other_avg_aoi_per_device,
                       other_avg_aoi_per_device=self.avg_aoi_per_device, avg_aoi_mean=mean,
                       avg_aoi_stderr=stderr, preempted=self.discarded,
                       discarded=self.preempted)


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    """The mean of ``values`` and its standard error (0 for one value)."""
    n = len(values)
    return float(values.mean()), (float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0)


BLOCK = 64


class _CutBuffers(threading.local):
    """Each thread's buffers that stream blocks are cut through, by typecode and n."""

    def __init__(self):
        @lru_cache(maxsize=8)
        def get(char: str, n: int) -> tuple[array, np.ndarray]:
            flat = array(char, [0]) * (n * BLOCK)
            return flat, np.frombuffer(flat, dtype=char).reshape(n, BLOCK)
        self.get = get


_cut_buffers = _CutBuffers()


class _Stream:
    """One purpose's blocked, counter-addressed random stream.

    The key (seed, replication, purpose) seeds a Philox generator, built
    with the stream, from which ``sample(generator, shape)`` draws whole
    blocks; :meth:`blocks` returns the next ``k`` at once.  ``draws[d]``
    holds device ``d``'s unread draws of its current block row, reversed, so
    the next draw is ``draws[d].pop()``.  When that is empty, :meth:`refill`
    moves the device to its row in the next block, generating the block on
    first use and cutting it at once into its n rows, each an ``array`` of C
    values, reversed, so a Python number is made only for a draw that is
    read.  A block keeps only the rows no device has taken (a taken row
    leaves ``None``) and is dropped once every device has taken its row.
    The reversed block is copied into a buffer the thread reuses for every
    block of that dtype and n, and the rows are sliced from it as copies, so
    no block-sized temporary is faulted in and freed per block: that cut
    ``ensemble``'s wall time by 16 % (BENCH_24.json).  The buffer is per
    thread because numpy's copy releases the GIL.  Block 0 is handed to
    every device at once, on the first refill of any of them: taken row by
    row, 40 of ``ensemble``'s N = 1000 runs took 1.11 times as long (median
    of 14 rounds of ``scripts/time_sim.py``, slower in 13).
    """

    def __init__(self, config: SimConfig, purpose: int,
                 sample: Callable[[np.random.Generator, tuple[int, int, int]], np.ndarray]):
        key = np.array((config.seed, (config.replication << 3) | purpose), dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))
        self._sample = sample
        self._n = n = config.params.n_devices
        self._blocks: dict[int, list] = {}  # index -> [rows not yet taken, how many]
        self._next_row = [0] * n
        self.draws: list[array | tuple] = [()] * n  # () until the device's first refill

    def blocks(self, k: int) -> np.ndarray:
        """The stream's next ``k`` blocks, as one ``(k, n, BLOCK)`` array."""
        return self._sample(self._gen, (k, self._n, BLOCK))

    def refill(self, device: int):
        """Move ``device`` to its next block row and return that row's first draw."""
        j = self._next_row[device]
        self._next_row[device] = j + 1
        entry = self._blocks.get(j)
        if entry is None:  # no device has reached block j yet: cut it into rows
            block = self.blocks(1)[0]
            flat, view = _cut_buffers.get(block.dtype.char, self._n)
            np.copyto(view, block[:, ::-1])
            del block  # freed before the rows are made
            rows = [flat[i:i + BLOCK] for i in range(0, len(flat), BLOCK)]
            if j == 0:  # every device is still on block 0: hand out all its rows
                self.draws[:] = rows
                self._next_row[:] = [1] * self._n
                return rows[device].pop()
            entry = self._blocks[j] = [rows, self._n]
        rows = entry[0]
        row = self.draws[device] = rows[device]
        rows[device] = None
        entry[1] -= 1
        if not entry[1]:
            del self._blocks[j]
        return row.pop()


def _exponential(rate: float) -> Callable[[np.random.Generator, tuple], np.ndarray]:
    return lambda gen, shape: gen.exponential(1.0 / rate, shape)


def _arrival_horizon(config: SimConfig) -> tuple[float, float]:
    """An arrival horizon's ``(t_warm, t_stop)``.

    ``t_stop`` is the time of the ``stop_arrivals``-th arrival and ``t_warm``
    that of the warm-up's last (0 without warm-up).  Device d's arrival times
    are the running sum of row d of the arrival stream's consecutive (n,
    BLOCK) blocks, carried from block to block, so they are bit for bit the
    times ``run`` draws one at a time.  The first round draws one block; each
    later round draws as many blocks again as drawn so far, up to
    ``_ROUND_VALUES`` times.  After a round every arrival up to ``x``, the
    earliest of the devices' last drawn times, is drawn: the times up to x
    are settled, and a rank among them is selected exactly.  The pass keeps
    only the count settled in earlier rounds and the drawn times after x,
    and stops once both ranks are settled.
    """
    n = config.params.n_devices
    a_stop = config.stop_arrivals
    a_warm = math.ceil(config.warmup_fraction * a_stop)
    ranks = [a_warm, a_stop] if a_warm else [a_stop]
    found: list[float] = []
    stream = _Stream(config, _P_ARRIVAL, _exponential(config.params.lam))
    cap = max(1, _ROUND_VALUES // (n * BLOCK))
    drawn, last, below, later = 0, 0.0, 0, np.empty(0)
    while len(found) < len(ranks):
        k = min(max(1, drawn // BLOCK), cap)
        times = stream.blocks(k).transpose(1, 0, 2).reshape(n, -1)
        times[:, 0] += last
        np.cumsum(times, axis=1, out=times)
        drawn += k * BLOCK
        last = times[:, -1].copy()
        x = last.min()
        times = np.concatenate((later, times.ravel()))
        settled, later = times[times <= x], times[times > x]
        for a in ranks[len(found):]:
            if a > below + len(settled):
                break
            found.append(float(np.partition(settled, a - below - 1)[a - below - 1]))
        below += len(settled)
    return (found[0] if a_warm else 0.0), found[-1]


def _check_samples(t_stop: float, sample_dt: float | None) -> None:
    """Refuse a trajectory of more than ``_MAX_SAMPLES`` samples before any is taken."""
    if sample_dt is not None and t_stop / sample_dt > _MAX_SAMPLES:
        raise InvalidConfig(f"asks for more than {_MAX_SAMPLES} samples over the horizon, "
                            f"got {sample_dt!r}", "sample_dt")


def _check_channels(busy_until: list[float], n_serv: int) -> None:
    busy = len(busy_until) - busy_until.count(-1.0)
    if busy != n_serv:
        raise ChannelAccounting(f"{busy} channels busy but {n_serv} devices in service")


def run(config: SimConfig) -> SimResult:
    """Simulate one replication and return its statistics under both schemes."""
    params = config.params
    n: int = params.n_devices
    m: int = params.n_channels
    w, mu, prob, gamma = params.w, params.mu, params.p, params.gamma
    fail_to = FAILURE_TARGET[config.ps.policy]
    if config.stop_time is None:  # the config checked a time horizon's samples
        t_warm, t_stop = _arrival_horizon(config)
        _check_samples(t_stop, config.sample_dt)
    else:
        t_stop = config.stop_time
        t_warm = config.warmup_fraction * t_stop
    measured = t_stop - t_warm
    if measured <= 0.0:
        raise InvalidConfig("horizon too short: no time left after warm-up")
    arrival = _Stream(config, _P_ARRIVAL, _exponential(params.lam))
    backoff = _Stream(config, _P_BACKOFF, _exponential(w))
    service = _Stream(config, _P_SERVICE, _exponential(mu))
    channel = _Stream(config, _P_CHANNEL,
                      lambda gen, shape: gen.integers(0, m, shape, dtype=np.int64))
    success = _Stream(config, _P_SUCCESS, lambda gen, shape: gen.random(shape))
    draw_arr, refill_arr = arrival.draws, arrival.refill
    draw_bo, refill_bo = backoff.draws, backoff.refill
    draw_svc, refill_svc = service.draws, service.refill
    draw_ch, refill_ch = channel.draws, channel.refill
    draw_ok, refill_ok = success.draws, success.refill

    # Device state as parallel lists, one per scheme where the schemes
    # differ.  ``stamp_wp``/``stamp_wop`` are the held packet's arrival time,
    # up to date at a device's last event: an arrival in service moves only
    # the WP stamp.  ``next_arrival`` is the time of the first arrival the
    # device has not yet reached.  ``chan`` is the channel a device holds in
    # service, or will sense when its pending backoff expires.  ``aoi_time``
    # and ``aoi_value_*`` pin each sawtooth at the last reset (delivery or
    # phase start) and ``aoi_integral_*`` accumulate their areas.
    # ``busy_until[c]`` is the scheduled completion of the device in service
    # on channel ``c``, or -1.0 while ``c`` is free.
    stamp_wp = [0.0] * n
    stamp_wop = [0.0] * n
    next_arrival = [0.0] * n
    chan = [-1] * n
    aoi_time = [0.0] * n
    aoi_value_wp = [0.0] * n
    aoi_value_wop = [0.0] * n
    aoi_integral_wp = [0.0] * n
    aoi_integral_wop = [0.0] * n
    busy_until = [-1.0] * m
    n_wait = n_serv = 0
    arrivals = delivered = failed = in_service = replaced = 0

    sampling = config.sample_dt is not None
    sample_dt = config.sample_dt or 0.0
    next_sample = math.inf
    traj_times = array("d")
    traj_counts = array("q")  # (idle, waiting, service) per sample, flat
    if sampling:
        traj_times.append(0.0)
        traj_counts.extend((n, 0, 0))
        next_sample = sample_dt

    for d in range(n):  # the first refill hands block 0 to every device
        q = draw_arr[d]
        next_arrival[d] = q.pop() if q else refill_arr(d)
    heap = [(a, d, IDLE) for d, a in enumerate(next_arrival)]
    heapify(heap)

    # The events run in two phases, the warm-up [0, t_warm) and the measured
    # [t_warm, t_stop], and each phase starts its statistics afresh (at t = 0
    # this changes nothing).  An arrival horizon's t_warm is an arrival time,
    # which falls in the second phase.  ``ns_integral`` integrates ``n_serv`` up to
    # ``last_t``, the time of its last change, and is updated only where it
    # changes.  Each device has exactly one pending event, so every event
    # replaces itself at the top of the heap (heapreplace) with the device's
    # next one.  Pending tuples (t, d, state) are unique by device, so the
    # heap pops them in one total order whatever its internal layout.
    for t0, end in ((0.0, math.nextafter(t_warm, -math.inf)), (t_warm, t_stop)):
        for i in range(n):
            aoi_value_wp[i] += t0 - aoi_time[i]
            aoi_value_wop[i] += t0 - aoi_time[i]
            aoi_time[i] = t0
        aoi_integral_wp[:] = aoi_integral_wop[:] = [0.0] * n
        ns_integral = 0.0
        last_t = t0
        while True:
            t, d, kind = heap[0]
            if t > end:
                break
            while next_sample < t:
                _check_channels(busy_until, n_serv)
                traj_times.append(next_sample)
                traj_counts.extend((n - n_wait - n_serv, n_wait, n_serv))
                next_sample += sample_dt

            if kind == WAITING:  # backoff expiry
                c = chan[d]
                if busy_until[c] < 0.0:
                    while next_arrival[d] <= t:  # a newer arrival replaced the waiting packet
                        arrivals += 1
                        replaced += 1
                        stamp_wp[d] = stamp_wop[d] = next_arrival[d]
                        q = draw_arr[d]
                        next_arrival[d] += q.pop() if q else refill_arr(d)
                    ns_integral += n_serv * (t - last_t)
                    last_t = t
                    n_wait -= 1
                    n_serv += 1
                    q = draw_svc[d]
                    t_done = t + (q.pop() if q else refill_svc(d))
                    busy_until[c] = t_done
                    heapreplace(heap, (t_done, d, SERVICE))
                    continue
                # the channel is busy: back off again, below
            elif kind == SERVICE:  # completion
                while next_arrival[d] <= t:  # an arrival during service preempts or is discarded
                    arrivals += 1
                    in_service += 1
                    stamp_wp[d] = next_arrival[d]
                    q = draw_arr[d]
                    next_arrival[d] += q.pop() if q else refill_arr(d)
                q = draw_ok[d]
                if (q.pop() if q else refill_ok(d)) < prob:
                    delivered += 1
                    dtau = t - aoi_time[d]
                    area = 0.5 * dtau * dtau
                    aoi_integral_wp[d] += aoi_value_wp[d] * dtau + area
                    aoi_integral_wop[d] += aoi_value_wop[d] * dtau + area
                    aoi_value_wp[d] = t - stamp_wp[d]
                    aoi_value_wop[d] = t - stamp_wop[d]
                    aoi_time[d] = t
                    next_state = IDLE
                else:
                    failed += 1
                    next_state = fail_to
                    if fail_to == SERVICE:
                        q = draw_svc[d]
                        t_done = t + (q.pop() if q else refill_svc(d))
                        busy_until[chan[d]] = t_done
                        heapreplace(heap, (t_done, d, SERVICE))
                        continue
                busy_until[chan[d]] = -1.0
                ns_integral += n_serv * (t - last_t)
                last_t = t
                n_serv -= 1
                if next_state == IDLE:
                    heapreplace(heap, (next_arrival[d], d, IDLE))
                    continue
                n_wait += 1  # re-contend with the undelivered packet
            else:  # arrival at an idle device
                arrivals += 1
                stamp_wp[d] = stamp_wop[d] = t
                q = draw_arr[d]
                next_arrival[d] = t + (q.pop() if q else refill_arr(d))
                n_wait += 1

            # Schedule the next backoff expiry, skipping every one that would
            # sense a channel whose occupant completes only after it.
            while True:
                q = draw_bo[d]
                t += q.pop() if q else refill_bo(d)
                q = draw_ch[d]
                c = q.pop() if q else refill_ch(d)
                if t >= busy_until[c]:
                    break
            chan[d] = c
            heapreplace(heap, (t, d, WAITING))

    # A device waiting at the end had its packet replaced by each arrival up
    # to the horizon; one in service preempted or discarded them.
    for _, d, kind in heap:
        if kind != IDLE:
            a, skipped = next_arrival[d], 0
            while a <= t_stop:
                skipped += 1
                q = draw_arr[d]
                a += q.pop() if q else refill_arr(d)
            arrivals += skipped
            if kind == WAITING:
                replaced += skipped
            else:
                in_service += skipped

    ns_integral += n_serv * (t_stop - last_t)
    if sampling:
        while next_sample <= t_stop + 1e-12:
            _check_channels(busy_until, n_serv)
            traj_times.append(next_sample)
            traj_counts.extend((n - n_wait - n_serv, n_wait, n_serv))
            next_sample += sample_dt
    _check_channels(busy_until, n_serv)

    # Each sawtooth's area up to t_stop.  numpy evaluates these element by
    # element in the order written, so each average rounds exactly as the
    # same expression on Python floats would.
    dtau = t_stop - np.array(aoi_time)
    area = 0.5 * dtau * dtau
    avgs_wp = (np.array(aoi_integral_wp) + np.array(aoi_value_wp) * dtau + area) / measured
    avgs_wop = (np.array(aoi_integral_wop) + np.array(aoi_value_wop) * dtau + area) / measured
    mean_xs = ns_integral / (measured * n)
    k_est = w * (1.0 - gamma * mean_xs)

    mean, stderr = _mean_stderr(avgs_wp)
    return SimResult(
        avg_aoi_per_device=avgs_wp,
        avg_aoi_mean=mean,
        avg_aoi_stderr=stderr,
        arrivals=arrivals,
        delivered=delivered,
        failed=failed,
        preempted=in_service,
        discarded=0,
        replaced=replaced,
        held=n_wait + n_serv,
        effective_k_estimate=k_est,
        measured_time=measured,
        end_time=t_stop,
        n_devices=n,
        scheme=Scheme.WP,
        other_avg_aoi_per_device=avgs_wop,
        trajectory_times=np.frombuffer(traj_times) if sampling else None,
        trajectory_counts=(np.frombuffer(traj_counts, dtype=np.int64).reshape(-1, 3)
                           if sampling else None),
    ).as_scheme(config.ps.scheme)


@dataclass(frozen=True)
class PooledResult:
    """Replications with pooled statistics over their means (``half_width`` nan for one)."""

    results: tuple[SimResult, ...]
    mean_aoi: float
    stderr: float
    half_width: float

    @property
    def n_reps(self) -> int:
        return len(self.results)

    def as_scheme(self, scheme: Scheme) -> PooledResult:
        """The same replications' figures under ``scheme``."""
        return _pool([r.as_scheme(scheme) for r in self.results])


def _pool(results: list[SimResult]) -> PooledResult:
    mean, stderr = _mean_stderr(np.array([r.avg_aoi_mean for r in results]))
    return PooledResult(
        results=tuple(results),
        mean_aoi=mean,
        stderr=stderr,
        half_width=_NORMAL_95 * stderr if len(results) > 1 else math.nan,
    )


def replicate(config: SimConfig, n_reps: int, parallelism: int = 1) -> PooledResult:
    """Run independent replications with decorrelated deterministic streams.

    Identical (seed, config) reproduces identical pooled output regardless of
    the degree of parallelism.  Replication j runs ``config`` at replication
    ``config.replication + j``, each built and so checked before the first runs.
    """
    if n_reps < 1:
        raise InvalidConfig(f"must be >= 1, got {n_reps}", "n_reps")
    if parallelism < 1:
        raise InvalidConfig(f"must be >= 1, got {parallelism}", "parallelism")
    configs = [replace(config, replication=config.replication + j) for j in range(n_reps)]
    # Under fork, the pool starts all its workers at the first submit, so the
    # count is capped by the replications and by the CPUs this process may use.
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(parallelism, n_reps, cpus)
    if workers == 1:
        results = list(map(run, configs))
    else:
        # numpy loads numpy.random on first use.  Loaded here, it is shared
        # by the forked workers instead of imported again by each of them.
        import numpy.random  # noqa: F401
        chunk = max(1, n_reps // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, configs, chunksize=chunk))
    return _pool(results)
