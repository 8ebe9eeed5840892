"""Monte-Carlo simulation of the transmitter/channel/estimator loop.

The error process is simulated directly: a transmission resets it to a fresh
innovation, silence evolves it as ``E' = a E + W``.  This is step-for-step
identical to simulating the source and estimator and avoids state blow-up
for |a| > 1 between transmissions.

``simulate_policies`` runs a block of c policies on one spec: one ``(c, n)``
state of c policies x n replications, advanced by one step loop over one
draw of the innovations, which every policy row shares (common random
numbers).  ``simulate`` is the block of one policy.  The rows keep the
order of the policies.  A step decides only what reads the state: one
masked compare of the rows of one per-replication threshold array, those
of ``threshold``, ``randomized_threshold`` and the one counted rule of
steering and time-sharing, in which a replication's v-th event (boundary
visit, transmission) moves it to the v-th entry of one shared sequence (the
visit's decision, the cycle's threshold): a step adds its events into the
block's counts in one call and takes each counted row's table, extended
once per chunk, into that row.  A Model-B block of steering rows only,
whose continuous state almost never meets its boundary, extends its tables
only as far as the counts reach, on a step whose events reach a table's
end.  The state-blind kinds (``periodic``, ``iid_random``) fill their rows
of flags once per chunk.

A run draws from two streams spawned from ``SeedSequence([seed,
_STREAM_LAYOUT])``: the innovations, and the policy randomness (the
per-replication mixture uniforms of ``randomized_threshold`` or the
per-step coins of ``iid_random``); each policy reads its own copy of the
policy stream, so it draws what a run of its own draws.  Both are drawn
time-major, a chunk of ``(rows, n)`` at a time with ``rows * c * n`` about
``CHUNK_CELLS``; each stream is consumed in order, so the values drawn do
not depend on the chunk size and a fixed seed gives bit-identical results.
One producer thread draws each chunk of innovations in slices of 1/16,
1/16, 1/8, 1/4 and 1/2 of its steps, and the calling thread steps each
slice once it is drawn, while the producer draws on into the next chunk;
it alone reads the innovation stream, in step order, and the policy stream
stays on the calling thread, so the results are those of a serial run.
Resident memory is that of one chunk of the whole block, as for one run of
c x n replications, plus one chunk of innovations drawn ahead; ``MAX_SIM_WIDTH``
caps those c x n cells, ``MAX_SIM_CELLS`` the draws of each policy and
``MAX_SIM_STEPS`` its steps.  The innovations come from the law's ``sampler``:
a pmf's guide table or a density's inverse-CDF table, built with the law.
``steering_visit_probability`` reads the steering rule's boundary masses
off one ``solver_a.threshold_table``, and imports ``solver_a`` only then;
the simulator solves no linear system.  The draw-ahead thread pool and
``fractions`` are likewise imported by the calls that use them, so importing
this module loads neither.
The state-blind baselines' renewal-reward distortion, the route their
simulations are checked against, is ``reference.state_blind_distortion``.
"""

from __future__ import annotations

import math
from contextlib import ExitStack
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import DivergenceError, NumericsError, UsageError
from .model import ModelSpecA, ModelSpecB, count, integer_at_least, real_in

# cap on the per-step draws (innovations, iid coins) of each policy of a block: a run
# holds one chunk of them at a time, so this bounds its length and MAX_SIM_WIDTH its memory
MAX_SIM_CELLS = 10**8
# a step costs about 6 us of dispatch even at one replication: 1e7 steps take a minute
MAX_SIM_STEPS = 10**7
# cap on a block's policies x replications: a run at the cap peaks at 297-398 MB RSS (2-core Xeon)
MAX_SIM_WIDTH = 2**22
# float64 cells per time-major chunk of draws: a few such buffers (2 MB each)
# are all the memory a run holds beyond its per-replication state
CHUNK_CELLS = 2**18
# mixed into the seed; names the stream layout that ``stream_id`` reports
_STREAM_LAYOUT = 2
# a discounted run stops once the discount weight beta^t falls below this
DISCOUNT_TRUNCATION_TOL = 1e-10
# cycles in one period of a time-sharing schedule at most
_SCHEDULE_MAX_CYCLES = 10**3


@dataclass(frozen=True)
class PolicySpec:
    """Transmission policy for the simulator.

    ``threshold``            transmit iff |e| >= k
    ``randomized_threshold`` strategy mixture: each replication runs k with
                             probability theta, else k + 1
    ``periodic``             transmit per a fixed 0/1 pattern, state-blind
    ``iid_random``           transmit w.p. alpha each step, state-blind
    ``steering``             threshold k with deterministic frequency
                             tracking toward split theta at |e| = k
    ``time_sharing``         alternate k and k + 1 over transmission-delimited
                             cycles per a schedule of (a_m, b_m) cycle counts

    ``FIELDS`` holds the fields each kind takes, all required and no other,
    else ``UsageError``.  ``k``, ``theta`` and ``alpha`` are stored as
    floats, pattern and schedule entries as ints.
    """

    FIELDS = {"threshold": ("k",), "randomized_threshold": ("k", "theta"),
              "periodic": ("pattern",), "iid_random": ("alpha",),
              "steering": ("k", "theta"), "time_sharing": ("k", "schedule")}
    _REALS = {"k": ("[0, inf]", "threshold"), "theta": ("[0, 1]", "theta"),
              "alpha": ("(0, 1]", "alpha")}  # interval and name of each real field

    kind: str
    k: float | None = None
    theta: float | None = None
    pattern: tuple[int, ...] | None = None
    alpha: float | None = None
    schedule: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        taken = self.FIELDS.get(self.kind)
        if taken is None:
            raise UsageError(f"unknown policy kind {self.kind!r}, not one of {list(self.FIELDS)}")
        for name in (f.name for f in fields(self) if f.name != "kind"):
            if (getattr(self, name) is None) == (name in taken):
                raise UsageError(f"policy kind {self.kind!r} "
                                 f"{'needs' if name in taken else 'does not take'} {name}")
        for name in taken:
            value = getattr(self, name)
            try:
                if name == "pattern":
                    value = tuple(integer_at_least(u, -math.inf, "pattern entry") for u in value)
                elif name == "schedule":
                    value = tuple(tuple(integer_at_least(n, -math.inf, "schedule entry")
                                        for n in pair) for pair in value)
                else:  # the CLI passes its text, such as "inf" or "2"
                    value = real_in(float(value) if isinstance(value, str) else value,
                                    *self._REALS[name])
            except (TypeError, ValueError) as exc:
                raise UsageError(f"malformed {name} {value!r}: {exc}") from exc
            object.__setattr__(self, name, value)
        if self.pattern is not None and (not self.pattern
                                         or any(u not in (0, 1) for u in self.pattern)):
            raise UsageError("pattern must be a nonempty sequence of 0/1 flags")
        if self.schedule is not None and (not self.schedule or any(
                len(pair) != 2 or min(pair) < 0 or sum(pair) < 1 for pair in self.schedule)):
            raise UsageError("schedule must be a nonempty sequence of pairs (a, b) of "
                             "nonnegative cycle counts with a + b >= 1")

    @classmethod
    def threshold(cls, k: float) -> "PolicySpec":
        return cls(kind="threshold", k=k)

    @classmethod
    def randomized_threshold(cls, k: int, theta: float) -> "PolicySpec":
        return cls(kind="randomized_threshold", k=k, theta=theta)

    @classmethod
    def periodic(cls, pattern: Sequence[int]) -> "PolicySpec":
        return cls(kind="periodic", pattern=pattern)

    @classmethod
    def periodic_one_in(cls, period: int) -> "PolicySpec":
        """Transmit once, then stay silent for period - 1 steps."""
        return cls.periodic((1,) + (0,) * (integer_at_least(period, 1, "period") - 1))

    @classmethod
    def periodic_all_but_one(cls, period: int) -> "PolicySpec":
        """Stay silent one step, then transmit for period - 1 steps."""
        return cls.periodic((0,) + (1,) * (integer_at_least(period, 2, "period") - 1))

    @classmethod
    def iid_random(cls, alpha: float) -> "PolicySpec":
        return cls(kind="iid_random", alpha=alpha)

    @classmethod
    def steering(cls, k: float, theta: float) -> "PolicySpec":
        return cls(kind="steering", k=k, theta=theta)

    @classmethod
    def time_sharing(cls, k: float, schedule: Sequence[tuple[int, int]]) -> "PolicySpec":
        return cls(kind="time_sharing", k=k, schedule=schedule)


@dataclass(frozen=True)
class SimConfig:
    """Replication count, seed and stopping rules.

    ``horizon`` and ``burn_in`` govern average-cost runs; discounted runs
    stop once the discount weight falls below ``DISCOUNT_TRUNCATION_TOL``.
    ``seed`` seeds one innovation stream and one policy stream for the whole
    run; each is drawn in time-major chunks of about ``CHUNK_CELLS`` draws,
    so the results do not depend on the chunk size.  A block of policies
    run on one config shares its innovations.  A field that is not an
    integer raises ``UsageError``; an integral float is stored as an int,
    and at least 2 replications are needed for a standard error.
    """

    horizon: int = 100_000
    replications: int = 200
    seed: int = 0
    burn_in: int = 1000

    def __post_init__(self):
        for name, least in (("horizon", 1), ("replications", 1), ("seed", 0), ("burn_in", 0)):
            object.__setattr__(self, name, integer_at_least(getattr(self, name), least, name))
        if self.replications < 2:
            raise UsageError(f"replications must be at least 2, got {self.replications}: "
                             "the standard errors are the spread between replications")
        if self.burn_in >= self.horizon:
            raise UsageError("burn-in must satisfy 0 <= burn_in < horizon")


@dataclass(frozen=True)
class SimResult:
    """Empirical distortion and transmission rate with standard errors."""

    d_hat: float
    n_hat: float
    d_se: float
    n_se: float
    replications_used: int
    stream_id: str
    steps_per_replication: int


def _chunk_rows(n: int, T: int) -> int:
    """Time steps per chunk of a run ``n`` cells wide (policies x
    replications) and ``T`` steps long."""
    return max(1, min(T, CHUNK_CELLS // n))


def _extend_table(decide, table: np.ndarray, counts: np.ndarray, thr: np.ndarray,
                  m: int) -> np.ndarray:
    """A counted rule's table rebased and extended for a chunk of ``m`` steps:
    it drops the events every replication has passed (``counts`` stays
    relative to its first entry) and grows by ``decide`` to cover each count
    the chunk can reach, one event a step at most, so it spans the counts
    plus a chunk (at ``m`` = 0, the counts alone).  Writes each
    replication's threshold into ``thr``."""
    lo = counts.min()
    np.subtract(counts, lo, counts)
    table = np.append(table[lo:], decide(max(0, int(counts.max()) + m + 1 + lo - len(table))))
    table.take(counts, None, thr, "clip")
    return table


def _transmit_rule(policy: PolicySpec, T: int, rng: np.random.Generator | None):
    """Transmit decisions of a policy with no fixed threshold, in a run of
    ``T`` steps.

    A state-blind kind returns ``fill(t0, U)``, which writes the flags of
    the steps from ``t0`` into the ``(m, n)`` array ``U``, called once per
    chunk in time order; ``rng`` is the policy stream, from which
    ``iid_random`` draws its coins in the run's time-major layout.
    Steering and time-sharing are one counted rule: a replication's v-th
    event (boundary visit, transmission) moves it to the v-th threshold of
    one shared sequence (visit decision, cycle threshold), and they return
    ``decide(m)``, the sequence's next m thresholds, which ``_extend_table``
    reads once per chunk; the block keeps the event counts.  A rule serves
    one run.
    """
    kind = policy.kind
    k = policy.k
    if kind == "periodic":
        pattern = np.array(policy.pattern, dtype=bool)
        return lambda t0, U: np.copyto(
            U, pattern[np.arange(t0, t0 + len(U)) % len(pattern), None])
    if kind == "iid_random":
        return lambda t0, U: np.less(rng.random(U.shape), policy.alpha, U)
    if kind == "steering":
        # a replication's counters (silent, sent) change only at its own
        # boundary visits; its v-th visit's threshold is k when it sends, the
        # next float above k when it stays silent, so |e| >= thr is the rule
        theta, rest = policy.theta, 1.0 - policy.theta
        silent_thr = np.nextafter(k, np.inf)
        silent = sent = 0.0  # the decisions made so far

        def steer(m):
            # at |e| = k, send if sending is the more under-served after this
            # decision (ties send); the counts are integers, so every sum is
            # exact, and each float operation is the one a per-replication
            # update would make
            nonlocal silent, sent
            sends = [False] * m
            for i in range(m):
                silent1, sent1 = silent + 1.0, sent + 1.0
                tot = silent1 + sent
                if theta - sent1 / tot >= rest - silent1 / tot:
                    sends[i], sent = True, sent1
                else:
                    silent = silent1
            return np.where(sends, k, silent_thr)

        return steer
    # time_sharing: one threshold per transmission-delimited cycle, k for a_m
    # cycles then k + 1 for b_m cycles; each transmission ends a cycle.  At
    # most T cycles fit in T steps, so longer phases are cut there, as Python ints
    ends = np.cumsum([min(cycles, T) for phases in policy.schedule for cycles in phases])
    made = 0  # the cycles decided so far

    def share(m):
        nonlocal made
        phase = np.searchsorted(ends, np.arange(made, made + m) % ends[-1], side="right")
        made += m
        return np.where(phase % 2, k + 1.0, k)

    return share


def _run_block(spec, policies: Sequence[PolicySpec], config: SimConfig, T: int, burn: int,
               weights: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Simulate every policy over one draw of the innovations, as one
    ``(c, n)`` state of c policies x n replications; returns per-replication
    (d, n), each of shape ``(c, n)`` with one row per policy, in order.

    Raises ``NumericsError``, naming the policies at fault, as soon as a
    chunk leaves a non-finite distortion sum.
    """
    from concurrent.futures import ThreadPoolExecutor

    n = config.replications
    c = len(policies)
    a = spec.a
    distortion = spec.distortion
    inn_seq, pol_seq = np.random.SeedSequence([config.seed, _STREAM_LAYOUT]).spawn(2)
    inn_rng = np.random.default_rng(inn_seq)
    draw = (spec.pmf if isinstance(spec, ModelSpecA) else spec.pdf).sampler

    # the compare writes the rows that read the state; each policy reads its
    # own copy of the policy stream, as a run of its own would
    thresholds = np.full((c, n), np.inf)
    reads = np.ones((c, 1), dtype=bool)  # the rows the compare writes
    # the counted rules' events, none in a block without one: boundary visits
    # |e| == at in the steering rows (at is NaN in every other row) and
    # transmissions in the time-sharing rows, counted from each table's start
    w = n if any(p.kind in ("steering", "time_sharing") for p in policies) else 0
    counts = np.zeros((c, w), dtype=np.intp)
    at = np.full((c, w), np.nan)
    sharing = np.zeros((c, 1), dtype=bool)
    blind, counted = [], []
    for row, policy in enumerate(policies):
        pol_rng = np.random.default_rng(pol_seq)
        if policy.kind == "threshold":
            thresholds[row] = policy.k
        elif policy.kind == "randomized_threshold":
            thresholds[row] = np.where(pol_rng.random(n) < policy.theta,
                                       policy.k, policy.k + 1.0)
        else:
            rule = _transmit_rule(policy, T, pol_rng)
            if policy.kind in ("periodic", "iid_random"):
                reads[row] = False
                blind.append((row, rule))
            else:
                # (decide, table, row views of the counts and thresholds)
                counted.append([rule, np.empty(0), counts[row], thresholds[row]])
                at[row], sharing[row] = ((policy.k, False) if policy.kind == "steering"
                                         else (np.nan, True))
    compare = bool(reads.any())
    mask = True if reads.all() else reads
    steer, share = not np.isnan(at).all(), bool(sharing.any())
    # a step's event flags, copied into intp before the add: at 32 cells the
    # copy and an intp add take 0.3 us less than one bool-into-intp add
    hit, event = np.zeros((c, w), dtype=bool), np.zeros((c, w), dtype=np.intp)
    # a continuous state almost never hits a steering boundary: test first,
    # and extend the tables only as far as the counts reach (m = 0), on the
    # step whose events reach a table's end
    rare = steer and not share and isinstance(spec, ModelSpecB)

    rows = _chunk_rows(c * n, T)
    abs_err = np.empty((rows, c, n))  # |e| before each step; d is even, so d(|e|) = d(e)
    sent = np.empty((rows, c, n), dtype=bool)
    E = np.zeros((c, n))
    d_acc = np.zeros((c, n))
    u_acc = np.zeros((c, n))
    # the step loop's ufuncs, bound once; each writes its output in place
    absolute, greater_equal, multiply, add, putmask, equal, copyto = (
        np.absolute, np.greater_equal, np.multiply, np.add, np.putmask, np.equal, np.copyto)
    scale = a != 1
    # the producer draws each chunk into one buffer, slice by slice, while
    # this thread steps the slices drawn.  It fills buffers allocated here:
    # freed memory goes back to the allocator arena of the thread that
    # allocated it, so a stepped chunk's buffer can then serve this thread's
    # sums (+4 MB of peak RSS when the producer allocated).  A state that
    # overflows below a finite threshold leaves an infinite distortion sum,
    # which the per-chunk check below reports.  When a step or a draw fails,
    # the slices still queued are cancelled, so only the one being drawn ends
    with ExitStack() as stack, np.errstate(over="ignore"):
        producer = ThreadPoolExecutor(max_workers=1)
        stack.callback(producer.shutdown, cancel_futures=True)

        def ahead(c0):
            # (first step, future) of each slice of the chunk from step c0
            m = min(rows, T - c0)
            W = np.empty((m, 1, n))  # one draw, broadcast over the policy rows
            cuts = sorted({m * j // 16 for j in (0, 1, 2, 4, 8, 16)})
            return [(lo, producer.submit(draw, inn_rng, out=W[lo:hi]))
                    for lo, hi in zip(cuts, cuts[1:])]

        pending = ahead(0)
        for c0 in range(0, T, rows):
            m = min(rows, T - c0)
            slices, pending = pending, ahead(c0 + m) if c0 + m < T else []
            for row, fill in blind:
                fill(c0, sent[:m, row])
            for rule in counted:
                rule[1] = _extend_table(*rule, 0 if rare else m)
            for lo, drawn in slices:
                for e_abs, U, innov in zip(abs_err[lo:], sent[lo:], drawn.result()):
                    absolute(E, e_abs)
                    if compare:
                        greater_equal(e_abs, thresholds, U, where=mask)
                    if scale:
                        multiply(E, a, E)
                    add(E, innov, E)
                    # a transmission resets the state to the innovation; putmask
                    # repeats innov over the c rows of E, as broadcasting would,
                    # and runs up to 3x faster than np.copyto(..., where=U)
                    putmask(E, U, innov)
                    if counted:
                        # the rows of other kinds count flags no table reads
                        flags = U
                        if steer:
                            flags = equal(e_abs, at, hit)
                            if share:
                                copyto(hit, U, where=sharing)
                        if not rare or np.count_nonzero(flags):
                            copyto(event, flags)
                            add(counts, event, counts)
                            if rare:
                                for rule in counted:
                                    if rule[2].max() >= len(rule[1]):
                                        rule[1] = _extend_table(*rule, 0)
                            # the table covers every count, so clipping moves
                            # none of them
                            for _, table, cnt, thr in counted:
                                table.take(cnt, None, thr, "clip")
            # with the next chunk in flight, two chunks of draws are held
            # while stepping, one while summing
            del slices, drawn, innov
            d = distortion(abs_err[:m])
            # zero the transmit steps; an infinite |e| there leaves inf * 0 =
            # NaN, which the check below reports as it does an infinite sum
            with np.errstate(invalid="ignore"):
                np.multiply(d, ~sent[:m], out=d)
            # sums over time run row by row in step order, never through BLAS,
            # so the bits do not depend on the machine's BLAS kernels
            if weights is not None:
                w = weights[c0:c0 + m, None, None]
                d *= w
                d_acc += d.sum(axis=0)
                np.multiply(w, sent[:m], out=d)
                u_acc += d.sum(axis=0)
            else:
                lo = min(max(burn - c0, 0), m)
                d_acc += d[lo:].sum(axis=0)
                u_acc += sent[lo:m].sum(axis=0)
            # u_acc sums flags times weights <= 1, so only d_acc can overflow
            bad = np.flatnonzero(~np.isfinite(d_acc).all(axis=1))
            if bad.size:
                named = ", ".join(f"{i} ({policies[i].kind})" for i in bad)
                raise NumericsError(
                    f"simulated sums are not finite after step {c0 + m} of {T} "
                    f"for policy {named}; the simulated distortion overflowed"
                )

    if weights is None:
        steps = T - burn
        d_acc /= steps
        u_acc /= steps
    return d_acc, u_acc


def _estimate(d_rep: np.ndarray, n_rep: np.ndarray, config: SimConfig, T: int) -> SimResult:
    """Mean and standard error of one policy's per-replication (d, n)."""
    R = config.replications
    # finite per-replication estimates can still overflow the mean or the
    # variance (near 1e200 when a = 2 runs below a threshold of 1e200); the
    # check below turns that into a NumericsError
    with np.errstate(over="ignore"):
        d_hat = float(np.mean(d_rep))
        n_hat = float(np.mean(n_rep))
        d_se = float(np.std(d_rep, ddof=1) / math.sqrt(R))
        n_se = float(np.std(n_rep, ddof=1) / math.sqrt(R))
    if not all(math.isfinite(x) for x in (d_hat, d_se, n_hat, n_se)):
        raise NumericsError(
            f"simulated estimates are not finite (d_hat={d_hat:.3g}, d_se={d_se:.3g}, "
            f"n_hat={n_hat:.3g}, n_se={n_se:.3g}); the simulated distortion overflowed"
        )
    return SimResult(
        d_hat=d_hat,
        n_hat=n_hat,
        d_se=d_se,
        n_se=n_se,
        replications_used=R,
        stream_id=f"pcg64[{config.seed},{_STREAM_LAYOUT}]:innov|policy,time-major",
        steps_per_replication=T,
    )


def simulate_policies(spec: ModelSpecA | ModelSpecB, policies: Sequence[PolicySpec],
                      config: SimConfig) -> list[SimResult]:
    """Estimate (D, N) of each policy by independent replications, all
    policies over one draw of the innovations and one step loop.

    Each result is the one a run of that policy alone gives, up to the
    rounding of its sums over chunks (the block's chunks hold fewer steps).
    Discounted runs return normalized discounted sums truncated where the
    discount weight drops below the configured tolerance; average-cost runs
    return time averages after the burn-in.  A never-transmit policy (k = inf
    or an all-zero pattern) raises ``DivergenceError`` in the average-cost
    regime with |a| >= 1, where its distortion is infinite, and
    ``NumericsError`` at |a| > 1 in either regime, where its state grows
    geometrically.  Estimates that come out non-finite, as when the state of
    an unstable source overflows below a huge threshold, raise
    ``NumericsError`` for the whole block.
    ``MAX_SIM_STEPS`` and ``MAX_SIM_CELLS`` apply to each policy, and
    ``MAX_SIM_WIDTH`` to the policies x replications of the whole block.
    """
    if not policies:
        raise UsageError("at least one policy is required")
    for policy in policies:
        never = ((policy.k is not None and math.isinf(policy.k))
                 or (policy.pattern is not None and not any(policy.pattern)))
        if never and spec.beta.is_average and abs(spec.a) >= 1:
            raise DivergenceError("never-transmit average distortion diverges for |a| >= 1")
        if never and abs(spec.a) > 1:
            raise NumericsError("never-transmit simulation with |a| > 1: the state grows "
                                "geometrically")
        if isinstance(spec, ModelSpecA) and policy.k not in (None, math.inf):
            integer_at_least(policy.k)

    beta = spec.beta
    if beta.is_average:
        T, burn = config.horizon, config.burn_in
    else:
        T = max(1, math.ceil(math.log(DISCOUNT_TRUNCATION_TOL) / math.log(beta)))
        burn = 0
    if T > MAX_SIM_STEPS:
        raise UsageError(f"{T} steps are above the cap of {MAX_SIM_STEPS:.0e}; lower the "
                         f"{'horizon or the ' if beta.is_average else ''}discount factor")
    R = config.replications
    if len(policies) * R > MAX_SIM_WIDTH:
        raise UsageError(f"{len(policies)} x {R} policy replications are above the width "
                         f"cap of {MAX_SIM_WIDTH} cells; lower the replications")
    for policy in policies:
        cells = R * T * (2 if policy.kind == "iid_random" else 1)
        if cells > MAX_SIM_CELLS:
            raise UsageError(
                f"{R} replications x {T} steps need {cells:.3g} draws, "
                f"above the cap of {MAX_SIM_CELLS:.0e}; lower the replications or the horizon"
            )
    weights = None if beta.is_average else (1.0 - beta) * beta ** np.arange(T)

    d_rep, n_rep = _run_block(spec, policies, config, T, burn, weights)
    count(step_loops=1, simulated_policies=len(policies), draws=R * T)
    return [_estimate(d, u, config, T) for d, u in zip(d_rep, n_rep)]


def simulate(spec: ModelSpecA | ModelSpecB, policy: PolicySpec,
             config: SimConfig) -> SimResult:
    """Estimate (D, N) of one policy: ``simulate_policies`` of a block of one."""
    return simulate_policies(spec, [policy], config)[0]


# --- deterministic implementations of the randomized optimum -------------------


def time_sharing_schedule(
    alpha: float, n_k: float, n_k1: float, theta: float
) -> list[tuple[int, int]]:
    """Constant cycle-count schedule (a, b) whose cycle fraction a/(a+b) best
    approximates theta * n_k / alpha with denominator <= _SCHEDULE_MAX_CYCLES."""
    alpha = real_in(alpha, "(0, 1]", "rate budget")
    n_k, n_k1 = real_in(n_k, "[0, 1]", "n_k"), real_in(n_k1, "[0, 1]", "n_k1")
    if n_k <= n_k1:
        raise UsageError("n_k must exceed n_k1")
    theta = real_in(theta, "[0, 1]", "theta")
    ratio = theta * n_k / alpha
    if not 0.0 <= ratio <= 1.0 + 1e-12:
        raise UsageError(f"cycle fraction {ratio} falls outside [0, 1]")
    from fractions import Fraction

    frac = Fraction(min(ratio, 1.0)).limit_denominator(_SCHEDULE_MAX_CYCLES)
    return [(frac.numerator, frac.denominator - frac.numerator)]


def steering_visit_probability(
    spec: ModelSpecA, k_star: int, theta_star: float
) -> float:
    """Per-visit transmit share at |e| = k_star that realizes the mixture of
    the k_star and k_star + 1 threshold policies with weight theta_star.

    The mixture weight applies to whole strategies; conditioning on being at
    the boundary reweights it by each strategy's stationary boundary mass,
    the cycle's landings on (threshold k_star) or visits to (threshold
    k_star + 1) |e| = k_star over its mean length, all read off one
    ``solver_a.threshold_table`` of k_star + 1 thresholds.  At a = 0 or
    k_star = 0 the error at each decision is a fresh innovation under either
    threshold, so both masses are P(|W| = k_star).
    """
    theta_star = real_in(theta_star, "[0, 1]", "theta_star")
    if not spec.beta.is_average:
        raise UsageError("steering visit probabilities require beta = 1")
    k = integer_at_least(k_star)
    if theta_star in (0.0, 1.0):
        return theta_star
    if spec.a == 0 or k == 0:
        w_lo = w_hi = spec.pmf.values[np.abs(spec.pmf.offsets) == k].sum()
    else:
        from . import solver_a

        table = solver_a.threshold_table(spec, k + 1)
        w_lo = table.land_edge[k] / table.M[k]
        w_hi = table.visit_edge[k] / table.M[k + 1]
    num = theta_star * w_lo
    den = num + (1.0 - theta_star) * w_hi
    if den <= 0.0:
        raise NumericsError("boundary state has zero stationary mass")
    return float(num / den)
