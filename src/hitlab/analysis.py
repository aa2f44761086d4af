"""Numerics behind the expectation argument, plus the experiment harness.

The residual edge count e = |E(I, V minus (I | K | S_j))| is a random
variable of the I_j sample.  This module computes the probability that a
vertex escapes K two ways (exact hypergeometric tail and the
binomial-form estimate written with independent draws), evaluates the
two displayed upper bounds on E[e] in natural-log space, estimates e by
seeded Monte Carlo, and sweeps graph families into CSV records.

Everything is deterministic: each experiment cell runs on a seed the
config lists, each Monte Carlo trial on a seed derived from the master
seed by hashing, and results keep cell and trial order, however many
processes run the trials.  The first Monte Carlo call that splits its
trials forks helper processes; they serve every later call, idle in
between, until the process that forked them exits.  Each job a helper
reads and each reply it writes is one marshal value on a pipe.

Importing this module forks nothing and loads neither _blake2 nor
fractions, json, signal or atexit: each is imported by the functions
that use it.  The trial seeds hash with _blake2, CPython's built-in
BLAKE2 (the same blake2b that hashlib re-exports), so no hitlab process
imports hashlib, whose import maps OpenSSL's libcrypto.
"""

from __future__ import annotations

import marshal  # importlib loads it at start-up, so this import costs nothing
import math
import os
import random
import sys
import threading
import time
from typing import TYPE_CHECKING, BinaryIO, Callable, Optional

from .errors import ConfigError, HitlabError, InfeasibleParamsError, PreconditionError, VerificationFailure
from .graph import (
    MAX_VERTICES,
    Graph,
    Record,
    VertexSet,
    _check_vertex_count,
    find_induced_kst,
    gen_c4_free_process,
    gen_cluster,
    gen_cycle,
    gen_gnp,
    gen_path,
    iter_bits,
    min_degree_vertex,
)
from .hitting import (
    MODE_SAMPLED_CORE,
    AsymptoticSchedule,
    ParamSchedule,
    _draw_bits,
    asymptotic_schedule,
    auto_bins,
    bin_and_select,
    build_K,
    certificate_to_text,
    construct_hitting_set,
    min_hitting_set,
    residual_edges,
    verify_hitting_set,
)
from .mis import alpha_with_witness

if TYPE_CHECKING:
    from fractions import Fraction

# the ExperimentRecord fields a CSV row shows, in column order
_ROW_FIELDS = ("family", "n", "seed", "alpha", "h_exact", "t_bet", "t_trivial", "e_observed")
CSV_HEADER = ",".join(("schema", *_ROW_FIELDS, "runtime_ms"))
CSV_SCHEMA = "1"


def _seed_prefix(master: int, label: str):
    """The hash of derive_seed's "{master}:{label}:" prefix; a stream's
    seeds are its copies with the index appended."""
    # _blake2 is the blake2b hashlib re-exports, without hashlib's OpenSSL
    from _blake2 import blake2b

    return blake2b(f"{master}:{label}:".encode(), digest_size=8)


def _seed_at(prefix, index: int) -> int:
    digest = prefix.copy()
    digest.update(str(index).encode())
    return int.from_bytes(digest.digest(), "big")


def derive_seed(master: int, index: int, label: str = "") -> int:
    """Stable 64-bit per-trial seed; independent streams per label."""
    return _seed_at(_seed_prefix(master, label), index)


# ---------------------------------------------------------------------------
# intersection probabilities


def _check_tail(i_size: int, d: int, k: int, s: int) -> None:
    if i_size > MAX_VERTICES:
        raise PreconditionError(f"|I|={i_size} above the vertex ceiling {MAX_VERTICES}")
    if not 0 <= d <= i_size:
        raise PreconditionError(f"need 0 <= d <= |I|, got d={d}, |I|={i_size}")
    if not 0 <= k <= i_size:
        raise PreconditionError(f"need 0 <= k <= |I|, got k={k}, |I|={i_size}")
    if s < 1:
        raise PreconditionError(f"need s >= 1, got {s}")


def hypergeom_tail(i_size: int, d: int, k: int, s: int) -> Fraction:
    """P[X <= s-1] for X = |I_j & N_I(v)| under a uniform k-subset I_j.

    Exactly the probability that v escapes the excluded set K.  Sums the
    tail with fewer terms, the upper one as 1 - P[k - X <= k - s], k - X
    being the part of I_j outside N_I(v).  The first nonzero term, at
    x = max(0, d + k - |I|), is C(b, a)/C(|I|, a) for a <= b the values
    min(d, k) and |I| - max(d, k); the rest follow in integers by the
    ratio t_(x+1)/t_x = (d-x)(k-x)/((x+1)(|I|-d-k+x+1)).  |I| is at most
    the vertex ceiling, as on every graph hitlab reads.
    """
    from fractions import Fraction

    _check_tail(i_size, d, k, s)
    lo, hi = max(0, d + k - i_size), min(d, k)
    if s > hi:
        return Fraction(1)
    if s <= lo:
        return Fraction(0)
    upper = s - lo > hi - s + 1
    d, last = (i_size - d, k - s) if upper else (d, s - 1)
    m, rest = min(d, k), i_size - max(d, k)
    a = min(m, rest)
    num = den = 1
    # Horner's rule, from the last ratio back to the first term's, x = m - a
    for x in range(last - 1, m - a - 1, -1):
        step = (x + 1) * (i_size - d - k + x + 1)
        num, den = den * step + (d - x) * (k - x) * num, den * step
    num *= math.comb(max(m, rest), a)
    den *= math.comb(i_size, a)
    return Fraction(den - num if upper else num, den)


# ln of half the least subnormal float and of 2**-54, less one nat for
# lgamma's error: a tail below the first rounds to 0.0, and one whose
# complement is below the second rounds to 1.0
_LN_ROUNDS_TO_ZERO = -1075 * math.log(2) - 1
_LN_ROUNDS_TO_ONE = -54 * math.log(2) - 1
_LN_FLOAT_MAX = math.log(sys.float_info.max)


def _ln_term(i_size: int, d: int, k: int, x: int) -> float:
    """ln P[X = x] = ln C(d, x) C(|I| - d, k - x) / C(|I|, k), by lgamma."""
    lg = math.lgamma
    return (lg(d + 1) - lg(x + 1) - lg(d - x + 1)
            + lg(i_size - d + 1) - lg(k - x + 1) - lg(i_size - d - k + x + 1)
            - lg(i_size + 1) + lg(k + 1) + lg(i_size - k + 1))


def _settled_tail(i_size: int, d: int, k: int, s: int) -> Optional[float]:
    """float(hypergeom_tail(...)) when a log-space bound settles it
    without the exact fraction, else None.

    The terms t_x = P[X = x] are log-concave, so the ratio t_(x+1)/t_x =
    (d-x)(k-x)/((x+1)(|I|-d-k+x+1)) falls as x grows.  If t_(s-1) >=
    t_(s-2), the tail over lo..s-1 is at most (s - lo) t_(s-1); if
    t_(s+1) < t_s, its complement over s..hi is at most (hi - s + 1) t_s.
    At |I| up to the vertex ceiling lgamma errs by far less than the nat
    the thresholds keep in hand, and int / int division (`float` of a
    Fraction) rounds to nearest, so the float is then 0.0 or 1.0.  The
    exact path costs C(|I|, a) for a up to |I|/2: 6 s at |I| = 10^6.
    """
    lo, hi = max(0, d + k - i_size), min(d, k)
    if not lo < s <= hi:
        return None

    def rising(x: int) -> bool:
        return (d - x) * (k - x) >= (x + 1) * (i_size - d - k + x + 1)

    if (s - 1 == lo or rising(s - 2)) and (
            math.log(s - lo) + _ln_term(i_size, d, k, s - 1) < _LN_ROUNDS_TO_ZERO):
        return 0.0
    if (s == hi or not rising(s)) and (
            math.log(hi - s + 1) + _ln_term(i_size, d, k, s) < _LN_ROUNDS_TO_ONE):
        return 1.0
    return None


def prob_low_intersection(i_size: int, d: int, k: int, s: int) -> tuple[float, float]:
    """(exact, binomial_form) escape probabilities for one vertex.

    exact is the hypergeometric tail, rounded to the nearest float;
    binomial_form treats the k draws as independent with success rate
    d/|I|, the upper-estimate shape sum_x C(k,x) (1-d/|I|)^(k-x)
    (d/|I|)^x.  Both are reported so the gap is measurable.

    C(k, x) is carried as an integer while it fits a float and as its
    logarithm while it does not, so a step costs O(1) at any k.  A term
    is taken in log form there, and also where a power or the product
    falls below the least normal float, which would lose its digits
    before C(k, x) scales it back up.  The sum stops past the mode once
    a term can no longer change it.
    """
    _check_tail(i_size, d, k, s)
    exact = _settled_tail(i_size, d, k, s)
    if exact is None:
        exact = float(hypergeom_tail(i_size, d, k, s))
    ratio = d / i_size if i_size else 0.0
    est = 0.0
    c, ln_c = 1, None  # C(k, x), or its natural log while C(k, x) is past the float range
    for x in range(0, min(s, k + 1)):  # C(k, x) = 0 above k
        if ln_c is None:
            try:
                low, high = (1.0 - ratio) ** (k - x), ratio ** x
                term = c * low * high
            except OverflowError:  # C(k, x) has just left the float range, so 0 < x < k
                ln_c, ln_err = math.log(c), 0.0
            else:
                # a power or the product below the least normal float has lost
                # digits, or all of them, that C(k, x) would have scaled back up
                if min(low, high, term) < sys.float_info.min and 0.0 < ratio < 1.0:
                    term = math.exp(math.log(c) + (k - x) * math.log1p(-ratio) + x * math.log(ratio))
        if ln_c is not None:
            term = 0.0
            if 0.0 < ratio < 1.0:
                term = math.exp(ln_c + (k - x) * math.log1p(-ratio) + x * math.log(ratio))
        est += term
        # past the mode every later term is at most this one, and one below
        # a quarter ulp leaves the sum as it is, even off by a rounding
        if (k - x) * d <= (x + 1) * (i_size - d) and term < math.ulp(est) / 4:
            break
        if ln_c is None:
            c = c * (k - x) // (x + 1)
        else:
            # a compensated sum: uncompensated, ln C(500000, 250000) drifts by 3e-9
            step = math.log(k - x) - math.log(x + 1) - ln_err
            ln_next = ln_c + step
            ln_err = (ln_next - ln_c) - step
            ln_c = ln_next
            if ln_c < _LN_FLOAT_MAX - 1:
                c, ln_c = math.comb(k, x + 1), None
    return exact, est


def _ln(v: float) -> float:
    if v <= 0.0:
        return -math.inf
    return math.log(v)


def _logsumexp(vals: list[float]) -> float:
    top = max(vals, default=-math.inf)
    if top == -math.inf:
        return -math.inf
    return top + math.log(sum(math.exp(v - top) for v in vals))


def analytic_e_bound(
    n: int, c: float, sched: ParamSchedule | AsymptoticSchedule, j: int
) -> tuple[float, float]:
    """The two E[e] upper bounds for bin j, as natural logs.

    a_s bounds the low-degree side: theta_lo * (1-c) * n.  a_l bounds the
    high-degree side: c(1-c)n^2 * sum_{x<s} k^x (1 - theta_hi/(cn))^(k-x).
    Log space keeps astronomically small or large values representable;
    -inf means the bound vanished.
    """
    if not 0.0 < c <= 1.0:
        raise PreconditionError(f"c must lie in (0,1], got {c}")
    if not 1 <= j <= sched.num_bins:
        raise PreconditionError(f"bin index {j} outside 1..{sched.num_bins}")
    s = sched.s
    ln_n = math.log(n)
    ln_1c = _ln(1.0 - c)
    log_lo, log_hi, log_k = sched.log_bin(j)
    a_s = log_lo + ln_1c + ln_n
    log_q = log_hi - math.log(c) - ln_n
    if log_q >= 0.0:
        return a_s, -math.inf
    q = math.exp(log_q)
    # each term is at least ln k above the one before, so a term more than
    # -_LN_ROUNDS_TO_ZERO below the last adds exactly 0.0 to the sum
    xs = range(max(s - 1 - int(-_LN_ROUNDS_TO_ZERO / log_k), 0) if log_k > 0.0 else 0, s)
    if q > 1e-12 and log_k < 700.0:
        k_real, ln_1q = math.exp(log_k), math.log1p(-q)
        terms = [x * log_k + (k_real - x) * ln_1q for x in xs]
    else:
        # ln(1-q) = -q to relative error q; k dominates x
        try:
            tail = -math.exp(log_k + log_q)
        except OverflowError:
            tail = -math.inf
        if tail == -math.inf or log_k == math.inf:
            # k*q is past the float range, so every term is -inf (where
            # ln k is too, x * ln k would make them nan)
            return a_s, -math.inf
        terms = [x * log_k + tail for x in xs]
    a_l = _ln(c) + ln_1c + 2.0 * ln_n + _logsumexp(terms)
    return a_s, a_l


# ---------------------------------------------------------------------------
# Monte Carlo estimation of e


class McEstimate(Record):
    """Mean and standard error of the sampled e, and the samples in trial order."""

    __slots__ = ("mean", "std_error", "samples")


def monte_carlo_e(
    g: Graph, i_set: VertexSet, sched: ParamSchedule, trials: int, seed: int
) -> McEstimate:
    """Sample I_j `trials` times and measure e each time.

    Each trial reseeds one generator with derive_seed(seed, trial,
    "mc-e") and makes sample_Ij's one draw, so I_j is byte-identical to
    Random.sample from a Random of that seed; samples keep trial order.  K
    and e are built once per distinct I_j in each process, as e is the
    outside vertices' summed I-degree less that of K's.

    A trial's sample depends on its index alone: its generator state comes
    from its own seed, and the cache of e only saves work.  So the trials
    split into contiguous ranges, one per CPU this process may use and at
    most one per _MIN_TRIALS_PER_PROCESS trials; this process runs the
    first range and a helper process each later one (see _run_ranges).
    The first call that splits forks the helpers, and they serve every
    later call until this process exits.  The samples, mean and std_error
    are those of one serial loop on any number of CPUs.
    """
    if trials < 1:
        raise PreconditionError(f"need at least one trial, got {trials}")
    degree = _outside_degrees(g, i_set, sched)
    k = sched.k
    if k > i_set.size:
        raise PreconditionError(f"cannot sample k={k} from |I|={i_set.size}")
    job = (g.adj, i_set.members(), k, sched.s, sched.t, degree, seed)
    samples = _run_ranges(job, _trial_ranges(trials))
    total = sum(samples)
    mean = total / trials
    if trials > 1:
        variance_num = trials * sum(e * e for e in samples) - total * total
        std_error = _sqrt_ratio(variance_num, trials * (trials - 1)) / math.sqrt(trials)
    else:
        std_error = 0.0
    return McEstimate(mean=mean, std_error=std_error, samples=tuple(samples))


def _trials(adj, members, k, s, t, degree, seed, lo, hi) -> list[int]:
    """The samples of monte_carlo_e's trials lo..hi-1, from plain data a
    helper can receive: the graph's rows, I, the schedule's k, s and t,
    the I-degrees of the vertices outside I and S_j, and the master seed."""
    g = Graph(len(adj), adj)
    prefix = _seed_prefix(seed, "mc-e")
    base_e = sum(degree.values())
    rng = random.Random()
    reseed = super(random.Random, rng).seed  # the C seeding alone; Random.seed adds type checks
    e_of: dict[int, int] = {}
    samples = []
    for idx in range(lo, hi):
        reseed(_seed_at(prefix, idx))
        i_j = _draw_bits(rng, members, k)
        e = e_of.get(i_j)
        if e is None:
            k_bits = build_K(g, VertexSet(g.n, i_j), s, t).bits  # K misses I, and S_j is not in `degree`
            e = e_of[i_j] = base_e - sum(degree.get(v, 0) for v in iter_bits(k_bits))
        samples.append(e)
    return samples


# A fork, exit and reap of a 21-22 MB interpreter costs 1.5-2 ms on a
# 2-CPU host and a trial about 8 us, so a helper pays for a first call's
# fork from several hundred trials on; later calls pay a pipe round trip
# of 25-30 us (11 us with both processes on one CPU).  The bar stays at
# 1,000 trials, so that mc-e's default of 100 trials never forks.
_MIN_TRIALS_PER_PROCESS = 1000


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _trial_ranges(trials: int) -> list[tuple[int, int]]:
    """range(trials) as contiguous (lo, hi) ranges in order, their sizes
    differing by at most one: one range per CPU and per
    _MIN_TRIALS_PER_PROCESS trials, or a single range where forking is
    unsafe.  A fork copies only the calling thread, so with a second
    thread alive the child could wait forever on a lock that thread held."""
    parts = min(_cpus(), trials // _MIN_TRIALS_PER_PROCESS)
    if parts < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [(0, trials)]
    step, extra = divmod(trials, parts)
    cuts = [i * step + min(i, extra) for i in range(parts + 1)]
    return list(zip(cuts, cuts[1:]))


# The helpers this process forked for monte_carlo_e, as (pid, write end of
# its job pipe, read end of its reply pipe as a file), in range order, each
# idle and in step: no job in flight, nothing unread.  _helpers_pid is the
# process that forked them.  They serve every call until that process exits.
_helpers: list[tuple[int, int, BinaryIO]] = []
_helpers_pid: Optional[int] = None


def _run_ranges(job: tuple, ranges: list[tuple[int, int]]) -> list[int]:
    """_trials(*job, lo, hi) over each range, concatenated in range order.

    This process runs the first range and a helper each later one; the job
    and the reply, the samples or None if the range raised, are each one
    marshal value.  A range whose helper could not be started, died, sent
    a short reply or raised is rerun here, so an error is raised at the
    trial, and with the message, of the serial loop.  A helper with a job
    in flight when this process raises is killed and reaped.
    """
    parts = [None] * len(ranges)
    sent = []  # (range index, helper) whose reply is not yet read
    try:
        for i, helper in enumerate(_start_helpers(len(ranges) - 1), 1):
            sent.append((i, helper))
            try:
                _write(helper[1], job + ranges[i])
            except BrokenPipeError:  # it died since _start_helpers looked
                sent.pop()
                _drop(helper)
        parts[0] = _trials(*job, *ranges[0])
        while sent:
            i, helper = sent[0]
            try:
                parts[i] = marshal.loads(marshal.load(helper[2]))
            except (EOFError, ValueError):  # it died or sent a short reply
                _drop(helper)
            del sent[0]
    finally:
        for _, helper in sent:
            _drop(helper)
    samples = []
    for (lo, hi), part in zip(ranges, parts):
        samples.extend(_trials(*job, lo, hi) if part is None else part)
    return samples


def _start_helpers(count: int) -> list[tuple[int, int, BinaryIO]]:
    """The first `count` helpers, forking any missing (fewer if a fork
    fails); one that died since the last call is reaped and replaced."""
    global _helpers_pid
    for helper in [h for h in _helpers[:count] if _reaped(h[0], os.WNOHANG)]:
        _forget(helper)
    if len(_helpers) < count:
        if _helpers_pid is None:
            import atexit

            os.register_at_fork(after_in_child=_close_helpers)
            atexit.register(_stop_helpers)
        _helpers_pid = os.getpid()
    while len(_helpers) < count:
        fds = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            break
        job_r, job_w, reply_r, reply_w = fds
        if pid == 0:
            _serve(*fds)
        os.close(job_r)
        os.close(reply_w)
        _helpers.append((pid, job_w, os.fdopen(reply_r, "rb")))
    return _helpers[:count]


def _serve(job_r: int, job_w: int, reply_r: int, reply_w: int) -> None:
    """A helper's loop: read a job, send back its samples, or None if the
    range raised, until the job pipe reaches end of file.  It ignores
    SIGINT, which a terminal sends to the whole process group, writes
    nothing to stdout or stderr, and leaves only by os._exit, which skips
    its owner's exit handlers and buffered output."""
    code = 1
    try:
        import signal

        signal.signal(signal.SIGINT, signal.SIG_IGN)
        os.close(job_w)
        os.close(reply_r)
        jobs = os.fdopen(job_r, "rb")
        while jobs.peek(1):  # empty once the owner closes the job pipe
            job = marshal.loads(marshal.load(jobs))
            try:
                reply = _trials(*job)
            except Exception:  # the owner reruns the range and raises it there
                reply = None
            _write(reply_w, reply)
        code = 0
    finally:
        os._exit(code)


def _write(fd: int, value) -> None:
    """Write `value` to a pipe as one marshal value, the bytes of its own dump:
    marshal.load reads bytes from a file in one call, but any other value
    with a call per type code, length and 15-bit digit of an integer."""
    view = memoryview(marshal.dumps(marshal.dumps(value)))
    while view:
        view = view[os.write(fd, view):]


def _forget(helper: tuple[int, int, BinaryIO]) -> None:
    """Take a helper out of _helpers and close this process's ends of its pipes."""
    _helpers.remove(helper)
    os.close(helper[1])
    helper[2].close()


def _drop(helper: tuple[int, int, BinaryIO]) -> None:
    """Forget a helper that is out of step, then kill and reap it."""
    import signal

    _forget(helper)
    if not _reaped(helper[0], os.WNOHANG):
        os.kill(helper[0], signal.SIGKILL)
        _reaped(helper[0])


def _reaped(pid: int, options: int = 0) -> bool:
    """Reap a helper (waiting unless options has os.WNOHANG): whether it is
    gone, also when other code of this process reaped it first."""
    try:
        return os.waitpid(pid, options)[0] != 0
    except ChildProcessError:
        return True


def _close_helpers() -> None:
    """Forget every helper, closing this process's ends of its pipes.  Every
    forked child runs it, so a child never writes to its parent's helpers,
    and a helper sees end of file once its owner closes the job pipe."""
    while _helpers:
        _forget(_helpers[0])


def _stop_helpers() -> None:
    """At exit: close every helper's job pipe, which ends its loop, then
    reap them all, so no helper outlives its owner.  It does nothing in any
    other process."""
    if os.getpid() == _helpers_pid:
        pids = [helper[0] for helper in _helpers]
        _close_helpers()
        for pid in pids:
            _reaped(pid)


def _sqrt_ratio(num: int, den: int) -> float:
    """sqrt(num/den), correctly rounded: an integer root of about 55 bits,
    its last bit set when inexact (round to odd), then one rounding to
    float.  The same value on every Python version."""
    q = (num.bit_length() - den.bit_length() - 109) // 2
    if q >= 0:
        den <<= 2 * q
    else:
        num <<= -2 * q
    root = math.isqrt(num // den)
    return math.ldexp(root | (root * root * den != num), q)


def expected_residual_edges(g: Graph, i_set: VertexSet, sched: ParamSchedule) -> Fraction:
    """Exact E[e] over the I_j sample: each outside vertex contributes
    its I-degree weighted by its hypergeometric escape probability."""
    from fractions import Fraction

    total = Fraction(0)
    for d in _outside_degrees(g, i_set, sched).values():
        total += hypergeom_tail(i_set.size, d, sched.k, sched.s) * d
    return total


def _outside_degrees(g: Graph, i_set: VertexSet, sched: ParamSchedule) -> dict[int, int]:
    """The I-degree of each vertex outside I and S_j, the vertices e counts, by id."""
    _, s_j = bin_and_select(g, i_set, sched)
    outside = ((1 << g.n) - 1) & ~(i_set.bits | s_j.bits)
    return {v: (g.adj[v] & i_set.bits).bit_count() for v in iter_bits(outside)}


# ---------------------------------------------------------------------------
# experiment harness


class ExperimentRecord:
    """One CSV row (the fields named in `_ROW_FIELDS`), the time of each
    stage in ms, and the error that ended the cell early, if any.  The
    only mutable record: a cell fills it in as its stages finish."""

    __slots__ = ("family", "n", "seed", "alpha", "h_exact", "t_bet", "t_trivial", "e_observed", "runtime_ms",
                 "error")

    def __init__(self, family: str, n: int, seed: int, alpha=None, h_exact=None, t_bet=None, t_trivial=None,
                 e_observed=None, runtime_ms: Optional[dict] = None, error: Optional[str] = None):
        self.family, self.n, self.seed, self.alpha, self.h_exact = family, n, seed, alpha, h_exact
        self.t_bet, self.t_trivial, self.e_observed, self.error = t_bet, t_trivial, e_observed, error
        self.runtime_ms = {} if runtime_ms is None else runtime_ms


class ExperimentConfig(Record):
    """Family specs (dicts), n values and seeds as tuples; schedule and caps dicts."""

    __slots__ = ("families", "n_values", "seeds", "schedule", "caps")


_DEFAULT_CAPS = {"minhit_n": 24, "enum_n": 48}


def _config_int(value, what: str) -> int:
    """An integer config value: a JSON integer, or a float with no
    fractional part.  A bool, a string, a number with a fractional part or
    any other value is a ConfigError, not the integer it would parse or
    truncate to."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{what}: {value!r} is not an integer")


def _config_float(value, what: str) -> float:
    """A real config value: a JSON number, as a float.  A bool, a string,
    an integer past the float range or any other value is a ConfigError."""
    if isinstance(value, float):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        if abs(value) <= sys.float_info.max:
            return float(value)
        raise ConfigError(f"{what}: an integer of {value.bit_length()} bits is past the float range")
    raise ConfigError(f"{what}: {value!r} is not a number")


def _config_ints(values, what: str) -> tuple[int, ...]:
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{what}: {values!r} is not a list of integers")
    return tuple(_config_int(v, what) for v in values)


def load_config(source) -> ExperimentConfig:
    """Accepts a JSON file path or an already-decoded dict."""
    import json

    if isinstance(source, dict):
        raw = source
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, UnicodeDecodeError) as ex:
            raise ConfigError(f"cannot read config: {ex}") from None
        except json.JSONDecodeError as ex:
            raise ConfigError(f"config is not valid JSON: {ex}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    families = raw.get("families", [])
    if not isinstance(families, list) or not all(isinstance(f, dict) for f in families):
        raise ConfigError("families must be a list of objects")
    for f in families:
        _family_builder(f)
    schedule = raw.get("schedule", {"mode": "auto", "s": 2, "t": 2, "k": 2})
    if not isinstance(schedule, dict):
        raise ConfigError("schedule must be an object")
    _schedule_fields(schedule)
    caps = raw.get("caps", {})
    if not isinstance(caps, dict):
        raise ConfigError("caps must be an object")
    if not caps.keys() <= _DEFAULT_CAPS.keys():
        raise ConfigError(f"caps: the keys must be among {list(_DEFAULT_CAPS)}, got {list(caps)}")
    return ExperimentConfig(
        families=tuple(families),
        n_values=_config_ints(raw.get("n_values", []), "n_values"),
        seeds=_config_ints(raw.get("seeds", []), "seeds"),
        schedule=dict(schedule),
        caps={**_DEFAULT_CAPS, **{key: _config_int(v, f"caps {key}") for key, v in caps.items()}},
    )


def _family_builder(family: dict) -> tuple[str, Optional[int], Callable[[int, int], Graph]]:
    """(label, fixed_n or None, builder(n, seed))."""
    kind = family.get("kind")
    if kind == "cluster":
        if "sizes" in family:
            sizes = list(_config_ints(family["sizes"], "cluster sizes"))
            label = "cluster:" + "+".join(str(q) for q in sizes)
            return label, sum(sizes), lambda n, seed: gen_cluster(sizes)
        q = _config_int(family.get("q", 0), "cluster q")
        if q < 1:
            raise ConfigError("cluster family needs sizes or q >= 1")

        def build(n: int, seed: int) -> Graph:
            _check_vertex_count(n)  # before the list of n // q sizes
            return gen_cluster([q] * (n // q))  # refuses n < q: no clique fits

        return f"cluster:q{q}", None, build
    if kind == "gnp":
        p = _config_float(family.get("p", -1.0), "gnp p")
        if not 0.0 <= p <= 1.0:
            raise ConfigError("gnp family needs p in [0,1]")
        return f"gnp:{p}", None, lambda n, seed: gen_gnp(n, p, seed)
    if kind == "c4free":
        m_frac = _config_float(family.get("m_frac", -1.0), "c4free m_frac")
        if not 0.0 <= m_frac <= 1.0:
            raise ConfigError("c4free family needs m_frac in [0,1]")
        return (
            f"c4free:{m_frac}",
            None,
            lambda n, seed: gen_c4_free_process(n, round(m_frac * n * (n - 1) / 2), seed),
        )
    if kind == "path":
        return "path", None, lambda n, seed: gen_path(n)
    if kind == "cycle":
        return "cycle", None, lambda n, seed: gen_cycle(n)
    raise ConfigError(f"unknown family kind {kind!r}")


def resolve_schedule(g: Graph, raw: dict) -> ParamSchedule:
    """Concrete ParamSchedule for one graph from the config stanza.

    mode explicit: bins given as [lo, hi] pairs.  mode auto: unit bins
    from auto_bins, delta defaulting to (min_deg + 0.5)/n so the run
    stays on the sampled-core branch.  mode asymptotic: the textbook
    point, which has no concrete bins, so InfeasibleParamsError.
    """
    mode, s, t, k, delta, bins = _schedule_fields(raw)
    if mode == "asymptotic":
        report = asymptotic_schedule(g.n, s, t, delta)
        why = "is informational only" if report.feasible else "infeasible at this n"
        raise InfeasibleParamsError(f"asymptotic schedule {why}; supply explicit bins")
    if mode == "auto":
        if "delta" not in raw:
            _, d = min_degree_vertex(g)
            delta = (d + 0.5) / g.n
        return ParamSchedule(s=s, t=t, delta=delta, k=k, bins=auto_bins(delta))
    return ParamSchedule(s=s, t=t, delta=delta, k=k, bins=bins)


def _schedule_fields(raw: dict) -> tuple:
    """(mode, s, t, k, delta, bins) of a schedule stanza, each checked as a
    JSON value; bins are read in explicit mode only, delta defaults to 0.5."""
    mode = raw.get("mode", "explicit")
    if mode not in ("explicit", "auto", "asymptotic"):
        raise ConfigError(f"unknown schedule mode {mode!r}")
    s, t, k = (_config_int(raw.get(key, 2), f"schedule {key}") for key in ("s", "t", "k"))
    delta = _config_float(raw.get("delta", 0.5), "schedule delta")
    bins = ()
    if mode == "explicit":
        try:
            bins = tuple((_config_float(lo, "schedule bins"), _config_float(hi, "schedule bins"))
                         for lo, hi in raw.get("bins", []))
        except (TypeError, ValueError):
            raise ConfigError("explicit schedule needs bins as [lo, hi] pairs") from None
    return mode, s, t, k, delta, bins


def _run_cell(label, builder, n, seed, schedule_raw, caps) -> ExperimentRecord:
    rec = ExperimentRecord(family=label, n=n, seed=seed)
    times = rec.runtime_ms

    def clock(stage, fn):
        t0 = time.perf_counter()
        out = fn()
        times[stage] = (time.perf_counter() - t0) * 1000.0
        return out

    try:
        g = clock("gen", lambda: builder(n, seed))
        rec.n = g.n
        _, s, t, *_ = _schedule_fields(schedule_raw)
        witness = clock("freeness", lambda: find_induced_kst(g, s, t))
        if witness is not None:
            rec.error = f"not induced-K_{{{s},{t}}}-free: {witness.side_a}/{witness.side_b}"
            return rec
        _, d = min_degree_vertex(g)
        rec.t_trivial = d + 1
        enum_cap = int(caps["enum_n"])
        if g.n <= enum_cap:
            rec.alpha = clock("alpha", lambda: alpha_with_witness(g))[0]
        sched = resolve_schedule(g, schedule_raw)
        cert = clock("construct", lambda: construct_hitting_set(g, sched, seed))
        rec.t_bet = cert.T.size
        if cert.mode == MODE_SAMPLED_CORE:
            rec.e_observed = residual_edges(g, cert)
        if g.n <= enum_cap and not clock("verify", lambda: verify_hitting_set(g, cert.T)):
            raise VerificationFailure("hitting set failed verification\n" + certificate_to_text(cert))
        if g.n <= int(caps["minhit_n"]):
            rec.h_exact = clock("minhit", lambda: min_hitting_set(g))[0]
    except VerificationFailure:
        raise
    except HitlabError as ex:
        rec.error = f"{ex.kind}: {ex}"
    return rec


def run_experiment(config: ExperimentConfig) -> list[ExperimentRecord]:
    """One record per (family, n, seed) cell, in deterministic cell order.

    Per-cell failures are recorded; a verification failure aborts the
    whole run with the offending certificate in the message.
    """
    return [
        _run_cell(label, builder, n, seed, config.schedule, config.caps)
        for label, fixed_n, builder in map(_family_builder, config.families)
        for n in (config.n_values if fixed_n is None else (fixed_n,))
        for seed in config.seeds
    ]


def records_to_csv(records: list[ExperimentRecord], include_timings: bool = False) -> str:
    """Fixed-schema CSV; runtime_ms stays blank unless include_timings,
    keeping default output byte-identical across runs."""
    lines = [CSV_HEADER]
    for r in records:
        runtime = str(int(round(sum(r.runtime_ms.values())))) if include_timings else ""
        cells = ("" if v is None else str(v) for v in (getattr(r, name) for name in _ROW_FIELDS))
        lines.append(",".join((CSV_SCHEMA, *cells, runtime)))
    return "\n".join(lines) + "\n"
