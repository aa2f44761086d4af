"""Numerics and experiment harness: escape probabilities, E[e] bounds,
Monte Carlo determinism, config plumbing, CSV schema."""

import json
import math
import os
import random
import re
import signal
import threading
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from hitlab import (
    ConfigError,
    InfeasibleParamsError,
    ParamSchedule,
    PreconditionError,
    VertexSet,
    analytic_e_bound,
    asymptotic_schedule,
    budget,
    expected_residual_edges,
    gen_cluster,
    gen_cycle,
    gen_path,
    hypergeom_tail,
    load_config,
    monte_carlo_e,
    prob_low_intersection,
    records_to_csv,
    run_experiment,
)
from hitlab.analysis import (
    CSV_HEADER,
    ExperimentRecord,
    _family_builder,
    _settled_tail,
    derive_seed,
    resolve_schedule,
)
from hitlab import analysis
from hitlab.errors import FreenessViolationError, VerificationFailure
from hitlab.graph import gen_c4_free_process, replace
from hitlab.hitting import bin_and_select, build_K, construct_hitting_set
from hitlab.mis import alpha_with_witness
from helpers import address_space_cap, ref_monte_carlo_e

P10_SCHED = ParamSchedule(s=2, t=2, delta=0.15, k=2, bins=((2.0, 3.0), (1.0, 2.0)))


def i_of(n, ids):
    return VertexSet.of(n, ids)


class TestDeriveSeed:
    def test_frozen_values(self):
        assert derive_seed(0, 0, "") == 9716340883820303696
        assert derive_seed(0, 1, "") == 7052812484153736359
        assert derive_seed(7, 0, "mc-e") == 7035547813488187649

    def test_labels_give_independent_streams(self):
        a = [derive_seed(42, i, "mc-e") for i in range(8)]
        b = [derive_seed(42, i, "cell") for i in range(8)]
        assert set(a).isdisjoint(b)
        assert len(set(a)) == 8

    def test_range(self):
        for i in range(50):
            v = derive_seed(3, i)
            assert 0 <= v < 1 << 64


class TestHypergeomTail:
    @pytest.mark.parametrize(
        "i_size,d,k,s,expect",
        [
            (10, 4, 3, 2, Fraction(2, 3)),
            (4, 2, 2, 2, Fraction(5, 6)),
            (5, 2, 2, 2, Fraction(9, 10)),
            (2, 2, 2, 2, Fraction(0)),
            (10, 0, 3, 1, Fraction(1)),
            (6, 6, 3, 1, Fraction(0)),
            (6, 3, 6, 4, Fraction(1)),  # full draw, d <= s-1
            (6, 3, 6, 3, Fraction(0)),  # full draw forces X = d = s
            (5, 3, 0, 1, Fraction(1)),  # empty draw never intersects
        ],
    )
    def test_closed_forms(self, i_size, d, k, s, expect):
        assert hypergeom_tail(i_size, d, k, s) == expect

    def test_matches_enumeration(self):
        # brute force over all k-subsets of a ground set with d marked
        for i_size in range(1, 8):
            for d in range(i_size + 1):
                for k in range(i_size + 1):
                    for s in (1, 2, 3):
                        hits = 0
                        total = 0
                        for pick in combinations(range(i_size), k):
                            total += 1
                            if sum(1 for v in pick if v < d) <= s - 1:
                                hits += 1
                        assert hypergeom_tail(i_size, d, k, s) == Fraction(hits, total)

    def test_matches_the_binomial_sum_on_a_seeded_grid(self):
        # the sum of C(d, x) C(|I| - d, k - x) / C(|I|, k) it replaced; the
        # grid reaches k > |I| - d, where the terms below d + k - |I| are 0
        def binomial_sum(i_size, d, k, s):
            acc = sum(math.comb(d, x) * math.comb(i_size - d, k - x) for x in range(min(s - 1, k, d) + 1))
            return Fraction(acc, math.comb(i_size, k))

        rng = random.Random(16)
        cases = [(60, 50, 40, s) for s in range(1, 45)]
        for _ in range(400):
            i_size = rng.randint(0, 300)
            d, k = rng.randint(0, i_size), rng.randint(0, i_size)
            cases.append((i_size, d, k, rng.randint(1, min(d, k) + 2)))
        assert sum(k > i_size - d for i_size, d, k, _ in cases) > 100
        for case in cases:
            assert hypergeom_tail(*case) == binomial_sum(*case), case

    def test_monotone_in_s(self):
        vals = [hypergeom_tail(12, 5, 4, s) for s in range(1, 6)]
        assert vals == sorted(vals)
        assert vals[-1] == 1

    @pytest.mark.parametrize(
        "i_size,d,k,s",
        [(5, 6, 2, 1), (5, -1, 2, 1), (5, 2, 6, 1), (5, 2, -1, 1), (5, 2, 2, 0)],
    )
    def test_preconditions(self, i_size, d, k, s):
        with pytest.raises(PreconditionError):
            hypergeom_tail(i_size, d, k, s)


class TestProbLowIntersection:
    def test_pinned_pair(self):
        exact, est = prob_low_intersection(10, 4, 3, 2)
        assert exact == float(Fraction(2, 3))
        assert est == pytest.approx(0.648, rel=1e-12)

    def test_exact_tracks_fraction_engine(self):
        for d in range(0, 8):
            exact, _ = prob_low_intersection(8, d, 3, 2)
            assert exact == float(hypergeom_tail(8, d, 3, 2))

    def test_estimate_is_binomial_sum(self):
        i_size, d, k, s = 9, 4, 3, 2
        _, est = prob_low_intersection(i_size, d, k, s)
        p = d / i_size
        want = sum(math.comb(k, x) * (1 - p) ** (k - x) * p**x for x in range(s))
        assert est == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize(
        "i_size,d,k,s",
        [
            # (1 - d/|I|)^k underflows to 0.0 while C(k, x) is still a float
            (3000, 870, 2342, 147),
            (3000, 1022, 2477, 97),
            # the power is subnormal and lost 3 % before C(k, x) scaled it
            (3000, 1529, 1623, 262),
        ],
    )
    def test_estimate_survives_powers_below_the_least_float(self, i_size, d, k, s):
        _, est = prob_low_intersection(i_size, d, k, s)
        p = Fraction(d, i_size)
        want = sum(math.comb(k, x) * (1 - p) ** (k - x) * p**x for x in range(s))
        assert abs(Fraction(est) - want) <= want * Fraction(1, 10**9)

    def test_degenerate_edges(self):
        exact, est = prob_low_intersection(6, 0, 2, 1)
        assert exact == 1.0 and est == 1.0
        exact, est = prob_low_intersection(6, 6, 2, 1)
        assert exact == 0.0 and est == 0.0

    def test_far_tails_are_settled_without_the_exact_fraction(self, monkeypatch):
        # C(10^6, 5*10^5) alone took 6 s; a tail whose log-space bound puts
        # it below half the least subnormal, or its complement below
        # 2^-54, needs no binomial coefficient
        comb = math.comb

        def small_comb(n, r):
            assert min(r, n - r) <= 10**4, (n, r)
            return comb(n, r)

        monkeypatch.setattr(math, "comb", small_comb)
        assert prob_low_intersection(10**6, 5 * 10**5, 5 * 10**5, 1) == (0.0, 0.0)
        assert prob_low_intersection(10**6, 20000, 500000, 11000)[0] == 1.0

    def test_settled_tails_match_the_exact_path(self):
        settled = []
        for i_size in (600, 1800):
            for d in (i_size // 10, i_size // 3, i_size // 2, 9 * i_size // 10):
                for k in (i_size // 10, i_size // 2, 9 * i_size // 10):
                    lo, hi = max(0, d + k - i_size), min(d, k)
                    for s in range(lo + 1, hi + 1, 7):
                        exact, _ = prob_low_intersection(i_size, d, k, s)
                        assert exact == float(hypergeom_tail(i_size, d, k, s)), (i_size, d, k, s)
                        settled.append(_settled_tail(i_size, d, k, s))
        assert settled.count(0.0) > 10 and settled.count(1.0) > 100


def direct_bounds(n, c, theta_lo, theta_hi, k, s):
    """Plain-float evaluation of the two displayed bounds."""
    a_s = theta_lo * (1.0 - c) * n
    q = theta_hi / (c * n)
    if q >= 1.0:
        tail = 0.0
    else:
        tail = sum(k**x * (1.0 - q) ** (k - x) for x in range(s))
    return a_s, c * (1.0 - c) * n * n * tail


class TestAnalyticEBound:
    def test_hand_values(self):
        sched = ParamSchedule(s=2, t=2, delta=0.5, k=3, bins=((2.0, 4.0),))
        a_s, a_l = analytic_e_bound(20, 0.25, sched, 1)
        # A_S = 2 * 0.75 * 20 = 30, A_L = 75 * (0.2^3 + 3*0.2^2) = 9.6
        assert math.exp(a_s) == pytest.approx(30.0, rel=1e-12)
        assert math.exp(a_l) == pytest.approx(9.6, rel=1e-12)

    @pytest.mark.parametrize("n", [20, 60])
    @pytest.mark.parametrize("c", [0.2, 0.45, 1.0])  # at c = 1 both bounds vanish
    @pytest.mark.parametrize("k,s", [(2, 1), (3, 2), (5, 3)])
    def test_log_path_matches_direct_product(self, n, c, k, s):
        theta_hi = 0.8 * c * n
        theta_lo = theta_hi / 2.0
        sched = ParamSchedule(s=s, t=s + 1, delta=0.5, k=k, bins=((theta_lo, theta_hi),))
        a_s, a_l = analytic_e_bound(n, c, sched, 1)
        want_s, want_l = direct_bounds(n, c, theta_lo, theta_hi, k, s)
        assert math.exp(a_s) == pytest.approx(want_s, rel=1e-9)
        assert math.exp(a_l) == pytest.approx(want_l, rel=1e-9)

    def test_saturated_bin_kills_a_l(self):
        # theta_hi >= c*n makes every escape factor vanish
        sched = ParamSchedule(s=2, t=3, delta=0.5, k=2, bins=((2.0, 6.0),))
        a_s, a_l = analytic_e_bound(20, 0.25, sched, 1)
        assert a_l == -math.inf
        assert math.exp(a_l) == direct_bounds(20, 0.25, 2.0, 6.0, 2, 2)[1] == 0.0
        assert math.exp(a_s) == pytest.approx(30.0, rel=1e-12)

    def test_asymptotic_a_s_carries_both_n_factors(self):
        n, s, c = 100, 1, 0.25
        sched = asymptotic_schedule(n, s, 2, 0.9)
        a_s, a_l = analytic_e_bound(n, c, sched, 1)
        ln_n = math.log(n)
        ln_ln = math.log(ln_n)
        # theta_lo = n * (ln n)^-(10s)^3, A_S = theta_lo * (1-c) * n
        assert a_s == (ln_n - 1000.0 * ln_ln) + math.log(0.75) + ln_n
        assert a_l < -1e59  # finite but astronomically negative

    def test_asymptotic_overflow_saturates(self):
        n = 10**6
        sched = asymptotic_schedule(n, 2, 2, 0.9)
        a_s, a_l = analytic_e_bound(n, 0.25, sched, 1)
        ln_n = math.log(n)
        ln_ln = math.log(ln_n)
        assert a_s == (ln_n - 20.0**3 * ln_ln) + math.log(0.75) + ln_n
        assert a_l == -math.inf

    def test_asymptotic_later_bins_evaluate(self):
        sched = asymptotic_schedule(1000, 2, 2, 0.9)
        for j in range(1, sched.num_bins + 1):
            a_s, a_l = analytic_e_bound(1000, 0.3, sched, j)
            assert a_s < 0.0 or a_s == -math.inf
            assert a_l <= 0.0 or a_l == -math.inf

    def test_s1_single_term(self):
        sched = ParamSchedule(s=1, t=2, delta=0.5, k=4, bins=((1.0, 2.0),))
        n, c = 30, 0.4
        _, a_l = analytic_e_bound(n, c, sched, 1)
        q = 2.0 / (c * n)
        want = math.log(c * (1 - c) * n * n) + 4 * math.log1p(-q)
        assert a_l == pytest.approx(want, rel=1e-12)

    def test_small_q_matches_the_log1p_form(self):
        # q = theta_hi/(c n) = 8e-15 is below 1e-12, so ln(1-q) is taken as
        # -q with a finite tail; the log1p form still holds there
        n, c = 10**15, 0.25
        sched = ParamSchedule(s=2, t=2, delta=0.5, k=3, bins=((1.0, 2.0),))
        _, a_l = analytic_e_bound(n, c, sched, 1)
        q = 2.0 / (c * n)
        tail = sum(math.exp(x * math.log(3) + (3 - x) * math.log1p(-q)) for x in range(2))
        want = math.log(c) + math.log1p(-c) + 2 * math.log(n) + math.log(tail)
        assert math.isfinite(a_l) and a_l == pytest.approx(want, rel=1e-12)

    def test_preconditions(self):
        sched = ParamSchedule(s=2, t=2, delta=0.5, k=2, bins=((1.0, 2.0),))
        with pytest.raises(PreconditionError, match="c must lie"):
            analytic_e_bound(10, 0.0, sched, 1)
        with pytest.raises(PreconditionError, match="c must lie"):
            analytic_e_bound(10, 1.5, sched, 1)
        with pytest.raises(PreconditionError, match="bin index"):
            analytic_e_bound(10, 0.25, sched, 2)
        with pytest.raises(PreconditionError, match="bin index"):
            analytic_e_bound(10, 0.25, sched, 0)


class TestExpectedResidualEdges:
    def test_c5_vanishes(self):
        sched = ParamSchedule(s=2, t=2, delta=0.5, k=2, bins=((1.0, 2.0),))
        got = expected_residual_edges(gen_cycle(5), i_of(5, [0, 2]), sched)
        assert got == Fraction(0)

    def test_p10_exact(self):
        # outside I|S_j = {1,3,5,7}, each d=2, escape 9/10: 4*2*(9/10)
        got = expected_residual_edges(gen_path(10), i_of(10, [0, 2, 4, 6, 8]), P10_SCHED)
        assert got == Fraction(36, 5)

    def test_never_exceeds_crossing_count(self):
        g = gen_path(10)
        i_set = i_of(10, [0, 2, 4, 6, 8])
        _, s_j = bin_and_select(g, i_set, P10_SCHED)
        envelope = sum(
            (g.adj[v] & i_set.bits).bit_count()
            for v in range(10)
            if not (v in i_set or v in s_j)
        )
        assert expected_residual_edges(g, i_set, P10_SCHED) <= envelope


class TestMonteCarloE:
    def test_deterministic(self):
        g = gen_path(10)
        i_set = i_of(10, [0, 2, 4, 6, 8])
        a = monte_carlo_e(g, i_set, P10_SCHED, 50, 11)
        b = monte_carlo_e(g, i_set, P10_SCHED, 50, 11)
        assert a == b
        c = monte_carlo_e(g, i_set, P10_SCHED, 50, 12)
        assert a.samples != c.samples

    def test_mean_tracks_exact_expectation(self):
        g = gen_path(10)
        i_set = i_of(10, [0, 2, 4, 6, 8])
        est = monte_carlo_e(g, i_set, P10_SCHED, 400, 11)
        assert est.mean == 7.145  # sum of int samples / 400, fixed seed
        truth = float(expected_residual_edges(g, i_set, P10_SCHED))
        assert abs(est.mean - truth) < 5 * est.std_error

    def test_single_trial(self):
        g = gen_path(10)
        est = monte_carlo_e(g, i_of(10, [0, 2, 4, 6, 8]), P10_SCHED, 1, 11)
        assert est.samples == (8,)
        assert est.mean == 8.0
        assert est.std_error == 0.0

    def test_std_error_is_the_correctly_rounded_root(self):
        # std_error * sqrt(trials) is the float nearest the square root of
        # the exact sample variance, whatever the Python version
        def nearest(f, ratio):
            below = (Fraction(math.nextafter(f, 0.0)) + Fraction(f)) / 2 if f else Fraction(0)
            above = (Fraction(f) + Fraction(math.nextafter(f, math.inf))) / 2
            return below * below <= ratio <= above * above

        rng = random.Random(3)
        for _ in range(400):
            xs = [rng.randrange(rng.choice([2, 30, 10**6, 10**15])) for _ in range(rng.choice([2, 3, 9, 300]))]
            n, total = len(xs), sum(xs)
            num, den = n * sum(x * x for x in xs) - total * total, n * (n - 1)
            assert nearest(analysis._sqrt_ratio(num, den), Fraction(num, den)), xs
        # num at least 2^109 times den: the root is scaled down, not up
        for root, den in ((2**55, 7), (3**40, 1), (10**20 + 1, 12345), (2**200 + 1, 3)):
            assert analysis._sqrt_ratio(root * root * den, den) == float(root)
        g = gen_c4_free_process(40, 78, 1)
        _, i_set = alpha_with_witness(g)
        for k, seed in ((2, 0), (5, 1), (9, 5)):
            est = monte_carlo_e(g, i_set, resolve_schedule(g, {"mode": "auto", "k": k}), 300, seed)
            mean = Fraction(sum(est.samples), 300)
            variance = sum((x - mean) ** 2 for x in est.samples) / 299
            assert est.std_error == analysis._sqrt_ratio(variance.numerator, variance.denominator) / math.sqrt(300)

    def test_bounded_by_crossing_envelope(self):
        g = gen_path(10)
        i_set = i_of(10, [0, 2, 4, 6, 8])
        est = monte_carlo_e(g, i_set, P10_SCHED, 100, 2)
        _, s_j = bin_and_select(g, i_set, P10_SCHED)
        envelope = sum(
            (g.adj[v] & i_set.bits).bit_count()
            for v in range(10)
            if not (v in i_set or v in s_j)
        )
        assert max(est.samples) <= envelope

    def test_needs_a_trial(self):
        with pytest.raises(PreconditionError, match="at least one trial"):
            monte_carlo_e(gen_path(10), i_of(10, [0, 2, 4, 6, 8]), P10_SCHED, 0, 1)

    def test_sample_larger_than_I(self):
        sched = ParamSchedule(s=2, t=2, delta=0.15, k=3, bins=((1.0, 2.0),))
        with pytest.raises(PreconditionError, match=r"cannot sample k=3 from \|I\|=2"):
            monte_carlo_e(gen_path(10), i_of(10, [0, 2]), sched, 5, 1)

    @pytest.mark.parametrize("s,t,k", [(2, 2, 2), (1, 2, 3), (2, 3, 4), (2, 2, 5)])
    def test_samples_match_the_per_trial_loop(self, s, t, k):
        # K and e built once per distinct I_j give the samples of one
        # build_K per trial, and a freeness violation raises the same way
        for m_frac, seed in ((0.1, 0), (0.2, 1)):
            g = gen_c4_free_process(40, round(m_frac * 40 * 39 / 2), seed)
            _, i_set = alpha_with_witness(g)
            sched = resolve_schedule(g, {"mode": "auto", "s": s, "t": t, "k": k})
            try:
                want = ref_monte_carlo_e(g, i_set, sched, 600, 7 + seed)
            except FreenessViolationError as ex:
                with pytest.raises(FreenessViolationError, match=re.escape(str(ex))):
                    monte_carlo_e(g, i_set, sched, 600, 7 + seed)
                continue
            assert monte_carlo_e(g, i_set, sched, 600, 7 + seed).samples == want

    def test_builds_K_once_per_distinct_sample(self, monkeypatch):
        g = gen_c4_free_process(40, 78, 0)
        _, i_set = alpha_with_witness(g)
        sched = resolve_schedule(g, {"mode": "auto", "s": 2, "t": 2, "k": 2})
        built = []
        monkeypatch.setattr(analysis, "build_K", lambda g, i_j, s, t: built.append(i_j) or build_K(g, i_j, s, t))
        monte_carlo_e(g, i_set, sched, 500, 3)
        assert len(built) == len(set(built)) < 500


def c4free_case(m_frac, graph_seed, s, t, k):
    g = gen_c4_free_process(40, round(m_frac * 40 * 39 / 2), graph_seed)
    _, i_set = alpha_with_witness(g)
    return g, i_set, resolve_schedule(g, {"mode": "auto", "s": s, "t": t, "k": k})


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def helper_pids():
    return [pid for pid, _, _ in analysis._helpers]


def wait_dead(pid):
    """Wait until a helper has exited, leaving it for monte_carlo_e to reap."""
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)


@pytest.fixture
def split(monkeypatch):
    """split(cpus) runs monte_carlo_e as on `cpus` CPUs with no trial
    minimum per process; it returns the pids forked and a count of the
    trials drawn in this process.  The helpers are stopped at teardown."""

    def force(cpus):
        monkeypatch.setattr(analysis, "_cpus", lambda: cpus)
        monkeypatch.setattr(analysis, "_MIN_TRIALS_PER_PROCESS", 1)
        forks, here = [], []
        fork, draw = os.fork, analysis._draw_bits

        def counted_fork():
            pid = fork()
            forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setattr(analysis, "_draw_bits", lambda *args: here.append(1) or draw(*args))
        return forks, here

    yield force
    analysis._stop_helpers()


CLEAN_CASE = (0.1, 0, 2, 2, 2)


class TestMonteCarloSplit:
    """The trials split over helper processes give the serial loop's samples
    and errors; the helpers are forked once, reused by every later call and
    reaped at exit."""

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_samples_match_the_serial_loop(self, split, cpus):
        cases = [c4free_case(*CLEAN_CASE), c4free_case(0.2, 1, 2, 2, 2), (gen_path(10), i_of(10, [0, 2, 4, 6, 8]), P10_SCHED)]
        runs = [(case, trials, monte_carlo_e(*case, trials, 5)) for case in cases for trials in (601, 1000)]
        forks, here = split(cpus)
        for case, trials, serial in runs:
            here.clear()
            est = monte_carlo_e(*case, trials, 5)
            assert est == serial and est.samples == ref_monte_carlo_e(*case, trials, 5)
            # every helper's samples came through its pipe, none rerun here;
            # the first call forked the helpers and every later one reused them
            assert len(here) == -(-trials // cpus)
            assert helper_pids() == forks and len(forks) == cpus - 1
        analysis._stop_helpers()
        assert helper_pids() == []
        assert_no_child_left()

    @pytest.mark.parametrize(
        "case,seed,first_bad,trials,cpus,in_child",
        [
            # the per-trial loop's violating cases: every trial raises
            ((0.1, 0, 1, 2, 3), 7, 0, 601, 2, False),
            ((0.2, 1, 1, 2, 3), 8, 0, 601, 3, False),
            ((0.05, 2, 1, 4, 2), 9, 31, 64, 2, False),
            ((0.05, 2, 1, 4, 2), 9, 31, 32, 2, True),
            ((0.05, 2, 1, 4, 2), 9, 31, 32, 3, True),
        ],
    )
    def test_freeness_violation_raised_as_the_serial_loop(self, split, case, seed, first_bad, trials, cpus, in_child):
        g, i_set, sched = c4free_case(*case)
        clean = c4free_case(*CLEAN_CASE)
        want = [ref_monte_carlo_e(*clean, 601, clean_seed) for clean_seed in (5, 6)]
        if first_bad:
            monte_carlo_e(g, i_set, sched, first_bad, seed)
        with pytest.raises(FreenessViolationError) as serial:
            monte_carlo_e(g, i_set, sched, trials, seed)
        forks, _ = split(cpus)
        ranges = analysis._trial_ranges(trials)
        assert len(ranges) == cpus and (ranges[0][1] <= first_bad) == in_child
        with pytest.raises(FreenessViolationError, match=re.escape(str(serial.value))):
            monte_carlo_e(g, i_set, sched, trials, seed)
        assert len(forks) == cpus - 1
        if in_child:
            # the helper that raised sent its status and is idle, in step
            assert helper_pids() == forks
        else:
            # this process raised with a job in flight in every helper: each
            # was killed and reaped, so none can send a stale reply
            assert helper_pids() == []
            for pid in forks:
                with pytest.raises(ChildProcessError):
                    os.waitpid(pid, os.WNOHANG)
        # two clean calls of different samples: a helper a step behind would
        # hand the second call the first call's samples
        assert [monte_carlo_e(*clean, 601, clean_seed).samples for clean_seed in (5, 6)] == want
        assert len(forks) == (cpus - 1) * (1 if in_child else 2) and helper_pids() == forks[-(cpus - 1):]

    @pytest.mark.parametrize("reaped_elsewhere", [False, True])
    def test_a_killed_helper_is_replaced(self, split, reaped_elsewhere):
        g, i_set, sched = c4free_case(*CLEAN_CASE)
        want = [ref_monte_carlo_e(g, i_set, sched, 601, seed) for seed in (5, 6)]
        forks, here = split(2)
        assert monte_carlo_e(g, i_set, sched, 601, 5).samples == want[0]
        os.kill(forks[0], signal.SIGKILL)
        # other code of this process, such as a loop over os.wait, may reap it first
        os.waitpid(forks[0], 0) if reaped_elsewhere else wait_dead(forks[0])
        here.clear()
        assert monte_carlo_e(g, i_set, sched, 601, 6).samples == want[1]
        # the dead helper was reaped and a fresh one ran the second range
        assert len(forks) == 2 and helper_pids() == forks[1:] and len(here) == 301
        with pytest.raises(ChildProcessError):
            os.waitpid(forks[0], os.WNOHANG)

    def test_a_helper_dead_before_its_job_is_written_is_replaced(self, split, monkeypatch):
        g, i_set, sched = c4free_case(*CLEAN_CASE)
        want = [ref_monte_carlo_e(g, i_set, sched, 601, seed) for seed in (5, 6)]
        forks, here = split(2)
        start = analysis._start_helpers

        def start_then_kill(count):
            helpers = start(count)
            for pid, _, _ in helpers:
                os.kill(pid, signal.SIGKILL)
                wait_dead(pid)
            return helpers

        monkeypatch.setattr(analysis, "_start_helpers", start_then_kill)
        # the job write meets a broken pipe: the helper is reaped and its range rerun here
        assert monte_carlo_e(g, i_set, sched, 601, 5).samples == want[0]
        assert len(here) == 601 and helper_pids() == []
        with pytest.raises(ChildProcessError):
            os.waitpid(forks[0], os.WNOHANG)
        monkeypatch.setattr(analysis, "_start_helpers", start)
        here.clear()
        assert monte_carlo_e(g, i_set, sched, 601, 6).samples == want[1]
        assert len(forks) == 2 and helper_pids() == forks[1:] and len(here) == 301
        analysis._stop_helpers()
        assert helper_pids() == []
        assert_no_child_left()

    def test_a_helper_dead_with_a_job_in_flight_is_replaced(self, split, monkeypatch):
        g, i_set, sched = c4free_case(*CLEAN_CASE)
        want = [ref_monte_carlo_e(g, i_set, sched, 601, seed) for seed in (5, 6)]
        forks, here = split(2)
        trials, owner = analysis._trials, os.getpid()

        def die_in_a_helper(*args):
            if os.getpid() != owner:
                os.kill(os.getpid(), signal.SIGKILL)
            return trials(*args)

        # patched before the fork, so the helper runs it
        monkeypatch.setattr(analysis, "_trials", die_in_a_helper)
        # the reply read meets end of file: the helper is reaped and its range rerun here
        assert monte_carlo_e(g, i_set, sched, 601, 5).samples == want[0]
        assert len(here) == 601 and helper_pids() == []
        with pytest.raises(ChildProcessError):
            os.waitpid(forks[0], os.WNOHANG)
        monkeypatch.setattr(analysis, "_trials", trials)
        here.clear()
        assert monte_carlo_e(g, i_set, sched, 601, 6).samples == want[1]
        assert len(forks) == 2 and helper_pids() == forks[1:] and len(here) == 301
        analysis._stop_helpers()
        assert helper_pids() == []
        assert_no_child_left()

    def test_sigint_leaves_an_idle_helper_silent_and_alive(self, split, capfd):
        g, i_set, sched = c4free_case(*CLEAN_CASE)
        want = [ref_monte_carlo_e(g, i_set, sched, 601, seed) for seed in (5, 6)]
        capfd.readouterr()
        forks, _ = split(2)
        assert monte_carlo_e(g, i_set, sched, 601, 5).samples == want[0]
        os.kill(forks[0], signal.SIGINT)
        assert monte_carlo_e(g, i_set, sched, 601, 6).samples == want[1]
        assert helper_pids() == forks and len(forks) == 1
        assert os.waitid(os.P_PID, forks[0], os.WEXITED | os.WNOHANG | os.WNOWAIT) is None
        assert capfd.readouterr() == ("", "")

    def test_a_forked_child_leaves_the_helpers_alone(self, split):
        g, i_set, sched = c4free_case(*CLEAN_CASE)
        want = [ref_monte_carlo_e(g, i_set, sched, 601, seed) for seed in (5, 6, 7)]
        forks, _ = split(2)
        assert monte_carlo_e(g, i_set, sched, 601, 5).samples == want[0]
        (helper,) = analysis._helpers
        ends = [helper[1], helper[2].fileno()]
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                # the child forgot the helper and closed its copies of the pipe ends
                closed = []
                for fd in ends:
                    try:
                        os.fstat(fd)
                    except OSError:
                        closed.append(fd)
                ok = analysis._helpers == [] and closed == ends
                # a call that splits forks the child's own helper
                ok = ok and monte_carlo_e(g, i_set, sched, 601, 6).samples == want[1]
                ok = ok and len(analysis._helpers) == 1 and helper_pids() != [helper[0]]
                analysis._stop_helpers()
                code = 0 if ok else 2
            finally:
                os._exit(code)
        assert os.waitpid(pid, 0)[1] == 0
        assert analysis._helpers == [helper]
        assert monte_carlo_e(g, i_set, sched, 601, 7).samples == want[2]
        assert analysis._helpers == [helper] and forks == [helper[0], pid]

    def test_one_cpu_or_a_second_thread_never_forks(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        g, i_set, sched = c4free_case(0.1, 0, 2, 2, 2)
        want = ref_monte_carlo_e(g, i_set, sched, 601, 5)
        monkeypatch.setattr(analysis, "_MIN_TRIALS_PER_PROCESS", 1)
        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(analysis, "_cpus", lambda: 1)
        assert monte_carlo_e(g, i_set, sched, 601, 5).samples == want
        monkeypatch.setattr(analysis, "_cpus", lambda: 2)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait, args=(60,))
        waiter.start()
        try:
            assert monte_carlo_e(g, i_set, sched, 601, 5).samples == want
        finally:
            release.set()
            waiter.join(timeout=60)
        assert not waiter.is_alive()

    def test_cpus_without_an_affinity_call(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert analysis._cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
        assert analysis._cpus() == 1

    def test_small_calls_stay_in_one_process(self, monkeypatch):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        monkeypatch.setattr(analysis, "_cpus", lambda: 2)
        g, i_set, sched = c4free_case(0.1, 0, 2, 2, 2)
        trials = 2 * analysis._MIN_TRIALS_PER_PROCESS - 1
        assert monte_carlo_e(g, i_set, sched, trials, 5).samples == ref_monte_carlo_e(g, i_set, sched, trials, 5)


class TestHighDegreeRegime:
    """Empirical check of the A_S + A_L envelope where its premises hold."""

    def test_p10_mean_under_envelope(self):
        g = gen_path(10)
        i_set = i_of(10, [0, 2, 4, 6, 8])
        sched = ParamSchedule(s=2, t=2, delta=0.9, k=2, bins=((1.0, 2.0),))
        c = i_set.size / g.n
        _, s_j = bin_and_select(g, i_set, sched)
        theta_hi = sched.bins[0][1]
        residual_ok = all(
            (g.adj[v] & i_set.bits).bit_count() >= theta_hi
            for v in range(g.n)
            if not (v in i_set or v in s_j)
        )
        if not residual_ok or budget(g.n, c, sched.delta, sched.k, sched.s, sched.t) <= 0:
            pytest.skip("high-degree premises do not hold at this point")
        a_s, a_l = analytic_e_bound(g.n, c, sched, 1)
        envelope = math.exp(a_s) + math.exp(a_l)
        est = monte_carlo_e(g, i_set, sched, 300, 3)
        assert est.mean <= envelope
        assert envelope == pytest.approx(44.0, rel=1e-12)


class TestLoadConfig:
    def test_dict_passthrough(self):
        cfg = load_config(
            {
                "families": [{"kind": "path"}],
                "n_values": [6, 8],
                "seeds": [1],
                "schedule": {"mode": "auto", "s": 2, "t": 2, "k": 2},
                "caps": {"minhit_n": 10},
            }
        )
        assert cfg.n_values == (6, 8)
        assert cfg.seeds == (1,)
        assert cfg.caps["minhit_n"] == 10
        assert cfg.caps["enum_n"] == 48  # default survives partial override

    def test_file_round_trip(self, tmp_path):
        p = tmp_path / "exp.json"
        p.write_text(json.dumps({"families": [{"kind": "cycle"}], "n_values": [5], "seeds": [0]}))
        cfg = load_config(str(p))
        assert cfg.families == ({"kind": "cycle"},)
        assert cfg.schedule["mode"] == "auto"  # default stanza

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(p))

    def test_top_level_must_be_object(self, tmp_path):
        p = tmp_path / "list.json"
        p.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            load_config(str(p))

    def test_integers_are_json_numbers(self):
        with pytest.raises(ConfigError, match=re.escape("seeds: '1' is not an integer")):
            load_config({"seeds": ["1"]})
        assert load_config({"seeds": [1, 2.0], "n_values": [6]}).seeds == (1, 2)

    def test_reals_are_json_numbers(self):
        with pytest.raises(ConfigError, match=re.escape("gnp p: True is not a number")):
            load_config({"families": [{"kind": "gnp", "p": True}]})
        with pytest.raises(ConfigError, match=re.escape("schedule delta: '0.3' is not a number")):
            load_config({"schedule": {"mode": "auto", "delta": "0.3"}})
        with pytest.raises(ConfigError, match="schedule bins: an integer of 1329 bits is past the float range"):
            load_config({"schedule": {"mode": "explicit", "bins": [[1, int("9" * 400)]]}})
        with pytest.raises(ConfigError, match="gnp p: an integer of 16610 bits"):
            load_config({"families": [{"kind": "gnp", "p": 10**5000}]})
        # an integer reads as the float it equals
        assert _family_builder({"kind": "gnp", "p": 1})[0] == "gnp:1.0"
        assert _family_builder({"kind": "c4free", "m_frac": 0})[0] == "c4free:0.0"

    def test_mode_bins_and_caps_keys_are_checked_at_load(self):
        with pytest.raises(ConfigError, match="unknown schedule mode 'foo'"):
            load_config({"schedule": {"mode": "foo"}})
        with pytest.raises(ConfigError, match="lo, hi"):
            load_config({"schedule": {"mode": "explicit", "bins": [[1]]}})
        want = "caps: the keys must be among ['minhit_n', 'enum_n'], got ['minhit']"
        with pytest.raises(ConfigError, match=re.escape(want)):
            load_config({"caps": {"minhit": 10}})
        # an asymptotic schedule is refused per cell: its message depends on n
        assert load_config({"schedule": {"mode": "asymptotic"}}).schedule == {"mode": "asymptotic"}

    def test_families_shape(self):
        with pytest.raises(ConfigError, match="list of objects"):
            load_config({"families": "path"})
        with pytest.raises(ConfigError, match="unknown family kind"):
            load_config({"families": [{"kind": "torus"}]})


class TestFamilyBuilder:
    def test_cluster_sizes(self):
        label, fixed_n, build = _family_builder({"kind": "cluster", "sizes": [3, 3, 3]})
        assert label == "cluster:3+3+3"
        assert fixed_n == 9
        assert build(99, 0) == gen_cluster([3, 3, 3])

    def test_cluster_q(self):
        label, fixed_n, build = _family_builder({"kind": "cluster", "q": 3})
        assert label == "cluster:q3"
        assert fixed_n is None
        assert build(10, 0) == gen_cluster([3, 3, 3])
        with pytest.raises(ConfigError, match="sizes or q"):
            _family_builder({"kind": "cluster"})

    def test_gnp(self):
        label, fixed_n, build = _family_builder({"kind": "gnp", "p": 0.5})
        assert label == "gnp:0.5" and fixed_n is None
        assert build(8, 3).n == 8
        with pytest.raises(ConfigError, match="p in"):
            _family_builder({"kind": "gnp", "p": 1.5})

    def test_c4free(self):
        label, _, build = _family_builder({"kind": "c4free", "m_frac": 0.2})
        assert label == "c4free:0.2"
        g = build(10, 1)
        assert g.n == 10 and g.m <= 9
        with pytest.raises(ConfigError, match="m_frac"):
            _family_builder({"kind": "c4free"})

    def test_fixed_shapes(self):
        assert _family_builder({"kind": "path"})[0] == "path"
        assert _family_builder({"kind": "cycle"})[0] == "cycle"
        with pytest.raises(ConfigError, match="unknown family kind"):
            _family_builder({"kind": "grid"})


class TestResolveSchedule:
    def test_auto_defaults_delta_to_min_degree(self):
        sched = resolve_schedule(gen_cycle(5), {"mode": "auto", "s": 2, "t": 2, "k": 2})
        assert sched.delta == 0.5  # (2 + 0.5) / 5
        assert sched.bins == ((4.0, 5.0), (3.0, 4.0), (2.0, 3.0), (1.0, 2.0))

    def test_auto_honors_given_delta(self):
        sched = resolve_schedule(gen_cycle(5), {"mode": "auto", "delta": 0.9, "k": 2})
        assert sched.delta == 0.9
        assert len(sched.bins) == 3

    def test_explicit(self):
        raw = {"mode": "explicit", "s": 2, "t": 3, "k": 3, "delta": 0.4, "bins": [[1, 2], [0.5, 1]]}
        sched = resolve_schedule(gen_path(6), raw)
        assert sched.bins == ((1.0, 2.0), (0.5, 1.0))
        assert sched.t == 3 and sched.k == 3

    def test_explicit_rejects_malformed_bins(self):
        with pytest.raises(ConfigError, match="lo, hi"):
            resolve_schedule(gen_path(6), {"mode": "explicit", "bins": [[1]]})

    def test_asymptotic(self):
        with pytest.raises(InfeasibleParamsError, match="asymptotic schedule infeasible at this n"):
            resolve_schedule(gen_path(6), {"mode": "asymptotic", "s": 2, "t": 2})

    def test_unknown_mode(self):
        with pytest.raises(ConfigError, match="unknown schedule mode"):
            resolve_schedule(gen_path(6), {"mode": "magic"})


SMOKE_CONFIG = {
    "families": [{"kind": "cluster", "sizes": [2, 2]}, {"kind": "path"}],
    "n_values": [6],
    "seeds": [1, 2],
    "schedule": {"mode": "auto", "s": 2, "t": 2, "k": 2},
}

SMOKE_CSV = (
    "schema,family,n,seed,alpha,h_exact,t_bet,t_trivial,e_observed,runtime_ms\n"
    "1,cluster:2+2,4,1,2,2,4,2,2,\n"
    "1,cluster:2+2,4,2,2,2,4,2,2,\n"
    "1,path,6,1,3,2,4,2,5,\n"
    "1,path,6,2,3,2,4,2,5,\n"
)


# the benchmark's sweep cells: each family with its n values, seeds 1 and 2
SWEEP_CELLS = [
    ({"kind": "c4free", "m_frac": 0.2}, [24, 30]),
    ({"kind": "c4free", "m_frac": 0.1}, [24, 30]),
    ({"kind": "cycle"}, [24, 30]),
    ({"kind": "cluster", "q": 2}, [22, 24, 26]),
    ({"kind": "cluster", "q": 3}, [21, 24, 27]),
    ({"kind": "path"}, [28, 30, 32]),
]
SWEEP_CELLS_CSV = Path(__file__).parent / "golden" / "sweep_cells.csv"


class TestRunExperiment:
    def test_smoke_golden_csv(self):
        recs = run_experiment(load_config(SMOKE_CONFIG))
        assert records_to_csv(recs) == SMOKE_CSV

    def test_sweep_cells_golden_csv(self):
        recs = []
        for family, n_values in SWEEP_CELLS:
            recs += run_experiment(load_config({
                "families": [family],
                "n_values": n_values,
                "seeds": [1, 2],
                "schedule": {"mode": "auto", "s": 2, "t": 2, "k": 2},
                "caps": {"minhit_n": 32, "enum_n": 48},
            }))
        assert all(rec.h_exact is not None for rec in recs)
        assert records_to_csv(recs) == SWEEP_CELLS_CSV.read_text()

    def test_record_invariants(self):
        recs = run_experiment(load_config(SMOKE_CONFIG))
        for rec in recs:
            assert rec.error is None
            assert rec.h_exact <= rec.t_bet <= rec.n
            assert set(rec.runtime_ms) == {"gen", "freeness", "alpha", "construct", "verify", "minhit"}

    def test_freeness_failure_recorded_not_raised(self):
        cfg = load_config(
            {"families": [{"kind": "cycle"}], "n_values": [4], "seeds": [0]}
        )
        recs = run_experiment(cfg)
        assert len(recs) == 1
        assert recs[0].error == "not induced-K_{2,2}-free: (0, 2)/(1, 3)"
        assert records_to_csv(recs).splitlines()[1] == "1,cycle,4,0,,,,,,"

    def test_cell_above_the_vertex_ceiling_recorded(self):
        # refused before the generators (or the q-cluster size list) allocate
        families = [{"kind": "cluster", "q": 1}, {"kind": "path"}, {"kind": "c4free", "m_frac": 0.0}]
        cfg = load_config({"families": families, "n_values": [10**9], "seeds": [0]})
        with address_space_cap():
            recs = run_experiment(cfg)
        assert [rec.error for rec in recs] == ["precondition: vertex count 1000000000 above the ceiling 1000000"] * 3

    def test_cell_with_a_negative_vertex_count_recorded(self):
        # every builder refuses it; the q-cluster one must not fall back to one q-clique
        families = [{"kind": "cluster", "q": 3}, {"kind": "path"}, {"kind": "c4free", "m_frac": 0.0}]
        recs = run_experiment(load_config({"families": families, "n_values": [-5], "seeds": [0]}))
        assert [rec.error for rec in recs] == ["precondition: negative vertex count -5"] * 3
        assert records_to_csv(recs).splitlines()[1] == "1,cluster:q3,-5,0,,,,,,"

    def test_q_cluster_cell_below_one_clique_recorded(self):
        # n < q leaves no room for a q-clique: each such cell is refused
        # under its own n, as other families refuse n = 0, not built as n = q
        families = [{"kind": "cluster", "q": 3}]
        recs = run_experiment(load_config({"families": families, "n_values": [0, 1, 2, 3], "seeds": [1]}))
        assert [rec.error for rec in recs[:3]] == ["precondition: cluster graph needs at least one clique"] * 3
        assert records_to_csv(recs).splitlines()[1:] == [
            "1,cluster:q3,0,1,,,,,,",
            "1,cluster:q3,1,1,,,,,,",
            "1,cluster:q3,2,1,,,,,,",
            "1,cluster:q3,3,1,1,,,3,,",
        ]

    def test_infeasible_cell_recorded(self):
        cfg = load_config(
            {
                "families": [{"kind": "cluster", "sizes": [2, 2]}],
                "n_values": [],
                "seeds": [0],
                "schedule": {"mode": "explicit", "s": 2, "t": 2, "k": 3, "bins": [[1, 2]]},
            }
        )
        recs = run_experiment(cfg)
        assert recs[0].error is not None
        assert recs[0].error.startswith("infeasible")
        assert recs[0].t_bet is None

    def test_failed_verification_aborts_the_run(self, monkeypatch):
        # a certificate whose T misses a maximum independent set stops the
        # whole experiment with the certificate in the message
        def construct(g, sched, seed):
            return replace(construct_hitting_set(g, sched, seed), T=VertexSet.empty(g.n))

        monkeypatch.setattr(analysis, "construct_hitting_set", construct)
        with pytest.raises(VerificationFailure, match="hitting set failed verification\nmode: sampled-core\n"):
            run_experiment(load_config(SMOKE_CONFIG))

    def test_huge_h_cell_recorded(self):
        # |H| = (t-1)*C(k,s)+1 past the int-to-str digit limit, and one
        # too large to compute at all
        for k in (30000, 10**8):
            schedule = {"mode": "auto", "k": k, "s": k // 2, "t": k // 2}
            cfg = load_config({"families": [{"kind": "cycle"}], "n_values": [5], "seeds": [0], "schedule": schedule})
            recs = run_experiment(cfg)
            assert recs[0].error == (
                "infeasible: schedule needs |H| above alpha=2: (t-1)*C(k,s)+1 has too many digits to print"
            )

    def test_include_timings_column(self):
        recs = run_experiment(load_config(SMOKE_CONFIG))
        out = records_to_csv(recs, include_timings=True)
        for line in out.splitlines()[1:]:
            runtime = line.rsplit(",", 1)[1]
            assert runtime != "" and int(runtime) >= 0


class TestRecordsToCsv:
    def test_header_is_pinned(self):
        assert CSV_HEADER == "schema,family,n,seed,alpha,h_exact,t_bet,t_trivial,e_observed,runtime_ms"

    def test_hand_built_row(self):
        rec = ExperimentRecord(
            family="path", n=6, seed=1, alpha=3, h_exact=2, t_bet=3, t_trivial=2, e_observed=0
        )
        assert records_to_csv([rec]) == CSV_HEADER + "\n1,path,6,1,3,2,3,2,0,\n"

    def test_none_fields_stay_blank(self):
        rec = ExperimentRecord(family="gnp:0.5", n=12, seed=9)
        line = records_to_csv([rec]).splitlines()[1]
        assert line == "1,gnp:0.5,12,9,,,,,,"

    def test_timings_rounding(self):
        rec = ExperimentRecord(family="path", n=6, seed=1)
        rec.runtime_ms.update({"gen": 1.2, "alpha": 2.4})
        line = records_to_csv([rec], include_timings=True).splitlines()[1]
        assert line.endswith(",4")
