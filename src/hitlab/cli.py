"""Command line surface over the library.

Every subcommand is a thin adapter around one library call; results are
identical to calling the function directly with the same seed.  Errors
go to stderr as `error:<kind>: message` and map onto the exit codes
0 success, 1 usage, parse or closed output, 2 precondition (witness
printed when one exists), 3 infeasible parameters, 4 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .analysis import (
    analytic_e_bound,
    load_config,
    monte_carlo_e,
    prob_low_intersection,
    records_to_csv,
    resolve_schedule,
    run_experiment,
)
from .drc import drc_clique, trace_to_text
from .errors import (
    FreenessViolationError,
    HitlabError,
    PreconditionError,
    VerificationFailure,
)
from .graph import (
    Graph,
    VertexSet,
    find_induced_kst,
    gen_c4_free_process,
    gen_cluster,
    gen_cycle,
    gen_gnp,
    gen_path,
)
from .hitting import (
    ParamSchedule,
    asymptotic_schedule,
    certificate_from_text,
    certificate_to_text,
    construct_hitting_set,
    min_hitting_set,
    sample_hitting_set,
    validate_certificate,
)
from .hitting import verify_hitting_set  # noqa: F401  unused here; the traced benchmark wraps cli.verify_hitting_set
from .io import format_dimacs, format_edge_list, load_graph, read_text
from .mis import ENUM_CAP_DEFAULT, alpha_with_witness, enumerate_mis, first_missed, kernel


class _UsageError(HitlabError):
    kind = "usage"
    exit_code = 1


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the contract reserves 2
    # for precondition violations, so surface usage problems as kind 1.
    def error(self, message):
        raise _UsageError(message)


def _ids(vs: VertexSet) -> str:
    return " ".join(str(v) for v in vs.members()) if vs.size else "-"


def _fmt_name(flag: str) -> str:
    return "edgelist" if flag == "edge-list" else flag


def _parse_theta(pairs: list[str]) -> tuple[tuple[float, float], ...]:
    out = []
    for raw in pairs:
        lo, sep, hi = raw.partition(":")
        if not sep:
            raise _UsageError(f"--theta expects lo:hi, got {raw!r}")
        try:
            out.append((float(lo), float(hi)))
        except ValueError:
            raise _UsageError(f"--theta expects numeric lo:hi, got {raw!r}") from None
    return tuple(out)


def _parse_id_list(raw: str, n: int) -> VertexSet:
    ids = []
    for tok in raw.replace(",", " ").split():
        try:
            ids.append(int(tok))
        except ValueError:
            raise _UsageError(f"--set expects integer ids, got {tok!r}") from None
    for v in ids:
        if not 0 <= v < n:
            raise PreconditionError(f"vertex {v} out of range 0..{n - 1}")
    return VertexSet.of(n, ids)


def _schedule(g: Graph, args) -> ParamSchedule:
    """The schedule `hit` and `mc-e` name by --schedule, --s, --t, --k,
    --delta and --theta."""
    if args.schedule == "explicit" and not args.theta:
        raise _UsageError("explicit schedule needs at least one --theta lo:hi")
    raw = {"mode": args.schedule, "s": args.s, "t": args.t, "k": args.k}
    if args.delta is not None:
        raw["delta"] = args.delta
    if args.theta:
        raw["bins"] = [list(pair) for pair in _parse_theta(args.theta)]
    return resolve_schedule(g, raw)


def _write_or_print(text: str, out_path) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as ex:
            raise _UsageError(f"cannot write {out_path}: {ex.strerror}") from None
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommand bodies


def _parse_sizes(raw: str) -> list[int]:
    try:
        return [int(tok) for tok in raw.replace(",", " ").split()]
    except ValueError:
        raise _UsageError(f"--sizes expects integer clique sizes, got {raw!r}") from None


def _missing(value) -> bool:
    # an empty flag, or a --sizes list of separators only, counts as absent
    return value is None or isinstance(value, str) and not value.replace(",", " ").split()


# family -> (the flags it needs, its graph from the parsed flags).  The
# lambdas look each generator up when called, so wrapping cli.gen_* works.
_GEN_FAMILIES = {
    "cluster": (("sizes",), lambda args: gen_cluster(_parse_sizes(args.sizes))),
    "gnp": (("n", "p"), lambda args: gen_gnp(args.n, args.p, args.seed)),
    "c4free": (("n", "m"), lambda args: gen_c4_free_process(args.n, args.m, args.seed)),
    "path": (("n",), lambda args: gen_path(args.n)),
    "cycle": (("n",), lambda args: gen_cycle(args.n)),
}


def _cmd_gen(args) -> int:
    needs, build = _GEN_FAMILIES[args.family]
    if any(_missing(getattr(args, flag)) for flag in needs):
        raise _UsageError(f"gen --family {args.family} needs " + " and ".join(f"--{flag}" for flag in needs))
    g = build(args)
    fmt = _fmt_name(args.format)
    text = format_dimacs(g) if fmt == "dimacs" else format_edge_list(g)
    _write_or_print(text, args.out)
    return 0


def _cmd_check_free(args, g: Graph) -> int:
    emb = find_induced_kst(g, args.s, args.t)
    if emb is None:
        print(f"free: no induced K_{{{args.s},{args.t}}}")
        return 0
    print(f"side_a: {' '.join(str(v) for v in emb.side_a)}")
    print(f"side_b: {' '.join(str(v) for v in emb.side_b)}")
    raise FreenessViolationError(f"graph contains an induced K_{{{args.s},{args.t}}}", emb)


def _cmd_mis(args, g: Graph) -> int:
    if args.mode == "alpha":
        alpha, witness = alpha_with_witness(g)
        print(f"alpha: {alpha}")
        print(f"witness: {_ids(witness)}")
        return 0
    if args.mode == "kernel":
        ker = kernel(g)
        print(f"kernel: {_ids(ker)}")
        return 0
    fam = enumerate_mis(g, cap=args.cap)
    print(f"alpha: {fam.alpha}")
    print(f"count: {fam.count}")
    for vs in fam.sets:
        print(_ids(vs))
    return 0


def _cmd_hit(args, g: Graph) -> int:
    sched = _schedule(g, args)
    cert = construct_hitting_set(g, sched, args.seed, allow_trivial=args.allow_trivial)
    _write_or_print(certificate_to_text(cert), args.out)
    return 0


def _cmd_verify(args, g: Graph) -> int:
    if (args.cert is None) == (args.set is None):
        raise _UsageError("verify needs exactly one of --cert or --set")
    if args.cert is not None:
        cert = certificate_from_text(read_text(args.cert), path=args.cert)
        validate_certificate(g, cert)
        t_set = cert.T
    else:
        t_set = _parse_id_list(args.set, g.n)
    missed = first_missed(g, t_set)
    if missed is not None:
        print(f"missed: {_ids(missed)}")
        raise VerificationFailure("a maximum independent set avoids the candidate")
    print("verified: true (every maximum independent set hit)")
    return 0


def _cmd_minhit(args, g: Graph) -> int:
    size, witness = min_hitting_set(g)
    print(size)
    print(f"witness: {_ids(witness)}")
    return 0


def _cmd_sample_hit(args, g: Graph) -> int:
    res = sample_hitting_set(g, args.p, args.seed, args.trials, cap=args.cap)
    print(f"p: {res.p}")
    print(f"trials: {res.trials}")
    print(f"fail_rate: {res.fail_rate!r}")
    print(f"union_bound: {res.union_bound!r}")
    print(f"hit_trial: {res.hit_trial if res.hit_trial is not None else '-'}")
    print(f"hit: {_ids(res.hit) if res.hit is not None else '-'}")
    if args.out and res.hit is not None:
        _write_or_print(certificate_to_text(res.to_certificate()), args.out)
    return 0


def _cmd_drc(args, g: Graph) -> int:
    trace = drc_clique(g, args.alpha_density, sharp_beta=args.sharp_beta)
    _write_or_print(trace_to_text(trace), args.out)
    return 0


def _cmd_schedule(args) -> int:
    sched = asymptotic_schedule(args.n, args.s, args.t, args.delta)
    analytic_e_bound(args.n, args.c, sched, 1)  # a bad --c fails before any output
    print(f"n: {args.n}")
    print(f"s: {sched.s}")
    print(f"t: {sched.t}")
    print(f"delta: {sched.delta!r}")
    print(f"bins: {sched.num_bins}")
    print(f"feasible: {str(sched.feasible).lower()}")
    for j in range(1, sched.num_bins + 1):
        lo, hi = sched.log_bins[j - 1]
        print(f"bin {j}: log_k={sched.log_ks[j - 1]!r} log_lo={lo!r} log_hi={hi!r}")
        a_s, a_l = analytic_e_bound(args.n, args.c, sched, j)
        print(f"bin {j}: log_bound_small={a_s!r} log_bound_large={a_l!r}")
    return 0


def _cmd_prob(args) -> int:
    exact, est = prob_low_intersection(args.i_size, args.d, args.k, args.s)
    print(f"exact: {exact!r}")
    print(f"binomial_form: {est!r}")
    return 0


def _cmd_mc_e(args, g: Graph) -> int:
    sched = _schedule(g, args)
    alpha, i_set = alpha_with_witness(g)
    if sched.k > alpha:
        raise PreconditionError(f"sample size k={sched.k} exceeds alpha={alpha}")
    est = monte_carlo_e(g, i_set, sched, args.trials, args.seed)
    print(f"trials: {args.trials}")
    print(f"mean: {est.mean!r}")
    print(f"std_error: {est.std_error!r}")
    return 0


def _cmd_experiment(args) -> int:
    config = load_config(args.config)
    records = run_experiment(config)
    _write_or_print(records_to_csv(records, include_timings=args.include_timings), args.out)
    # a refused cell's row has blank columns; say why, under a prefix that
    # no `error:<kind>:` line has, since the run itself succeeds
    for rec in records:
        if rec.error is not None:
            sys.stderr.write(f"refused cell: {rec.family} n={rec.n} seed={rec.seed}: {rec.error}\n")
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def _add_graph_arg(sub) -> None:
    sub.add_argument("--graph", required=True, help="input graph file")
    sub.add_argument("--format", choices=("auto", "edge-list", "dimacs"), default="auto")


def _add_schedule_args(sub, modes: tuple[str, ...], default: str, help_text: str | None = None) -> None:
    """The graph and the flags `_schedule` reads, for `hit` and `mc-e`."""
    _add_graph_arg(sub)
    for flag in ("--s", "--t", "--k"):
        sub.add_argument(flag, type=int, default=2)
    sub.add_argument("--delta", type=float)
    sub.add_argument("--theta", action="append", default=[], help="degree bin lo:hi, repeatable")
    sub.add_argument("--schedule", choices=modes, default=default, help=help_text)


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="hitlab", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")

    p = subs.add_parser("gen", help="generate a graph from a named family")
    p.add_argument("--family", required=True, choices=tuple(_GEN_FAMILIES))
    p.add_argument("--n", type=int)
    p.add_argument("--sizes", help="clique sizes for cluster, e.g. 3,3,3")
    p.add_argument("--p", type=float, help="edge probability for gnp")
    p.add_argument("--m", type=int, help="target edge count for c4free")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("edge-list", "dimacs"), default="edge-list")
    p.add_argument("--out")
    p.set_defaults(run=_cmd_gen)

    p = subs.add_parser("check-free", help="search for an induced K_{s,t}")
    _add_graph_arg(p)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(run=_cmd_check_free)

    p = subs.add_parser("mis", help="independence number, MIS family, or kernel")
    _add_graph_arg(p)
    p.add_argument("--mode", choices=("alpha", "enumerate", "kernel"), default="alpha")
    p.add_argument("--cap", type=int, default=ENUM_CAP_DEFAULT)
    p.set_defaults(run=_cmd_mis)

    p = subs.add_parser("hit", help="construct a hitting set and print its certificate")
    _add_schedule_args(p, ("explicit", "auto", "asymptotic"), "explicit",
                       "asymptotic reports infeasibility instead of running")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--allow-trivial", action="store_true")
    p.add_argument("--out")
    p.set_defaults(run=_cmd_hit)

    p = subs.add_parser("verify", help="check a hitting set against every MIS")
    _add_graph_arg(p)
    p.add_argument("--cert", help="certificate file to validate and verify")
    p.add_argument("--set", help="explicit vertex ids, e.g. 0,2,4")
    p.set_defaults(run=_cmd_verify)

    p = subs.add_parser("minhit", help="exact minimum hitting set size")
    _add_graph_arg(p)
    p.set_defaults(run=_cmd_minhit)

    p = subs.add_parser("sample-hit", help="uniform p-subset hitting trials")
    _add_graph_arg(p)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=int, default=ENUM_CAP_DEFAULT)
    p.add_argument("--out", help="write the first hitting certificate here")
    p.set_defaults(run=_cmd_sample_hit)

    p = subs.add_parser("drc", help="dense-neighborhood clique extraction trace")
    _add_graph_arg(p)
    p.add_argument("--alpha-density", type=float, required=True)
    p.add_argument("--sharp-beta", action="store_true")
    p.add_argument("--out")
    p.set_defaults(run=_cmd_drc)

    p = subs.add_parser("schedule", help="report the asymptotic parameter point")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--c", type=float, default=0.25)
    p.set_defaults(run=_cmd_schedule)

    p = subs.add_parser("prob", help="escape probability, exact vs binomial form")
    p.add_argument("--i-size", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(run=_cmd_prob)

    p = subs.add_parser("mc-e", help="Monte Carlo estimate of the residual edge count")
    _add_schedule_args(p, ("explicit", "auto"), "auto")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=_cmd_mc_e)

    p = subs.add_parser("experiment", help="sweep graph families into CSV records")
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument("--include-timings", action="store_true")
    p.add_argument("--out")
    p.set_defaults(run=_cmd_experiment)

    return parser


def dispatch(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "run", None) is None:
            raise _UsageError("a subcommand is required (see --help)")
        if "graph" in args:  # declared by _add_graph_arg; each such command starts from its graph
            return args.run(args, load_graph(args.graph, fmt=_fmt_name(args.format)))
        return args.run(args)
    except SystemExit as ex:  # --help
        return int(ex.code or 0)
    except HitlabError as ex:
        sys.stderr.write(f"error:{ex.kind}: {ex}\n")
        return ex.exit_code


def main() -> None:
    try:
        code = dispatch(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout, as `| head` does
        # the interpreter flushes stdout again at exit: let that write go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.stderr.write("error:output: stdout was closed before the output was written\n")
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
