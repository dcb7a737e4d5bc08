"""Command-line interface.

Subcommands: norms | check | sweep | random | construct | search.
Every subcommand takes --format {text,json,csv}. `check` and `sweep` take
--tol-scale, a finite factor >= 0 that multiplies the slack tolerance with
which they decide whether a bound row holds and whether it is tight; the
equality detectors ignore it. `sweep` and `search` accept --threads for
compatibility; it has no effect, since every subcommand runs in the calling
process. Exit codes: 0 success, 1 failed check/violation, 2 usage or input
error. Stdout carries no timing or host details, so identical inputs give
byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from json.encoder import encode_basestring_ascii

from .asymptotics import run_experiment
from .bounds import registry_ids, run_registry
from .errors import PreconditionFailed, SpectranormError
from .fileio import format_matrix_csv, load_subject
from .graphs import _FAMILIES, Graph, family, write_graph6
from .norms import entrywise_norm, spectral_norms
from .search import OBJECTIVE_PARAMS, OBJECTIVES, compare_spread_vs_f2, extremal
from .sweep import run_sweep


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x: float) -> str:
    text = float.__repr__(x)
    return _JSON_NON_FINITE.get(text, text)


# each leaf type's writer, as `json` writes it; a subclass (numpy's float64,
# an IntEnum) is written as its base
_JSON_LEAVES = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _json_float,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _json_key(key) -> str:
    """A dict key as `json` converts it to a string, or its TypeError."""
    if isinstance(key, str):
        return key
    if isinstance(key, (int, float)) or key is None:  # bool is an int
        return _json_text(key, "")
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _json_text(obj, pad: str) -> str:
    """`json.dumps(obj, indent=2)` byte for byte, for obj nested at the
    line prefix `pad`: Python's encoder runs in pure Python once it indents,
    and this walk over the same cases takes about 55% of its time. A
    container writes its leaf items itself and recurses only into the rest."""
    leaves = _JSON_LEAVES
    leaf = leaves.get(type(obj))
    if leaf is not None:
        return leaf(obj)
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [leaves[type(v)](v) if type(v) in leaves else _json_text(v, inner)
                 for v in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [encode_basestring_ascii(k if type(k) is str else _json_key(k)) + ": "
                 + (leaves[type(v)](v) if type(v) in leaves else _json_text(v, inner))
                 for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    for base in (str, int, float):
        if isinstance(obj, base):
            return _JSON_LEAVES[base](obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit_json(obj) -> None:
    """A result record goes in as `vars(record)`: its dataclass fields, in
    declaration order, are the payload's keys, and tuples come out as lists."""
    sys.stdout.write(_json_text(obj, "\n") + "\n")


def _emit_kv_csv(pairs) -> None:
    """key,value rows; a list or tuple value is written as its items joined by `;`."""
    sys.stdout.write("key,value\n")
    for k, v in pairs:
        if isinstance(v, (list, tuple)):
            v = ";".join(map(_fmt, v))
        sys.stdout.write(f"{k},{v}\n")


def _read_input(path: str) -> str:
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _add_common(sub: argparse.ArgumentParser, *, tol_scale: bool = False,
                threads: bool = False) -> None:
    sub.add_argument("--format", choices=("text", "json", "csv"), default="text")
    if tol_scale:
        sub.add_argument("--tol-scale", type=float, default=1.0,
                         help="finite multiplier >= 0 on the slack tolerance (holds / equality); "
                              "the equality detectors ignore it")
    if threads:
        sub.add_argument("--threads", type=int, default=None,
                         help="accepted for compatibility; has no effect, the scan "
                              "runs in one process")


@functools.cache  # parsing leaves the parser as it was, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectranorm",
        description="Schatten/Ky Fan norms of graphs and matrices, "
                    "bound checking, and exhaustive small-order search",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("norms", help="print norms of a graph or matrix")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--p", type=float, action="append")
    p.add_argument("--k", type=int, action="append")
    _add_common(p)

    p = subs.add_parser("check", help="evaluate bound registry rows")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--bound", action="append", choices=registry_ids(),
                   help="bound id (repeatable; default: whole registry)")
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--k", type=int, default=1)
    _add_common(p, tol_scale=True)

    p = subs.add_parser("sweep", help="verify all bounds over all order-N graphs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, action="append")
    p.add_argument("--k", type=int, action="append")
    p.add_argument("--canonical", action="store_true",
                   help="scan only canonical isomorphism-class representatives")
    _add_common(p, tol_scale=True, threads=True)

    p = subs.add_parser("random", help="Monte Carlo Schatten norms of G(n,1/2)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=5)
    p.add_argument("--seed", type=int, required=True)
    _add_common(p)

    p = subs.add_parser("construct", help="emit a named graph (graph6) or matrix (CSV)")
    p.add_argument("--family", required=True, help=" | ".join(_FAMILIES))
    p.add_argument("--params", default="",
                   help="comma-separated integer parameters")
    p.add_argument("--in", dest="infile",
                   help="base graph for blow_up / with_isolated")
    _add_common(p)

    p = subs.add_parser("search", help="exhaustive extremal search over order-N graphs")
    p.add_argument("--objective", required=True, choices=OBJECTIVES + ("SPREAD_VS_F2",))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--canonical", action="store_true")
    _add_common(p, threads=True)

    return parser


# --- subcommand bodies ------------------------------------------------------------

def _cmd_norms(args) -> int:
    subject = load_subject(_read_input(args.infile))
    p_list = args.p or [1.0, 2.0]
    k_list = args.k or [1, 2]
    schatten, kyfan = spectral_norms(subject, p_list, k_list)
    results = {
        "input": args.infile,
        "kind": "graph" if isinstance(subject, Graph) else "matrix",
        "schatten": {_fmt(p): v for p, v in zip(p_list, schatten)},
        "kyfan": {str(k): v for k, v in zip(k_list, kyfan)},
        "entrywise": {_fmt(p): entrywise_norm(subject, p) for p in p_list},
    }
    results["entrywise"]["inf"] = entrywise_norm(subject, math.inf)
    if args.format == "json":
        _emit_json(results)
    elif args.format == "csv":
        pairs = []
        for kind in ("schatten", "kyfan", "entrywise"):
            pairs += [(f"{kind}_{key}", v) for key, v in results[kind].items()]
        _emit_kv_csv(pairs)
    else:
        print(f"input: {args.infile} ({results['kind']})")
        for p in p_list:
            print(f"schatten p={_fmt(p)}: {_fmt(results['schatten'][_fmt(p)])}")
        for k in k_list:
            print(f"kyfan   k={k}: {_fmt(results['kyfan'][str(k)])}")
        for p in p_list:
            print(f"entrywise p={_fmt(p)}: {_fmt(results['entrywise'][_fmt(p)])}")
        print(f"entrywise p=inf: {_fmt(results['entrywise']['inf'])}")
    return 0


def _print_check_text(checks) -> None:
    for c in checks:
        if c.skipped:
            print(f"SKIP  {c.bound_id} {c.params}: {c.skip_reason}")
            continue
        status = "OK " if c.holds else "FAIL"
        eq = " EQUALITY" if c.equality else ""
        print(f"{status}  {c.bound_id} {c.params}: lhs={_fmt(c.lhs)} "
              f"rhs={_fmt(c.rhs)} slack={_fmt(c.slack)}{eq}")
        if c.equality and c.equality_witness:
            print(f"      witness: {c.equality_witness}")


def _cmd_check(args) -> int:
    subject = load_subject(_read_input(args.infile))
    checks = run_registry(subject, bound_ids=args.bound, p_values=(args.p,),
                          q_values=(args.q,), k_values=(args.k,), tol_scale=args.tol_scale)
    if args.format == "json":
        _emit_json({"input": args.infile, "checks": [vars(c) for c in checks]})
    elif args.format == "csv":
        sys.stdout.write("bound_id,params,lhs,rhs,slack,holds,equality,skipped,skip_reason\n")
        for c in checks:
            params = ";".join(f"{k}={_fmt(v)}" for k, v in c.params.items())
            sys.stdout.write(
                f"{c.bound_id},{params},{_fmt(c.lhs)},{_fmt(c.rhs)},{_fmt(c.slack)},"
                f"{c.holds},{c.equality},{c.skipped},{c.skip_reason or ''}\n")
    else:
        _print_check_text(checks)
    return 0 if all(c.holds for c in checks if not c.skipped) else 1


def _cmd_sweep(args) -> int:
    p_values = tuple(args.p) if args.p else (1.0, 1.5, 2.0, 3.0)
    k_values = tuple(args.k) if args.k else (1, 2, 3)
    report = run_sweep(args.n, p_values, k_values, tol_scale=args.tol_scale,
                       canonical=args.canonical)
    if args.format == "json":
        _emit_json({**vars(report), "rows": [vars(r) for r in report.rows]})
    elif args.format == "csv":
        sys.stdout.write("bound_id,params,evaluated,skipped,violations,"
                         "min_slack,equality_count\n")
        for r in report.rows:
            params = ";".join(f"{k}={_fmt(v)}" for k, v in r.params.items())
            ms = "" if r.min_slack is None else _fmt(r.min_slack)
            sys.stdout.write(f"{r.bound_id},{params},{r.evaluated},{r.skipped},"
                             f"{r.violations},{ms},{r.equality_count}\n")
    else:
        print(f"sweep n={report.n} graphs={report.graphs_scanned} "
              f"violations={report.total_violations}")
        for r in report.rows:
            cell = " ".join([r.bound_id, *(f"{k}={_fmt(v)}" for k, v in r.params.items())])
            if r.evaluated == 0:
                print(f"  SKIP {cell}: {r.skip_reason or 'not applicable'}")
                continue
            ms = "" if r.min_slack is None else f" min_slack={_fmt(r.min_slack)}"
            print(f"  {cell}: evaluated={r.evaluated} "
                  f"violations={r.violations}{ms} equalities={r.equality_count}")
            for ex in r.equality_examples[:3]:
                print(f"      equality example {ex['graph6']} "
                      f"(confirmed={ex['equality']})")
    return 0 if report.total_violations == 0 else 1


def _cmd_random(args) -> int:
    stats = run_experiment(args.n, args.p, args.samples, args.seed)
    if args.format == "json":
        _emit_json(vars(stats))
    elif args.format == "csv":
        _emit_kv_csv(vars(stats).items())
    else:
        print(f"G(n=1/2) experiment: n={stats.n} p={_fmt(stats.p)} "
              f"samples={stats.samples} seed={stats.seed}")
        print(f"values: {' '.join(_fmt(v) for v in stats.values)}")
        print(f"mean={_fmt(stats.mean)} stdev={_fmt(stats.stdev)} "
              f"normalized={_fmt(stats.normalized)}")
        print(f"sigma1/n: {' '.join(_fmt(v) for v in stats.sigma1_over_n)}")
        print(f"sigma2/sqrt(n): {' '.join(_fmt(v) for v in stats.sigma2_over_sqrt_n)}")
    return 0


def _cmd_construct(args) -> int:
    params = [int(tok) for tok in args.params.replace(",", " ").split()] if args.params else []
    if args.family in ("blow_up", "with_isolated"):
        if not args.infile:
            raise PreconditionFailed(f"{args.family} needs a base graph via --in")
        base = load_subject(_read_input(args.infile))
        if not isinstance(base, Graph):
            raise PreconditionFailed(f"{args.family} needs a graph input")
        params = [base, params[0] if params else 1]
    out = family(args.family, params)
    sys.stdout.write(write_graph6(out) + "\n" if isinstance(out, Graph) else format_matrix_csv(out))
    return 0


def _cmd_search(args) -> int:
    if args.objective == "SPREAD_VS_F2":
        rep = compare_spread_vs_f2(args.n)
        if args.format == "json":
            _emit_json(vars(rep))
        elif args.format == "csv":
            _emit_kv_csv(vars(rep).items())
        else:
            print(f"n={rep.n}: max spread={_fmt(rep.max_spread)} "
                  f"max kyfan2={_fmt(rep.max_kyfan2)} coincide={rep.maxima_coincide}")
            print(f"identity max gap: {_fmt(rep.identity_max_gap)}")
            print(f"spread witnesses: {' '.join(rep.spread_witnesses)}")
            print(f"kyfan2 witnesses: {' '.join(rep.kyfan2_witnesses)}")
        return 0
    name = OBJECTIVE_PARAMS.get(args.objective)
    param = None if name is None else getattr(args, name)
    if name is not None and param is None:
        raise PreconditionFailed(f"{args.objective} needs --{name}")
    record = extremal(args.objective, args.n, param, canonical=args.canonical)
    if args.format == "json":
        _emit_json(vars(record))
    elif args.format == "csv":
        _emit_kv_csv(vars(record).items())
    else:
        param_str = "" if record.param is None else f" param={_fmt(record.param)}"
        print(f"{record.objective} n={record.n}{param_str}: value={_fmt(record.value)}")
        print(f"witnesses ({record.witness_count}): "
              f"{' '.join(record.witnesses[:10])}")
        print(f"graphs scanned: {record.graphs_scanned}")
        print(record.notes)
    return 0


_COMMANDS = {
    "norms": _cmd_norms,
    "check": _cmd_check,
    "sweep": _cmd_sweep,
    "random": _cmd_random,
    "construct": _cmd_construct,
    "search": _cmd_search,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # downstream consumer (e.g. head) closed the pipe; not an error, but
        # stdout must be detached or the interpreter's exit flush fails too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except (SpectranormError, ValueError, OSError) as exc:
        if getattr(args, "format", "text") == "json":
            _emit_json({"error": {"type": type(exc).__name__, "message": str(exc)}})
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
