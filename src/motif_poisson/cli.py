"""Command-line interface.

Subcommands: ``motif`` (exact invariants), ``bound`` (total-variation
bounds), ``count`` (exact counting), ``simulate`` (seeded replicate
ensembles), ``tables`` (invariant and rate tables for the builtin
families).  Every command is deterministic given its flags and seed;
emitted JSON is byte-stable across reruns and ``--threads`` values, with
timestamps opt-in via ``--stamp``.

Exit codes: 1 usage, 2 invalid motif or model parameters, 3 bound
precondition not met (motif not strictly balanced).
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import (
    NuTable,
    bound_graphon,
    bound_independent_edges,
    bound_nu,
    bound_sbm,
    bound_scaled,
    rate_exponent,
)
from .counting import count_copies, count_copies_bruteforce
from .errors import (
    InvalidMotifError,
    InvalidParams,
    MotifPoissonError,
    NotStrictlyBalanced,
    known_keys,
)
from .models import SAMPLER_VERSION, GraphonSpec, SbmParams, graph_from_edge_text
from .motif import (
    BUILTIN_FAMILIES,
    Motif,
    builtin_motif,
    compute_stats,
    motif_from_string,
    motif_from_text,
    stats_to_dict,
)
from .simulate import SimulationPlan, histogram_csv, run

EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_PRECONDITION = 3

_SEED_ENV = "MOTIF_POISSON_SEED"


class _Parser(argparse.ArgumentParser):
    # no prefixes, or an abbreviated --threads would reach the manifest;
    # set here because add_parser does not pass allow_abbrev down
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load_motif(spec: str) -> Motif:
    """A ``family:v`` builtin reference or a path to edge-list text."""
    if not isinstance(spec, str):
        raise InvalidMotifError(
            f"motif must be a family:v string or a file path, got {spec!r}"
        )
    if ":" in spec:
        return motif_from_string(spec)
    path = Path(spec)
    if not path.exists():
        raise InvalidMotifError(
            f"{spec!r} is neither a family:v builtin nor an existing file"
        )
    return motif_from_text(path.read_text())


def _json_object(text: str, what: str) -> dict:
    """The JSON object in ``text``; InvalidParams for anything else."""
    try:
        data = json.loads(text)
    except RecursionError:
        raise InvalidParams(f"{what} JSON is nested too deeply") from None
    if type(data) is not dict:
        raise InvalidParams(f"{what} JSON must be an object")
    return data


def _load_model(spec: str | dict) -> SbmParams | GraphonSpec:
    """A JSON object, given as a dict, as inline text (starts with '{') or
    as a path to a JSON file; block-model configs carry a 'Q' key, graphon
    configs a 'family' key."""
    data = spec
    if isinstance(spec, str):
        text = spec if spec.lstrip().startswith("{") else Path(spec).read_text()
        data = _json_object(text, "model")
    elif type(spec) is not dict:
        raise InvalidParams("model must be a JSON object")
    if "Q" in data:
        return SbmParams.from_dict(data)
    if "family" in data:
        return GraphonSpec.from_dict(data)
    raise InvalidParams("model JSON needs either a 'Q' (SBM) or 'family' key")


_OPERATIONAL_FLAGS = {"--out", "--threads", "--hist-csv"}


def _recorded_command(argv: list[str]) -> list[str]:
    """The parsed argv without the flags that steer execution but not the
    computation (``--flag value`` or ``--flag=value``), so equal
    computations produce equal manifests."""
    out: list[str] = []
    skip = False
    for token in argv:
        if skip:
            skip = False
            continue
        flag, eq, _ = token.partition("=")
        if flag in _OPERATIONAL_FLAGS:
            skip = not eq
            continue
        out.append(token)
    return out


def _manifest(args: argparse.Namespace, config: dict, stamp: bool) -> dict:
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return {
        "command": _recorded_command(args.argv),
        "config_hash": hashlib.sha256(blob).hexdigest(),
        "seed": config.get("seed"),
        "versions": {
            "motif_poisson": __version__,
            "numpy": np.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
            "sampler": SAMPLER_VERSION,
        },
        "timestamp": (
            datetime.datetime.now(datetime.timezone.utc).isoformat()
            if stamp
            else None
        ),
    }


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# ------------------------------------------------------------- commands


def _cmd_motif(args) -> int:
    m = _load_motif(args.motif)
    stats = compute_stats(m)
    if args.format == "json":
        payload = {
            "motif": {
                "vertex_count": m.vertex_count,
                "edge_count": m.edge_count,
                "edges": [list(e) for e in m.edges],
            },
            "stats": stats_to_dict(stats),
            "manifest": _manifest(args, {"motif": args.motif}, args.stamp),
        }
        _emit(payload, args.out)
    else:
        print(f"motif: v={m.vertex_count} e={m.edge_count}")
        print(f"  density            {stats.density}")
        print(f"  alpha              {stats.alpha}")
        print(f"  gamma              {stats.gamma}")
        for name in ("alpha", "gamma"):
            edges = getattr(stats, f"{name}_witness")
            print(f"  {name}_witness      " + " ".join(f"{a}-{b}" for a, b in edges))
        print(f"  strictly_balanced  {stats.strictly_balanced}")
        print(f"  automorphisms      {stats.automorphism_count}")
        print(f"  rho                {stats.rho}")
        for s in sorted(stats.kappa):
            print(f"  kappa({s})           {stats.kappa[s]}")
    return 0


def _cmd_bound(args) -> int:
    m = _load_motif(args.motif)
    config = {
        "motif": args.motif,
        "model": args.model,
        "n": args.n,
        "variant": args.variant,
    }
    inputs: dict = {
        "motif": {"vertex_count": m.vertex_count, "edges": [list(e) for e in m.edges]},
        "n": args.n,
    }
    if args.variant == "scaled":
        if args.c is None or args.C is None:
            raise InvalidParams("variant scaled requires --c and --C")
        report = bound_scaled(m, args.n, args.c, args.C)
        inputs.update(c=args.c, C=args.C)
    elif args.variant == "independent":
        if args.nu_max is None:
            raise InvalidParams("variant independent requires --nu-max")
        report = bound_independent_edges(m, args.n, args.nu_max)
        inputs.update(nu_max=args.nu_max)
    elif args.variant == "nu":
        if args.nu_table is None or args.mu is None:
            raise InvalidParams("variant nu requires --nu-table and --mu")
        text = Path(args.nu_table).read_text()
        table = NuTable.from_dict(_json_object(text, "nu-table"))
        report = bound_nu(m, args.n, args.g, args.mu, table)
        inputs.update(g=args.g, mu=args.mu, nu_table=table.to_dict())
    else:
        if args.model is None:
            raise InvalidParams("variant auto requires --model")
        model = _load_model(args.model)
        bound = bound_sbm if isinstance(model, SbmParams) else bound_graphon
        report = bound(model, m, args.n)
        inputs.update(model=model.to_dict())
    reported = report.to_dict()
    inputs["variant"] = reported["variant"]
    payload = {
        "report": reported,
        "stats": stats_to_dict(compute_stats(m)),
        "inputs": inputs,
        "manifest": _manifest(args, config, args.stamp),
    }
    _emit(payload, args.out)
    return 0


def _cmd_count(args) -> int:
    m = _load_motif(args.motif)
    graph = graph_from_edge_text(Path(args.graph).read_text(), n=args.n)
    counter = count_copies_bruteforce if args.bruteforce else count_copies
    count = counter(graph, m)
    payload = {
        "count": count,
        "injections": count * compute_stats(m).automorphism_count,
        "graph": {"n": graph.n, "edges": graph.edge_count},
        "manifest": _manifest(
            args, {"motif": args.motif, "graph": args.graph}, args.stamp
        ),
    }
    _emit(payload, args.out)
    return 0


def _cmd_simulate(args) -> int:
    config = {
        "model": args.model,
        "motif": args.motif,
        "n": args.n,
        "replicates": args.replicates,
        "seed": args.seed,
    }
    if args.config:
        file_cfg = _json_object(Path(args.config).read_text(), "simulate config")
        known_keys(file_cfg, tuple(config), "simulate config")
        config.update({k: v for k, v in file_cfg.items() if v is not None})
    if config.get("seed") is None:
        config["seed"] = int(os.environ.get(_SEED_ENV, "0"))
    for key in ("model", "motif", "n", "replicates"):
        if config.get(key) is None:
            raise InvalidParams(f"simulate requires {key} (flag or --config)")
    model = _load_model(config["model"])
    m = _load_motif(config["motif"])
    plan = SimulationPlan(
        model=model,
        motif=m,
        n=config["n"],
        replicates=config["replicates"],
        seed=config["seed"],
    )
    summary = run(plan, threads=args.threads)
    if args.hist_csv:
        Path(args.hist_csv).write_text(histogram_csv(summary.histogram), newline="")
    payload = {
        "summary": summary.to_dict(deterministic=not args.stamp),
        "inputs": {
            "model": model.to_dict(),
            "motif": {
                "vertex_count": m.vertex_count,
                "edges": [list(e) for e in m.edges],
            },
            "n": plan.n,
            "replicates": plan.replicates,
            "seed": plan.seed,
        },
        "manifest": _manifest(args, config, args.stamp),
    }
    _emit(payload, args.out)
    print(
        f"simulate: {plan.replicates} replicates in {summary.wall_time:.2f}s",
        file=sys.stderr,
    )
    return 0


def _parse_v_range(text: str) -> range:
    lo, _, hi = text.partition("..")
    if not (lo.isdecimal() and (hi or lo).isdecimal()) or int(lo) > int(hi or lo):
        raise InvalidParams(f"--v-range {text!r} is not lo..hi with lo <= hi")
    return range(int(lo), int(hi or lo) + 1)


def _cmd_tables(args) -> int:
    rows = []
    for v in _parse_v_range(args.v_range):
        for family in BUILTIN_FAMILIES:
            m = builtin_motif(family, v)
            st = compute_stats(m)
            rate = rate_exponent(m) if st.strictly_balanced else None
            rows.append(
                (
                    family,
                    v,
                    str(st.density),
                    str(st.alpha),
                    str(st.gamma),
                    str(rate) if rate is not None else "-",
                )
            )
    header = ("family", "v", "d", "alpha", "gamma", "rate_exponent")
    widths = [
        max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))
    ]
    def fmt(row):
        return "  ".join(str(x).ljust(w) for x, w in zip(row, widths)).rstrip()
    print(fmt(header))
    for row in rows:
        print(fmt(row))
    return 0


# --------------------------------------------------------------- parser


def _build_parser() -> _Parser:
    p = _Parser(
        prog="motif-poisson",
        description=(
            "Poisson-approximation bounds and exact counts for motif "
            "occurrences in block-model and graphon random graphs."
        ),
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("--out", help="write JSON here instead of stdout")
        sp.add_argument(
            "--stamp",
            action="store_true",
            help="include wall-clock data in output (breaks byte determinism)",
        )

    sp = sub.add_parser("motif", help="exact invariants of a motif")
    sp.add_argument("motif", help="family:v builtin or edge-list file")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    common(sp)
    sp.set_defaults(func=_cmd_motif)

    sp = sub.add_parser("bound", help="total-variation bound report")
    sp.add_argument("--motif", required=True)
    sp.add_argument("--model", help="model JSON (inline or file)")
    sp.add_argument("-n", type=int, required=True, help="graph size")
    sp.add_argument(
        "--variant",
        choices=("auto", "nu", "independent", "scaled"),
        default="auto",
    )
    sp.add_argument("--nu-table", help="JSON table for variant nu")
    sp.add_argument("--g", type=int, default=1, help="dependence width for nu")
    sp.add_argument("--mu", type=float, help="occurrence probability for nu")
    sp.add_argument("--nu-max", type=float, help="max edge mean (independent)")
    sp.add_argument("--c", type=float, help="lower scaling constant (scaled)")
    sp.add_argument("--C", type=float, help="upper scaling constant (scaled)")
    common(sp)
    sp.set_defaults(func=_cmd_bound)

    sp = sub.add_parser("count", help="count motif copies in a graph file")
    sp.add_argument("--motif", required=True)
    sp.add_argument("--graph", required=True, help="edge-list text file")
    sp.add_argument("-n", type=int, help="vertex count override")
    sp.add_argument(
        "--bruteforce", action="store_true", help="use the oracle counter"
    )
    common(sp)
    sp.set_defaults(func=_cmd_count)

    sp = sub.add_parser("simulate", help="seeded replicate ensemble")
    sp.add_argument("--config", help="JSON plan file; overrides flags")
    sp.add_argument("--model")
    sp.add_argument("--motif")
    sp.add_argument("-n", type=int)
    sp.add_argument("-R", "--replicates", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument(
        "--threads", type=int, default=1, help="accepted (>= 1) with no effect"
    )
    sp.add_argument("--hist-csv", help="also write the histogram as CSV here")
    common(sp)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("tables", help="invariant and rate tables")
    sp.add_argument("--v-range", default="3..7", help="e.g. 3..7")
    sp.set_defaults(func=_cmd_tables)

    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(argv)
    args.argv = argv
    try:
        return args.func(args)
    except NotStrictlyBalanced as exc:
        print(f"motif-poisson: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (MotifPoissonError, ValueError, OSError) as exc:
        print(f"motif-poisson: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
