"""Values from outside: every CLI invocation ends in an exit code, and
valid models and tables survive a JSON round trip."""

import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motif_poisson import (
    MAX_GRAPH_VERTICES,
    GraphonSpec,
    InvalidMotifError,
    InvalidParams,
    MotifPoissonError,
    NuTable,
    SampledGraph,
    SbmParams,
    SimulationPlan,
    bound_nu,
    bound_graphon,
    bound_sbm,
    bound_scaled,
    builtin_motif,
    compute_stats,
    copy_indicators,
    count_copies,
    count_copies_bruteforce,
    erdos_renyi,
    graph_from_edge_text,
    graphon_to_sbm,
    h_star,
    lambda_value,
    motif_from_string,
    mu_graphon,
    mu_sbm,
    poisson_pmf,
    sample_graphon,
    sample_sbm,
    tv_standard_error,
)
from motif_poisson.cli import main
from motif_poisson.models import sample_batches
from motif_poisson.motif import stabiliser_orbits

HUGE = [10**k for k in (19, 120, 154, 155, 200, 308, 309, 310, 400)]
#: Graph sizes that are refused before anything is sampled.
OVERSIZE = [MAX_GRAPH_VERTICES + 1, 10**400]


def mostly(valid, invalid):
    """``valid`` about three draws in four, ``invalid`` otherwise (one_of
    would merge the repeated branches)."""
    return st.sampled_from([valid, valid, valid, invalid]).flatmap(lambda s: s)


probs = st.one_of(st.sampled_from([0.0, 0.01, 0.1, 0.5, 1.0]), st.floats(0, 1))
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 4),
    st.integers(-(10**400), 10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
)
json_values = st.recursive(
    scalars,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=10,
)
#: JSON values that are never integers, so a plan field drawn from them
#: cannot ask for a large graph or many replicates.
not_ints = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.lists(st.integers(0, 50), max_size=2),
)
any_ints = st.one_of(st.integers(-(10**400), 10**400), st.sampled_from(HUGE))
int_texts = mostly(st.integers(3, 200), any_ints).map(str)
float_texts = mostly(
    probs.map(repr),
    st.one_of(
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.sampled_from(["1e400", "-1e400", "1e-400", "nan", "-0.0"]),
        any_ints.map(str),
        st.text(max_size=3),
    ),
)


def symmetric(draw, q: int) -> list[list[float]]:
    """A q x q symmetric matrix of probabilities."""
    upper = {(a, b): draw(probs) for a in range(q) for b in range(a, q)}
    return [[upper[min(a, b), max(a, b)] for b in range(q)] for a in range(q)]


@st.composite
def valid_models(draw):
    kind = draw(st.sampled_from(["sbm", "product", "affine_mean", "piecewise"]))
    if kind in ("product", "affine_mean"):
        return {"family": kind, "c": draw(probs)}
    q = draw(st.integers(1, 3))
    pi = symmetric(draw, q)
    if kind == "sbm":
        return {"Q": q, "f": [1.0 / q] * q, "pi": pi}
    breakpoints = [i / q for i in range(q + 1)]
    return {"family": "piecewise_constant", "breakpoints": breakpoints, "values": pi}


@st.composite
def models(draw):
    """A valid model, one with a field replaced or dropped, or any JSON."""
    model = draw(valid_models())
    how = draw(mostly(st.just("keep"), st.sampled_from(["replace", "drop", "any"])))
    key = draw(st.sampled_from(sorted(model)))
    if how == "replace":
        model[key] = draw(json_values)
    elif how == "drop":
        del model[key]
    return draw(json_values) if how == "any" else model


def edge_text(labels: int):
    pair = st.tuples(st.integers(0, labels), st.integers(0, labels))
    junk = st.one_of(
        st.sampled_from(["# comment", "", "0 99999999", "-1 2", "0 1 2", "1 1"]),
        st.text(max_size=4),
    )
    line = mostly(pair.map("{0[0]} {0[1]}".format), junk)
    return st.lists(line, max_size=8).map(lambda lines: "\n".join(lines) + "\n")


def write(root: Path, name: str, text: str) -> str:
    """Write ``text`` to ``root/name`` and return the path."""
    path = root / name
    path.write_text(text)
    return str(path)


def motif_arg(data, root, max_v):
    """A ``family:v`` spec, a motif file or any text; never more than
    ``max_v`` vertices."""
    kind = data.draw(mostly(st.just("spec"), st.sampled_from(["bad", "file", "text"])))
    if kind == "file":
        return write(root, "motif.txt", data.draw(edge_text(max_v - 1)))
    if kind == "text":
        return data.draw(st.text(max_size=4))
    if kind == "spec":
        families, sizes = ["complete", "cycle", "tree", "almost_complete"], (3, max_v)
    else:
        families, sizes = ["star", "", "complete:3", "cycle"], (-1, max_v)
    return f"{data.draw(st.sampled_from(families))}:{data.draw(st.integers(*sizes))}"


def model_arg(data, root):
    bad = st.sampled_from(["file", "deep", "text"])
    kind = data.draw(mostly(st.just("inline"), bad))
    if kind == "deep":
        return '{"Q": 1, "x": ' + "[" * 10**5 + "]" * 10**5 + "}"
    if kind == "text":
        return data.draw(st.text(max_size=20))
    text = json.dumps(data.draw(models()))
    return text if kind == "inline" else write(root, "model.json", text)


def nu_table_path(data, root, motif):
    """The power table of the motif (when it is a builtin spec), now and
    then with a field replaced, plus rows of any shape."""
    try:
        m = motif_from_string(motif)
        rows = NuTable.from_power(data.draw(probs), m).to_dict()["entries"]
    except (ValueError, MotifPoissonError):
        rows = []
    for row in rows:
        if data.draw(st.integers(0, 9)) == 0:
            row[data.draw(st.sampled_from(sorted(row)))] = data.draw(json_values)
    extra = st.fixed_dictionaries(
        {
            "k": st.one_of(st.sampled_from(["1", "3/2", "1e0", "1/0", "x"]), scalars),
            "v": st.one_of(st.integers(0, 6), scalars),
            "s": st.one_of(st.integers(0, 3), scalars),
            "value": st.one_of(probs, scalars),
        }
    )
    if data.draw(st.integers(0, 3)) == 0:
        rows += data.draw(st.lists(st.one_of(extra, json_values), max_size=2))
    table = data.draw(mostly(st.just({"entries": rows}), json_values))
    return write(root, "nu.json", json.dumps(table))


def bound_argv(data, root):
    motif = motif_arg(data, root, max_v=6)
    variant = data.draw(st.sampled_from(["auto", "nu", "independent", "scaled"]))
    argv = ["bound", "--motif", motif, "-n", data.draw(int_texts), "--variant", variant]
    wanted = {
        "auto": ["--model"],
        "nu": ["--nu-table", "--mu", "--g"],
        "independent": ["--nu-max"],
        "scaled": ["--c", "--C"],
    }[variant]
    for flag in ("--model", "--nu-table", "--mu", "--g", "--nu-max", "--c", "--C"):
        if data.draw(st.integers(0, 9)) >= (9 if flag in wanted else 1):
            continue
        if flag == "--model":
            value = model_arg(data, root)
        elif flag == "--nu-table":
            value = nu_table_path(data, root, motif)
        elif flag == "--g":
            value = data.draw(mostly(st.integers(1, 3).map(str), int_texts))
        else:
            value = data.draw(float_texts)
        argv.append(f"{flag}={value}")
    return argv


def simulate_argv(data, root):
    """Plans that would sample stay at n <= 40, R <= 4 and v <= 4, since
    the replicate count has no ceiling."""
    small_n = mostly(st.integers(3, 40), st.sampled_from([-3, 0, 2, *OVERSIZE]))
    small_r = mostly(st.integers(1, 4), st.integers(-2, 0))
    seed = mostly(st.integers(0, 2**64 - 1), any_ints)
    argv = ["simulate", "--threads", data.draw(st.sampled_from(["1", "2", "0", "-1"]))]
    for flag, value in (
        ("--model", lambda: model_arg(data, root)),
        ("--motif", lambda: motif_arg(data, root, max_v=4)),
        ("-n", lambda: str(data.draw(small_n))),
        ("-R", lambda: str(data.draw(small_r))),
        ("--seed", lambda: str(data.draw(seed))),
    ):
        if data.draw(st.integers(0, 9)) > 0:
            argv.append(f"{flag}={value()}")
    if data.draw(st.integers(0, 3)) == 0:
        plan = {
            "model": st.one_of(models(), st.text(max_size=4)),
            "motif": st.sampled_from(["complete:3", "cycle:4", "tree:4", "x"]),
            "n": mostly(small_n, not_ints),
            "replicates": mostly(small_r, not_ints),
            "seed": mostly(seed, not_ints),
        }
        keys = data.draw(st.lists(st.sampled_from(sorted(plan)), unique=True))
        config = {k: data.draw(plan[k]) for k in keys}
        text = json.dumps(data.draw(mostly(st.just(config), json_values)))
        argv.append(f"--config={write(root, 'plan.json', text)}")
    if data.draw(st.integers(0, 4)) == 0:
        csv = st.sampled_from(["/nonexistent/dir/h.csv", write(root, "h.csv", "")])
        argv.append(f"--hist-csv={data.draw(csv)}")
    return argv


def count_argv(data, root):
    argv = ["count", "--motif", motif_arg(data, root, max_v=6)]
    argv += ["--graph", write(root, "graph.txt", data.draw(edge_text(30)))]
    if data.draw(st.booleans()):
        n = mostly(st.integers(-3, 40), st.sampled_from(OVERSIZE))
        argv.append(f"-n={data.draw(n)}")
    return argv


def motif_or_tables_argv(data, root):
    if data.draw(st.booleans()):
        fmt = data.draw(st.sampled_from(["json", "text"]))
        return ["motif", motif_arg(data, root, max_v=7), "--format", fmt]
    lo_hi = st.tuples(st.integers(0, 8), st.integers(0, 8))
    v_range = mostly(lo_hi.map("{0[0]}..{0[1]}".format), st.text(max_size=5))
    return ["tables", f"--v-range={data.draw(v_range)}"]


def _not_finite(token):
    raise AssertionError(f"non-finite number {token} in output")


def _finite_float(text):
    value = float(text)
    assert math.isfinite(value), f"non-finite number {text} in output"
    return value


@settings(derandomize=True, max_examples=450, deadline=None)
@given(st.data())
def test_cli_ends_in_an_exit_code(data):
    """Whatever the arguments, ``main`` returns 0-3 or argparse exits 1
    with its usage line, and every JSON it prints holds finite numbers."""
    command = data.draw(
        st.sampled_from([bound_argv, simulate_argv, count_argv, motif_or_tables_argv])
    )
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = command(data, Path(tmp))
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert "usage:" in err.getvalue()
    if code != 0:
        assert out.getvalue() == ""
    elif argv[0] in ("bound", "count", "simulate") or "json" in argv:
        text = out.getvalue()
        json.loads(text, parse_constant=_not_finite, parse_float=_finite_float)


# ----------------------------------------------------------- round trips


@st.composite
def sbm_params(draw):
    q = draw(st.integers(1, 4))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=q, max_size=q))
    f = tuple(w / math.fsum(weights) for w in weights)
    return SbmParams(q, f, symmetric(draw, q))


@st.composite
def graphon_specs(draw):
    family = draw(st.sampled_from(["product", "affine_mean", "piecewise_constant"]))
    if family != "piecewise_constant":
        return GraphonSpec(family, scale=draw(probs))
    inner = draw(st.lists(st.floats(0.001, 0.999), max_size=3, unique=True))
    breakpoints = (0.0, *sorted(inner), 1.0)
    values = symmetric(draw, len(breakpoints) - 1)
    return GraphonSpec(family, breakpoints=breakpoints, values=values)


nu_tables = st.dictionaries(
    st.tuples(
        st.fractions(min_value=0, max_value=20, max_denominator=9),
        st.integers(0, 45),
        st.integers(0, 10),
    ),
    probs,
    max_size=6,
).map(NuTable)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.one_of(sbm_params(), graphon_specs(), nu_tables))
def test_from_dict_inverts_to_dict(x):
    """``from_dict(to_dict(x)) == x``, through JSON text."""
    assert type(x).from_dict(json.loads(json.dumps(x.to_dict()))) == x


K3 = motif_from_string("complete:3")
G10 = sample_sbm(erdos_renyi(0.5), 10, 1)
#: Each integer argument of a library entry point, as the call with ``x``
#: in its place, and a valid value of it.
INTEGER_ARGUMENTS = {
    "sample_sbm n": (lambda x: sample_sbm(erdos_renyi(0.3), x, 7), 10),
    "sample_sbm seed": (lambda x: sample_sbm(erdos_renyi(0.3), 10, x), 1),
    "sample_graphon n": (
        lambda x: sample_graphon(GraphonSpec("product", 0.9), x, 7),
        10,
    ),
    "sample_graphon seed": (
        lambda x: sample_graphon(GraphonSpec("product", 0.9), 10, x),
        1,
    ),
    "bound_sbm n": (lambda x: bound_sbm(erdos_renyi(0.01), K3, x).to_dict(), 100),
    "lambda_value n": (lambda x: lambda_value(K3, x, 0.001), 100),
    "bound_scaled n": (lambda x: bound_scaled(K3, x, 0.5, 2.0).to_dict(), 100),
    "bound_nu g": (
        lambda x: bound_nu(K3, 100, x, 1e-6, NuTable.from_power(0.01, K3)).to_dict(),
        2,
    ),
    "graph_from_edge_text n": (lambda x: graph_from_edge_text("0 1\n", x), 5),
    "has_edge u": (lambda x: G10.has_edge(x, 1), 0),
    "has_edge v": (lambda x: G10.has_edge(0, x), 1),
    "copy_indicators vertex": (lambda x: copy_indicators(G10, K3, (0, 1, x)), 2),
    "sample_batches seed": (
        lambda x: next(sample_batches(erdos_renyi(0.3), 20, [x])).rows.tobytes(),
        1,
    ),
    "tv_standard_error replicates": (
        lambda x: tv_standard_error({0: 0.5, 1: 0.5}, x, 1.0, 7),
        10,
    ),
    "tv_standard_error seed": (
        lambda x: tv_standard_error({0: 0.5, 1: 0.5}, 10, 1.0, x),
        7,
    ),
    "poisson_pmf k": (lambda x: poisson_pmf(1.0, x), 2),
}


@pytest.mark.parametrize("name", list(INTEGER_ARGUMENTS))
@pytest.mark.parametrize("how", ["half", "float", "bool", "str"])
def test_integer_arguments_refuse_other_types(name, how):
    # a float, a bool or a string is never read as the integer near it
    call, good = INTEGER_ARGUMENTS[name]
    bad = {"half": good + 0.5, "float": float(good), "bool": True, "str": str(good)}
    with pytest.raises(InvalidParams, match="must be an integer"):
        call(bad[how])


@pytest.mark.parametrize("how", ["half", "float", "bool", "str"])
def test_motif_size_refuses_other_types(how):
    # a motif size is refused as Motif refuses a vertex count
    bad = {"half": 3.5, "float": 3.0, "bool": True, "str": "3"}[how]
    with pytest.raises(InvalidMotifError, match="must be an integer"):
        builtin_motif("cycle", bad)


@pytest.mark.parametrize("size", ["1_0", "+5", "5.0", "0x5", "\u0665", "-4"])
def test_motif_spec_size_is_ascii_digits(size):
    # int() would read 1_0 as 10, +5 as 5 and an Arabic-Indic five as 5
    with pytest.raises(ValueError, match="ASCII digits") as caught:
        motif_from_string(f"cycle:{size}")
    assert type(caught.value) is ValueError


@pytest.mark.parametrize("spec", [5, None, b"cycle:5", ("cycle", 5)])
def test_motif_spec_must_be_a_string(spec):
    with pytest.raises(InvalidMotifError, match="must be a string"):
        motif_from_string(spec)


@pytest.mark.parametrize("mu", [-1.0, 2.0, 1.0000000000000002, math.nan, math.inf, "0.5", None])
def test_lambda_value_reads_mu_as_a_probability(mu):
    with pytest.raises(InvalidParams, match="mu"):
        lambda_value(K3, 10, mu)


#: Each library entry point that takes a motif, as the call with ``x`` in
#: its place.
MOTIF_ARGUMENTS = {
    "compute_stats": compute_stats,
    "stabiliser_orbits": stabiliser_orbits,
    "mu_sbm": lambda x: mu_sbm(erdos_renyi(0.1), x),
    "mu_graphon": lambda x: mu_graphon(GraphonSpec("product", 0.9), x),
    "bound_sbm": lambda x: bound_sbm(erdos_renyi(0.1), x, 100),
    "bound_graphon": lambda x: bound_graphon(GraphonSpec("product", 0.9), x, 100),
    "lambda_value": lambda x: lambda_value(x, 100, 0.1),
    "count_copies": lambda x: count_copies(G10, x),
    "count_copies_bruteforce": lambda x: count_copies_bruteforce(G10, x),
    "copy_indicators": lambda x: copy_indicators(G10, x, (0, 1, 2)),
}


@pytest.mark.parametrize("name", list(MOTIF_ARGUMENTS))
@pytest.mark.parametrize("x", ["complete:3", 3, None, ((0, 1), (1, 2)), [(0, 1), (1, 2)]])
def test_motif_arguments_refuse_other_types(name, x):
    # a spec string or an edge list is not read as the motif it names
    with pytest.raises(InvalidMotifError, match="must be a Motif"):
        MOTIF_ARGUMENTS[name](x)


#: Each library entry point that takes a model or a graph, as the call with
#: ``x`` in its place, and the types it takes there.
TYPED_ARGUMENTS = {
    "mu_sbm": (lambda x: mu_sbm(x, K3), SbmParams),
    "bound_sbm": (lambda x: bound_sbm(x, K3, 100), SbmParams),
    "sample_sbm": (lambda x: sample_sbm(x, 10, 1), SbmParams),
    "mu_graphon": (lambda x: mu_graphon(x, K3), GraphonSpec),
    "bound_graphon": (lambda x: bound_graphon(x, K3, 100), GraphonSpec),
    "h_star": (h_star, GraphonSpec),
    "graphon_to_sbm": (graphon_to_sbm, GraphonSpec),
    "sample_graphon": (lambda x: sample_graphon(x, 10, 1), GraphonSpec),
    "sample_batches": (lambda x: list(sample_batches(x, 10, [1])), (SbmParams, GraphonSpec)),
    "count_copies": (lambda x: count_copies(x, K3), SampledGraph),
    "count_copies_bruteforce": (lambda x: count_copies_bruteforce(x, K3), SampledGraph),
    "copy_indicators": (lambda x: copy_indicators(x, K3, (0, 1, 2)), SampledGraph),
}
#: A model as its JSON object, other plain values, and each of the types
#: the entry points above take.
TYPED_VALUES = [
    {"Q": 1, "f": [1.0], "pi": [[0.1]]},
    None,
    "complete:3",
    erdos_renyi(0.1),
    GraphonSpec("product", 0.5),
    G10,
]


@pytest.mark.parametrize(
    "name, x",
    [
        (name, x)
        for name, (_, kinds) in TYPED_ARGUMENTS.items()
        for x in TYPED_VALUES
        if not isinstance(x, kinds)
    ],
)
def test_model_and_graph_arguments_refuse_other_types(name, x):
    # a block model is not sampled as a graphon, nor a dict read as a model
    call, _ = TYPED_ARGUMENTS[name]
    with pytest.raises(InvalidParams, match=f"must be .*, got {type(x).__name__}$"):
        call(x)


def test_copy_position_needs_distinct_vertices():
    with pytest.raises(InvalidParams, match="distinct"):
        copy_indicators(G10, K3, (0, 0, 1))


@pytest.mark.parametrize("name", list(INTEGER_ARGUMENTS))
@pytest.mark.parametrize("kind", [np.int64, np.uint64, np.int32])
def test_integer_arguments_take_numpy_ints(name, kind):
    call, good = INTEGER_ARGUMENTS[name]
    assert call(kind(good)) == call(good)


@pytest.mark.parametrize("kind", [np.int64, np.uint16])
def test_numpy_ints_stored_as_int(kind):
    for g in (
        sample_sbm(erdos_renyi(0.3), kind(10), kind(7)),
        sample_graphon(GraphonSpec("product", 0.9), kind(10), kind(7)),
    ):
        assert type(g.n) is int and g.n == 10
    assert type(bound_scaled(K3, kind(100), 0.5, 2.0).n) is int
    assert type(SbmParams(kind(1), (1.0,), ((0.1,),)).class_count) is int
    plan = SimulationPlan(erdos_renyi(0.1), K3, kind(10), kind(2), kind(3))
    assert all(type(x) is int for x in (plan.n, plan.replicates, plan.seed))
