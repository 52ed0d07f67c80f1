"""Import layering: the exact-math modules do not depend on the simulator
or the command line; only `pgf` writes into a q path; only `simulate`
takes a single stream; the
immigration sampler forks on theta only at 1; only `_num._product` calls
irfft, and `renewal` makes no `np.convolve` call and fits no line by a
numpy solver; `cli` converts every option in one place; `simulate` forms
no Poisson pmf and folds immigrants in one place; the argument names a
call tracer reads stay put; no name binds two reference laws."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from gwimm.laws import LawParams

from conftest import LAWS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gwimm"


def imported_modules(path: Path) -> set[str]:
    """Absolute names of the gwimm modules a source file imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "gwimm" + ("." + base if base else "")
            names.add(base)
            # `from gwimm import simulate` names the module in the alias
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("module", ["laws", "pgf", "renewal", "limits",
                                    "_num"])
def test_exact_math_does_not_import_simulator_or_cli(module):
    names = imported_modules(PACKAGE / f"{module}.py")
    assert names, "no imports parsed"
    for banned in ("gwimm.simulate", "gwimm.cli"):
        assert not any(n == banned or n.startswith(banned + ".")
                       for n in names), (module, banned)


_IN_PLACE = {"fill", "itemset", "put", "resize", "setflags", "sort"}


def writes_to(tree: ast.AST, name: str) -> list[str]:
    """Source of every statement or call in `tree` that may write into the
    array bound to `name`: an item store, an augmented assignment, an
    `out=` target, an in-place method or a change of its flags."""
    def is_name(node):
        return isinstance(node, ast.Name) and node.id == name

    def base(node):
        while isinstance(node, (ast.Subscript, ast.Attribute)):
            node = node.value
        return node

    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for t in targets:
                if ((isinstance(node, ast.AugAssign) or not is_name(t))
                        and is_name(base(t))):
                    found.append(ast.unparse(node))
        elif isinstance(node, ast.Call):
            f = node.func
            if (any(k.arg == "out" and is_name(base(k.value))
                    for k in node.keywords)
                    or isinstance(f, ast.Attribute) and f.attr in _IN_PLACE
                    and is_name(f.value)):
                found.append(ast.unparse(node))
    return found


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "pgf.py"),
                         ids=lambda p: p.stem)
def test_only_pgf_writes_a_q_path(path):
    # a q path is shared: `convergence_sweep` reads its q_n(0) scales off
    # the path it built the renewal table from, so outside `pgf` a `path`
    # is only read or rebound, never written, even where its read-only
    # flag would not catch it (a copy, a view made writeable)
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert not writes_to(tree, "path"), writes_to(tree, "path")


def test_writes_to_sees_every_write():
    src = """
path[0] = 1.0
path[:3] += 2
path *= 0.5
path.flags.writeable = True
np.exp(path, out=path)
np.exp(x, out=path[:4])
path.setflags(write=True)
path.sort()
path = path[:4]
y = path[3]
z = np.exp(path)
"""
    assert len(writes_to(ast.parse(src), "path")) == 8


def test_only_simulate_takes_one_stream():
    # the draw functions take the block form alone, the streams and block
    # bounds of a group; the one-path entry `simulate` makes its stream a
    # group of one block
    tree = ast.parse((PACKAGE / "simulate.py").read_text(encoding="utf-8"))
    takers = sorted(node.name for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef)
                    and "rng" in {a.arg for a in (*node.args.posonlyargs,
                                                  *node.args.args,
                                                  *node.args.kwonlyargs)})
    assert takers == ["simulate"], takers


def test_immigration_sampler_forks_on_theta_at_one_only():
    # theta < 1 takes one path for every theta: inside `sample_immigration`
    # every comparison that involves theta compares it with 1
    tree = ast.parse((PACKAGE / "laws.py").read_text(encoding="utf-8"))
    (fn,) = [node for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef)
             and node.name == "sample_immigration"]

    def has_theta(node):
        return any(isinstance(n, ast.Attribute) and n.attr == "theta"
                   or isinstance(n, ast.Name) and n.id == "theta"
                   for n in ast.walk(node))

    forks = [node for node in ast.walk(fn)
             if isinstance(node, ast.Compare) and has_theta(node)]
    assert forks, "no theta comparison parsed"
    for node in forks:
        rest = [op for op in (node.left, *node.comparators)
                if not has_theta(op)]
        assert rest and all(isinstance(op, ast.Constant) and op.value == 1
                            for op in rest), ast.unparse(node)


def calls_to(tree: ast.AST, names: set[str]) -> list[str]:
    """The calls below `tree` of a function whose last dotted name part
    is in `names`."""
    return [ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and ast.unparse(node.func).split(".")[-1] in names]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.stem)
def test_only_num_product_calls_irfft(path):
    # every FFT product of the DP and the renewal solve is a
    # `_num._product` call, so one place fixes their float64 bits and
    # one roundoff bound covers them; the DP builds its baby rows by FFT
    # doubling, so renewal makes no np.convolve call either
    tree = ast.parse(path.read_text(encoding="utf-8"))
    if path.stem == "_num":
        (kernel,) = [node for node in tree.body
                     if isinstance(node, ast.FunctionDef)
                     and node.name == "_product"]
        assert len(calls_to(kernel, {"irfft"})) == 1
        assert len(calls_to(tree, {"irfft"})) == 1
    else:
        banned = {"irfft", "convolve"} if path.stem == "renewal" else {"irfft"}
        assert not calls_to(tree, banned), calls_to(tree, banned)


def test_renewal_fits_lines_with_one_kernel():
    # every least-squares fit of `renewal` is a `_line` call, centred
    # sums of products: no numpy solver and no polyfit
    tree = ast.parse((PACKAGE / "renewal.py").read_text(encoding="utf-8"))
    names = {node.attr if isinstance(node, ast.Attribute) else node.id
             for node in ast.walk(tree)
             if isinstance(node, (ast.Attribute, ast.Name))}
    banned = names & {"linalg", "polyfit", "lstsq"}
    assert not banned, sorted(banned)


def test_cli_converts_every_option_in_one_place():
    # one parser reads every option as text, and `_config_value` converts
    # it as it converts a config line: no argument but the command takes
    # a type or choices, and there are no subparsers
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and ast.unparse(node.func).split(".")[-1] == "add_argument"]
    assert calls, "no add_argument call parsed"
    typed = [ast.unparse(node) for node in calls
             if {k.arg for k in node.keywords} & {"type", "choices"}
             and ast.unparse(node.args[0]) != "'command'"]
    assert not typed, typed
    assert not calls_to(tree, {"add_subparsers", "add_parser"})


def test_simulate_defines_no_poisson_pmf():
    # the Poisson table has one kernel, `laws._poisson_pmf`, which the
    # DP's immigration table and the folded sum table both read
    tree = ast.parse((PACKAGE / "simulate.py").read_text(encoding="utf-8"))
    defs = sorted(node.name for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef)
                  and "poisson" in node.name.lower())
    assert not defs, defs


def test_offspring_sums_draws_offspring_alone():
    # `_next_generation` is the one place that folds immigrants in
    from gwimm.simulate import _offspring_sums
    params = list(inspect.signature(_offspring_sums).parameters)
    assert params == ["params", "rngs", "bounds", "pops"], params


def literal_law(node: ast.AST) -> LawParams | None:
    """The law of a `LawParams` call with literal arguments, else None."""
    if not (isinstance(node, ast.Call)
            and ast.unparse(node.func) == "LawParams"):
        return None
    try:
        args = [ast.literal_eval(a) for a in node.args]
        kwargs = {k.arg: ast.literal_eval(k.value) for k in node.keywords}
    except ValueError:
        return None                     # a law built from variables
    return LawParams(*args, **kwargs)


def law_bindings(path: Path) -> list[tuple[str, LawParams]]:
    """(name, law) for each literal `LawParams` call in a source file that
    is assigned to a name or stored under a string key of a dict display.
    One-letter names such as p are placeholders, not names of laws."""
    bound = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Assign):
            pairs = [(t.id, node.value) for t in node.targets
                     if isinstance(t, ast.Name)]
        elif isinstance(node, ast.Dict):
            pairs = [(k.value, v) for k, v in zip(node.keys, node.values)
                     if isinstance(k, ast.Constant)
                     and isinstance(k.value, str)]
        else:
            continue
        bound += [(name, law) for name, value in pairs
                  if len(name) > 1 and (law := literal_law(value))]
    return bound


def test_no_name_binds_two_laws():
    # the reference laws have one table, `conftest.LAWS`; `cli` and the
    # benchmark keep their own few under the same names, and no name,
    # in any case, stands for two laws
    files = [*sorted((ROOT / "tests").glob("*.py")), PACKAGE / "cli.py",
             ROOT / "perfbench" / "workloads.py"]
    bound = [(name, law, "conftest.LAWS") for name, law in LAWS.items()]
    bound += [(name, law, path.name) for path in files
              for name, law in law_bindings(path)]
    assert {"MIXED", "R0", "R3"} <= {name for name, _, where in bound
                                     if where == "workloads.py"}
    first = {}
    for name, law, where in bound:
        seen, at = first.setdefault(name.upper(), (law, where))
        assert law == seen, (name, where, at)


def unused_imports(path: Path) -> set[str]:
    """Names a source file imports but never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return bound - used


@pytest.mark.parametrize("path", sorted(
    [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))), ids=lambda p: p.stem)
def test_no_unused_imports(path):
    # deletions tend to leave their imports behind, in the package and in
    # its tests
    assert not unused_imports(path), sorted(unused_imports(path))


# functions whose work a call tracer counts from the call's arguments,
# bound by name: renaming one of these breaks the traced benchmark runs
TRACED_ARGUMENTS = {
    "simulate.estimate_survival": ("reps", "horizon"),
    "renewal.build_renewal": ("n_max",),
    "renewal.dp_distribution": ("n", "M"),
    "limits.convergence_sweep": ("s_grid", "n_grid"),
    "limits.conditional_laplace_exact": ("n",),
    "pgf.q_iterate": ("n", "t"),
    "laws.sample_offspring": ("size",),
    "laws.sample_immigration": ("size",),
    "laws.sample_initial": ("size",),
}


@pytest.mark.parametrize("name", sorted(TRACED_ARGUMENTS))
def test_traced_functions_keep_their_argument_names(name):
    module, func = name.split(".")
    fn = getattr(importlib.import_module("gwimm." + module), func)
    params = inspect.signature(fn).parameters
    assert set(TRACED_ARGUMENTS[name]) <= set(params), sorted(params)
