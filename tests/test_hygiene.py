"""Every module-level import of the package is used by its module and names
the standard library or the package itself, and every private module-level
function or class and every UPPER_CASE module-level constant is named
somewhere in the package besides its own definition, so a replaced helper or
a leftover constant cannot linger.

Uses only the standard library (`ast`), so it needs no linter.  The package's
`__init__.py` re-exports names and is exempt from the import check.
"""

import ast
import sys
from collections import Counter, defaultdict
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hiercubes"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that it never names."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(set(imported) - used)


def test_unused_imports_are_found():
    src = "import os\nimport os.path as osp\nfrom x import a, b as c\nprint(a)\n"
    assert unused_imports(src) == ["c", "os", "osp"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def non_stdlib_imports(source: str) -> list[str]:
    """Top-level packages named by the module's top-level imports that are
    neither in the standard library nor relative."""
    found = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return sorted(found - sys.stdlib_module_names)


def test_non_stdlib_imports_are_found():
    src = ("from __future__ import annotations\nimport numpy as np\nimport os.path\n"
           "from scipy.special import expit\nfrom . import blocks\nfrom .logreal import x\n")
    assert non_stdlib_imports(src) == ["numpy", "scipy"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=[p.stem for p in sorted(PACKAGE.glob("*.py"))])
def test_package_has_no_runtime_dependency(path):
    assert non_stdlib_imports(path.read_text()) == []


def names_in(node: ast.AST) -> Counter:
    """How often each name occurs below `node`: as a name, an attribute or
    an imported name."""
    counts = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            counts[n.id] += 1
        elif isinstance(n, ast.Attribute):
            counts[n.attr] += 1
        elif isinstance(n, ast.alias):
            counts[n.name] += 1
    return counts


def unreferenced(sources: dict[str, str], defined) -> list[str]:
    """`module.name` of each name that `defined(node)` lists for a top-level
    statement and that the modules name nowhere outside that statement."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    total = sum((names_in(tree) for tree in trees.values()), Counter())
    return sorted(f"{mod}.{name}" for mod, tree in trees.items()
                  for node in tree.body for name in defined(node)
                  if total[name] == names_in(node)[name])


def unreferenced_private(sources: dict[str, str]) -> list[str]:
    """`module.name` of each private module-level function or class that the
    modules name nowhere outside the definition itself."""
    def defined(node):
        private = (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                   and node.name.startswith("_") and not node.name.startswith("__"))
        return [node.name] if private else []
    return unreferenced(sources, defined)


def unreferenced_constants(sources: dict[str, str]) -> list[str]:
    """`module.NAME` of each UPPER_CASE module-level constant that the modules
    name nowhere outside its own assignment."""
    def assigned(node):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        return [t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()]
    return unreferenced(sources, assigned)


def test_unreferenced_private_names_are_found():
    sources = {"a": "def _used(): pass\n"
                    "def _recursive(n): return _recursive(n - 1)\n"
                    "class _Gone: pass\n"
                    "def _imported(): pass\n"
                    "def __dunder__(): pass\n"
                    "x = _used()\n",
               "b": "from a import _imported\n"}
    assert unreferenced_private(sources) == ["a._Gone", "a._recursive"]


def test_private_definitions_are_named():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private(sources) == []


def test_unreferenced_constants_are_found():
    sources = {"a": "USED = 1\n"
                    "LEFTOVER = 2\n"
                    "ANNOTATED: int = 3\n"
                    "lower = 4\n"
                    "IMPORTED = 5\n"
                    "def f(): return USED + lower\n",
               "b": "from a import IMPORTED\n"
                    "def g():\n    LOCAL = 6\n    return 0\n"}
    assert unreferenced_constants(sources) == ["a.ANNOTATED", "a.LEFTOVER"]


def test_module_constants_are_named():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_constants(sources) == []


def package_imports(source: str) -> dict[str, set[str]]:
    """The package modules that a module imports, anywhere in its body, each
    with the names imported from it; "*" stands for the whole module,
    imported by `from . import module` or `import hiercubes.module`."""
    found = defaultdict(set)
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.ImportFrom):
            if n.level == 0 and not (n.module or "").startswith("hiercubes"):
                continue
            module = (n.module or "").removeprefix("hiercubes").lstrip(".")
            for a in n.names:
                if module:
                    found[module].add(a.name)
                else:
                    found[a.name].add("*")
        elif isinstance(n, ast.Import):
            for a in n.names:
                if a.name.startswith("hiercubes."):
                    found[a.name.split(".")[1]].add("*")
    return dict(found)


def test_package_imports_are_found():
    src = ("from .oracle import x\nfrom . import sampler\nimport hiercubes.render\n"
           "from hiercubes.cli import main\nfrom os import path\n"
           "def f():\n    from .blocks import Block\n    from .oracle import _y as z\n")
    assert package_imports(src) == {"oracle": {"x", "_y"}, "sampler": {"*"}, "render": {"*"},
                                    "cli": {"main"}, "blocks": {"Block"}}


# the three computations stay independent: the exact analytics use neither the
# enumeration oracle nor the samplers, the samplers do not use the oracle, and
# the oracle uses no sampler, renderer or command line
FORBIDDEN_IMPORTS = {"analytics": {"oracle", "sampler"}, "sampler": {"oracle"},
                     "oracle": {"sampler", "render", "cli"}}


@pytest.mark.parametrize("module", sorted(FORBIDDEN_IMPORTS))
def test_computations_are_layered(module):
    source = (PACKAGE / f"{module}.py").read_text()
    assert package_imports(source).keys() & FORBIDDEN_IMPORTS[module] == set()


# the oracle reads from the analytics only the ratios its verifiers compare
# against and the system check; the command line reads from the oracle only
# the validation suite, and from the sampler only the memoized draw functions
# and the batch estimator
PINNED_IMPORTS = {("oracle", "analytics"): {"TruncatedSystem", "_check_system"},
                  ("cli", "oracle"): {"run_validation_suite"},
                  ("cli", "sampler"): {"_draw_function", "estimate"}}


@pytest.mark.parametrize("module,source_module", sorted(PINNED_IMPORTS))
def test_layer_boundaries_are_pinned(module, source_module):
    source = (PACKAGE / f"{module}.py").read_text()
    assert package_imports(source).get(source_module) == PINNED_IMPORTS[module, source_module]


# truncation layers are unwrapped in one place, so no reader's answer depends
# on their order: outside `activities`, only `analytics._unwrap` names a
# truncation class or reads a model's `.inner`
TRUNCATIONS = {"VolumeTruncated", "ScaleTruncated"}
UNWRAP = ("analytics", "_unwrap")


def truncation_walks(sources: dict[str, str]) -> list[str]:
    """`module.name` of each top-level statement (its line number when it
    defines no name) outside `activities` and `analytics._unwrap` that uses
    a truncation class, under any import name, or an `.inner` attribute.
    An import alone is no use."""
    found = set()
    for mod, src in sources.items():
        if mod == "activities":
            continue
        tree = ast.parse(src)
        aliases = TRUNCATIONS | {a.asname for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                                 for a in n.names if a.name in TRUNCATIONS and a.asname}
        for node in tree.body:
            if (mod, getattr(node, "name", None)) == UNWRAP:
                continue
            if any(isinstance(n, ast.Name) and n.id in aliases
                   or isinstance(n, ast.Attribute) and n.attr in TRUNCATIONS | {"inner"}
                   for n in ast.walk(node)):
                found.add(f"{mod}.{getattr(node, 'name', node.lineno)}")
    return sorted(found)


def test_truncation_walks_are_found():
    sources = {"activities": "class VolumeTruncated: pass\ndef f(m): return m.inner\n",
               "analytics": "from .activities import ScaleTruncated as ST, VolumeTruncated\n"
                            "def _unwrap(m):\n"
                            "    while isinstance(m, (ST, VolumeTruncated)): m = m.inner\n"
                            "    return m\n"
                            "def peel(m): return m.inner\n"
                            "def is_cut(m): return isinstance(m, ST)\n",
               "cli": "from . import activities\n"
                      "CUT = activities.ScaleTruncated\n"
                      "def _unwrap(m): return m.inner\n"}
    assert truncation_walks(sources) == ["analytics.is_cut", "analytics.peel",
                                         "cli.2", "cli._unwrap"]


def test_truncations_are_unwrapped_in_one_place():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert truncation_walks(sources) == []


def calls_outside(sources: dict[str, str], name: str, callers: set) -> list[str]:
    """`module.name` of each top-level statement (its line number when it
    defines no name) outside `callers`, a set of (module, name), that calls
    the function `name`, under any import name or as a module attribute."""
    found = set()
    for mod, src in sources.items():
        tree = ast.parse(src)
        aliases = {name} | {a.asname for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                            for a in n.names if a.name == name and a.asname}
        for node in tree.body:
            if (mod, getattr(node, "name", None)) in callers:
                continue
            if any(isinstance(n, ast.Call)
                   and (isinstance(n.func, ast.Name) and n.func.id in aliases
                        or isinstance(n.func, ast.Attribute) and n.func.attr == name)
                   for n in ast.walk(node)):
                found.add(f"{mod}.{getattr(node, 'name', node.lineno)}")
    return sorted(found)


# the scale-wise refusal runs once per public reader: every certifying reader
# calls it through the gate `_require_condition_ii`, so outside the gate only
# the two readers that do not certify call it
SCALEWISE = "_require_scalewise"
SCALEWISE_CALLERS = {("analytics", "_require_condition_ii"), ("analytics", "scale_profile"),
                     ("analytics", "pressure_profile")}


def test_scalewise_refusals_are_found():
    sources = {"analytics": "def _require_scalewise(m, what): pass\n"
                            "def _require_condition_ii(m, what): _require_scalewise(m, what)\n"
                            "def scale_profile(m): _require_scalewise(m, 'p')\n"
                            "def log_tail_ratio(m): _require_scalewise(m, 'p')\n"
                            "class System:\n"
                            "    def read(self): _require_scalewise(self.m, 'p')\n",
               "sampler": "from .analytics import _require_scalewise as refuse\n"
                          "def chain(m): refuse(m, 'p')\n"
                          "def pressure_profile(m): refuse(m, 'p')\n",
               "cli": "from . import analytics\n"
                      "check = analytics._require_scalewise\n"
                      "analytics._require_scalewise(None, 'p')\n"}
    assert calls_outside(sources, SCALEWISE, SCALEWISE_CALLERS) == [
        "analytics.System", "analytics.log_tail_ratio", "cli.3", "sampler.chain",
        "sampler.pressure_profile"]


def test_scalewise_refusal_has_two_direct_callers():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert calls_outside(sources, SCALEWISE, SCALEWISE_CALLERS) == []


def test_chain_ratio_of_two_sets_has_one_caller():
    # one covariance: the pair mode reads config_covariance, which alone
    # folds R over the common chain of two sets
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert calls_outside(sources, "_common_chain_R", {("analytics", "config_covariance")}) == []


# strict ancestors are read through the one upward walk: outside `blocks`,
# only the sampler's rejection message and its reference sampler walk a
# block's chain with `blocks.ancestors`
ANCESTOR_CHAINS = {("sampler", "Configuration"), ("sampler", "sample_bernoulli_max")}


def ancestor_chains(sources: dict[str, str]) -> list[str]:
    return calls_outside({m: s for m, s in sources.items() if m != "blocks"},
                         "ancestors", ANCESTOR_CHAINS)


def test_ancestor_chains_are_found():
    sources = {"blocks": "def ancestors(b, top, geo): return []\n"
                         "def lcs(b1, b2, geo): return len(ancestors(b1, 0, geo))\n",
               "sampler": "from .blocks import ancestors\n"
                          "class Configuration:\n"
                          "    def validate(self): return ancestors(None, 0, None)\n"
                          "def sample_bernoulli_max(b): return ancestors(b, 0, None)\n"
                          "def draw(b): return ancestors(b, 0, None)\n",
               "analytics": "from . import blocks\n"
                            "from .blocks import ancestors as chain\n"
                            "def exact_marginal(bs): return [chain(b, 0, None) for b in bs]\n"
                            "def condensation_table(b): return blocks.ancestors(b, 0, None)\n"}
    assert ancestor_chains(sources) == ["analytics.condensation_table",
                                        "analytics.exact_marginal", "sampler.draw"]


def test_ancestor_chains_are_walked_in_the_sampler_alone():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert ancestor_chains(sources) == []


# a system's sampler is built once per model: in `sampler` and `cli`, only the
# memoized getter builds a system, whose `level_rhos` the draws read, or its
# chain law
SAMPLER_BUILDS = ("TruncatedSystem", "ancestor_chain_cdf")
DRAW_GETTER = {("sampler", "_draw_function")}


def sampler_builds_outside_the_getter(sources: dict[str, str]) -> list[str]:
    return sorted({found for name in SAMPLER_BUILDS
                   for found in calls_outside(sources, name, DRAW_GETTER)})


def test_sampler_builds_outside_the_getter_are_found():
    sources = {"sampler": "from .analytics import TruncatedSystem as TS\n"
                          "def ancestor_chain_cdf(m, w, d): return [], 1.0\n"
                          "def _draw_function(m, w, d):\n"
                          "    def build():\n"
                          "        return TS(m, w, d).level_rhos, ancestor_chain_cdf(m, w, d)\n"
                          "    return build\n"
                          "def sample_gibbs(m, w, d): return TS(m, w, d).level_rhos\n"
                          "def estimate(m, w, d): return ancestor_chain_cdf(m, w, d)\n",
               "cli": "from . import sampler\n"
                      "from .analytics import TruncatedSystem\n"
                      "def cmd_sample(args): return sampler.ancestor_chain_cdf(None, None, 0)\n"
                      "def cmd_analyze(args): return TruncatedSystem(None, None, 0)\n"}
    assert sampler_builds_outside_the_getter(sources) == [
        "cli.cmd_analyze", "cli.cmd_sample", "sampler.estimate", "sampler.sample_gibbs"]


def test_sampler_builds_only_in_the_getter():
    sources = {m: (PACKAGE / f"{m}.py").read_text() for m in ("sampler", "cli")}
    assert sampler_builds_outside_the_getter(sources) == []


# a system's lane is decided in `analytics` alone, by the one function that
# also counts and bounds its size: outside `activities`, which defines the
# question, only `analytics._system_size` asks a model `homogeneous_within`
LANE_DECIDER = {("analytics", "_system_size")}


def lane_decisions(sources: dict[str, str]) -> list[str]:
    return calls_outside({m: s for m, s in sources.items() if m != "activities"},
                         "homogeneous_within", LANE_DECIDER)


def test_lane_decisions_are_found():
    sources = {"activities": "class Model:\n"
                             "    def homogeneous_within(self, w): return True\n"
                             "class Cut(Model):\n"
                             "    def homogeneous_within(self, w): return self.inner.homogeneous_within(w)\n",
               "analytics": "def _system_size(m, w, d): return m.homogeneous_within(w)\n"
                            "def partition_function_limit(m, w): return m.homogeneous_within(w)\n",
               "sampler": "def _weight(m, w, d): return m.homogeneous_within(w)\n"}
    assert lane_decisions(sources) == ["analytics.partition_function_limit", "sampler._weight"]


def test_only_the_system_size_decides_a_lane():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert lane_decisions(sources) == []


# the CLI has one write point: each `cmd_*` returns its files and `main`
# writes them, so a command that raises leaves no output behind
WRITES = {"mkdir", "open", "write_text", "write_bytes"}


def file_writes(source: str) -> list[str]:
    """The name (its line number when it defines none) of each top-level
    statement but `main` that calls `mkdir`, `open`, `write_text` or
    `write_bytes`, as a plain name or as an attribute."""
    found = set()
    for node in ast.parse(source).body:
        if getattr(node, "name", None) == "main":
            continue
        if any(isinstance(n, ast.Call)
               and (isinstance(n.func, ast.Name) and n.func.id in WRITES
                    or isinstance(n.func, ast.Attribute) and n.func.attr in WRITES)
               for n in ast.walk(node)):
            found.add(str(getattr(node, "name", node.lineno)))
    return sorted(found)


def test_file_writes_are_found():
    source = ("from pathlib import Path\n"
              "def _json(obj): return str(obj)\n"
              "def cmd_a(args): Path(args.out).mkdir()\n"
              "def cmd_b(args):\n"
              "    with open(args.out, 'w') as fh: fh.write('')\n"
              "class Writer:\n"
              "    def put(self, p): p.write_bytes(b'')\n"
              "Path('x').write_text('')\n"
              "def main(argv=None): Path('o').mkdir(); Path('o/f').write_text('')\n")
    assert file_writes(source) == ["8", "Writer", "cmd_a", "cmd_b"]


def test_cli_writes_only_in_main():
    assert file_writes((PACKAGE / "cli.py").read_text()) == []


# a parent index is formed in `blocks` alone: no other module floor-divides
# by the subdivision parameter M, as a name or an attribute
def outside_blocks(sources: dict[str, str], forms) -> list[str]:
    """`module.name` of each top-level statement (its line number when it
    defines no name) outside `blocks` with a node for which `forms(node)`
    holds."""
    found = set()
    for mod, src in sources.items():
        if mod == "blocks":
            continue
        for node in ast.parse(src).body:
            if any(forms(n) for n in ast.walk(node)):
                found.add(f"{mod}.{getattr(node, 'name', node.lineno)}")
    return sorted(found)


def floor_divisions_by_M(sources: dict[str, str]) -> list[str]:
    """The statements outside `blocks` with a floor division, `//` or
    `//=`, whose divisor names `M`."""
    return outside_blocks(sources, lambda n: (
        isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.FloorDiv)
        and names_in(n.right if isinstance(n, ast.BinOp) else n.value)["M"]))


def test_floor_divisions_by_M_are_found():
    sources = {"blocks": "def parent(m, geo): return m // geo.M\n",
               "sampler": "def up(m, M): return [x // M for x in m]\n"
                          "def halve(n): return n // 2\n"
                          "class Walk:\n"
                          "    def step(self, m, geo): m //= geo.M ** 2; return m\n",
               "cli": "M = 2\nTOP = 9 // M\n"}
    assert floor_divisions_by_M(sources) == ["cli.2", "sampler.Walk", "sampler.up"]


def test_parent_indices_are_formed_in_blocks_alone():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert floor_divisions_by_M(sources) == []


# a descendant index is formed in `blocks` alone, by the walker
# `subtree_levels`: no other module raises the subdivision parameter M to a
# power, as a name or an attribute
def powers_of_M(sources: dict[str, str]) -> list[str]:
    """The statements outside `blocks` with a power, `**` or `**=`, whose
    base names `M`."""
    return outside_blocks(sources, lambda n: (
        isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.Pow)
        and names_in(n.left if isinstance(n, ast.BinOp) else n.target)["M"]))


def test_powers_of_M_are_found():
    sources = {"blocks": "def first(m, geo, k): return m * geo.M ** k\n",
               "sampler": "def lookup(sys, window, j):\n"
                          "    shift = sys.geo.M ** (window.scale - j)\n"
                          "    return Block(j, tuple(m * shift for m in window.index))\n"
                          "def square(n, B): return n ** 2 + B ** n\n",
               "cli": "def pairs(geo, window, bottom):\n"
                      "    return [m * geo.M ** (window.scale - bottom) for m in window.index]\n",
               "render": "class Place:\n"
                         "    def corner(self, b, w, geo):\n"
                         "        return [m - x * geo.M ** (w.scale - b.scale) for m, x in b]\n"
                         "M = 3\nM **= 2\nB = 2 ** M\n"}
    assert powers_of_M(sources) == ["cli.pairs", "render.5", "render.Place", "sampler.lookup"]


def test_descendant_indices_are_formed_in_blocks_alone():
    # M**(alpha d j), a real-exponent power, is the parametric activity's
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert powers_of_M(sources) == ["activities._parametric_powers"]


def volumes_formed(sources: dict[str, str]) -> list[str]:
    """The statements outside `blocks` with a power `**` whose base names
    `M` and whose exponent names `d`, or a call of `log` on an expression
    naming `M`: a volume M**(d j) or a log of M formed outside `Geometry`."""
    def forms(n):
        if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow):
            return names_in(n.left)["M"] and names_in(n.right)["d"]
        if isinstance(n, ast.Call):
            func = n.func.id if isinstance(n.func, ast.Name) else getattr(n.func, "attr", "")
            return func == "log" and any(names_in(arg)["M"] for arg in n.args)
        return False

    return outside_blocks(sources, forms)


def test_volumes_formed_are_found():
    sources = {"blocks": "def volume(geo, j): return float(geo.M ** (geo.d * j))\n",
               "analytics": "import math\n"
                            "def vol(geo, j): return float(geo.M) ** (geo.d * j)\n"
                            "def side(geo, j): return geo.M ** j\n"
                            "class P:\n"
                            "    def log_vol(self, j, M, d): return d * j * math.log(M)\n"
                            "def ok(geo, j): return geo.log_volume(j) + math.log(2)\n",
               "cli": "from math import log\nM, d = 3, 2\nV = M ** d\nL = log(M)\n"}
    assert volumes_formed(sources) == ["analytics.P", "analytics.vol", "cli.3", "cli.4"]


def test_volumes_are_formed_in_blocks_alone():
    # M**(alpha d j), a real-exponent power, is formed by the parametric
    # activity alone; its volume M**(d j) it reads from `Geometry`
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert volumes_formed(sources) == ["activities._parametric_powers"]
