"""Static checks of the package source, using only the standard library."""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qtraj"
# __init__.py imports names only to re-export them.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


# Worker processes are forked and fed through pipes by ensemble._map_chunks,
# so no run loads an executor, a multiprocessing context or a thread.
BANNED_IMPORTS = {"concurrent", "multiprocessing", "threading"}


def imported_packages(tree: ast.AST) -> set[str]:
    """The top-level packages the code under tree imports, at any depth."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_executor_process_or_thread_imports(path):
    assert imported_packages(ast.parse(path.read_text())) & BANNED_IMPORTS == set()


def test_imports_inside_functions_are_seen():
    code = ("def f():\n    from concurrent.futures import Future\n"
            "    import threading as t\n    from . import ensemble\n")
    assert imported_packages(ast.parse(code)) == {"concurrent", "threading"}


# The master-equation oracle and the engines it checks; the oracle may share
# the step-grid helper, nothing else private to an engine.
ORACLE = ("MasterConfig", "MasterGenerator", "_hermitian_part", "_slot_mask", "master_generator",
          "rk4_solve")
ENGINES = ("jumps", "manybody", "diffusion")
SHARED_PRIVATE = {"_step_grid"}
# The full-space mixing references and the copy-block rows they check, which
# live in the same module.
MIXING_ORACLE = ("mixing_reduction", "mixing_brute_force_oracle")
MIXING_ENGINE = ("manybody", "jumps")


def private_definitions(path: Path) -> set[str]:
    """Private names a module defines: functions, classes, methods,
    assigned names and attributes, and attributes set through
    object.__setattr__(self, "_name", ...)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "__setattr__" and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)):
            names.add(node.args[1].value)
    return {n for n in names if isinstance(n, str) and n.startswith("_") and n != "_"
            and not n.startswith("__")}


def engine_names_in_oracle(path: Path, oracle=ORACLE, engines=ENGINES,
                           shared=SHARED_PRIVATE) -> list[str]:
    """Engine-private names the oracle definitions of a module read, as
    names, attributes or imports."""
    engine_private = set().union(*(private_definitions(PACKAGE / f"{m}.py") for m in engines))
    tree = ast.parse(path.read_text())
    imported_private = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and (node.module or "") in engines:
            imported_private.update(a.asname or a.name for a in node.names
                                    if a.name.startswith("_"))
    forbidden = (engine_private | imported_private | set(engines)) - shared
    found = set()
    for top in tree.body:
        if not (isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name in oracle):
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id in forbidden:
                found.add(node.id)
            elif isinstance(node, ast.Attribute) and node.attr in forbidden:
                found.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and (node.module or "") in engines:
                found.update(a.name for a in node.names if a.name.startswith("_"))
    return sorted(found)


def defined_names(path: Path) -> set[str]:
    return {n.name for n in ast.parse(path.read_text()).body
            if isinstance(n, (ast.FunctionDef, ast.ClassDef))}


def test_master_oracle_uses_no_engine_internals():
    path = PACKAGE / "ensemble.py"
    assert set(ORACLE) <= defined_names(path)
    assert engine_names_in_oracle(path) == []


def test_mixing_oracles_use_no_row_kernel_internals():
    path = PACKAGE / "manybody.py"
    assert set(MIXING_ORACLE) <= defined_names(path)
    # The check sees the row kernel, its copy basis and the event loop.
    assert {"_BlockRows", "_Block", "_Group", "_mixing_basis", "_densities", "_left",
            "_isotypic_blocks", "_run_rows"} <= set().union(
        *(private_definitions(PACKAGE / f"{m}.py") for m in MIXING_ENGINE))
    assert engine_names_in_oracle(path, MIXING_ORACLE, MIXING_ENGINE, set()) == []


# Streams are derived only in rng.py, where the batched key derivation is
# checked against SeedSequence.
RNG_CONSTRUCTORS = {"SeedSequence", "Philox", "Generator", "default_rng"}


def called(tree: ast.AST, names: set[str]) -> set[str]:
    """Which of names the code under tree calls, by name or attribute;
    annotations name types without calling them."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names:
                found.add(name)
    return found


def calls(path: Path, names: set[str]) -> list[str]:
    """Which of names a module calls."""
    return sorted(called(ast.parse(path.read_text()), names))


def callers(path: Path, names: set[str]) -> list[str]:
    """The top-level definitions of a module that call one of names, with
    "<module>" for a call outside any definition."""
    return sorted({getattr(top, "name", "<module>") for top in ast.parse(path.read_text()).body
                   if called(top, names)})


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "rng.py"],
                         ids=lambda p: p.name)
def test_streams_are_built_only_in_rng(path):
    assert calls(path, RNG_CONSTRUCTORS) == []


def test_rng_builds_the_streams():
    assert calls(PACKAGE / "rng.py", RNG_CONSTRUCTORS) == ["Generator", "Philox", "SeedSequence"]


# A density is checked in full (one D x D eigvalsh) only where linalg.py
# builds a DensityMatrix; the mixing engine checks its final densities on
# their S_M blocks.
@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "linalg.py"],
                         ids=lambda p: p.name)
def test_full_density_check_is_called_only_in_linalg(path):
    assert calls(path, {"_check_density"}) == []


def test_linalg_calls_the_full_density_check():
    assert calls(PACKAGE / "linalg.py", {"_check_density"}) == ["_check_density"]


# The engines key their generators through rng.Streams and rng.generators;
# the one-stream reference rng.stream is called only by the acceptance
# criteria, which draw their own test matrices from it.
STREAM_CALLERS = ("rng.py", "acceptance.py")


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in STREAM_CALLERS],
                         ids=lambda p: p.name)
def test_reference_stream_is_not_called(path):
    assert calls(path, {"stream"}) == []


def test_acceptance_calls_the_reference_stream():
    assert calls(PACKAGE / "acceptance.py", {"stream"}) == ["stream"]


# The diffusive kernels take every normal from diffusion._noise_blocks, the
# one place that keys per-path generators and draws from them; the
# acceptance criteria draw their test matrices from the reference stream.
NOISE_DRAWS = {"generators", "standard_normal"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_noise_is_drawn_only_in_the_noise_blocks(path):
    names = {"generators"} if path.name == "acceptance.py" else NOISE_DRAWS
    assert callers(path, names) == (["_noise_blocks"] if path.name == "diffusion.py" else [])


# A state path is bit-identical in any batch only while every product in the
# step loop of the state kernel is elementwise: a BLAS product (@, matmul,
# dot, einsum) may round a row differently for another number of rows.
BLAS_PRODUCTS = {"matmul", "dot", "vdot", "einsum", "tensordot", "inner"}
STATE_KERNEL, ROWS_PRODUCT = "_coupled_states", "_rows_product"


def blas_products(tree: ast.AST) -> list[str]:
    """The BLAS products the code under tree calls, "@" for the operator."""
    found = called(tree, BLAS_PRODUCTS)
    if any(isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
           for node in ast.walk(tree)):
        found.add("@")
    return sorted(found)


def definition(path: Path, name: str) -> ast.FunctionDef:
    return next(n for n in ast.parse(path.read_text()).body
                if isinstance(n, ast.FunctionDef) and n.name == name)


def noise_loop(fn: ast.FunctionDef) -> ast.For:
    """The loop of fn over the runs of diffusion._noise_blocks."""
    return next(n for n in ast.walk(fn) if isinstance(n, ast.For) and isinstance(n.iter, ast.Call)
                and getattr(n.iter.func, "id", "") == "_noise_blocks")


def test_state_steps_use_no_blas_product():
    path = PACKAGE / "diffusion.py"
    kernel = definition(path, STATE_KERNEL)
    assert blas_products(noise_loop(kernel)) == []
    assert blas_products(definition(path, ROWS_PRODUCT)) == []
    # The check sees a product: the kernel builds UT with @ before its loop.
    assert blas_products(kernel) == ["@"]
    assert blas_products(ast.parse("y = np.einsum('in,in->n', a, b) @ UT")) == ["@", "einsum"]


def test_rows_product_multiplies_by_the_step_unitary():
    loop = noise_loop(definition(PACKAGE / "diffusion.py", STATE_KERNEL))
    reads = [n for n in ast.walk(loop) if isinstance(n, ast.Name) and n.id == "UT"]
    products = [n for n in ast.walk(loop) if isinstance(n, ast.Call)
                and getattr(n.func, "id", "") == ROWS_PRODUCT]
    # UT is read once in the loop, as the matrix of the one product that takes it.
    assert len(reads) == 1
    assert [p.args[1] for p in products if getattr(p.args[1], "id", "") == "UT"] == reads


# The RK4 oracle above the crossover steps the real form Z = Re X + Im X of
# the state: MasterGenerator's real_rhs works on real arrays alone, with no
# imaginary unit, conjugate or complex dtype.  It makes two real products for
# a real H, and two more, in its one branch on H's imaginary part Q, for a
# complex H; rk4_solve's step loop makes no product and no symmetrization
# of its own.
STAGE = "real_rhs"
COMPLEX_H = "Q is not None"
COMPLEX_NAME = re.compile(r"conj(ugate)?|complex\d*")


def product_count(tree: ast.AST) -> int:
    """How many BLAS products the code under tree makes, "@" included."""
    return sum(1 for node in ast.walk(tree)
               if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
               or isinstance(node, ast.Call)
               and getattr(node.func, "id", getattr(node.func, "attr", None)) in BLAS_PRODUCTS)


def adjoints(tree: ast.AST) -> list[str]:
    """The names whose adjoint X.conj().T the code under tree takes."""
    return sorted(node.value.func.value.id for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "T"
                  and isinstance(node.value, ast.Call)
                  and getattr(node.value.func, "attr", None) == "conj"
                  and isinstance(node.value.func.value, ast.Name))


def method(path: Path, cls: str, name: str) -> ast.FunctionDef:
    body = next(n for n in ast.parse(path.read_text()).body
                if isinstance(n, ast.ClassDef) and n.name == cls).body
    return next(n for n in body if isinstance(n, ast.FunctionDef) and n.name == name)


def complex_uses(tree: ast.AST) -> list[str]:
    """The imaginary literals, and the conjugates and complex dtypes by name
    or as a string, that the code under tree uses."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant):
            if isinstance(node.value, complex) or (isinstance(node.value, str)
                                                   and COMPLEX_NAME.fullmatch(node.value)):
                found.append(repr(node.value))
            continue
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")
        if COMPLEX_NAME.fullmatch(name):
            found.append(name)
    return sorted(found)


def branch_products(stage: ast.FunctionDef) -> dict[str, int]:
    """The products of each if statement of stage that makes any, by its
    test."""
    return {ast.unparse(n.test): product_count(n) for n in ast.walk(stage)
            if isinstance(n, ast.If) and product_count(n)}


def test_rk4_stage_is_real_with_two_products_per_part_of_h():
    stage = method(PACKAGE / "ensemble.py", "MasterGenerator", STAGE)
    assert complex_uses(stage) == []
    assert product_count(stage) == 4 and branch_products(stage) == {COMPLEX_H: 2}
    # The check sees complex work: the one-product stage on complex states.
    old = ast.parse("B = np.matmul(H, X.view(np.float64)).view(complex)\nB *= -1j / hbar\n"
                    "out = B + B.conj().T\nout += mask * X\n"
                    "y = np.empty(n, dtype='complex128') + np.complex128(0)")
    assert complex_uses(old) == ["'complex128'", "1j", "complex", "complex128", "conj"]
    assert complex_uses(ast.parse("out = Z.T @ P - P @ Z.T + G * Z")) == []
    # It sees products, and a complex part's products outside their branch.
    general = ast.parse("out = (-1j / hbar) * (H @ X - X @ H) + mask * X")
    assert product_count(general) == 2 and adjoints(general) == []
    assert product_count(ast.parse("y = np.einsum('ij,jk', a, b) @ c")) == 2
    unbranched = ast.parse("def f(Z):\n    out = P @ Z - Z @ P\n    if K is not None:\n"
                           "        out -= K * Z\n    return out + Q @ Z - Z @ Q\n").body[0]
    assert product_count(unbranched) == 4 and branch_products(unbranched) == {}


# rk4_solve has one step loop, over the record steps.  Before it, the
# advance by a stride of steps is chosen by size: the squaring ladder of the
# step matrix, built once, or the one RK4 helper over real_rhs, taken step
# by step.  The loop only advances and records, with no product,
# adjoint, conjugate or transpose of its own.
STEP_HELPER = "_rk4_step"
STEPS = {"partial(_climbed, _squaring_ladder(gen.rk4_matrix(dt), max(strides, default=0)))",
         f"partial(_repeated, partial({STEP_HELPER}, gen.{STAGE}, dt=dt))"}
LOOP_CALLS = {"zip", "advance", "from_basis", "decode"}


def step_loops(solve: ast.FunctionDef) -> list[ast.For]:
    """The loops in rk4_solve that advance the state."""
    return [n for n in ast.walk(solve) if isinstance(n, ast.For)
            and called(n, {"advance"})]


def step_loop_faults(loop: ast.For) -> list[str]:
    """What keeps a loop from only applying an advance chosen before it."""
    faults = []
    if product_count(loop):
        faults.append("products")
    if called(loop, {"conj", "transpose"}) or any(
            isinstance(n, ast.Attribute) and n.attr == "T" for n in ast.walk(loop)):
        faults.append("symmetrization")
    stored = {n.id for n in ast.walk(loop) if isinstance(n, ast.Name)
              and isinstance(n.ctx, ast.Store)}
    if "advance" in stored:
        faults.append("advance assigned in the loop")
    extra = {getattr(n.func, "id", getattr(n.func, "attr", None)) for n in ast.walk(loop)
             if isinstance(n, ast.Call)} - LOOP_CALLS
    if extra:
        faults.append(f"calls {sorted(extra)}")
    return faults


def applications(fn: ast.FunctionDef) -> int | None:
    """How many times fn calls its first argument, a call in a loop over a
    literal tuple or list counting once per element; None for a call in any
    other loop."""
    name = fn.args.args[0].arg
    parents = {child: node for node in ast.walk(fn) for child in ast.iter_child_nodes(node)}
    total = 0
    for call in ast.walk(fn):
        if not (isinstance(call, ast.Call) and getattr(call.func, "id", None) == name):
            continue
        times, node = 1, call
        while node is not fn:
            node = parents[node]
            if isinstance(node, (ast.While, ast.comprehension)):
                return None
            if isinstance(node, ast.For):
                if not isinstance(node.iter, (ast.Tuple, ast.List)):
                    return None
                times *= len(node.iter.elts)
        total += times
    return total


def test_rk4_solve_applies_a_fixed_step_in_one_loop():
    path = PACKAGE / "ensemble.py"
    solve = definition(path, "rk4_solve")
    loops = step_loops(solve)
    assert len(loops) == 1 and loops[0] in solve.body
    assert step_loop_faults(loops[0]) == []
    # Both advances are chosen before the loop, the step matrix built once.
    steps = [n.value for n in ast.walk(solve) if isinstance(n, ast.Assign)
             and [getattr(t, "id", None) for t in n.targets] == ["advance"]]
    assert len(steps) == 2 and {ast.unparse(v) for v in steps} == STEPS
    choice = next(top for top in solve.body if isinstance(top, ast.If)
                  and any(n in steps for n in ast.walk(top)))
    assert ast.unparse(choice.test) == "gen.dim <= RK4_MATRIX_MAX_DIM"
    assert solve.body.index(choice) < solve.body.index(loops[0])
    assert sum(1 for n in ast.walk(solve) if isinstance(n, ast.Attribute)
               and n.attr == "rk4_matrix") == 1
    # rk4_solve symmetrizes once, before its loop.
    assert adjoints(solve) == ["rho"]
    # A stride climbs the ladder with one product per rung; step by step it
    # only repeats the step.
    assert product_count(definition(path, "_climbed")) == 1
    assert product_count(definition(path, "_repeated")) == 0
    # The check sees a rebuilt advance, an added adjoint and a product.
    for body, fault in (("advance = partial(_repeated, step)\n    x = advance(x, stride)",
                         "assigned"),
                        ("x = advance(x, stride)\n    x += x.conj().T", "symmetrization"),
                        ("x = advance(x, stride)\n    x = P @ x", "products")):
        mutant = ast.parse(f"for s, stride in zip(steps, strides):\n    {body}\n").body[0]
        assert any(fault in f for f in step_loop_faults(mutant))


def test_rk4_step_is_written_once_and_applies_its_map_four_times():
    path = PACKAGE / "ensemble.py"
    assert applications(definition(path, STEP_HELPER)) == 4
    # The step matrix is the same helper applied to the identity.
    assert called(method(path, "MasterGenerator", "rk4_matrix"), {STEP_HELPER}) == {STEP_HELPER}
    # The check counts loops: three elements, or one more call after the loop.
    three = "def h(apply, x):\n    for k in (3, 2, 1):\n        x = apply(x)\n"
    five = ("def h(apply, x):\n    for k in (4, 3, 2, 1):\n        x = apply(x)\n"
            "    return apply(x)\n")
    unknown = "def h(apply, x):\n    for k in range(4):\n        x = apply(x)\n"
    assert [applications(ast.parse(t).body[0]) for t in (three, five, unknown)] == [3, 5, None]


# A mixing event stays in copy coordinates: the kernel methods it runs
# rebuild no D x D density and do not read the full copy basis.
EVENT_METHODS = ("rotate_in", "populations", "reduce")
FULL_BASES = {"E", "F"}


def self_attributes(tree: ast.AST) -> set[str]:
    """The attributes of self that the code under tree reads."""
    return {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Name) and n.value.id == "self"}


def test_mixing_events_rebuild_no_density():
    path = PACKAGE / "manybody.py"
    for name in EVENT_METHODS:
        event = method(path, "_BlockRows", name)
        assert called(event, {"_densities"}) == set(), name
        assert self_attributes(event) & FULL_BASES == set(), name
    # The check sees both: the final densities are rebuilt from F.
    finish = method(path, "_BlockRows", "finish")
    assert called(finish, {"_densities"}) == {"_densities"}
    assert "F" in self_attributes(finish)


# A mixing batch returns its rows in copy coordinates.  The one map from
# rows to D x D densities is called only where a density is kept: for each
# row's final trace, by evolve_density and by criterion 6.
DENSITY_MAP = {"_densities"}


def density_map_callers(path: Path) -> set[str]:
    """The definitions of a module that call the density map, a class's
    methods named Class.method."""
    found = set()
    for top in ast.parse(path.read_text()).body:
        if isinstance(top, ast.ClassDef):
            found.update(f"{top.name}.{n.name}" for n in top.body
                         if isinstance(n, ast.FunctionDef) and called(n, DENSITY_MAP))
        elif called(top, DENSITY_MAP):
            found.add(getattr(top, "name", "<module>"))
    return found


def test_densities_are_rebuilt_only_where_kept():
    found = {path.name: density_map_callers(path) for path in MODULES}
    assert {name: c for name, c in found.items() if c} == {
        "manybody.py": {"_BlockRows.finish", "evolve_density"},
        "acceptance.py": {"criterion_6"},
    }


# Record times have one default, T, set in jumps._record_times.  Besides it
# only run_ensemble (its documented ten equal steps) tests a record-time
# argument against None; an engine that did would grow its own default again.
RECORD_TIME_NAMES = {"sample_times", "record_times", "times"}
RECORD_TIME_DEFAULTS = {("jumps.py", "_record_times"), ("ensemble.py", "run_ensemble")}


def record_time_none_tests(source: str) -> set[str]:
    """The innermost definitions of a source that compare a record-time
    name or attribute with None ("<module>" outside any definition)."""
    found = set()

    def visit(node, name):
        if isinstance(node, ast.FunctionDef):
            name = node.name
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if (any(getattr(o, "id", getattr(o, "attr", None)) in RECORD_TIME_NAMES
                    for o in operands)
                    and any(isinstance(o, ast.Constant) and o.value is None for o in operands)):
                found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, name)

    visit(ast.parse(source), "<module>")
    return found


def test_record_times_default_in_one_place():
    found = {(path.name, name) for path in MODULES
             for name in record_time_none_tests(path.read_text())}
    assert found == RECORD_TIME_DEFAULTS


@pytest.mark.parametrize("module, old, new, name", [
    # the event engine's unsampled columns
    ("jumps.py", "sample_times=samples,",
     "sample_times=None if sample_times is None else samples,", "_run_rows"),
    # the record encoder's branch on them
    ("records.py", '    numeric.update({"entropy"',
     '    if cols.sample_times is not None:\n        pass\n    numeric.update({"entropy"',
     "encode"),
])
def test_record_time_check_sees_an_engine_default(module, old, new, name):
    source = (PACKAGE / module).read_text()
    assert source.count(old) == 1
    assert name not in record_time_none_tests(source)
    assert name in record_time_none_tests(source.replace(old, new))


# trajectories.jsonl is written chunk by chunk, its lines rendered by
# records.encode, their one renderer: every column of a chunk is scanned for
# non-finite values before the block loop, so a bad value renders none of
# the chunk; lines are rendered only in the loop over row blocks, so a
# writer that consumes them holds the text of one block at a time; and
# trajectory_writer opens the file once.
WRITER, OPENER, BLOCKS = "encode", "trajectory_writer", "_blocks"
LINE_RENDERERS = {"_lines", "_rows", "_objects"}


def writer_faults(source: str) -> list[str]:
    """What keeps the record encoder in source from scanning a chunk before
    its block loop and rendering lines only in that loop, or the writer
    from opening the file once."""
    top = {n.name: n for n in ast.parse(source).body if isinstance(n, ast.FunctionDef)}
    fn, faults = top[WRITER], []
    opens = [n for n in ast.walk(top[OPENER]) if isinstance(n, ast.Call)
             and getattr(n.func, "id", getattr(n.func, "attr", None)) == "open"]
    if len(opens) != 1:
        faults.append(f"opened {len(opens)} times")
    scans = [n.lineno for n in ast.walk(fn) if isinstance(n, ast.Call)
             and getattr(n.func, "attr", None) == "isfinite"]
    loops = [n for n in ast.walk(fn) if isinstance(n, ast.For) and isinstance(n.iter, ast.Call)
             and getattr(n.iter.func, "id", None) == BLOCKS]
    if not scans or loops and max(scans) > min(loop.lineno for loop in loops):
        faults.append("scan not before the block loop")
    inside = {id(n) for loop in loops for n in ast.walk(loop)}
    if len(loops) != 1 or not called(loops[0], LINE_RENDERERS):
        faults.append("no one block loop that renders")
    if any(id(n) not in inside for n in ast.walk(fn)
           if isinstance(n, ast.Call) and getattr(n.func, "id", None) in LINE_RENDERERS):
        faults.append("lines rendered outside the block loop")
    return faults


def test_writer_scans_then_writes_row_blocks():
    assert writer_faults((PACKAGE / "records.py").read_text()) == []


@pytest.mark.parametrize("old, new, fault", [
    # every block rendered before the file is opened
    ("    grid = list(",
     "    lines = [list(_lines(cols, numeric, [], str(seed), a, b))\n"
     "             for a, b in _blocks(cols.offsets)]\n    grid = list(",
     "lines rendered outside the block loop"),
    # the whole weight column rendered at once
    ("    grid = list(", "    weights = _rows(cols.weights)\n    grid = list(",
     "lines rendered outside the block loop"),
    # each block scanned as it is rendered
    ("            yield from _lines(",
     "            if not np.isfinite(cols.weights[a:b]).all():\n"
     "                raise NumericError('weights')\n            yield from _lines(",
     "scan not before the block loop"),
    # the file truncated, then opened again
    ('        with open(part, "w") as out:',
     '        open(part, "w").close()\n        with open(part, "w") as out:', "opened 2 times"),
], ids=["pre-rendered", "whole-column", "scan-per-block", "opened-twice"])
def test_writer_check_sees_a_mutant(old, new, fault):
    source = (PACKAGE / "records.py").read_text()
    assert source.count(old) == 1
    assert fault in writer_faults(source.replace(old, new))


# Every trajectory-level NumericError of the engines, the one whose message
# names an index to rerun, is built by one guard, jumps._guard; the record
# writer's non-finite scan in records.py keeps its own.  No batch function
# compares a norm or a trace with 1 itself: linalg.initial_state checks
# every initial state.
ENGINE_FILES = tuple(f"{m}.py" for m in ENGINES)
BATCH_FUNCTIONS = {"jumps.py": ("_jump_batch",), "manybody.py": ("_mixing_batch",),
                   "diffusion.py": ("_diffusion_batch", "_coupled_states", "_density_states")}
SIZES = {"norm2", "trace", "norm"}


def index_error_builders(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, top-level definition) of each NumericError call whose message
    names an index."""
    found = set()
    for module, source in sources.items():
        for top in ast.parse(source).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "NumericError"
                        and "index=" in ast.unparse(node)):
                    found.add((module, getattr(top, "name", "<module>")))
    return sorted(found)


def unit_size_comparisons(source: str, names) -> list[str]:
    """The definitions among names that compare or subtract a norm or a
    trace and the constant 1."""
    found = set()
    for top in ast.parse(source).body:
        if not (isinstance(top, ast.FunctionDef) and top.name in names):
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
            elif isinstance(node, ast.BinOp):
                operands = [node.left, node.right]
            else:
                continue
            if (any(isinstance(o, ast.Constant) and o.value == 1 for o in operands)
                    and called(node, SIZES)):
                found.add(top.name)
    return sorted(found)


def engine_sources() -> dict[str, str]:
    return {name: (PACKAGE / name).read_text() for name in ENGINE_FILES}


def test_one_guard_builds_the_index_errors():
    assert index_error_builders(engine_sources()) == [("jumps.py", "_guard")]


def test_batch_functions_leave_unit_checks_to_linalg():
    for name, functions in BATCH_FUNCTIONS.items():
        assert set(functions) <= defined_names(PACKAGE / name)
        assert unit_size_comparisons((PACKAGE / name).read_text(), functions) == [], name


@pytest.mark.parametrize("module, old, new, found", [
    # the event loop's final check raising its own error again
    ("jumps.py", "    _guard(ok, kern.invalid, seed, index, sch.t[:, -1])",
     "    if not ok.all():\n"
     "        raise NumericError(f'{kern.invalid} (index={index[np.argmin(ok)]})')",
     ("jumps.py", "_run_rows")),
    # a second guard for the diffusion paths
    ("diffusion.py", "def _rows_product(",
     "def _path_guard(ok, seed, indices):\n    if not np.all(ok):\n"
     "        raise NumericError(f'blow-up (seed={seed}, path index={indices[0]})')\n\n\n"
     "def _rows_product(", ("diffusion.py", "_path_guard")),
], ids=["loop-check", "path-guard"])
def test_guard_check_sees_a_mutant(module, old, new, found):
    sources = engine_sources()
    assert sources[module].count(old) == 1
    sources[module] = sources[module].replace(old, new)
    assert found in index_error_builders(sources)


@pytest.mark.parametrize("module, old, new, name", [
    ("jumps.py", "    eta = initial_state(eta, StateVector, cfg.H.dim)\n",
     "    if abs(eta.norm2() - 1.0) > 1e-8:\n        raise ValidationError('not normalized')\n",
     "_jump_batch"),
    ("diffusion.py", "    rho = initial_state(rho0, DensityMatrix, D)\n",
     "    rho = DensityMatrix(rho0)\n    if not np.trace(rho.entries).real == 1:\n"
     "        raise ValidationError('no unit trace')\n", "_density_states"),
], ids=["norm", "trace"])
def test_unit_check_sees_a_mutant(module, old, new, name):
    source = (PACKAGE / module).read_text()
    assert source.count(old) == 1
    assert unit_size_comparisons(source.replace(old, new), BATCH_FUNCTIONS[module]) == [name]


# Each rule on a model parameter (M, nu, hbar) is written once, in
# linalg.check_model, and the CLI reaches the engines only through their
# public names.
MODEL_RULES = ("M must be >= 1", "nu >= 0 required", "hbar must be positive")


def package_sources() -> dict[str, str]:
    return {path.name: path.read_text() for path in MODULES}


def rule_builders(sources: dict[str, str], rules=MODEL_RULES) -> list[tuple[str, str]]:
    """(module, top-level definition) of each string that states one of the
    rules (by default the model rules)."""
    found = set()
    for module, source in sources.items():
        for top in ast.parse(source).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                        and any(rule in node.value for rule in rules)):
                    found.add((module, getattr(top, "name", "<module>")))
    return sorted(found)


def private_imports(source: str) -> list[str]:
    """Names with a leading underscore that a module imports from the package."""
    return sorted(alias.name for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom) and node.level > 0
                  for alias in node.names if alias.name.startswith("_"))


def test_one_function_states_the_model_rules():
    assert rule_builders(package_sources()) == [("linalg.py", "check_model")]


def test_cli_imports_no_private_engine_name():
    assert private_imports((PACKAGE / "cli.py").read_text()) == []


@pytest.mark.parametrize("module, old, new, found", [
    # a config checking hbar itself again
    ("jumps.py", "        check_model(nu=self.nu, hbar=self.hbar)\n",
     "        check_model(nu=self.nu)\n        if not self.hbar > 0:\n"
     "            raise ValidationError(f'hbar must be positive, got {self.hbar}')\n",
     ("jumps.py", "JumpConfig")),
    # the spec layer's own particle-count check
    ("cli.py", '"M": (int, None, None),', '"M": (int, lambda M: M >= 1, "M must be >= 1"),',
     ("cli.py", "<module>")),
], ids=["config-copy", "cli-copy"])
def test_model_rule_check_sees_a_mutant(module, old, new, found):
    sources = package_sources()
    assert sources[module].count(old) == 1
    sources[module] = sources[module].replace(old, new)
    assert found in rule_builders(sources)


# Each rule on a matrix argument is stated in one linalg function, which
# every function that takes a matrix calls: the value types and as_matrix
# through _checked, the Hermitian ones through check_hermitian.
MATRIX_RULES = {"must be square": "_checked", "contains non-finite entries": "_checked",
                "is not Hermitian": "check_hermitian"}


@pytest.mark.parametrize("rule", MATRIX_RULES)
def test_one_linalg_function_states_each_matrix_rule(rule):
    assert rule_builders(package_sources(), [rule]) == [("linalg.py", MATRIX_RULES[rule])]


def test_matrix_rule_check_sees_a_mutant():
    # the RK4 oracle checking its initial density itself again
    sources = package_sources()
    old = '    check_hermitian(arr, "rho0")\n'
    assert sources["ensemble.py"].count(old) == 1
    sources["ensemble.py"] = sources["ensemble.py"].replace(
        old, "    if not np.allclose(arr, arr.conj().T):\n"
             "        raise ValidationError('rho0 is not Hermitian')\n")
    assert ("ensemble.py", "rk4_solve") in rule_builders(sources, ["is not Hermitian"])


def test_private_import_check_sees_a_mutant():
    source = (PACKAGE / "cli.py").read_text()
    old = "from .jumps import JumpConfig\n"
    assert source.count(old) == 1
    new = "from .jumps import JumpConfig, _record_times\n"
    assert private_imports(source.replace(old, new)) == ["_record_times"]


def import_time_modules(source: str) -> list[str]:
    """Absolute modules a module imports when it is itself imported: every
    import statement outside a function body."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                found.extend(alias.name for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                found.append(child.module)
            visit(child)

    visit(ast.parse(source))
    return found


def scipy_imports(source: str) -> list[str]:
    return [m for m in import_time_modules(source) if m.split(".")[0] == "scipy"]


# The engines need numpy alone: scipy (about 45 MB of resident memory and a
# third of a second) is loaded only inside the function that needs it.
@pytest.mark.parametrize("path", [PACKAGE / "__init__.py", *MODULES], ids=lambda p: p.name)
def test_no_module_imports_scipy_when_imported(path):
    assert scipy_imports(path.read_text()) == []


def test_import_time_scipy_check_sees_a_mutant():
    source = (PACKAGE / "meter.py").read_text()
    old = "import numpy as np\n"
    assert source.count(old) == 1
    mutant = source.replace(old, old + "from scipy.interpolate import CubicSpline\n")
    assert scipy_imports(mutant) == ["scipy.interpolate"]
    # The same import inside a function is not loaded with the module.
    assert "from scipy.interpolate import CubicSpline" in source


# The memory rule has one owner: errors.check_memory alone reads
# physical_memory and builds the size text, so a test patches one name.
MEMORY_GATE = [("errors.py", "check_memory")]
MEMORY_TEXT = ["must be at most"]


def memory_readers(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, top-level definition) of each call of physical_memory."""
    return sorted({(module, getattr(top, "name", "<module>"))
                   for module, source in sources.items() for top in ast.parse(source).body
                   if called(top, {"physical_memory"})})


def test_one_gate_reads_memory_and_states_the_size_rule():
    sources = package_sources()
    assert memory_readers(sources) == MEMORY_GATE
    assert rule_builders(sources, MEMORY_TEXT) == MEMORY_GATE


def test_memory_gate_check_sees_a_mutant():
    # the density kernel restating its own comparison and text
    sources = package_sources()
    old = ('    check_memory(f"paths of a D={D} density batch", n, per_path, "paths", '
           'fixed=64 * D ** 4)\n')
    assert sources["diffusion.py"].count(old) == 1
    sources["diffusion.py"] = sources["diffusion.py"].replace(
        old, "    if 64 * D ** 4 + n * per_path > physical_memory():\n"
             "        raise ValidationError(f'n must be at most 0, got {n}')\n")
    found = ("diffusion.py", "_density_states")
    assert found in memory_readers(sources)
    assert found in rule_builders(sources, MEMORY_TEXT)


# An event batch's charge is written once: the batch's own check, the chunk
# sizing and the window of trajectory_chunks all read jumps._event_charge,
# and the window is arithmetic on the count that check_memory returns, with
# no retry on its error.
EVENT_CONSTANTS = {"_EVENT_BYTES", "_SAMPLE_BYTES"}
EVENT_CHARGE = [("jumps.py", "_event_charge")]


def constant_readers(sources: dict[str, str], names=EVENT_CONSTANTS) -> list[tuple[str, str]]:
    """(module, top-level definition) of each read of one of names."""
    return sorted({(module, getattr(top, "name", "<module>"))
                   for module, source in sources.items() for top in ast.parse(source).body
                   for node in ast.walk(top)
                   if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                   and node.id in names})


def validation_retries(source: str) -> list[int]:
    """Lines of the handlers of source that catch ValidationError."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ExceptHandler) and node.type is not None
            and "ValidationError" in ast.unparse(node.type)]


def test_one_function_states_the_event_charge():
    sources = package_sources()
    assert constant_readers(sources) == EVENT_CHARGE
    assert validation_retries(sources["ensemble.py"]) == []


@pytest.mark.parametrize("module, old, new, found", [
    # the chunk sizing restating the row formula
    ("ensemble.py", "        row, fixed = _event_charge(rate, T, sample_times.size, copies)\n",
     "        row = _SAMPLE_BYTES * sample_times.size + _EVENT_BYTES * _event_bound(rate, T)\n"
     "        fixed = 0\n", ("ensemble.py", "trajectory_chunks")),
    # the draws checking their events again
    ("jumps.py", "    streams = Streams(seed, indices)\n",
     "    check_memory('batch rows', n, _EVENT_BYTES * events, 'event rows')\n"
     "    streams = Streams(seed, indices)\n", ("jumps.py", "_event_draws")),
], ids=["sizing", "draws"])
def test_event_charge_check_sees_a_mutant(module, old, new, found):
    sources = package_sources()
    assert sources[module].count(old) == 1
    sources[module] = sources[module].replace(old, new)
    assert found in constant_readers(sources)


def test_retry_check_sees_a_mutant():
    # a worker count found by catching the gate's error
    source = (PACKAGE / "ensemble.py").read_text()
    old = "def run_trajectories(\n"
    assert source.count(old) == 1
    mutant = source.replace(old, (
        "def _fitting_workers(n_workers, size, row):\n"
        "    for n in range(n_workers, 1, -1):\n"
        "        try:\n"
        "            check_memory('rows in flight', n * size, row, 'rows')\n"
        "            return n\n"
        "        except ValidationError:\n"
        "            pass\n"
        "    return 1\n\n\n") + old)
    assert len(validation_retries(mutant)) == 1


# The CLI streams an ensemble run: it consumes trajectory_chunks one chunk
# at a time, and builds no whole run's columns, as run_trajectories,
# EventColumns.concat or a concatenation of chunk columns would.
WHOLE_RUN = {"run_trajectories", "concat", "concatenate"}


def whole_run_callers(source: str) -> list[str]:
    """The top-level definitions of source that build a whole run's columns."""
    return sorted({getattr(top, "name", "<module>") for top in ast.parse(source).body
                   if called(top, WHOLE_RUN)})


def test_cli_streams_the_chunks_of_a_run():
    source = (PACKAGE / "cli.py").read_text()
    assert whole_run_callers(source) == []
    assert callers(PACKAGE / "cli.py", {"trajectory_chunks"}) == ["_run_ensemble"]


@pytest.mark.parametrize("old, new", [
    ("    chunks = trajectory_chunks(", "    chunks = run_trajectories("),
    ("        cols = series_columns(map(write, chunks), spec.n_traj)\n",
     "        cols = EventColumns.concat(list(map(write, chunks)))\n"),
    ("        cols = series_columns(map(write, chunks), spec.n_traj)\n",
     "        cols = np.concatenate([c.weights for c in map(write, chunks)])\n"),
], ids=["whole-run", "concat", "concatenate"])
def test_stream_check_sees_a_mutant(old, new):
    source = (PACKAGE / "cli.py").read_text()
    assert source.count(old) == 1
    assert whole_run_callers(source.replace(old, new)) == ["_run_ensemble"]
