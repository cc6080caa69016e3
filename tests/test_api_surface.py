"""Every public top-level name of a kslab module is used by the program.

A public function, class or constant that only tests reach is either wired
into the program or deleted.  This walks the syntax trees of src/kslab/*.py
and perfbench/*.py and requires each public top-level name of a kslab
module to be loaded somewhere outside its own definition: as a name in its
own module or in a module that imports it by name, as an attribute of the
module, or as a "<module>.<name>" span name that the benchmark reads.

The same holds for class members: each annotated field and each method or
property (dunders aside) of a kslab class must be loaded as an attribute,
``x.<name>``, somewhere in that code outside its own definition.  Members
are matched by name only, whatever the object they are loaded from.

And each parameter with a default, of any function in src/kslab, must be
passed by some call in that code, by keyword or by position; a call with
*args or **kwargs passes every parameter.  Functions are matched by name
only, as members are.

And ``verify`` builds its kinetic runs only in ``RunCache``, which summarizes
each as ``simulate`` does, so a criterion checks the code that writes a run.
Likewise ``cli`` and ``verify`` draw a particle ensemble only through
``frequency.draw``, so criterion 8 checks the start that ``simulate`` draws,
and only ``particle._advance`` takes particle RK4 steps, so particle runs and
criterion 10 share one stepping loop.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "kslab"
FILES = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
MODULES = {path.stem for path in SRC.glob("*.py")}
SPAN = re.compile(r"(\w+)\.(\w+)")


def public_definitions(tree):
    """(name, node) for each public top-level function, class and assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        yield from ((name, node) for name in names if not name.startswith("_"))


def imports(tree):
    """(local alias -> kslab module, local name -> kslab module it came from)."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("kslab.") and a.asname:
                    modules[a.asname] = a.name.split(".", 1)[1]
        elif isinstance(node, ast.ImportFrom):
            # src/kslab imports relative to the package, perfbench absolutely
            source = ".".join(["kslab"] * (node.level == 1) + [node.module or ""]).strip(".")
            if source == "kslab":
                modules.update((a.asname or a.name, a.name) for a in node.names)
            elif source.startswith("kslab."):
                names.update((a.asname or a.name, source[6:]) for a in node.names)
    return modules, names


def uses(path, tree):
    """((module, name), node) for each load that can reach a kslab name."""
    own = path.stem if path.parent == SRC else None
    modules, names = imports(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            for module in {own, names.get(node.id)} - {None}:
                yield (module, node.id), node
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            yield (modules[node.value.id], node.attr), node
        elif (own is None and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and SPAN.fullmatch(node.value) and node.value.split(".")[0] in MODULES):
            yield tuple(node.value.split(".")), node


def test_every_public_name_is_used_by_the_program():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in FILES}
    used = {}
    for path, tree in trees.items():
        for key, node in uses(path, tree):
            used.setdefault(key, set()).add(id(node))
    unused = []
    for path, tree in trees.items():
        if path.parent != SRC:
            continue
        for name, node in public_definitions(tree):
            inside = {id(n) for n in ast.walk(node)}
            if not used.get((path.stem, name), set()) - inside:
                unused.append(f"{path.stem}.{name}")
    assert not unused, f"public names that no program code loads: {unused}"


def class_members(tree):
    """(class, member, node) for each annotated field and non-dunder method
    or property of each class in the tree."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                name = node.target.id
            elif isinstance(node, ast.FunctionDef):
                name = node.name
            else:
                continue
            if not (name.startswith("__") and name.endswith("__")):
                yield cls.name, name, node


def test_every_class_member_is_read_by_the_program():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in FILES}
    loads = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads.setdefault(node.attr, set()).add(id(node))
    unused = []
    for path, tree in trees.items():
        if path.parent != SRC:
            continue
        for cls, name, node in class_members(tree):
            inside = {id(n) for n in ast.walk(node)}
            if not loads.get(name, set()) - inside:
                unused.append(f"{path.stem}.{cls}.{name}")
    assert not unused, f"class members that no program code reads: {unused}"


def defaulted_parameters(fn):
    """(name, position) of each parameter of fn that has a default: position
    among the arguments a call passes (self or cls aside), None if the
    parameter is keyword-only."""
    args = fn.args.posonlyargs + fn.args.args
    if args and args[0].arg in ("self", "cls"):
        args = args[1:]
    first = len(args) - len(fn.args.defaults)
    yield from ((a.arg, i) for i, a in enumerate(args) if i >= first)
    yield from ((a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                if d is not None)


def passes(call, name, position):
    """Whether call passes the parameter: by keyword, by position, or
    possibly through *args or **kwargs."""
    return (any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg in (None, name) for k in call.keywords)
            or (position is not None and position < len(call.args)))


def test_every_defaulted_parameter_is_passed_by_the_program():
    # a default that no program call overrides is a knob only tests turn
    trees = {path: ast.parse(path.read_text(), str(path)) for path in FILES}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                calls.setdefault(name, []).append(node)
    unpassed = []
    for path, tree in trees.items():
        if path.parent != SRC:
            continue
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                unpassed.extend(f"{path.stem}.{fn.name}({name}=...)"
                                for name, position in defaulted_parameters(fn)
                                if not any(passes(call, name, position)
                                           for call in calls.get(fn.name, [])))
    assert not unpassed, f"defaulted parameters that no program call passes: {unpassed}"


def test_verify_builds_kinetic_runs_only_in_the_run_cache():
    tree = ast.parse((SRC / "verify.py").read_text())
    builders = {("kinetic", "run"), ("kinetic", "state_from_profile"), ("diag", "RecordSampler")}
    cache = next(node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "RunCache")
    inside = {id(node) for node in ast.walk(cache)}
    outside = [f"verify.py:{node.lineno}" for node in ast.walk(tree)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and isinstance(node.func.value, ast.Name)
               and (node.func.value.id, node.func.attr) in builders and id(node) not in inside]
    assert not outside, f"kinetic runs built outside RunCache: {outside}"


def test_particle_start_is_drawn_only_by_frequency_draw():
    samplers = {("freq", "sample_phases"), ("freq", "sample")}
    found = [f"{name}:{node.lineno}" for name in ("cli.py", "verify.py")
             for node in ast.walk(ast.parse((SRC / name).read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name)
             and (node.func.value.id, node.func.attr) in samplers]
    assert not found, f"particle ensembles drawn outside frequency.draw: {found}"


def test_particle_steps_are_taken_only_in_the_stepping_loop():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        loop = [node for node in tree.body if path.stem == "particle"
                and isinstance(node, ast.FunctionDef) and node.name == "_advance"]
        inside = {id(node) for fn in loop for node in ast.walk(fn)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in inside
                  and "_mean_field_step" in (getattr(node.func, "id", None),
                                             getattr(node.func, "attr", None))]
    assert not found, f"particle steps taken outside particle._advance: {found}"
