"""Every public function and class of the layer modules (those with an
``__all__``) is used by some module of the package, or it is listed here;
every public method, property and dataclass field of those classes is read
by some module of the package; and a rule has one owner: the CLI reads only
the listed library privates, only ``_blocks`` reads the shared table, and
only ``errors`` defines an exception class."""

import ast
import builtins
import pathlib
from collections import Counter

import enslab

SOURCE = pathlib.Path(enslab.__file__).parent

# public names that only tests reach. hamiltonian and liouville_check state
# a paper claim (energy conservation, phase volume) that no run reports yet;
# integrate is the single-trajectory entry point the physics tests drive;
# binned_phase_entropy is the public twin of the spin-echo workers' entropy
# kernel, which the benchmark traces.
UNREACHED = {
    "conefall.hamiltonian",
    "conefall.liouville_check",
    "conefall.integrate",
    "spinecho.binned_phase_entropy",
}


def exported(tree) -> set:
    """The names a module lists in ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def public_definitions(tree) -> set:
    """The functions and classes a module defines and lists in ``__all__``."""
    defined = (node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef)))
    return {name for name in defined if name in exported(tree)}


def public_members(module: str, tree) -> set:
    """``module.Class.name`` for every method and property, not starting with
    an underscore, of the classes a module lists in ``__all__``."""
    names = exported(tree)
    classes = (node for node in tree.body if isinstance(node, ast.ClassDef) and node.name in names)
    return {
        f"{module}.{cls.name}.{node.name}"
        for cls in classes
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }


def public_fields(tree) -> list:
    """``(class node, field name)`` for every annotated field, not starting
    with an underscore, of the dataclasses a module lists in ``__all__``."""
    names = exported(tree)
    dataclasses = (
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and node.name in names
        and any("dataclass" in ast.unparse(d) for d in node.decorator_list)
    )
    return [
        (cls, node.target.id)
        for cls in dataclasses
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name) and not node.target.id.startswith("_")
    ]


def references(module: str, tree) -> set:
    """The ``module.name`` pairs a module's code uses: its own names it loads
    (a name that is only assigned, such as a dataclass field, is not used),
    and the names it reads as attributes of a sibling or imports from one."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(f"{module}.{node.id}")
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            found.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
    return found


def parsed_sources() -> dict:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}


def test_every_public_name_is_used_by_the_package_or_listed():
    trees = parsed_sources()
    public = {f"{module}.{name}" for module, tree in trees.items() for name in public_definitions(tree)}
    used = set().union(*(references(module, tree) for module, tree in trees.items()))
    assert public - used == UNREACHED


def test_every_public_member_is_read_by_the_package():
    # a member counts as read when any package code reads an attribute of
    # its name, on whatever object
    trees = parsed_sources()
    members = set().union(*(public_members(module, tree) for module, tree in trees.items()))
    nodes = (node for tree in trees.values() for node in ast.walk(tree))
    read = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    assert members  # the walk finds the classes' members at all
    assert {m for m in members if m.rsplit(".", 1)[1] not in read} == set()


def loaded_attributes(root) -> Counter:
    """How often each attribute name is read under ``root``."""
    return Counter(
        node.attr for node in ast.walk(root) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )


def test_every_public_field_is_read_by_the_package():
    # a field counts as read when package code outside its own class's
    # __post_init__ reads an attribute of its name, on whatever object
    trees = parsed_sources()
    reads = sum(map(loaded_attributes, trees.values()), Counter())
    fields, unread = 0, set()
    for module, tree in trees.items():
        for cls, name in public_fields(tree):
            fields += 1
            inits = [node for node in cls.body if isinstance(node, ast.FunctionDef) and node.name == "__post_init__"]
            if reads[name] == sum(map(loaded_attributes, inits), Counter())[name]:
                unread.add(f"{module}.{cls.name}.{name}")
    assert fields  # the walk finds the dataclasses' fields at all
    assert unread == set()


# the private names of sibling modules that cli.py reads: the blocks' thread
# pair and CPU count. Every rule is the library's own, checked where it is
# applied (the field's config rules by randomfield.check_config, before the
# field is built), so a new reach into a private fails here
CLI_PRIVATE_READS = {"_blocks._both", "_blocks._cpu_count"}


def test_the_cli_reads_only_the_listed_library_privates():
    trees = parsed_sources()
    siblings = set(trees) - {"cli"}
    reads = set()
    for node in ast.walk(trees["cli"]):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in siblings:
            names = [(node.value.id, node.attr)]
        elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in siblings:
            names = [(node.module, alias.name) for alias in node.names]
        else:
            continue
        reads.update(f"{module}.{name}" for module, name in names if name.startswith("_") and not name.startswith("__"))
    assert reads == CLI_PRIVATE_READS


def modules_reading(name: str, trees: dict) -> set:
    """The modules whose code loads ``name``, bare or as an attribute."""
    return {
        module
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == name) or (isinstance(node, ast.Attribute) and node.attr == name)
    }


def test_only_the_fork_join_reads_the_shared_table():
    # _fork_join allocates numpy's table, then the mapping, and copies one
    # into the other; its callers get numpy's table back
    assert modules_reading("_shared_table", parsed_sources()) == {"_blocks"}


def exception_classes(trees: dict) -> set:
    """``module.Class`` for every class, at any depth, with a base that is a
    builtin exception or another such class of the package."""
    classes = [
        (module, node, {ast.unparse(base).rsplit(".", 1)[-1] for base in node.bases})
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    ]
    known = {name for name, obj in vars(builtins).items() if isinstance(obj, type) and issubclass(obj, BaseException)}
    found = set()
    while True:
        new = {(module, cls.name) for module, cls, bases in classes if bases & known} - found
        if not new:
            return {f"{module}.{name}" for module, name in found}
        found |= new
        known |= {name for _, name in new}


def test_only_errors_defines_exception_classes():
    trees = parsed_sources()
    assert exception_classes(trees) == {"errors.EnslabError", "errors.ValidationError", "errors.NumericsError"}
